"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, load_design, main
from repro.io.aiger import write_aag


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_flow_rejects_unregistered_evaluator(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["flow", "EX68", "--evaluator", "incremental"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'incremental'" in capsys.readouterr().err


def test_stats_command(capsys):
    assert main(["stats", "EX68"]) == 0
    out = capsys.readouterr().out
    assert "and nodes" in out
    assert "depth" in out


def test_stats_with_ppa(capsys):
    assert main(["stats", "EX68", "--ppa"]) == 0
    out = capsys.readouterr().out
    assert "post-map delay" in out


def test_optimize_command_writes_output(tmp_path, capsys):
    out_path = tmp_path / "opt.aag"
    assert main(["optimize", "EX68", "--script", "b", "--verify", "--output", str(out_path)]) == 0
    assert out_path.exists()
    assert "total:" in capsys.readouterr().out


def test_map_command(tmp_path, capsys):
    verilog = tmp_path / "mapped.v"
    assert main(["map", "EX68", "--verilog", str(verilog)]) == 0
    assert verilog.exists()
    assert "Max delay" in capsys.readouterr().out


def test_features_command(capsys):
    assert main(["features", "EX68"]) == 0
    out = capsys.readouterr().out
    assert "number_of_node" in out
    assert "fanout_mean" in out


def test_convert_roundtrip(tmp_path, adder_aig, capsys):
    source = tmp_path / "adder.aag"
    write_aag(adder_aig, source)
    bench_out = tmp_path / "adder.bench"
    assert main(["convert", str(source), "--bench", str(bench_out)]) == 0
    assert bench_out.exists()


def test_convert_without_target_fails(tmp_path, adder_aig):
    source = tmp_path / "adder.aag"
    write_aag(adder_aig, source)
    assert main(["convert", str(source)]) == 1


def test_unknown_design_reports_error(capsys):
    assert main(["stats", "EX99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_load_design_from_files(tmp_path, adder_aig):
    aag = tmp_path / "a.aag"
    write_aag(adder_aig, aag)
    loaded = load_design(str(aag))
    assert loaded.num_pis == adder_aig.num_pis
    loaded_by_name = load_design("EX68")
    assert loaded_by_name.num_pis == 14
