"""The repository benchmark: ``optimize``, ``evaluate`` and ``service``.

Run from the repository root::

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 22 --trace 0

Every workload runs in fresh interpreters (``child.py``), never in this
one, so process-wide memo caches start cold on every run.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, each in its own
process, and measures the timed loop in the last one.  It prints the
end-to-end metrics named in ``BENCHMARK.json``; ``setup_s`` is the median
set-up time.  The timings of the loop are in ``ref`` units: multiples of
the median time of a fixed reference loop timed between the operations
(``workloads.reference_loop``), so that they follow the program more
than the shared host's changing speed.

``--trace 1`` runs the loop untraced for ``--seconds``, then repeats the
same operations in a process with every layer boundary wrapped, and prints
the per-layer metrics: layer self times, the part of the traced time no
span covers, and the tracing overhead (traced minus untraced).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from stats import (
    MIN_SAMPLES_ABOVE,
    failed_ratio,
    highest_counted_percentile,
    median,
    percentile,
    percentile_counts,
    samples_above,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("optimize", "evaluate", "service")
SETUP_REPEATS = 3
#: The tail percentile every workload reports.  It keeps at least ten
#: samples above it whenever a run holds 40 samples; runs measured on a
#: busy 2-vCPU host held at least 76 jobs, 120 SA iterations and 220
#: scorings.
TAIL = 75
#: Whole-run budget: every child gets what is left of it.
BUDGET_S = 170.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or wrote no result."""


def run_child(
    workload: str,
    seed: int,
    mode: str,
    workdir: Path,
    deadline: float,
    seconds: float = 0.0,
    trace: int = 0,
    max_ops: Optional[int] = None,
) -> Dict[str, Any]:
    out = workdir / f"{mode}-{trace}-{time.monotonic_ns()}.json"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--workdir",
        str(workdir / "child"),
        "--out",
        str(out),
    ]
    if max_ops is not None:
        command += ["--max-ops", str(max_ops)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise ChildFailed("out of time before the child could start")
    # Its own process group, so a timeout also stops the server it started.
    child = subprocess.Popen(command, stdout=sys.stderr, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise ChildFailed(f"{mode} child timed out") from exc
    if code != 0 or not out.exists():
        raise ChildFailed(f"{mode} child exited with {code}")
    return json.loads(out.read_text())


def metric_specs() -> Dict[str, List[Dict[str, Any]]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def timings(measured: Dict[str, Any]) -> Dict[str, float]:
    """The loop's latencies and throughput, in seconds and in ``ref`` units."""
    samples = measured["samples"]
    ref_s = median(measured["ref"])
    values = {
        "ref_s": ref_s,
        "op_s.p50": percentile(samples, 50),
        f"op_s.p{TAIL}": percentile(samples, TAIL),
        "ops_per_s": measured["units"] / measured["busy_s"],
    }
    values["op_ref.p50"] = values["op_s.p50"] / ref_s
    values[f"op_ref.p{TAIL}"] = values[f"op_s.p{TAIL}"] / ref_s
    values["ops_per_ref"] = values["ops_per_s"] * ref_s
    return values


def end_to_end(measured: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    samples = measured["samples"]
    log(
        f"{len(samples)} latency samples, {samples_above(samples, TAIL)} above p{TAIL}; "
        f"the highest percentile that counts is p{highest_counted_percentile(samples):g}"
    )
    if not percentile_counts(samples, TAIL):
        log(f"warning: op_ref.p{TAIL} has fewer than {MIN_SAMPLES_ABOVE} samples above it")
    values = timings(measured)
    log(
        "in seconds: "
        + ", ".join(f"{name} {values[name]:.4g}" for name in values if "_s" in name)
    )
    values.update(
        qor_delay_ratio=measured["report"]["qor_delay_ratio"],
        qor_area_ratio=measured["report"]["qor_area_ratio"],
        setup_s=median(setups),
    )
    return values


class AttributionGap(RuntimeError):
    """The layer self times and the uncovered time miss part of the traced run."""


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    values: Dict[str, float] = dict(untraced["report"])
    values.update(timings(untraced))
    values.update(traced["layers"])
    layer_self = sum(value for name, value in traced["layers"].items() if name.startswith("layer."))
    traced_s = traced["op_total_s"]
    covered = layer_self + values["trace.unattributed_s"]
    if abs(covered - traced_s) > 1e-6 + 1e-9 * traced_s:
        raise AttributionGap(
            f"layer self times plus unattributed time are {covered:.6f} s, "
            f"the traced operations took {traced_s:.6f} s"
        )
    values["trace.untraced_s"] = untraced["op_total_s"]
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced["op_total_s"]
    values["failed_ratio"] = failed_ratio(untraced["attempted"], untraced["failed"])
    values["op_s.samples"] = float(len(untraced["samples"]))
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    specs = metric_specs()
    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace == 0:
            setups = []
            for repeat in range(SETUP_REPEATS - 1):
                result = run_child(args.workload, args.seed, "setup", workdir, deadline)
                setups.append(result["setup_s"])
                log(f"set-up {repeat + 1}: {result['setup_s']:.3f} s")
            measured = run_child(
                args.workload, args.seed, "measure", workdir, deadline, seconds=args.seconds
            )
            setups.append(measured["setup_s"])
            log(f"set-up {SETUP_REPEATS}: {measured['setup_s']:.3f} s")
            values = end_to_end(measured, setups)
            wanted = specs["end_to_end"]
            attempted, failed = measured["attempted"], measured["failed"]
            reasons = measured["reasons"]
        else:
            untraced = run_child(
                args.workload, args.seed, "measure", workdir, deadline, seconds=args.seconds
            )
            traced = run_child(
                args.workload,
                args.seed,
                "measure",
                workdir,
                deadline,
                seconds=BUDGET_S,
                trace=1,
                max_ops=untraced["ops"],
            )
            values = per_layer(untraced, traced)
            wanted = specs["per_layer"]
            attempted = untraced["attempted"] + traced["attempted"]
            failed = untraced["failed"] + traced["failed"]
            reasons = untraced["reasons"] + traced["reasons"]
            for key, outcome in traced["digest"].items():
                if key in untraced["digest"] and untraced["digest"][key] != outcome:
                    failed += 1
                    reasons.append(f"{key}: the traced run produced a different result")
    except (ChildFailed, AttributionGap) as exc:
        log(f"failed: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only succeeds once no run uses it
        except OSError:
            pass
    for reason in reasons:
        log(f"failed operation {reason}")
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in wanted
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
