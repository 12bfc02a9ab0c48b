"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import threading

import pytest

from stats import (
    MIN_SAMPLES_ABOVE,
    Tally,
    failed_ratio,
    highest_counted_percentile,
    percentile,
    percentile_counts,
    samples_above,
)
from tracing import Recorder, Span, attribute, depths, op_counters


def span(sid, name, start, end, parent=0, op="a"):
    return Span(sid, name, start, end, parent, op)


# --------------------------------------------------------------------------- #
# span self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_is_duration_minus_children():
    spans = [
        span(1, "opt.annealing", 0, 10, op="op0"),
        span(2, "transforms.apply_script", 1, 3, parent=1, op="op0"),
        span(3, "api.cached_evaluate", 6, 7, parent=1, op="op0"),
        span(4, "mapping.map", 6.2, 6.9, parent=3, op="op0"),
    ]
    totals, uncovered = attribute(spans, [(["op0"], 0, 12)])
    assert totals["opt.annealing"] == pytest.approx(10 - 2 - 1)
    assert totals["transforms.apply_script"] == pytest.approx(2)
    assert totals["api.cached_evaluate"] == pytest.approx(1 - 0.7)
    assert totals["mapping.map"] == pytest.approx(0.7)
    # Self times plus the time in no span make up the op's latency.
    assert uncovered == pytest.approx(2)
    assert sum(totals.values()) + uncovered == pytest.approx(12)


def test_server_work_covers_the_client_wait():
    server = 10**9
    spans = [
        span(1, "service.client.wait", 0, 10, op="job#0"),
        span(server + 1, "service.execute", 2, 8, op="job"),
        span(server + 2, "opt.annealing", 3, 7, parent=server + 1, op="job"),
        span(server + 3, "service.http", 4, 5, op="job"),  # a poll meanwhile
    ]
    totals, uncovered = attribute(spans, [(["job", "job#0"], 0, 10)])
    assert uncovered == 0
    assert totals["service.client.wait"] == pytest.approx(4)
    assert totals["service.execute"] == pytest.approx(2)
    assert totals["opt.annealing"] == pytest.approx(4)
    assert "service.http" not in totals


def test_attribute_sums_self_time_inside_op_windows():
    spans = [
        span(1, "opt.annealing", 0, 4, op="op0"),
        span(2, "transforms.rewrite", 1, 2, parent=1, op="op0"),
        span(3, "opt.annealing", 5, 7, op="op1"),
        span(4, "datagen.label", 8, 9, op=None),  # set-up: in no op
    ]
    totals, uncovered = attribute(spans, [(["op0"], 0, 4), (["op1"], 5, 6), (["op2"], 7, 8)])
    assert totals["opt.annealing"] == pytest.approx(3 + 1)  # op1 clipped to half
    assert uncovered == pytest.approx(1)  # op2 has no span at all
    assert totals["transforms.rewrite"] == pytest.approx(1)
    assert "datagen.label" not in totals


def test_attribute_counts_a_shared_span_once_per_waiting_op():
    spans = [span(1, "service.execute", 0, 2, op="job")]
    totals, _ = attribute(spans, [(["job", "job#0"], 0, 2), (["job", "job#1"], 1, 2)])
    assert totals["service.execute"] == pytest.approx(3)


def test_recorder_nests_spans_and_tags_operations():
    recorder = Recorder()
    recorder.default_op = "op7"
    with recorder.span("opt.annealing") as outer:
        with recorder.span("transforms.apply_script") as inner:
            recorder.count("mapping.dp.vector_nodes", 5)
    assert inner.parent == outer.sid and outer.parent == 0
    assert {s.op for s in recorder.spans} == {"op7"}
    assert op_counters(recorder.counters, ["op7"]) == {"mapping.dp.vector_nodes": 5}
    assert op_counters(recorder.counters, ["op8"]) == {}

    def worker():
        recorder.set_thread_op("job")
        with recorder.span("service.execute"):
            pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert recorder.spans[-1].op == "job" and recorder.spans[-1].parent == 0


def test_depths_follow_parent_links():
    spans = [span(1, "a", 0, 4), span(2, "b", 1, 3, parent=1), span(3, "c", 1, 2, parent=2)]
    assert depths(spans) == {1: 0, 2: 1, 3: 2}


def test_span_rows_round_trip():
    original = span(3, "sta.analyze_timing", 1.5, 2.5, parent=2, op="op1")
    copy = Span.from_row(original.row())
    assert copy.row() == original.row()


# --------------------------------------------------------------------------- #
# the ten-samples-above rule
# --------------------------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile([5], 90) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, counts",
    [(100, True), (95, True), (91, False), (50, False)],
)
def test_p90_needs_ten_samples_above(count, counts):
    values = [float(v) for v in range(1, count + 1)]
    assert percentile_counts(values, 90) is counts
    assert (samples_above(values, 90) >= MIN_SAMPLES_ABOVE) is counts


def test_highest_counted_percentile_falls_back():
    assert highest_counted_percentile(list(range(1, 1001))) == 99
    assert highest_counted_percentile(list(range(1, 101))) == 90
    assert highest_counted_percentile(list(range(1, 51))) == 75
    assert highest_counted_percentile(list(range(1, 10))) == 0


def test_ties_at_the_percentile_are_not_above_it():
    assert samples_above([1.0] * 200, 90) == 0


# --------------------------------------------------------------------------- #
# failed_ratio accounting
# --------------------------------------------------------------------------- #
def test_failed_ratio_bounds():
    assert failed_ratio(4, 1) == 0.25
    assert failed_ratio(4, 0) == 0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(2, 3)


def test_tally_counts_each_operation_once():
    tally = Tally()
    for _ in range(4):
        tally.attempt()
    tally.fail("op1", "HTTP 500")
    tally.fail("op1", "record differs")  # same op: still one
    tally.fail("op2", "best AIG not equivalent")
    assert tally.failed == 2
    assert failed_ratio(tally.attempted, tally.failed) == 0.5
    assert tally.reasons == ["op1: HTTP 500", "op2: best AIG not equivalent"]
