"""One workload run in a fresh interpreter; started by ``run.py``.

``--mode setup`` sets the workload up and stops (it only times set-up);
``--mode measure`` sets up, runs the timed loop, checks the outputs and
writes everything ``run.py`` needs as JSON to ``--out``.  With ``--trace 1``
the program's layer boundaries are wrapped before set-up, and the spans are
reduced to per-layer figures here.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from stats import percentile  # noqa: E402
from tracing import (  # noqa: E402
    Recorder,
    Span,
    attribute,
    durations,
    install,
    lru_delta,
    lru_snapshot,
    op_counters,
)
from workloads import WORKLOADS, Workload  # noqa: E402

#: Layers of the program, named after its packages (``api`` also covers
#: ``evaluation.py``, the ground-truth evaluator behind the session).
LAYERS = (
    "transforms",
    "aig",
    "mapping",
    "sta",
    "api",
    "features",
    "ml",
    "opt",
    "datagen",
    "campaign",
    "service",
)
TRANSFORM_PASSES = ("rewrite", "refactor", "balance", "resub", "strash")


def hit_ratio(pairs: List[tuple]) -> float:
    hits = sum(pair[0] for pair in pairs)
    total = hits + sum(pair[1] for pair in pairs)
    return hits / total if total else 0.0


def layer_report(
    workload: Workload,
    spans: List[Span],
    counters: Dict[str, float],
    lru: Dict[str, tuple],
) -> Dict[str, float]:
    """Per-layer figures of a traced run, over its timed operations.

    Set-up-only layers (``datagen``, ``ml.fit``) are summed over the spans
    that belong to no operation.
    """
    ops = workload.attribution_ops()
    keys = {key for op_keys, _, _ in ops for key in op_keys}
    selfs, uncovered = attribute(spans, ops)
    timed = durations(spans, lambda span: span.op in keys)
    setup = durations(spans, lambda span: span.op is None)
    counts = op_counters(counters, keys)

    def calls(name: str) -> float:
        return float(timed.get(name, (0, 0.0))[0])

    def seconds(name: str, table: Dict[str, tuple] = timed) -> float:
        return table.get(name, (0, 0.0))[1]

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            value for name, value in selfs.items() if name.split(".", 1)[0] == layer
        )
    out["trace.traced_s"] = sum(end - start for _, start, end in ops)
    out["trace.unattributed_s"] = uncovered
    out["transforms.apply_script.calls"] = calls("transforms.apply_script")
    out["transforms.apply_script.self_s"] = selfs.get("transforms.apply_script", 0.0)
    for name in TRANSFORM_PASSES:
        out[f"transforms.{name}.s"] = seconds(f"transforms.{name}")
    out["transforms.resynth_cache.hit_ratio"] = hit_ratio([lru["resynth"]])
    out["aig.truth_cache.hit_ratio"] = hit_ratio([lru["isop"], lru["npn"]])
    out["mapping.map.calls"] = calls("mapping.map")
    out["mapping.map.s"] = seconds("mapping.map")
    out["aig.cut_arrays.s"] = seconds("aig.cut_arrays")
    out["mapping.dp.vector_nodes"] = counts.get("mapping.dp.vector_nodes", 0.0)
    out["mapping.dp.scalar_nodes"] = counts.get("mapping.dp.scalar_nodes", 0.0)
    out["sta.analyze_timing.calls"] = calls("sta.analyze_timing")
    out["sta.analyze_timing.s"] = seconds("sta.analyze_timing")
    out["api.cached_evaluate.self_s"] = selfs.get("api.cached_evaluate", 0.0)
    out["features.extract.calls"] = calls("features.extract")
    out["features.extract.s"] = seconds("features.extract")
    out["ml.predict.calls"] = calls("ml.predict")
    out["ml.predict.s"] = seconds("ml.predict")
    out["ml.fit.s"] = seconds("ml.fit", setup)
    out["opt.annealing.self_s"] = selfs.get("opt.annealing", 0.0)
    out["datagen.generate_variants.s"] = seconds("datagen.generate_variants", setup)
    out["datagen.label.s"] = seconds("datagen.label", setup)
    out["campaign.run_cells.s"] = seconds("campaign.run_cells")
    out["campaign.store.append.s"] = seconds("campaign.store.append")
    submitted: Dict[str, float] = {}
    started: Dict[str, float] = {}
    for span in sorted(spans, key=lambda span: span.start):
        if span.name == "service.submit" and span.op in keys:
            submitted.setdefault(span.op, span.end)
        elif span.name == "service.execute" and span.op in keys:
            started.setdefault(span.op, span.start)
    waits = [started[job] - submitted[job] for job in started if job in submitted]
    out["service.queue_wait_s.p50"] = percentile(waits, 50) if waits else 0.0
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder() if args.trace else None
    patches = install(recorder) if recorder is not None and args.workload != "service" else None
    workload = WORKLOADS[args.workload](args.seed, args.workdir, recorder)
    result: Dict[str, Any] = {}
    try:
        workload.setup()
        result["setup_s"] = time.perf_counter() - START
        if args.mode == "measure":
            before = lru_snapshot()
            workload.run(time.perf_counter() + args.seconds, args.max_ops)
            lru = lru_delta(before, lru_snapshot())
            workload.close()  # stops the server, which writes its spans
            if patches is not None:
                patches.undo()  # the checks below are not part of the trace
            workload.check()
            result.update(
                {
                    "ops": len(workload.ops),
                    "samples": workload.samples(),
                    "ref": workload.ref,
                    "units": workload.units(),
                    "busy_s": workload.busy_seconds(),
                    "op_total_s": sum(op["end"] - op["start"] for op in workload.ops),
                    "attempted": workload.tally.attempted,
                    "failed": workload.tally.failed,
                    "reasons": workload.tally.reasons,
                    "report": workload.report(),
                    "digest": workload.digest,
                }
            )
            if recorder is not None:
                spans = list(recorder.spans)
                counters = dict(recorder.counters)
                server = getattr(workload, "spans_path", None)
                if server is not None:
                    dump = json.loads(Path(server).read_text())
                    spans.extend(Span.from_row(row) for row in dump["spans"])
                    counters.update(dump["counters"])
                    lru = {name: tuple(pair) for name, pair in dump["lru"].items()}
                result["layers"] = layer_report(workload, spans, counters, lru)
    finally:
        workload.close()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
