"""In-memory spans around the program's public functions, and their arithmetic.

The traced run installs wrappers from here; the program itself is not
changed.  A wrapper opens a span (name, start, end, parent span, operation
id) around one call into a layer.  Spans stay in memory and are written out
once, when the process ends.

``apply_script`` and ``analyze_timing`` are imported by name into the
modules that call them, so they are wrapped in every such module, not only
where they are defined.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A span as written to disk: [id, name, start, end, parent id, op id].
SpanRow = List[Any]


class Span:
    """One timed call into a layer (``parent`` 0 means no enclosing span)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "op")

    def __init__(
        self, sid: int, name: str, start: float, end: float, parent: int, op: Optional[str]
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    def row(self) -> SpanRow:
        return [self.sid, self.name, self.start, self.end, self.parent, self.op]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "Span":
        sid, name, start, end, parent, op = row
        return cls(int(sid), str(name), float(start), float(end), int(parent), op)


class Recorder:
    """Collects spans and counters for one process.

    The operation id of a span is read when the span closes: from the
    closing thread's own op id if it set one, else from :attr:`default_op`
    (single-caller processes set that once per operation).
    """

    def __init__(self, id_prefix: int = 0) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.default_op: Optional[str] = None
        self._ids = itertools.count(id_prefix + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_op(self, op: Optional[str]) -> None:
        """Tag spans closed by this thread with *op* (``None`` clears it)."""
        self._local.op = op

    def current_op(self) -> Optional[str]:
        op = getattr(self._local, "op", None)
        return op if op is not None else self.default_op

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].sid if stack else 0
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.op is None:
                span.op = self.current_op()
            self.spans.append(span)  # list.append is atomic under the GIL

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name* of the current operation."""
        key = f"{name}@{self.current_op()}"
        with self._lock:
            self.counters[key] += amount

    def dump(self) -> Dict[str, Any]:
        return {
            "spans": [span.row() for span in self.spans],
            "counters": dict(self.counters),
        }


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
#: Which of several spans active at once owns the time: a client waiting on
#: the server (rank 0) yields to the server's request handling (1), which
#: yields to the work itself (2), e.g. the job executing while polls come in.
SPAN_RANK = {"service.client.submit": 0, "service.client.wait": 0, "service.http": 1}


def depths(spans: Sequence[Span]) -> Dict[int, int]:
    """Nesting depth of every span (0 for a span without a recorded parent)."""
    parent = {span.sid: span.parent for span in spans}
    out: Dict[int, int] = {}
    for span in spans:
        chain = []
        sid = span.sid
        while sid in parent and sid not in out:
            chain.append(sid)
            sid = parent[sid]
        base = out.get(sid, -1)
        for offset, item in enumerate(reversed(chain), start=1):
            out[item] = base + offset
    return out


def attribute(
    spans: Sequence[Span], ops: Sequence[Tuple[Sequence[str], float, float]]
) -> Tuple[Dict[str, float], float]:
    """Self seconds per span name inside the given operation windows, and
    the seconds of those windows that no span covers.

    Each op is ``(keys, start, end)``; a span belongs to the op when its op
    id is one of *keys*.  Every instant of the window goes to one of the
    op's spans active then: the highest :data:`SPAN_RANK`, then the deepest,
    then the latest started.  For spans of one thread this is each span's
    duration minus the time its child spans cover; across processes a
    client's wait is covered by the server spans of its job.  Time inside
    no span is counted apart, so the totals plus the uncovered seconds make
    up the summed op latencies.  A span shared by two ops (two clients
    waiting on one job) counts once for each: the totals are caller-seconds.
    """
    depth = depths(spans)
    by_op: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.op is not None:
            by_op[span.op].append(span)
    totals: Dict[str, float] = defaultdict(float)
    uncovered = 0.0

    def order(span: Span) -> Tuple[int, int, float]:
        return (SPAN_RANK.get(span.name, 2), depth[span.sid], span.start)

    for keys, start, end in ops:
        mine = [
            span
            for key in keys
            for span in by_op.get(key, ())
            if span.end > start and span.start < end
        ]
        if not mine:
            uncovered += end - start
            continue
        edges = {min(max(t, start), end) for span in mine for t in (span.start, span.end)}
        points = sorted(edges | {start, end})
        for low, high in zip(points, points[1:]):
            middle = (low + high) / 2
            active = [span for span in mine if span.start <= middle < span.end]
            if active:
                totals[max(active, key=order).name] += high - low
            else:
                uncovered += high - low
    return dict(totals), uncovered


def op_counters(counters: Dict[str, float], ops: Iterable[str]) -> Dict[str, float]:
    """Counter totals over the operations with ids in *ops*."""
    wanted = set(ops)
    totals: Dict[str, float] = defaultdict(float)
    for key, value in counters.items():
        name, _, op = key.rpartition("@")
        if op in wanted:
            totals[name] += value
    return dict(totals)


def durations(spans: Sequence[Span], keep: Callable[[Span], bool]) -> Dict[str, Tuple[int, float]]:
    """(calls, total seconds) per span name over the spans *keep* accepts."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        if keep(span):
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start
    return {name: (int(calls), seconds) for name, (calls, seconds) in out.items()}


# --------------------------------------------------------------------------- #
# Wrappers around the program's public functions
# --------------------------------------------------------------------------- #
def _wrap(recorder: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()


_MISSING = object()


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary the workloads cross; returns the undo log."""
    import repro.aig.cut_arrays as cut_arrays
    import repro.campaign.runner as runner
    import repro.campaign.store as store
    import repro.datagen.generator as generator
    import repro.datagen.labeler as labeler
    import repro.datagen.perturb as perturb
    import repro.evaluation as evaluation
    import repro.mapping.dp_arrays as dp_arrays
    import repro.mapping.mapper as mapper
    import repro.opt.annealing as annealing
    import repro.sta.analysis as sta_analysis
    import repro.transforms.engine as engine
    from repro.api.evaluators import CachedEvaluator
    from repro.api.session import SynthesisSession
    from repro.features.extract import FeatureExtractor
    from repro.ml.gbdt import GradientBoostingRegressor
    from repro.transforms.balance import Balance
    from repro.transforms.refactor import Refactor
    from repro.transforms.resub import Resubstitute
    from repro.transforms.rewrite import Rewrite
    from repro.transforms.strash import Strash

    patches = Patches()

    def function(modules: Sequence[Any], attr: str, name: str) -> None:
        wrapped = _wrap(recorder, name, getattr(modules[0], attr))
        for module in modules:
            patches.replace(module, attr, wrapped)

    def method(cls: Any, attr: str, name: str) -> None:
        patches.replace(cls, attr, _wrap(recorder, name, getattr(cls, attr)))

    # transforms (the engine entry point and each pass)
    function([engine, annealing, perturb], "apply_script", "transforms.apply_script")
    for cls, name in (
        (Rewrite, "rewrite"),
        (Refactor, "refactor"),
        (Balance, "balance"),
        (Resubstitute, "resub"),
        (Strash, "strash"),
    ):
        method(cls, "run", f"transforms.{name}")
    # aig + mapping + sta
    function([cut_arrays, dp_arrays], "build_cut_arrays", "aig.cut_arrays")
    original_map = mapper.TechnologyMapper.map

    @functools.wraps(original_map)
    def mapped(self: Any, aig: Any) -> Any:
        with recorder.span("mapping.map"):
            result = original_map(self, aig)
        stats = self.last_dp_stats
        if stats is not None:
            recorder.count("mapping.dp.vector_nodes", stats.vector_nodes)
            recorder.count("mapping.dp.scalar_nodes", stats.scalar_nodes)
        return result

    patches.replace(mapper.TechnologyMapper, "map", mapped)
    function([sta_analysis, evaluation], "analyze_timing", "sta.analyze_timing")
    # api
    method(SynthesisSession, "optimize", "api.optimize")
    method(CachedEvaluator, "evaluate", "api.cached_evaluate")
    method(evaluation.GroundTruthEvaluator, "evaluate", "api.ground_truth_evaluate")
    # features + ml
    method(FeatureExtractor, "extract", "features.extract")
    method(GradientBoostingRegressor, "predict", "ml.predict")
    method(GradientBoostingRegressor, "fit", "ml.fit")
    # opt
    method(annealing.SimulatedAnnealing, "run", "opt.annealing")
    # datagen
    function([perturb, generator], "generate_variants", "datagen.generate_variants")
    method(labeler.Labeler, "label", "datagen.label")
    # campaign
    method(store.ResultStore, "append", "campaign.store.append")
    function([runner], "execute_cell", "campaign.execute_cell")
    return patches


def install_service(recorder: Recorder) -> Patches:
    """:func:`install` plus the server's own boundaries, tagged by job id."""
    import repro.service.jobs as jobs
    from repro.service.server import ServiceHandler

    patches = install(recorder)
    patches.replace(
        jobs, "run_cells", _wrap(recorder, "campaign.run_cells", jobs.run_cells)
    )
    original_submit = jobs.JobManager.submit
    original_execute = jobs.JobManager._execute
    original_get = ServiceHandler.do_GET
    original_post = ServiceHandler.do_POST

    @functools.wraps(original_submit)
    def submit(self: Any, submission: Any) -> Any:
        with recorder.span("service.submit") as span:
            job, created = original_submit(self, submission)
            span.op = job["job_id"]
        recorder.set_thread_op(job["job_id"])
        return job, created

    @functools.wraps(original_execute)
    def execute(self: Any, cell: Any) -> Any:
        recorder.set_thread_op(cell.cell_id)
        try:
            with recorder.span("service.execute"):
                return original_execute(self, cell)
        finally:
            recorder.set_thread_op(None)

    @functools.wraps(original_get)
    def do_get(self: Any) -> Any:
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        recorder.set_thread_op(parts[1] if len(parts) >= 2 and parts[0] == "jobs" else None)
        try:
            with recorder.span("service.http"):
                return original_get(self)
        finally:
            recorder.set_thread_op(None)

    @functools.wraps(original_post)
    def do_post(self: Any) -> Any:
        recorder.set_thread_op(None)
        try:
            with recorder.span("service.http"):
                return original_post(self)
        finally:
            recorder.set_thread_op(None)

    patches.replace(jobs.JobManager, "submit", submit)
    patches.replace(jobs.JobManager, "_execute", execute)
    patches.replace(ServiceHandler, "do_GET", do_get)
    patches.replace(ServiceHandler, "do_POST", do_post)
    return patches


def lru_snapshot() -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of the process-global memo caches the transforms use."""
    from repro.aig.truth import _isop_cached, npn_canonical
    from repro.transforms.resynth import resynth_cost

    out = {}
    for name, fn in (
        ("resynth", resynth_cost),
        ("isop", _isop_cached),
        ("npn", npn_canonical),
    ):
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


def lru_delta(
    before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]
) -> Dict[str, Tuple[int, int]]:
    return {
        name: (after[name][0] - before[name][0], after[name][1] - before[name][1])
        for name in after
    }
