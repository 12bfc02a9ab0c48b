"""The three workloads: ``optimize``, ``evaluate`` and ``service``.

Each workload is a closed loop whose inputs are generated from the run's
seed.  A workload object goes through four phases, each in the one fresh
process :mod:`child` starts for it:

``setup()``
    everything before the first timed operation, including a fixed warm-up
    that is the same on every seed (its time is ``setup_s``);
``run(deadline, max_ops)``
    the timed operations, in the same order on every run, until the
    deadline or *max_ops* (the traced run repeats exactly the operations
    the untraced run did);
``check()``
    output checks outside the timed region; a failed check marks its
    operation failed and is never retried;
``report()``
    latencies, units of work and the workload's own figures.

Graphs are kept serialized and parsed again, outside the timed region,
before every operation: an ``Aig`` memoises per-graph state (cut arrays,
truth tables) that ``clone()`` shares, so a reused graph would time warm.

Between operations, outside the timed region, every workload times a fixed
reference loop (:func:`reference_loop`).  The gated timings are
reported in multiples of its median, so they follow the program's speed
and not the speed the shared host happens to give the run.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import Tally, geomean, percentile
from tracing import Recorder

#: SA flows in the order the optimize loop runs them on each design.
FLOWS = ("baseline", "ground_truth", "ml", "hybrid")
#: Cheap moves used to derive the training samples.  The full SA catalog
#: costs about 1 s per move on the larger designs, which would make set-up
#: dominate every run.
CHEAP_MOVES = [["b"], ["rs"], ["st", "b"], ["b", "rs"], ["rs", "b"], ["rs", "rs"]]
#: Seed of the training-set generation: the training split and its models
#: are the same on every run, only the unseen designs follow ``--seed``.
TRAIN_SEED = 2025
#: SA iterations per optimize operation, the same for every flow, so every
#: block of four operations holds as many iterations of each test design
#: and of each flow.  Ten is the fewest at which the hybrid flow, with the
#: session's default ``validate_every=10``, validates: the initial cost is
#: its first evaluation, the ninth move its tenth.
SA_ITERATIONS = 10
#: Test designs in the optimize loop are built at this share of their
#: registered size, so that one run holds enough SA iterations for a tail
#: percentile with ten samples above it.
OPTIMIZE_SIZE_SCALE = 0.25
#: Every REVISIT_PERIOD-th evaluate operation re-scores an earlier graph.
REVISIT_PERIOD = 3
#: Six evaluate operations score one new instance of each of the four test
#: designs and revisit two earlier graphs.
EVALUATE_PERIOD = 6
#: Evaluate checks every CHECK_PERIOD-th operation against an uncached run.
CHECK_PERIOD = 8
#: Service jobs: small designs (the adder and control cores; the multiplier
#: cores do not shrink with the size share), their size share and SA
#: iterations.
SERVICE_DESIGNS = ("EX00", "EX68")
SERVICE_SIZE_SCALE = 0.5
SERVICE_ITERATIONS = 2
#: The clients' poll period: a tenth of a job's median latency, half the
#: client's default.  Polling every 20 ms sent the server 100 requests a
#: second, whose handlers take the interpreter lock from the worker; the
#: job latency then followed the host's load far more than the reference
#: loop does (run-to-run spread 9 % in reference units, 2 % at 50 ms).
POLL_S = 0.05
#: What each service client does in round j: pattern[j % len(pattern)].
SERVICE_PATTERN = ("new", "new", "new", "resubmit", "new", "dup", "new", "new", "resubmit", "new")
# A ``dup`` round reuses the netlist client 0 uploaded in the round before.
assert all(
    SERVICE_PATTERN[index - 1] == "new"
    for index, kind in enumerate(SERVICE_PATTERN)
    if kind == "dup"
)
#: Reference loops timed before every operation (service: every round).
REFERENCE_LOOPS = {"optimize": 8, "evaluate": 1, "service": 4}


def reference_loop() -> float:
    """Seconds a fixed piece of pure-Python graph work takes on this host now.

    Structural hashing of a random AND graph, a level pass and a fanout
    count: the dict, tuple and list work of the program's own graph code,
    written here so that no change to the program can move it (about 12 ms
    on a 2-vCPU container).  The interpreter's speed on such code varies
    from process to process and from second to second on a shared host;
    numpy kernels vary much less, so the loop has none.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    table: Dict[Tuple[int, int], int] = {}
    nodes = [(0, 0)]
    for _ in range(3000):
        a = rng.randrange(len(nodes)) * 2 + rng.randrange(2)
        b = rng.randrange(len(nodes)) * 2 + rng.randrange(2)
        key = (a, b) if a < b else (b, a)
        if key not in table:
            table[key] = len(nodes)
            nodes.append(key)
    levels = [0] * len(nodes)
    for index in range(1, len(nodes)):
        a, b = nodes[index]
        levels[index] = 1 + max(levels[a >> 1], levels[b >> 1])
    fanout: Dict[int, int] = {}
    for a, b in nodes:
        fanout[a >> 1] = fanout.get(a >> 1, 0) + 1
        fanout[b >> 1] = fanout.get(b >> 1, 0) + 1
    sorted(fanout.items(), key=lambda item: (-item[1], item[0]))
    return time.perf_counter() - start


def derived_seed(*parts: Any) -> int:
    """A stable 31-bit seed from *parts* (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def scaled_spec(name: str, scale: float, seed: int) -> Any:
    """A seeded, unseen instance of registered design *name* at *scale* size."""
    from repro.designs.generators import DesignSpec
    from repro.designs.registry import design_spec

    spec = design_spec(name)
    return DesignSpec(
        f"{spec.name}_s{seed}",
        spec.num_pis,
        spec.num_pos,
        max(16, round(spec.target_ands * scale)),
        spec.core,
        seed,
        spec.role,
    )


def build_text(name: str, scale: float, seed: int) -> str:
    from repro.designs.generators import build_from_spec
    from repro.io.aiger import dumps_aag

    return dumps_aag(build_from_spec(scaled_spec(name, scale, seed)))


def parse(text: str, name: str) -> Any:
    from repro.io.aiger import loads_aag

    return loads_aag(text, name=name)


def train_models(session: Any) -> Tuple[Any, Any]:
    """Delay and area GBDTs fitted on labelled variants of the training split."""
    from repro.datagen.labeler import Labeler
    from repro.datagen.perturb import generate_variants
    from repro.designs.registry import TRAIN_DESIGNS, build_design
    from repro.features.extract import FeatureExtractor
    from repro.ml.gbdt import GbdtParams, GradientBoostingRegressor
    import numpy as np

    labeler = Labeler(evaluator=session.evaluator)
    extractor = FeatureExtractor()
    rows: List[Any] = []
    delays: List[float] = []
    areas: List[float] = []
    for index, name in enumerate(TRAIN_DESIGNS):
        variants = generate_variants(
            build_design(name),
            4,
            rng=derived_seed(TRAIN_SEED, index),
            catalog=CHEAP_MOVES,
            max_script_length=2,
            max_attempts_factor=1,
        )
        for sample in labeler.label(name, variants):
            rows.append(extractor.extract(sample.aig))
            delays.append(sample.delay_ps)
            areas.append(sample.area_um2)
    features = np.vstack(rows)
    params = GbdtParams(n_estimators=60, learning_rate=0.1, max_depth=3)
    delay_model = GradientBoostingRegressor(params, rng=TRAIN_SEED)
    delay_model.fit(features, np.asarray(delays))
    area_model = GradientBoostingRegressor(params, rng=TRAIN_SEED)
    area_model.fit(features, np.asarray(areas))
    return delay_model, area_model


def unseen_designs() -> List[str]:
    """The registry's test split: designs the models never train on."""
    from repro.designs.registry import TEST_DESIGNS

    return list(TEST_DESIGNS)


class IterationClock(random.Random):
    """The SA run's RNG; notes the time of every move draw.

    The annealer draws exactly one move per iteration, first thing in the
    iteration, so consecutive draw times bound the iterations.  The check
    phase fails the operation if the number of draws ever differs from the
    number of iterations.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.marks: List[float] = []

    def randrange(self, *args: Any, **kwargs: Any) -> int:  # type: ignore[override]
        self.marks.append(time.perf_counter())
        return super().randrange(*args, **kwargs)


class Workload:
    """Shared bookkeeping; subclasses fill in the four phases."""

    name = "workload"

    def __init__(self, seed: int, workdir: Path, recorder: Optional[Recorder]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.ops: List[Dict[str, Any]] = []
        #: Outcome of every successful operation, by operation key; the
        #: traced run must reproduce them.
        self.digest: Dict[str, Any] = {}
        self.tally = Tally()
        #: Seconds of every reference loop of the timed phase.
        self.ref: List[float] = []

    def time_reference(self) -> None:
        """Time the reference loop, outside any operation."""
        for _ in range(REFERENCE_LOOPS[self.name]):
            self.ref.append(reference_loop())

    def set_op(self, key: Optional[str]) -> None:
        if self.recorder is not None:
            self.recorder.default_op = key

    def close(self) -> None:
        """Release what set-up started (nothing for in-process workloads)."""

    def attribution_ops(self) -> List[Tuple[Sequence[str], float, float]]:
        """(span op ids, start, end) of every timed operation."""
        return [([op["key"]], op["start"], op["end"]) for op in self.ops]

    def busy_seconds(self) -> float:
        """Time the one caller spent inside timed operations."""
        return sum(op["end"] - op["start"] for op in self.ops)

    def cache_report(self) -> Dict[str, float]:
        stats = self.session.cache_stats
        return {
            "api.cache.hits": float(stats.hits),
            "api.cache.misses": float(stats.misses),
            "api.cache.hit_ratio": stats.hit_rate,
        }


# --------------------------------------------------------------------------- #
# optimize
# --------------------------------------------------------------------------- #
class Optimize(Workload):
    """SA with each of the four flows on seeded instances of the test designs.

    One operation is one SA run of one flow on a design instance of its
    own, freshly built outside the timed region, through the session's
    default cached evaluator and default hybrid validation period.  Its
    samples are the SA iterations, inside the annealing loop only: the
    initial and final evaluations of the call are reported apart
    (``opt.outside_loop_s``).
    """

    name = "optimize"

    def setup(self) -> None:
        from repro.api.session import OptimizeRequest, SynthesisSession
        from repro.designs.registry import build_design

        self.session = SynthesisSession()
        self.delay_model, self.area_model = train_models(self.session)
        # Fixed warm-up: one short run of every flow on a training design.
        for flow in FLOWS:
            self.session.optimize(
                OptimizeRequest(
                    design=build_design("EX68"),
                    flow=flow,
                    iterations=2,
                    seed=0,
                    delay_model=self.delay_model,
                    area_model=self.area_model,
                )
            )
        self.session.evaluator.clear()

    def plan(self, index: int) -> Tuple[str, str]:
        """Flow and design text of operation *index*.

        Latin-square order: every block of four operations runs each flow
        once and each test design once, so a run that stops anywhere still
        covers all of them evenly.
        """
        names = unseen_designs()
        block, slot = divmod(index, len(FLOWS))
        name = names[(slot + block) % len(names)]
        seed = derived_seed(self.seed, "optimize", index)
        return FLOWS[slot], build_text(name, OPTIMIZE_SIZE_SCALE, seed)

    def run(self, deadline: float, max_ops: Optional[int]) -> None:
        from repro.api.session import OptimizeRequest

        index = 0
        # Stop only at a block boundary, so every flow and every test design
        # has run equally often whenever the deadline falls.
        while (index % len(FLOWS) or time.perf_counter() < deadline) and (
            max_ops is None or index < max_ops
        ):
            self.time_reference()
            flow, text = self.plan(index)
            key = f"op{index}"
            aig = parse(text, key)
            # The move draws depend on the operation slot only, so seeds
            # differ in the designs they anneal, not in the luck of the draw.
            clock = IterationClock(derived_seed("sa", index))
            request = OptimizeRequest(
                design=aig,
                flow=flow,
                iterations=SA_ITERATIONS,
                seed=clock,
                delay_model=self.delay_model,
                area_model=self.area_model,
            )
            self.tally.attempt()
            self.set_op(key)
            start = time.perf_counter()
            try:
                result = self.session.optimize(request)
            except Exception as exc:  # a wrong result, never retried
                end = time.perf_counter()
                self.tally.fail(key, f"{type(exc).__name__}: {exc}")
                self.ops.append({"key": key, "flow": flow, "start": start, "end": end, "ok": False})
                index += 1
                continue
            finally:
                self.set_op(None)
            end = time.perf_counter()
            validations = 0
            if flow == "hybrid":
                validations = len(result.flow_instance.last_cost.validations)
            annealing = result.annealing
            timer = annealing.stage_timer
            self.ops.append(
                {
                    "key": key,
                    "flow": flow,
                    "text": text,
                    "start": start,
                    "end": end,
                    "ok": True,
                    "marks": clock.marks,
                    "input": aig,
                    "best": result.best_aig,
                    "initial": (result.initial.delay_ps, result.initial.area_um2),
                    "final": (result.final.delay_ps, result.final.area_um2),
                    "accepted": annealing.accepted_moves,
                    "iterations": annealing.iterations_run,
                    # The annealing loop: the annealer's run minus its
                    # calibration, which precedes the first move draw.
                    "loop_s": annealing.runtime_seconds - timer.total("calibration"),
                    "transform_s": timer.total("transform"),
                    "evaluation_s": timer.total("evaluation"),
                    "validations": validations,
                }
            )
            self.digest[key] = self.ops[-1]["final"]
            index += 1

    def check(self) -> None:
        from repro.aig.equivalence import check_equivalence_exact
        from repro.evaluation import GroundTruthEvaluator
        from repro.io.aiger import dumps_aag

        fresh = GroundTruthEvaluator(self.session.library)
        for op in self.ops:
            if not op["ok"]:
                continue
            if len(op["marks"]) != op["iterations"]:
                self.tally.fail(op["key"], "SA did not draw one move per iteration")
                continue
            best = op["best"]
            if best is not op["input"]:
                verdict = check_equivalence_exact(parse(op["text"], "in"), best)
                if not verdict.equivalent:
                    reason = "best AIG is not equivalent to the input"
                    self.tally.fail(op["key"], reason)
                    continue
            ppa = fresh.evaluate(parse(dumps_aag(best), "best"))
            if (ppa.delay_ps, ppa.area_um2) != op["final"]:
                reason = f"final PPA {op['final']} != uncached {(ppa.delay_ps, ppa.area_um2)}"
                self.tally.fail(op["key"], reason)

    def samples(self) -> List[float]:
        """Seconds of every SA iteration (draw to draw, the last to loop end)."""
        out: List[float] = []
        for op in self.ops:
            if op["ok"] and op["marks"]:
                bounds = list(op["marks"]) + [op["marks"][0] + op["loop_s"]]
                out.extend(later - earlier for earlier, later in zip(bounds, bounds[1:]))
        return out

    def units(self) -> int:
        return sum(op["iterations"] for op in self.ops if op["ok"])

    def report(self) -> Dict[str, float]:
        done = [op for op in self.ops if op["ok"]]
        out: Dict[str, float] = {}
        for flow in FLOWS:
            runs = [op for op in done if op["flow"] == flow]
            iterations = sum(op["iterations"] for op in runs)
            loop = sum(op["loop_s"] for op in runs)
            out[f"sa_iter_s.{flow}"] = loop / iterations if iterations else 0.0
            busy = sum(op["transform_s"] + op["evaluation_s"] for op in runs)
            out[f"opt.eval_share.{flow}"] = (
                sum(op["evaluation_s"] for op in runs) / busy if busy else 0.0
            )
        if done:
            out["qor_delay_ratio"] = geomean([op["final"][0] / op["initial"][0] for op in done])
            out["qor_area_ratio"] = geomean([op["final"][1] / op["initial"][1] for op in done])
            out["opt.accept_ratio"] = sum(op["accepted"] for op in done) / self.units()
            out["opt.outside_loop_s"] = sum(op["end"] - op["start"] - op["loop_s"] for op in done)
        out["opt.hybrid.validations"] = float(sum(op["validations"] for op in done))
        out.update(self.cache_report())
        return out


# --------------------------------------------------------------------------- #
# evaluate
# --------------------------------------------------------------------------- #
class Evaluate(Workload):
    """Score freshly parsed graphs by ground truth and by the models.

    New graphs are seeded, unseen instances of the test designs (same specs,
    other seeds), cycling through their cores; each is built and serialized
    outside the timed region the first time the stream needs it, and every
    visit scores a fresh parse.  Every REVISIT_PERIOD-th operation re-scores
    an earlier graph, so the session's PPA cache sees hits as well as
    misses.  One operation is one graph scored twice: through the session's
    cached ground-truth evaluator, then through feature extraction and both
    models.
    """

    name = "evaluate"

    def setup(self) -> None:
        from repro.api.session import SynthesisSession
        from repro.designs.registry import build_design
        from repro.features.extract import FeatureExtractor

        self.session = SynthesisSession()
        self.delay_model, self.area_model = train_models(self.session)
        self.extractor = FeatureExtractor()
        self.pool: List[str] = []
        warm = build_design("EX68")
        for _ in range(2):  # fixed warm-up: one miss, one hit
            self._score(warm)
        self.session.evaluator.clear()

    def new_graph(self, index: int) -> str:
        """Serialized unseen instance *index*, cycling through the test designs."""
        names = unseen_designs()
        seed = derived_seed(self.seed, "evaluate", index)
        return build_text(names[index % len(names)], 1.0, seed)

    def _score(self, aig: Any) -> Tuple[Any, float, float, float]:
        start = time.perf_counter()
        truth = self.session.evaluate(aig)
        middle = time.perf_counter()
        features = self.extractor.extract(aig).reshape(1, -1)
        predicted = float(self.delay_model.predict(features)[0])
        self.area_model.predict(features)
        end = time.perf_counter()
        return truth, predicted, middle - start, end - middle

    def run(self, deadline: float, max_ops: Optional[int]) -> None:
        chooser = random.Random(derived_seed(self.seed, "revisit"))
        visited: List[int] = []
        index = 0
        # Past the deadline, stop only where the stream has scored every test
        # design equally often.
        while (index % EVALUATE_PERIOD or time.perf_counter() < deadline) and (
            max_ops is None or index < max_ops
        ):
            self.time_reference()
            if index % REVISIT_PERIOD == REVISIT_PERIOD - 1 and visited:
                graph = visited[chooser.randrange(len(visited))]
                revisit = True
            else:
                graph = len(self.pool)
                self.pool.append(self.new_graph(graph))
                visited.append(graph)
                revisit = False
            key = f"op{index}"
            aig = parse(self.pool[graph], f"g{graph}")
            self.tally.attempt()
            self.set_op(key)
            start = time.perf_counter()
            try:
                truth, predicted, gt_s, ml_s = self._score(aig)
            except Exception as exc:  # a wrong result, never retried
                self.tally.fail(key, f"{type(exc).__name__}: {exc}")
                end = time.perf_counter()
                self.ops.append({"key": key, "start": start, "end": end, "ok": False})
                index += 1
                continue
            finally:
                self.set_op(None)
            self.ops.append(
                {
                    "key": key,
                    "graph": graph,
                    "revisit": revisit,
                    "start": start,
                    "end": start + gt_s + ml_s,
                    "ok": True,
                    "gt_s": gt_s,
                    "ml_s": ml_s,
                    "truth": (truth.delay_ps, truth.area_um2),
                    "predicted": predicted,
                }
            )
            self.digest[key] = [truth.delay_ps, truth.area_um2, predicted]
            index += 1

    def check(self) -> None:
        from repro.evaluation import GroundTruthEvaluator
        from repro.mapping.simulate import check_mapping_equivalence

        fresh = GroundTruthEvaluator(self.session.library, keep_netlist=True)
        chooser = random.Random(derived_seed(self.seed, "check"))
        for op in self.ops:
            if not op["ok"] or chooser.randrange(CHECK_PERIOD):
                continue
            aig = parse(self.pool[op["graph"]], "check")
            result = fresh.evaluate(aig)
            if (result.delay_ps, result.area_um2) != op["truth"]:
                self.tally.fail(op["key"], f"cached PPA {op['truth']} != uncached")
            elif not check_mapping_equivalence(aig, result.netlist, rng=0):
                reason = "mapped netlist is not equivalent to the AIG"
                self.tally.fail(op["key"], reason)

    def samples(self) -> List[float]:
        return [op["end"] - op["start"] for op in self.ops if op["ok"]]

    def units(self) -> int:
        return sum(1 for op in self.ops if op["ok"])

    def report(self) -> Dict[str, float]:
        done = [op for op in self.ops if op["ok"]]
        out: Dict[str, float] = {}
        if not done:
            return out
        gt_ms = [op["gt_s"] * 1e3 for op in done]
        out["gt_eval_ms.p50"] = percentile(gt_ms, 50)
        out["gt_eval_ms.p90"] = percentile(gt_ms, 90)
        out["gt_eval_ms.samples"] = float(len(gt_ms))
        out["ml_eval_ms.p50"] = percentile([op["ml_s"] * 1e3 for op in done], 50)
        first = [op for op in done if not op["revisit"]]
        if first:
            out["ml_delay_mape_pct"] = 100.0 * sum(
                abs(op["predicted"] - op["truth"][0]) / op["truth"][0] for op in first
            ) / len(first)
        # Scoring hands back the graph it was given: nothing is optimized.
        out["qor_delay_ratio"] = out["qor_area_ratio"] = 1.0
        out.update(self.cache_report())
        return out


# --------------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------------- #
class Service(Workload):
    """Two client threads driving a ``repro serve`` subprocess.

    The clients move in lock-step rounds (a closed loop: each waits for its
    own result before the next round).  In round j each client does
    ``SERVICE_PATTERN[j % 10]``: submit a new small design, resubmit its
    latest finished job byte for byte, or (``dup``) submit the same new job
    as the other client at the same moment.  A ``dup`` job is a new flow
    and seed on the netlist client 0 uploaded the round before: concurrent
    uploads of a netlist the service does not hold yet race on
    ``JobManager._store_upload`` (a known defect), which would fail a
    varying number of operations per run.  Nothing is retried.
    """

    name = "service"
    clients = 2
    #: One worker thread: the server's Python work runs under one
    #: interpreter lock anyway, and a single worker keeps its scheduling the
    #: same from run to run on a host that gives the benchmark two vCPUs.
    workers = 1

    def setup(self) -> None:
        from repro.designs.registry import build_design
        from repro.io.aiger import dumps_aag
        from repro.service.client import ServiceClient

        store = self.workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        here = Path(__file__).resolve().parent
        src = here.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        serve_args = ["serve", "--port", "0", "--workers", str(self.workers), "--store", str(store)]
        if self.recorder is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            self.spans_path = self.workdir / "server-spans.json"
            command = [
                sys.executable,
                str(here / "serve_launcher.py"),
                str(self.spans_path),
                *serve_args,
            ]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        line = self.server.stdout.readline() if self.server.stdout else ""
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.strip().rsplit(" ", 1)[-1]
        self.client = ServiceClient(self.url, timeout=60.0, retries=0)
        warm = dumps_aag(build_design("EX68"))
        for flow in ("baseline", "ground_truth"):  # fixed warm-up jobs
            job = self.client.submit(warm, "aag", flow=flow, seed=0, iterations=SERVICE_ITERATIONS)
            self.client.wait(job["job_id"], timeout=60.0, poll_s=POLL_S)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        import signal

        server.send_signal(signal.SIGINT)
        try:
            server.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()

    def _job(self, client: int, round_: int) -> Tuple[str, str, Dict[str, Any]]:
        """What *client* submits in *round_*, built outside the timed region."""
        kind = SERVICE_PATTERN[round_ % len(SERVICE_PATTERN)]
        name = SERVICE_DESIGNS[round_ % len(SERVICE_DESIGNS)]
        if kind == "dup":
            # A new job (flow and seed not used before) on a netlist the
            # service already holds, so the two uploads find it stored.
            _, text, _ = self._job(0, round_ - 1)
            params = {"flow": "ground_truth", "seed": 100000 + round_}
        else:
            text = build_text(
                name, SERVICE_SIZE_SCALE, derived_seed(self.seed, "svc", client, round_)
            )
            params = {
                "flow": ("baseline", "ground_truth")[round_ % 2],
                "seed": 1000 * (client + 1) + round_,
            }
        return kind, text, {**params, "iterations": SERVICE_ITERATIONS}

    def _client_op(self, client: int, round_: int, last: Dict[int, Any]) -> Dict[str, Any]:
        from repro.service.client import ServiceClientError

        kind, text, params = self._job(client, round_)
        if kind == "resubmit":
            if client not in last:
                kind = "new"
            else:
                text, params, _ = last[client]
        key = f"c{client}r{round_}"
        op: Dict[str, Any] = {"key": key, "kind": kind, "text": text, "params": params, "ok": False}
        recorder = self.recorder
        op["start"] = time.perf_counter()
        try:
            if recorder is not None:
                recorder.set_thread_op(key)  # the op of a submission that fails
                with recorder.span("service.client.submit") as span:
                    job = self.client.submit(text, "aag", **params)
                    span.op = f"{job['job_id']}#{client}"
            else:
                job = self.client.submit(text, "aag", **params)
            op["submitted"] = time.perf_counter()
            op["job_id"] = job["job_id"]
            op["created"] = job.get("_status") == 201
            if recorder is not None:
                recorder.set_thread_op(f"{job['job_id']}#{client}")
                with recorder.span("service.client.wait"):
                    record = self.client.wait(job["job_id"], timeout=60.0, poll_s=POLL_S)
                recorder.set_thread_op(None)
            else:
                record = self.client.wait(job["job_id"], timeout=60.0, poll_s=POLL_S)
            op["end"] = time.perf_counter()
        except ServiceClientError as exc:
            op["end"] = time.perf_counter()
            op["error"] = f"{exc} ({exc.status})"
            return op
        op["record"] = record
        op["ok"] = record.get("status") == "ok"
        if not op["ok"]:
            op["error"] = f"job failed: {record.get('error')}"
        elif kind == "new":
            last[client] = (text, params, record)
        return op

    def run(self, deadline: float, max_ops: Optional[int]) -> None:
        max_rounds = None if max_ops is None else max_ops // self.clients
        results: Dict[int, List[Dict[str, Any]]] = {c: [] for c in range(self.clients)}
        stop = threading.Event()
        rounds = [0]

        def decide() -> None:  # runs once per round, in one thread
            self.time_reference()  # both clients wait here: the server is idle
            # Past the deadline, stop only after a whole pattern, so every
            # run submits the same mix.
            whole = rounds[0] % len(SERVICE_PATTERN) == 0
            if (whole and time.perf_counter() >= deadline) or (
                max_rounds is not None and rounds[0] >= max_rounds
            ):
                stop.set()
            rounds[0] += 1

        barrier = threading.Barrier(self.clients, action=decide, timeout=120)

        def client_loop(client: int) -> None:
            last: Dict[int, Any] = {}
            round_ = 0
            while True:
                barrier.wait()
                if stop.is_set():
                    return
                try:
                    op = self._client_op(client, round_, last)
                except Exception as exc:  # keep the lock-step going; count it
                    now = time.perf_counter()
                    op = {
                        "key": f"c{client}r{round_}",
                        "kind": "error",
                        "ok": False,
                        "start": now,
                        "end": now,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                results[client].append(op)
                round_ += 1

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(self.clients)]
        self.wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall_end = time.perf_counter()
        for round_ in range(max(len(ops) for ops in results.values())):
            for client in range(self.clients):
                if round_ < len(results[client]):
                    op = results[client][round_]
                    op["client"] = client
                    self.ops.append(op)
        for op in self.ops:
            self.tally.attempt()
            if not op["ok"]:
                # No submission here is expected to fail: an error response,
                # a lost connection or a job that did not finish is wrong.
                self.tally.fail(op["key"], op.get("error", "failed"))
            else:
                record = op["record"]
                outcome = [op["job_id"], record["final_delay_ps"], record["final_area_um2"]]
                self.digest[op["key"]] = outcome
        self.server_stats = self.client.stats()

    def check(self) -> None:
        from repro.evaluation import GroundTruthEvaluator

        fresh = GroundTruthEvaluator()
        first: Dict[str, Dict[str, Any]] = {}
        for op in self.ops:
            if not op["ok"]:
                continue
            record = op["record"]
            job_id = op["job_id"]
            if job_id in first:
                if record != first[job_id]:
                    reason = "dedup submission returned a different record"
                    self.tally.fail(op["key"], reason)
                continue
            first[job_id] = record
            if op["kind"] == "resubmit":
                reason = "resubmission did not match a finished job"
                self.tally.fail(op["key"], reason)
                continue
            ppa = fresh.evaluate(parse(op["text"], "upload"))
            initial = (record["initial_delay_ps"], record["initial_area_um2"])
            if (ppa.delay_ps, ppa.area_um2) != initial:
                reason = "record initial PPA differs from a local evaluation"
                self.tally.fail(op["key"], reason)

    def samples(self) -> List[float]:
        return [op["end"] - op["start"] for op in self.ops if op["ok"]]

    def units(self) -> int:
        return sum(1 for op in self.ops if op["ok"])

    def busy_seconds(self) -> float:
        """Wall time of the rounds, less the reference loops between them."""
        return self.wall_end - self.wall_start - sum(self.ref)

    def attribution_ops(self) -> List[Tuple[Sequence[str], float, float]]:
        return [
            (
                [op["job_id"], f"{op['job_id']}#{op['client']}"] if "job_id" in op else [op["key"]],
                op["start"],
                op["end"],
            )
            for op in self.ops
        ]

    def report(self) -> Dict[str, float]:
        done = [op for op in self.ops if op["ok"]]
        out: Dict[str, float] = {}
        if not done:
            return out
        latencies = [op["end"] - op["start"] for op in done]
        out["job_latency_s.p50"] = percentile(latencies, 50)
        out["job_latency_s.p75"] = percentile(latencies, 75)
        out["job_latency_s.samples"] = float(len(latencies))
        out["jobs_per_s"] = len(done) / self.busy_seconds()
        new = [op["submitted"] - op["start"] for op in done if op["created"]]
        dedup = [op["submitted"] - op["start"] for op in done if not op["created"]]
        if new:
            out["service.submit_s.new.p50"] = percentile(new, 50)
        if dedup:
            out["service.submit_s.dedup.p50"] = percentile(dedup, 50)
        executed = [op for op in done if op["created"]]
        if executed:
            out["service.overhead_s.p50"] = percentile(
                [op["end"] - op["start"] - op["record"]["runtime_seconds"] for op in executed], 50
            )
            out["campaign.cell.s"] = sum(op["record"]["runtime_seconds"] for op in executed)
            records = [op["record"] for op in executed]
            out["qor_delay_ratio"] = geomean(
                [record["final_delay_ps"] / record["initial_delay_ps"] for record in records]
            )
            out["qor_area_ratio"] = geomean(
                [record["final_area_um2"] / record["initial_area_um2"] for record in records]
            )
        out["service.dedup_ratio"] = len(dedup) / len(done)
        out["service.executed_cells"] = float(self.server_stats.get("executed_cells", 0))
        evaluations = self.server_stats.get("evaluations", {})
        hits = float(evaluations.get("cache_hits", 0))
        misses = float(evaluations.get("cache_misses", 0))
        out["api.cache.hits"] = hits
        out["api.cache.misses"] = misses
        out["api.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


WORKLOADS = {cls.name: cls for cls in (Optimize, Evaluate, Service)}
