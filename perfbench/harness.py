"""Client loops, set-up, exact counts and metric arithmetic.

Everything here talks to the program through public calls only:
``EstimationService.submit`` + ``process_once`` for the service workloads
and ``DynamicEstimationSession.mutate`` + ``estimate`` for churn.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.candidate.candidate_graph import (
    build_candidate_graph,
    query_fingerprint,
)
from repro.dyn import (
    AppliedDelta,
    DynamicEstimationSession,
    EdgeBatch,
    MutableGraph,
    UniformChurnStream,
)
from repro.enumeration.backtracking import count_embeddings
from repro.errors import ReproError
from repro.graph import datasets as datasets_module
from repro.graph.csr import CSRGraph
from repro.metrics.qerror import q_error
from repro.query.matching_order import quicksi_order
from repro.query.query_graph import QueryGraph
from repro.serve import EstimateRequest, EstimationService

from workloads import MAX_SAMPLES, OUTSTANDING, TARGET_REL_CI, Template

clock = time.perf_counter

#: A ticket not terminal this long after submission is cancelled and
#: counted as failed; a single program call blocking this long aborts.
WAIT_LIMIT_S = 60.0

#: Quality metrics (q-error, degraded share, simulated ms per request) are
#: taken over the first completions of the run, a count that does not
#: depend on wall speed, so they repeat exactly for one seed.
QUALITY_PREFIX = {"hot-cache": 256, "cold-plans": 112, "churn": 500}

#: Correctness bound: the p90 q-error of the quality prefix.
QERROR_P90_BOUND = 4.0

#: Search-node budget of one exact count; queries whose enumeration does
#: not finish within it are left out of the q-error.
EXACT_MAX_NODES = 300_000

#: Set-up repeats at least this many times and for at least this many
#: seconds; ``setup_s`` is the median repetition.
SETUP_REPS = 5
SETUP_MIN_S = 10.0

#: Percentiles tried, highest first, for the tail the latency sample
#: count supports.
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def _rank(n: int, p: float) -> int:
    """Nearest rank (1-based) of percentile ``p`` among ``n`` values."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile of ``n``."""
    return n - _rank(n, p)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(len(values), p) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten
    samples beyond it, or ``None`` when even the lowest has fewer."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= 10:
            return p
    return None


# ----------------------------------------------------------------------
# Bounded program calls
# ----------------------------------------------------------------------
class WaitLimit(Exception):
    """A program call did not return within :data:`WAIT_LIMIT_S`."""


def _on_alarm(signum, frame):  # pragma: no cover - fires only on a hang
    raise WaitLimit(f"program call exceeded {WAIT_LIMIT_S:.0f} s")


@contextmanager
def bounded() -> Iterator[None]:
    """Interrupt the enclosed call with :class:`WaitLimit` after
    :data:`WAIT_LIMIT_S` wall seconds (main thread only)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, WAIT_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def warm_dataset_cache(names: Sequence[str]) -> None:
    """Generate (or read) every dataset once, so the on-disk cache is warm
    before any set-up is timed."""
    for name in names:
        datasets_module.load_dataset(name)


def reload_datasets(names: Sequence[str]) -> Dict[str, CSRGraph]:
    """Load the datasets from the on-disk cache, bypassing the in-process
    memo so each set-up repetition pays the same load."""
    datasets_module._load_dataset_cached.cache_clear()
    return {name: datasets_module.load_dataset(name) for name in names}


def make_request(
    graphs: Dict[str, CSRGraph], template: Template, request_id: str
) -> EstimateRequest:
    return EstimateRequest(
        graph=graphs[template.dataset],
        query=template.query,
        target_rel_ci=TARGET_REL_CI,
        max_samples=MAX_SAMPLES,
        estimator=template.estimator,
        request_id=request_id,
    )


def setup_serving(workload) -> Tuple[float, EstimationService, Dict[str, CSRGraph]]:
    """Load datasets, construct the service, run the warm pass."""
    t0 = clock()
    graphs = reload_datasets(workload.datasets)
    service = EstimationService()
    warm = [
        make_request(graphs, t, workload.warm_request_id(j))
        for j, t in enumerate(workload.warm)
    ]
    with bounded():
        service.estimate_many(warm)
    return clock() - t0, service, graphs


def churn_kwargs(template: Template, request_id: str) -> Dict[str, object]:
    return {
        "target_rel_ci": TARGET_REL_CI,
        "max_samples": MAX_SAMPLES,
        "estimator": template.estimator,
        "request_id": request_id,
    }


def setup_churn(workload) -> Tuple[float, DynamicEstimationSession, list]:
    """Load the graph, wrap it mutable, register and warm every query."""
    t0 = clock()
    graphs = reload_datasets(workload.datasets)
    session = DynamicEstimationSession(MutableGraph(graphs[workload.datasets[0]]))
    maintainers = [session.register_query(t.query) for t in workload.templates]
    with bounded():
        for j, t in enumerate(workload.templates):
            session.estimate(t.query, **churn_kwargs(t, workload.warm_request_id(j)))
    return clock() - t0, session, maintainers


# ----------------------------------------------------------------------
# Client loops
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    """What one timed phase observed."""

    window_s: float = 0.0
    completed_in_window: int = 0
    attempted: int = 0
    failed: int = 0
    timeouts: int = 0
    errors: List[str] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    # (graph the estimate was computed on, template, response), in
    # completion order.
    responses: List[tuple] = field(default_factory=list)
    # Service clock, completion count and peak RSS when the quality prefix
    # filled (RSS grows with the plans a run builds, so it is read at a
    # point that does not depend on wall speed).
    quality_clock_ms: float = 0.0
    quality_n: int = 0
    peak_rss_mb: float = 0.0
    # churn only
    mutate_ms: List[float] = field(default_factory=list)
    input_s: float = 0.0
    steps: int = 0

    @property
    def program_s(self) -> float:
        """Window wall time minus benchmark input generation."""
        return self.window_s - self.input_s

    @property
    def completed(self) -> int:
        return len(self.responses)


def _note_failure(result: LoopResult, error: BaseException) -> None:
    result.failed += 1
    if len(result.errors) < 10:
        result.errors.append(f"{type(error).__name__}: {error}")


def _input(tracer):
    """Span for benchmark input generation in the traced run."""
    return tracer.paused("bench.input") if tracer is not None else nullcontext()


def _quality_filled(res: LoopResult, clock_ms: float) -> None:
    res.quality_clock_ms = clock_ms
    res.quality_n = res.completed
    res.peak_rss_mb = peak_rss_mb()


def run_serving_loop(
    res: LoopResult,
    service: EstimationService,
    graphs: Dict[str, CSRGraph],
    workload,
    seconds: float,
    quality_n: int,
    tracer=None,
) -> None:
    """Closed loop: keep :data:`OUTSTANDING` requests in flight, one
    ``process_once`` tick at a time, for ``seconds`` and at least until
    ``quality_n`` requests completed; then finish the requests still
    outstanding.  Completions after the window count as attempted, not
    towards the window's.  A stuck ``process_once`` counts every
    outstanding ticket as failed and raises :class:`WaitLimit`."""
    outstanding: List[list] = []
    i = 0
    start = clock()
    deadline = start + seconds
    in_window = True
    while True:
        if in_window and clock() >= deadline:
            in_window = False
            res.window_s = clock() - start
            res.completed_in_window = res.completed
        if in_window or not res.quality_n:
            while len(outstanding) < OUTSTANDING:
                with _input(tracer):
                    template, rid = workload.request(i)
                    request = make_request(graphs, template, rid)
                i += 1
                t_submit = clock()
                try:
                    ticket = service.submit(request)
                except ReproError as error:  # refused at admission
                    res.attempted += 1
                    _note_failure(res, error)
                    continue
                outstanding.append([ticket, t_submit, template])
        elif not outstanding:
            break
        try:
            with bounded():
                ticked = service.process_once()
        except WaitLimit as error:
            res.attempted += len(outstanding)
            for _ in outstanding:
                _note_failure(res, error)
            raise
        now = clock()
        still = []
        for entry in outstanding:
            ticket, t_submit, template = entry
            if ticket.done():
                res.attempted += 1
                try:
                    response = ticket.result()
                except ReproError as error:
                    _note_failure(res, error)
                    continue
                res.latencies_ms.append((now - t_submit) * 1000.0)
                res.responses.append((graphs[template.dataset], template, response))
            elif now - t_submit > WAIT_LIMIT_S:
                ticket.cancel()
                res.attempted += 1
                res.timeouts += 1
                _note_failure(res, TimeoutError(f"{ticket.request_id} not terminal"))
            else:
                still.append(entry)
        outstanding = still
        if not res.quality_n and res.completed >= quality_n:
            _quality_filled(res, service.clock_ms)
        if not ticked and outstanding:
            time.sleep(0.001)  # stranded tickets: wait for the limit


def run_churn_loop(
    res: LoopResult,
    session: DynamicEstimationSession,
    workload,
    seconds: float,
    quality_steps: int,
    tracer=None,
) -> None:
    """Per step: one churn batch through ``mutate``, then one ``estimate``
    per registered query, for ``seconds`` and at least ``quality_steps``
    steps (steps after the window do not count towards its completions).
    The first half of each epoch applies stream batches, the second half
    their inverses in reverse order (see ``workloads.CHURN_EPOCH``)."""
    graph = session.graph
    inserts, deletes = workload.batch_sizes(graph.n_edges)
    stream = UniformChurnStream(inserts, deletes, rng=workload.stream_seed())
    applied: List[AppliedDelta] = []
    start = clock()
    deadline = start + seconds
    in_window = True
    while in_window or res.steps < quality_steps:
        t0 = clock()
        forward = res.steps % (2 * workload.epoch) < workload.epoch
        if forward:
            with _input(tracer):
                batch = stream.next_batch(graph)
        else:
            delta = applied.pop()
            batch = EdgeBatch.make(
                inserts=delta.removed, deletes=delta.added,
                n_vertices=graph.n_vertices,
            )
        t1 = clock()
        if in_window:
            res.input_s += t1 - t0
        with bounded():
            delta = session.mutate(batch)
        res.mutate_ms.append((clock() - t1) * 1000.0)
        if forward:
            applied.append(delta)
        for j, template in enumerate(workload.templates):
            kwargs = churn_kwargs(template, workload.request_id(res.steps, j))
            t_submit = clock()
            res.attempted += 1
            try:
                with bounded():
                    response = session.estimate(template.query, **kwargs)
            except (ReproError, WaitLimit) as error:
                _note_failure(res, error)
                continue
            res.latencies_ms.append((clock() - t_submit) * 1000.0)
            # Only the quality prefix needs its snapshot (for the exact
            # count); holding every version's would grow the heap with
            # the number of steps.
            snapshot = (
                session.plan_snapshot(template.query)
                if res.steps < quality_steps
                else None
            )
            res.responses.append((snapshot, template, response))
        res.steps += 1
        if res.steps == quality_steps:
            _quality_filled(res, session.service.clock_ms)
        if in_window and clock() >= deadline:
            in_window = False
            res.window_s = clock() - start
            res.completed_in_window = res.completed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Exact counts and correctness
# ----------------------------------------------------------------------
class ExactCounts:
    """Exact embedding counts by (graph content, query structure), kept in
    a JSON file so later runs in the same checkout reuse them."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._counts: Dict[str, List[int]] = {}
        self._dirty = False
        if path.is_file():
            try:
                self._counts = json.loads(path.read_text())
            except (OSError, ValueError):
                self._counts = {}

    @staticmethod
    def key(graph: CSRGraph, query: QueryGraph) -> str:
        return (
            f"{graph.name}:{graph.content_fingerprint()[:16]}:"
            f"{query_fingerprint(query):016x}"
        )

    def get(self, graph: CSRGraph, query: QueryGraph) -> Tuple[int, bool]:
        """``(count, complete)``; incomplete counts hit the node budget."""
        key = self.key(graph, query)
        hit = self._counts.get(key)
        if hit is None:
            cg = build_candidate_graph(graph, query)
            result = count_embeddings(
                cg, quicksi_order(query, graph), max_nodes=EXACT_MAX_NODES
            )
            hit = [int(result.count), int(result.complete)]
            self._counts[key] = hit
            self._dirty = True
        return hit[0], bool(hit[1])

    def save(self) -> None:
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._counts, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = False


def check_estimates(res: LoopResult) -> None:
    """Every estimate must be finite and non-negative."""
    for _, template, response in res.responses:
        est = response.estimate
        if not math.isfinite(est) or est < 0:
            raise CheckFailed(
                f"estimate {est!r} for {template.query.name} "
                f"({response.request_id}) is not finite and non-negative"
            )


def quality_metrics(res: LoopResult, exact: ExactCounts) -> Dict[str, float]:
    """q-error, degraded share and simulated ms per request over the
    quality prefix; raises :class:`CheckFailed` past the q-error bound."""
    prefix = res.responses[: res.quality_n]
    if not prefix:
        raise CheckFailed("no request completed")
    qerrors = []
    for graph, template, response in prefix:
        count, complete = exact.get(graph, template.query)
        if complete:
            qerrors.append(q_error(count, response.estimate))
    exact.save()
    if not qerrors:
        raise CheckFailed("no completed request has an exact count")
    p90 = percentile(qerrors, 90)
    if p90 > QERROR_P90_BOUND:
        raise CheckFailed(
            f"q-error p90 {p90:.3f} exceeds the bound {QERROR_P90_BOUND}"
        )
    return {
        "qerror_p50": percentile(qerrors, 50),
        "qerror_p90": p90,
        "qerror_checked": len(qerrors),
        "degraded_frac": sum(r.degraded for _, _, r in prefix) / len(prefix),
        "sim_ms_per_req": res.quality_clock_ms / res.quality_n,
        "quality_n": len(prefix),
    }


# ----------------------------------------------------------------------
# One workload, end to end
# ----------------------------------------------------------------------
class Bench:
    """Set-up, timed phase and checks of one workload; a *handle* is
    ``(service, graphs)`` or, for churn, ``(session, maintainers)``.
    Construction warms the on-disk dataset cache.  ``result`` is the
    latest timed phase, also when it ended in an exception."""

    def __init__(self, workload, seconds: float, exact: ExactCounts) -> None:
        self.workload = workload
        self.seconds = seconds
        self.exact = exact
        self.churn = workload.name == "churn"
        self.quality_n = QUALITY_PREFIX[workload.name]
        self.result: Optional[LoopResult] = None
        warm_dataset_cache(workload.datasets)

    def setup(self) -> Tuple[float, tuple]:
        # Collect the previous repetition's garbage outside the timing.
        gc.collect()
        if self.churn:
            dt, session, maintainers = setup_churn(self.workload)
            return dt, (session, maintainers)
        dt, service, graphs = setup_serving(self.workload)
        return dt, (service, graphs)

    def service(self, handle: tuple) -> EstimationService:
        return handle[0].service if self.churn else handle[0]

    def loop(self, handle: tuple, tracer=None) -> LoopResult:
        self.result = res = LoopResult()
        if self.churn:
            steps = self.quality_n // len(self.workload.templates)
            run_churn_loop(
                res, handle[0], self.workload, self.seconds, steps, tracer=tracer
            )
        else:
            run_serving_loop(
                res, handle[0], handle[1], self.workload, self.seconds,
                self.quality_n, tracer=tracer,
            )
        return res

    def finish(self, handle: tuple, res: LoopResult) -> Dict[str, float]:
        """Correctness checks; closes the program; returns the quality
        metrics."""
        try:
            check_estimates(res)
            if self.churn:
                for maintainer in handle[1]:
                    if not maintainer.check_against_rebuild():
                        raise CheckFailed(
                            f"delta-maintained plan of {maintainer.query.name} "
                            "differs from a rebuild"
                        )
            return quality_metrics(res, self.exact)
        finally:
            handle[0].close()


def measure_end_to_end(bench: Bench) -> Tuple[Dict[str, float], LoopResult, dict]:
    """Repeated set-up, then one timed phase; returns the end-to-end values,
    the phase and details for the info line."""
    setup_times: List[float] = []
    handle = None
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        if handle is not None:
            handle[0].close()
        dt, handle = bench.setup()
        setup_times.append(dt)
    config = bench.service(handle).engine_config
    res = bench.loop(handle)
    quality = bench.finish(handle, res)
    values = {
        "setup_s": statistics.median(setup_times),
        "req_per_s": res.completed_in_window / res.program_s,
        "latency_p50_ms": percentile(res.latencies_ms, 50),
        "latency_p90_ms": percentile(res.latencies_ms, 90),
        "peak_rss_mb": res.peak_rss_mb,
        **quality,
    }
    return values, res, {
        "config": config, "setup_times_s": setup_times, "quality": quality,
    }
