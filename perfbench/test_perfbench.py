"""Tests of the benchmark's own harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import COLD_STRATA, Template, make_workload  # noqa: E402

from repro.candidate.candidate_graph import query_fingerprint  # noqa: E402
from repro.dyn import MutableGraph, UniformChurnStream  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402
from repro.obs.trace import validate_chrome_trace  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_nested_wrappers_split_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(2.0)

    def middle():
        clock.tick(1.0)
        wrapped_leaf()
        clock.tick(0.5)
        wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf")
    wrapped_middle = tracer.wrap(middle, "middle")

    with tracer.span("root"):
        clock.tick(0.25)
        wrapped_middle()
        clock.tick(0.75)

    assert tracer.calls == {"leaf": 2, "middle": 1, "root": 1}
    assert tracer.total_s["leaf"] == pytest.approx(4.0)
    assert tracer.self_s["leaf"] == pytest.approx(4.0)
    assert tracer.total_s["middle"] == pytest.approx(5.5)
    assert tracer.self_s["middle"] == pytest.approx(1.5)
    assert tracer.total_s["root"] == pytest.approx(6.5)
    assert tracer.self_s["root"] == pytest.approx(1.0)
    # Attributed self time plus the root's own (unattributed) time is wall.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["root"])


def test_exception_closes_span_and_paused_hides_callees():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "boom")
    with tracer.span("root"):
        with pytest.raises(ValueError):
            wrapped()
        with tracer.paused("input"):
            with pytest.raises(ValueError):
                wrapped()  # not split out while paused
    assert tracer.calls["boom"] == 1
    assert tracer.self_s["input"] == pytest.approx(1.0)
    assert tracer.self_s["root"] == pytest.approx(0.0)
    assert tracer.parent() is None


def test_hooks_and_patch_restore():
    class Widget:
        def work(self, n):
            return n * 2

    tracer = Tracer()
    seen = []
    tracer.patch_method(
        Widget, "work", "widget.work",
        hook=lambda args, kwargs, result: seen.append(result),
        pre=lambda args, kwargs: seen.append(("pre", args[1])),
    )
    assert Widget().work(3) == 6
    assert seen == [("pre", 3), 6]
    tracer.restore()
    assert not hasattr(Widget.__dict__["work"], "__wrapped__")
    assert Widget().work(4) == 8
    assert tracer.calls == {"widget.work": 1}


def test_chrome_trace_validates():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.tick(1.0), "inner")
    with tracer.span("root"):
        inner()
        clock.tick(0.5)
        inner()
    payload = json.loads(json.dumps(tracer.chrome_trace("test")))
    spans = validate_chrome_trace(payload)
    assert sorted(s["name"] for s in spans) == ["inner", "inner", "root"]


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_samples_beyond_and_tail_percentile():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(99) == 75
    assert harness.tail_percentile(200) == 95
    assert harness.tail_percentile(1000) == 99
    assert harness.tail_percentile(10_000) == 99.9
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 90) == 90.0
    assert harness.percentile(values, 50) == 50.0
    assert harness.percentile(list(reversed(values)), 99) == 99.0
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# ----------------------------------------------------------------------
# Client loop: quality prefix and bounded waits
# ----------------------------------------------------------------------
class FakeTicket:
    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.finished = False

    def done(self) -> bool:
        return self.finished

    def result(self):
        return self.request_id

    def cancel(self) -> None:
        self.finished = True


class FakeService:
    """Completes the oldest outstanding ticket on each tick."""

    def __init__(self, hang: bool = False) -> None:
        self.hang = hang
        self.clock_ms = 0.0
        self.queue = []

    def submit(self, request) -> FakeTicket:
        ticket = FakeTicket(request.request_id)
        self.queue.append(ticket)
        return ticket

    def process_once(self) -> bool:
        if self.hang:
            raise harness.WaitLimit("stuck")
        if not self.queue:
            return False
        self.queue.pop(0).finished = True
        self.clock_ms += 1.0
        return True


class FakeWorkload:
    def request(self, i):
        return Template("g", None, "alley"), f"r{i}"


def test_quality_prefix_fills_after_the_window():
    res = harness.LoopResult()
    harness.run_serving_loop(
        res, FakeService(), {"g": None}, FakeWorkload(), seconds=0.0,
        quality_n=20,
    )
    assert res.completed_in_window == 0
    assert res.quality_n == 20 and res.quality_clock_ms == 20.0
    # The outstanding requests are drained, none submitted past the prefix.
    assert res.completed == res.attempted == 20 + harness.OUTSTANDING - 1
    assert res.failed == 0


def test_stuck_tick_fails_every_outstanding_ticket():
    res = harness.LoopResult()
    with pytest.raises(harness.WaitLimit):
        harness.run_serving_loop(
            res, FakeService(hang=True), {"g": None}, FakeWorkload(),
            seconds=10.0, quality_n=20,
        )
    assert res.attempted == res.failed == harness.OUTSTANDING


# ----------------------------------------------------------------------
# Workloads are a pure function of the seed
# ----------------------------------------------------------------------
def _serving_stream(name, seed, n):
    workload = make_workload(name, seed)
    out = []
    for i in range(n):
        template, rid = workload.request(i)
        out.append(
            (template.dataset, query_fingerprint(template.query),
             template.estimator, rid)
        )
    warm = [(t.dataset, query_fingerprint(t.query)) for t in workload.warm]
    return warm, out


@pytest.mark.parametrize("name", ["hot-cache", "cold-plans"])
def test_serving_workloads_are_pure(name):
    first = _serving_stream(name, 5, 64)
    assert first == _serving_stream(name, 5, 64)
    other = _serving_stream(name, 6, 64)
    assert first != other  # the seed reaches the inputs
    # ... but not the pinned bank: each cycle requests the same queries.
    cycle = 16 if name == "hot-cache" else len(COLD_STRATA)
    assert sorted(x[:3] for x in first[1][:cycle]) == sorted(
        x[:3] for x in other[1][:cycle]
    )


def test_cold_plans_never_repeat_a_query():
    workload = make_workload("cold-plans", 3)
    seen = set()
    for i in range(len(workload.bank)):
        template, _ = workload.request(i)
        seen.add((template.dataset, query_fingerprint(template.query)))
    assert len(seen) == len(workload.bank)
    with pytest.raises(RuntimeError):
        workload.request(len(workload.bank))


def _churn_batches(seed, n):
    workload = make_workload("churn", seed)
    graph = MutableGraph(load_dataset("hprd"))
    inserts, deletes = workload.batch_sizes(graph.n_edges)
    stream = UniformChurnStream(inserts, deletes, rng=workload.stream_seed())
    batches = []
    for _ in range(n):
        batch = stream.next_batch(graph)
        graph.apply(batch)
        batches.append((batch.inserts.tolist(), batch.deletes.tolist()))
    queries = [query_fingerprint(t.query) for t in workload.templates]
    return queries, batches


def test_churn_stream_is_pure():
    first = _churn_batches(7, 3)
    assert first == _churn_batches(7, 3)
    other = _churn_batches(8, 3)
    assert first[0] == other[0] and first[1] != other[1]


def test_benchmark_json_names_every_reported_metric():
    import run
    from layers import PER_LAYER_UNITS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(
        harness.QUALITY_PREFIX
    )
