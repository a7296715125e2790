"""CI perf-regression smoke test (the ``perf-smoke`` job).

Runs a trimmed micro-benchmark suite on one fixed seed/graph and compares
against the checked-in baselines in ``benchmarks/baselines.json``:

* **exact gates** — HT estimates and simulated milliseconds are
  deterministic per seed, so any drift from the baseline fails the build
  outright (a semantics change snuck into the cost model or kernels);
* **wall-clock gates** — wall time is noisy on shared runners, so the
  absolute check only fails beyond ``--wall-tolerance`` × baseline
  (default 4×, which still catches losing vectorization's ~order of
  magnitude), while the sharp check is self-relative: the vectorized
  backend must beat the scalar backend by ``--min-speedup`` within the
  same process.
* **fused gates** — every case also runs on the compiled-plan ``fused``
  backend, which must stay bit-identical to the other two (estimate and
  simulated milliseconds are compared exactly, and the run must report
  ``backend == "fused"`` — a silent fallback to the interpreter would
  pass equivalence while voiding the perf claim).  A dedicated
  saturating workload (dblp q6 dense, 65536 samples, 128 tasks/warp —
  small per-step data, enough warps that per-level dispatch dominates
  the interpreter) gates the speedup itself: fused must beat vectorized
  by ``--min-fused-speedup`` (default 3.0×) on Alley and by the
  WanderJoin floor (2.0×; WJ spends a hard floor of its wall inside
  per-warp ``Generator.integers`` calls both backends must replay
  identically, which caps its ratio below Alley's).
* **counter-mode fused gates** — the same saturating workload runs with
  ``rng_mode="counter"`` (:mod:`repro.utils.lanerng`), where draws are
  pure functions of (lane key, counter) batched in one Philox pass per
  wave — no replay floor — so BOTH estimators must clear the full 3.0×
  bar.  Its deterministic values pin a separate ``fused_counter``
  baseline section; refresh it alone (sequential entries byte-identical)
  with ``--update-counter-baselines``.

* **sharding gates** — one saturating workload runs at 1 and 4 shards:
  estimates and simulated milliseconds must be bit-identical, the
  deterministic multi-device makespan must show a ≥1.5× modeled speedup,
  and (only on hosts granting ≥4 cores) the measured wall speedup must
  clear the same bar.
* **tracing gates** — one case runs with ``repro.obs`` tracing on and
  off: estimate and simulated milliseconds must be bit-identical (the
  recorder must never perturb an RNG stream), and the *projected*
  disabled-path overhead — the measured cost of one ``recorder.enabled``
  guard times the number of events a traced run records — must stay
  under ``TRACE_OVERHEAD_PCT`` of the untraced wall time.  Projection is
  used instead of differencing two noisy wall timings because the real
  disabled cost (a few hundred branch checks per run) is far below
  runner noise.

* **dynamic gate** — a seeded 5%-churn batch sequence on a small sparse
  graph runs through ``DeltaPlanMaintainer.refresh``: every version must
  be bit-identical to a from-scratch ``build_candidate_graph`` on the
  same snapshot (correctness, aborts outright).
* **plan-build gate** — ``build_candidate_graph`` on pinned 16-vertex
  wordnet and patents queries (the costliest strata of perfbench's
  cold-plans workload): the plan's size must match the baseline exactly
  and its best-of wall time must stay within ``--wall-tolerance`` ×
  baseline.  Per-candidate Python filter loops were 15-25× slower than
  the array passes, so they cannot creep back unnoticed.

Refresh the baselines after an intentional change with::

    PYTHONPATH=src python benchmarks/perf_smoke.py --update-baselines

Regression drill: set ``PERF_SMOKE_SYNTHETIC_DELAY_MS=200`` to inject a
per-run sleep into the timed sections and watch the job fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.dynamic import build_scenario
from repro.bench.workloads import build_workload
from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.dyn import DeltaPlanMaintainer, MutableGraph, UniformChurnStream
from repro.dyn.delta import candidate_graphs_equal
from repro.estimators.alley import AlleyEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.graph.datasets import load_dataset
from repro.obs import NO_TRACE, FlightRecorder, TraceRecorder
from repro.query.extract import extract_query
from repro.utils.rng import derive_seed

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"
SEED = 20240613
N_SAMPLES = 2048
WALL_REPEATS = 3

CASES = [
    ("wj_yeast_q6", WanderJoinEstimator, "yeast", 6),
    ("alley_yeast_q6", AlleyEstimator, "yeast", 6),
    ("wj_dblp_q8", WanderJoinEstimator, "dblp", 8),
    ("alley_orkut_q6", AlleyEstimator, "orkut", 6),
]

# Fused gate workload: per-level work must saturate whole-batch numpy ops
# (big warp fleets, full 32-lane batches) or both backends are equally
# dispatch-bound and the compiled plan cannot show its margin — the same
# reasoning as the sharding workload below.  Alley carries the 3x gate;
# WanderJoin's ratio is capped by the shared per-warp RNG replay cost, so
# it gets a lower regression floor.
FUSED_N_SAMPLES = int(os.environ.get("PERF_SMOKE_FUSED_SAMPLES", "65536"))
FUSED_TASKS_PER_WARP = 128
FUSED_WALL_REPEATS = 3
FUSED_DATASET = "dblp"
FUSED_K = 6
FUSED_WJ_MIN_SPEEDUP = 2.0
# Counter mode lifts the Generator.integers replay floor (draws become
# pure functions of (lane key, counter), batched in one Philox pass per
# wave), so WanderJoin clears the same 3x bar as Alley there.  The
# counter gate runs the identical workload with rng_mode="counter" and
# pins its own baseline section ("fused_counter"), refreshed via
# --update-counter-baselines without touching the sequential entries.
FUSED_COUNTER_MIN_SPEEDUP = 3.0

# Sharding gate workload: must be throughput-bound (many small balanced
# warps, per-shard warp counts above device residency) or the modeled
# makespan cannot improve — see benchmarks/bench_sharding_scaling.py.
SHARD_N_SAMPLES = int(os.environ.get("PERF_SMOKE_SHARD_SAMPLES", "131072"))
SHARD_TASKS_PER_WARP = 16
SHARD_WALL_REPEATS = 2
SHARD_GATE = 4
SHARD_MIN_SPEEDUP = 1.5

# Tracing gate: max projected disabled-path overhead (% of untraced wall)
# and the guard-loop length used to measure one `enabled` check.
TRACE_OVERHEAD_PCT = 2.0
TRACE_GUARD_CALLS = 200_000
#: Micro-benchmark loop sizing the flight ring's per-event recording cost
#: (the always-on path actually records, so the guard alone is not the
#: whole story).
FLIGHT_EVENT_CALLS = 20_000

# Dynamic gate: 5%-churn batches on a small sparse scenario; every
# refreshed plan must stay bit-identical to a from-scratch build.
DYN_CHURN_RATE = 0.05
DYN_N_BATCHES = 5

# Plan-build gate: pinned 16-vertex queries on the datasets whose plans
# cost the most to build.
PLAN_BUILD_DATASETS = ("wordnet", "patents")
PLAN_BUILD_QUERY_TYPES = ("dense", "sparse")
PLAN_BUILD_K = 16
PLAN_BUILD_REPEATS = 5


def _synthetic_delay() -> None:
    delay_ms = float(os.environ.get("PERF_SMOKE_SYNTHETIC_DELAY_MS", "0"))
    if delay_ms > 0:
        time.sleep(delay_ms / 1000.0)


def _run_case(estimator_cls, dataset: str, k: int, backend: str):
    workload = build_workload(dataset, k, "dense", 0)
    engine = GSWORDEngine(
        estimator_cls(), EngineConfig.gsword(backend=backend)
    )
    best_wall = float("inf")
    result = None
    for _ in range(WALL_REPEATS):
        start = time.perf_counter()
        result = engine.run(workload.cg, workload.order, N_SAMPLES, rng=SEED)
        _synthetic_delay()
        best_wall = min(best_wall, time.perf_counter() - start)
    return result, best_wall * 1000.0


def measure() -> dict:
    """Run every case on both backends; returns the measurement dict."""
    entries = {}
    for name, estimator_cls, dataset, k in CASES:
        vec, vec_wall = _run_case(estimator_cls, dataset, k, "vectorized")
        sca, sca_wall = _run_case(estimator_cls, dataset, k, "scalar")
        fus, fus_wall = _run_case(estimator_cls, dataset, k, "fused")
        if vec.estimate != sca.estimate or vec.simulated_ms() != sca.simulated_ms():
            raise SystemExit(
                f"{name}: backends disagree (estimate {vec.estimate} vs "
                f"{sca.estimate}, simulated {vec.simulated_ms()} vs "
                f"{sca.simulated_ms()}) — equivalence broken"
            )
        if fus.estimate != sca.estimate or fus.simulated_ms() != sca.simulated_ms():
            raise SystemExit(
                f"{name}: fused backend diverged (estimate {fus.estimate} vs "
                f"{sca.estimate}, simulated {fus.simulated_ms()} vs "
                f"{sca.simulated_ms()}) — equivalence broken"
            )
        if fus.backend != "fused":
            raise SystemExit(
                f"{name}: fused run fell back to {fus.backend!r} "
                f"({fus.backend_label}) — the compiled plan no longer covers "
                "this workload"
            )
        lane_steps = vec.profile.warp.lane_total
        entries[name] = {
            "estimate": vec.estimate,
            "simulated_ms": vec.simulated_ms(),
            "wall_ms_vectorized": vec_wall,
            "wall_ms_scalar": sca_wall,
            "wall_ms_fused": fus_wall,
            "speedup": sca_wall / vec_wall if vec_wall > 0 else float("inf"),
            "fused_speedup": (
                vec_wall / fus_wall if fus_wall > 0 else float("inf")
            ),
            "lane_steps_per_sec": (
                lane_steps / (vec_wall / 1000.0) if vec_wall > 0 else 0.0
            ),
        }
    return {"format": 1, "seed": SEED, "n_samples": N_SAMPLES, "entries": entries}


def _run_fused_gate_case(estimator_cls, backend: str, rng_mode: str = "sequential"):
    workload = build_workload(FUSED_DATASET, FUSED_K, "dense", 0)
    engine = GSWORDEngine(
        estimator_cls(),
        EngineConfig.gsword(
            backend=backend, tasks_per_warp=FUSED_TASKS_PER_WARP,
            rng_mode=rng_mode,
        ),
    )
    # Warmup compiles the plan / builds kernel tables outside the timing.
    engine.run(workload.cg, workload.order, 2048, rng=1)
    best_wall = float("inf")
    result = None
    for _ in range(FUSED_WALL_REPEATS):
        start = time.perf_counter()
        result = engine.run(
            workload.cg, workload.order, FUSED_N_SAMPLES, rng=SEED
        )
        _synthetic_delay()
        best_wall = min(best_wall, time.perf_counter() - start)
    return result, best_wall * 1000.0


def measure_fused(rng_mode: str = "sequential") -> dict:
    """Run the saturating fused-gate workload on both vector backends.

    Aborts outright when fused output diverges from vectorized or when the
    engine silently fell back to the interpreter — both void the gate.
    """
    tag = "fused" if rng_mode == "sequential" else "fused_counter"
    out = {
        "dataset": FUSED_DATASET,
        "k": FUSED_K,
        "n_samples": FUSED_N_SAMPLES,
        "tasks_per_warp": FUSED_TASKS_PER_WARP,
        "rng_mode": rng_mode,
    }
    for label, estimator_cls in (
        ("alley", AlleyEstimator), ("wj", WanderJoinEstimator)
    ):
        vec, vec_wall = _run_fused_gate_case(
            estimator_cls, "vectorized", rng_mode
        )
        fus, fus_wall = _run_fused_gate_case(estimator_cls, "fused", rng_mode)
        if (
            fus.estimate != vec.estimate
            or fus.simulated_ms() != vec.simulated_ms()
        ):
            raise SystemExit(
                f"{tag}[{label}]: backends disagree (estimate {fus.estimate} "
                f"vs {vec.estimate}, simulated {fus.simulated_ms()} vs "
                f"{vec.simulated_ms()}) — equivalence broken"
            )
        if fus.backend != "fused":
            raise SystemExit(
                f"{tag}[{label}]: gate run fell back to {fus.backend!r} "
                f"({fus.backend_label}) — cannot gate the compiled plan"
            )
        out[f"estimate_{label}"] = fus.estimate
        out[f"simulated_ms_{label}"] = fus.simulated_ms()
        out[f"wall_ms_vectorized_{label}"] = vec_wall
        out[f"wall_ms_fused_{label}"] = fus_wall
        out[f"fused_speedup_{label}"] = (
            vec_wall / fus_wall if fus_wall > 0 else float("inf")
        )
    return out


def compare_fused(cur: dict, base: dict, min_fused_speedup: float) -> list:
    failures = []
    if not base:
        return ["fused: no baseline section (run --update-baselines)"]
    for label in ("alley", "wj"):
        for key in (f"estimate_{label}", f"simulated_ms_{label}"):
            if cur[key] != base.get(key):
                failures.append(
                    f"fused: {key} {cur[key]} != baseline {base.get(key)} "
                    "(deterministic — must match exactly)"
                )
    if cur["fused_speedup_alley"] < min_fused_speedup:
        failures.append(
            f"fused: Alley compiled plan only "
            f"{cur['fused_speedup_alley']:.2f}x faster than vectorized "
            f"(gate: {min_fused_speedup:.2f}x)"
        )
    if cur["fused_speedup_wj"] < FUSED_WJ_MIN_SPEEDUP:
        failures.append(
            f"fused: WanderJoin compiled plan only "
            f"{cur['fused_speedup_wj']:.2f}x faster than vectorized "
            f"(floor: {FUSED_WJ_MIN_SPEEDUP:.2f}x)"
        )
    return failures


def compare_fused_counter(cur: dict, base: dict) -> list:
    """Counter mode holds BOTH estimators to the full compiled-plan bar:
    with no ``Generator.integers`` replay floor, WanderJoin has no excuse."""
    failures = []
    if not base:
        return [
            "fused_counter: no baseline section "
            "(run --update-counter-baselines)"
        ]
    for label in ("alley", "wj"):
        for key in (f"estimate_{label}", f"simulated_ms_{label}"):
            if cur[key] != base.get(key):
                failures.append(
                    f"fused_counter: {key} {cur[key]} != baseline "
                    f"{base.get(key)} (deterministic — must match exactly)"
                )
        if cur[f"fused_speedup_{label}"] < FUSED_COUNTER_MIN_SPEEDUP:
            failures.append(
                f"fused_counter: {label} compiled plan only "
                f"{cur[f'fused_speedup_{label}']:.2f}x faster than "
                f"vectorized (gate: {FUSED_COUNTER_MIN_SPEEDUP:.2f}x)"
            )
    return failures


def dump_plan_ir(path: Path) -> None:
    """Write the fused-gate workload's compiled plan IR (a CI artifact —
    reviewers can diff what schedule actually gated the build)."""
    from repro.estimators.fused import fused_kernel_for

    workload = build_workload(FUSED_DATASET, FUSED_K, "dense", 0)
    plans = {}
    for label, estimator_cls in (
        ("wanderjoin", WanderJoinEstimator), ("alley", AlleyEstimator)
    ):
        kernel_cls = fused_kernel_for(estimator_cls())
        kernel = kernel_cls(workload.cg, workload.order)
        plans[label] = kernel.compile_plan(len(workload.order)).to_ir()
    path.write_text(
        json.dumps(
            {
                "workload": {
                    "dataset": FUSED_DATASET,
                    "k": FUSED_K,
                    "query_type": "dense",
                    "index": 0,
                },
                "plans": plans,
            },
            indent=2,
        )
        + "\n"
    )


def host_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_sharded(shards: int):
    workload = build_workload("orkut", 6, "dense", 0)
    config = EngineConfig.gsword(
        backend="vectorized", tasks_per_warp=SHARD_TASKS_PER_WARP
    ).with_shards(shards)
    with GSWORDEngine(AlleyEstimator(), config=config) as engine:
        # Warmup spawns the worker pool and publishes the shared-memory
        # plan so the timed region measures steady-state rounds.
        engine.run(workload.cg, workload.order, SHARD_N_SAMPLES, rng=SEED)
        best_wall = float("inf")
        result = None
        for _ in range(SHARD_WALL_REPEATS):
            start = time.perf_counter()
            result = engine.run(
                workload.cg, workload.order, SHARD_N_SAMPLES, rng=SEED
            )
            _synthetic_delay()
            best_wall = min(best_wall, time.perf_counter() - start)
    return result, best_wall * 1000.0


def measure_sharding() -> dict:
    """Run the sharding workload at 1 and ``SHARD_GATE`` shards.

    Aborts outright if the sharded run is not bit-identical to the
    single-process one — that is a correctness break, not a perf
    regression.
    """
    base, base_wall = _run_sharded(1)
    sharded, shard_wall = _run_sharded(SHARD_GATE)
    if (
        sharded.estimate != base.estimate
        or sharded.n_samples != base.n_samples
        or sharded.simulated_ms() != base.simulated_ms()
    ):
        raise SystemExit(
            f"sharding: {SHARD_GATE}-shard run diverged from 1-shard "
            f"(estimate {sharded.estimate} vs {base.estimate}, simulated "
            f"{sharded.simulated_ms()} vs {base.simulated_ms()}) — "
            "equivalence broken"
        )
    return {
        "shards": SHARD_GATE,
        "n_samples": SHARD_N_SAMPLES,
        "estimate": sharded.estimate,
        "simulated_ms": sharded.simulated_ms(),
        "multidev_ms": sharded.multidev_ms(),
        "modeled_speedup": (
            sharded.simulated_ms() / sharded.multidev_ms()
            if sharded.multidev_ms() > 0 else 0.0
        ),
        "wall_ms_1shard": base_wall,
        "wall_ms_sharded": shard_wall,
        "measured_speedup": (
            base_wall / shard_wall if shard_wall > 0 else float("inf")
        ),
        "host_cores": host_cores(),
    }


def compare_sharding(cur: dict, base: dict) -> list:
    failures = []
    if not base:
        return ["sharding: no baseline section (run --update-baselines)"]
    for key in ("estimate", "simulated_ms", "multidev_ms"):
        if cur[key] != base[key]:
            failures.append(
                f"sharding: {key} {cur[key]} != baseline {base[key]} "
                "(deterministic — must match exactly)"
            )
    if cur["modeled_speedup"] < SHARD_MIN_SPEEDUP:
        failures.append(
            f"sharding: modeled speedup {cur['modeled_speedup']:.2f}x at "
            f"{cur['shards']} shards below gate {SHARD_MIN_SPEEDUP:.2f}x"
        )
    if cur["host_cores"] >= SHARD_GATE:
        if cur["measured_speedup"] < SHARD_MIN_SPEEDUP:
            failures.append(
                f"sharding: measured wall speedup "
                f"{cur['measured_speedup']:.2f}x at {cur['shards']} shards "
                f"below gate {SHARD_MIN_SPEEDUP:.2f}x "
                f"({cur['host_cores']} cores)"
            )
    return failures


def measure_tracing() -> dict:
    """Run one case traced and untraced; project the disabled-path cost.

    Aborts outright if tracing changes the estimate or the simulated
    milliseconds — observability must not perturb the experiment.
    """
    workload = build_workload("yeast", 6, "dense", 0)
    config = EngineConfig.gsword()
    best_off = float("inf")
    base = None
    for _ in range(WALL_REPEATS):
        engine = GSWORDEngine(AlleyEstimator(), config)
        start = time.perf_counter()
        base = engine.run(workload.cg, workload.order, N_SAMPLES, rng=SEED)
        _synthetic_delay()
        best_off = min(best_off, time.perf_counter() - start)
    recorder = TraceRecorder()
    traced_engine = GSWORDEngine(AlleyEstimator(), config, recorder=recorder)
    traced = traced_engine.run(
        workload.cg, workload.order, N_SAMPLES, rng=SEED
    )
    if (
        traced.estimate != base.estimate
        or traced.simulated_ms() != base.simulated_ms()
    ):
        raise SystemExit(
            f"tracing: traced run diverged from untraced (estimate "
            f"{traced.estimate} vs {base.estimate}, simulated "
            f"{traced.simulated_ms()} vs {base.simulated_ms()}) — "
            "tracing must be bit-identical"
        )
    # Disabled-path cost: every instrumentation site is one attribute
    # load + branch on the NO_TRACE singleton.  Time that guard directly
    # and project it over the number of events a traced run records
    # (every event implies at most a handful of guard hits).
    recorder_off = NO_TRACE
    hits = 0
    start = time.perf_counter()
    for _ in range(TRACE_GUARD_CALLS):
        if recorder_off.enabled:
            hits += 1
    guard_s = time.perf_counter() - start
    assert hits == 0
    per_guard_ms = guard_s * 1000.0 / TRACE_GUARD_CALLS
    projected_ms = per_guard_ms * max(1, recorder.n_events) * 4
    wall_off_ms = best_off * 1000.0

    # The always-on flight ring: enabled but untriggered, it *records*
    # every event into a bounded deque, so its real cost is the per-event
    # recording, not just the guard.  It must also be bit-identical.
    flight = FlightRecorder(capacity=512)
    flight_engine = GSWORDEngine(AlleyEstimator(), config, recorder=flight)
    flighted = flight_engine.run(
        workload.cg, workload.order, N_SAMPLES, rng=SEED
    )
    if (
        flighted.estimate != base.estimate
        or flighted.simulated_ms() != base.simulated_ms()
    ):
        raise SystemExit(
            f"flight: ring-recorded run diverged from untraced (estimate "
            f"{flighted.estimate} vs {base.estimate}, simulated "
            f"{flighted.simulated_ms()} vs {base.simulated_ms()}) — "
            "flight recording must be bit-identical"
        )
    probe = FlightRecorder(capacity=512)
    start = time.perf_counter()
    for _ in range(FLIGHT_EVENT_CALLS):
        probe.instant("flight.probe", track="engine", sim_ms=0.0)
    event_s = time.perf_counter() - start
    per_event_ms = event_s * 1000.0 / FLIGHT_EVENT_CALLS
    flight_projected_ms = per_event_ms * max(1, recorder.n_events)

    return {
        "n_events": recorder.n_events,
        "wall_ms_off": wall_off_ms,
        "guard_ns": per_guard_ms * 1e6,
        "projected_overhead_ms": projected_ms,
        "projected_overhead_pct": (
            projected_ms / wall_off_ms * 100.0 if wall_off_ms > 0 else 0.0
        ),
        "flight_event_ns": per_event_ms * 1e6,
        "flight_projected_overhead_ms": flight_projected_ms,
        "flight_projected_overhead_pct": (
            flight_projected_ms / wall_off_ms * 100.0
            if wall_off_ms > 0 else 0.0
        ),
    }


def compare_tracing(cur: dict) -> list:
    """Self-relative gates — no baseline entry needed."""
    failures = []
    if cur["projected_overhead_pct"] >= TRACE_OVERHEAD_PCT:
        failures.append(
            f"tracing: projected disabled-path overhead "
            f"{cur['projected_overhead_pct']:.3f}% of untraced wall "
            f"({cur['projected_overhead_ms']:.4f}ms over "
            f"{cur['wall_ms_off']:.1f}ms) exceeds gate "
            f"{TRACE_OVERHEAD_PCT:.1f}%"
        )
    if cur.get("flight_projected_overhead_pct", 0.0) >= TRACE_OVERHEAD_PCT:
        failures.append(
            f"flight: projected always-on ring overhead "
            f"{cur['flight_projected_overhead_pct']:.3f}% of untraced "
            f"wall ({cur['flight_projected_overhead_ms']:.4f}ms over "
            f"{cur['wall_ms_off']:.1f}ms) exceeds gate "
            f"{TRACE_OVERHEAD_PCT:.1f}%"
        )
    return failures


def measure_dynamic() -> dict:
    """Run 5%-churn batches through the plan refresh path.

    Aborts outright if any version's refreshed candidate graph is not
    bit-identical to a from-scratch build on the same snapshot.
    """
    base, query = build_scenario(n_vertices=1500, n_edges=1500)
    graph = MutableGraph(base)
    maintainer = DeltaPlanMaintainer(graph, query, validate_after_refresh=True)
    half = max(1, int(round(DYN_CHURN_RATE * base.n_edges / 2.0)))
    stream = UniformChurnStream(
        half, half, rng=derive_seed(SEED, "perf-smoke-dyn")
    )
    refresh_ms = 0.0
    rebuild_ms = 0.0
    for _ in range(DYN_N_BATCHES):
        graph.apply(stream.next_batch(graph))
        start = time.perf_counter()
        cg_full = build_candidate_graph(graph.snapshot(), query)
        rebuild_ms += (time.perf_counter() - start) * 1000.0
        stats = maintainer.refresh()
        _synthetic_delay()
        refresh_ms += stats.refresh_ms
        if not candidate_graphs_equal(maintainer.cg, cg_full):
            raise SystemExit(
                f"dynamic: refresh diverged from rebuild at version "
                f"{graph.version} — bit-identity broken"
            )
    return {
        "churn_rate": DYN_CHURN_RATE,
        "n_batches": DYN_N_BATCHES,
        "refresh_ms": refresh_ms,
        "rebuild_ms": rebuild_ms,
    }


def measure_plan_build() -> dict:
    """Best-of wall time of ``build_candidate_graph`` per pinned query,
    with the plan's size as its deterministic fingerprint."""
    entries = {}
    for dataset in PLAN_BUILD_DATASETS:
        graph = load_dataset(dataset)
        for qtype in PLAN_BUILD_QUERY_TYPES:
            query = extract_query(
                graph,
                PLAN_BUILD_K,
                query_type=qtype,
                rng=derive_seed(SEED, "plan-build", dataset, qtype),
            )
            best_wall = float("inf")
            for _ in range(PLAN_BUILD_REPEATS):
                start = time.perf_counter()
                cg = build_candidate_graph(graph, query)
                _synthetic_delay()
                best_wall = min(best_wall, time.perf_counter() - start)
            entries[f"{dataset}_q{PLAN_BUILD_K}_{qtype}"] = {
                "global_candidates": sum(len(c) for c in cg.global_candidates),
                "local_entries": cg.total_local_entries(),
                "wall_ms": best_wall * 1000.0,
            }
    return entries


def compare_plan_build(cur: dict, base: dict, wall_tolerance: float) -> list:
    failures = []
    if not base:
        return ["plan_build: no baseline section (run --update-baselines)"]
    for name, entry in cur.items():
        ref = base.get(name)
        if ref is None:
            failures.append(
                f"plan_build: {name} has no baseline entry "
                "(run --update-baselines)"
            )
            continue
        for key in ("global_candidates", "local_entries"):
            if entry[key] != ref[key]:
                failures.append(
                    f"plan_build: {name} {key} {entry[key]} != baseline "
                    f"{ref[key]} (deterministic — must match exactly)"
                )
        if entry["wall_ms"] > ref["wall_ms"] * wall_tolerance:
            failures.append(
                f"plan_build: {name} wall {entry['wall_ms']:.1f}ms exceeds "
                f"{wall_tolerance:.1f}x baseline ({ref['wall_ms']:.1f}ms)"
            )
    return failures


def compare(current: dict, baseline: dict, wall_tolerance: float,
            min_speedup: float) -> list:
    failures = []
    base_entries = baseline.get("entries", {})
    for name, cur in current["entries"].items():
        base = base_entries.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry (run --update-baselines)")
            continue
        if cur["estimate"] != base["estimate"]:
            failures.append(
                f"{name}: estimate {cur['estimate']} != baseline "
                f"{base['estimate']} (deterministic — must match exactly)"
            )
        if cur["simulated_ms"] != base["simulated_ms"]:
            failures.append(
                f"{name}: simulated_ms {cur['simulated_ms']} != baseline "
                f"{base['simulated_ms']} (deterministic — must match exactly)"
            )
        limit = base["wall_ms_vectorized"] * wall_tolerance
        if cur["wall_ms_vectorized"] > limit:
            failures.append(
                f"{name}: wall {cur['wall_ms_vectorized']:.1f}ms exceeds "
                f"{wall_tolerance:.1f}x baseline "
                f"({base['wall_ms_vectorized']:.1f}ms)"
            )
        fused_base = base.get("wall_ms_fused")
        if (
            fused_base is not None
            and cur["wall_ms_fused"] > fused_base * wall_tolerance
        ):
            failures.append(
                f"{name}: fused wall {cur['wall_ms_fused']:.1f}ms exceeds "
                f"{wall_tolerance:.1f}x baseline ({fused_base:.1f}ms)"
            )
        if cur["speedup"] < min_speedup:
            failures.append(
                f"{name}: vectorized only {cur['speedup']:.2f}x faster than "
                f"scalar (gate: {min_speedup:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baselines", action="store_true",
        help="write current measurements to benchmarks/baselines.json",
    )
    parser.add_argument(
        "--update-counter-baselines", action="store_true",
        help="merge ONLY the counter-mode fused-gate section into "
        "benchmarks/baselines.json, leaving every sequential entry "
        "untouched (no re-measurement churn on unrelated baselines)",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=4.0,
        help="max allowed wall-clock ratio vs baseline (default 4.0)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="min vectorized-over-scalar wall speedup (default 1.5)",
    )
    parser.add_argument(
        "--min-fused-speedup", type=float, default=3.0,
        help="min fused-over-vectorized wall speedup on the saturating "
        "Alley gate workload (default 3.0)",
    )
    parser.add_argument(
        "--plan-out", type=Path, default=None,
        help="also dump the fused-gate workload's compiled plan IR to "
        "this JSON file (uploaded as a CI artifact)",
    )
    args = parser.parse_args(argv)

    if args.update_counter_baselines:
        if not BASELINE_PATH.is_file():
            print("no baselines.json — run with --update-baselines first")
            return 1
        fused_counter = measure_fused(rng_mode="counter")
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline["fused_counter"] = fused_counter
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(
            f"{'fused_counter_gate':<20} "
            f"alley={fused_counter['fused_speedup_alley']:.2f}x "
            f"wj={fused_counter['fused_speedup_wj']:.2f}x"
        )
        print(f"counter baselines merged into {BASELINE_PATH}")
        return 0

    current = measure()
    for name, entry in current["entries"].items():
        print(
            f"{name:<20} est={entry['estimate']:<12.4f} "
            f"sim={entry['simulated_ms']:.3f}ms "
            f"wall={entry['wall_ms_vectorized']:.1f}ms "
            f"speedup={entry['speedup']:.2f}x "
            f"fused={entry['fused_speedup']:.2f}x "
            f"({entry['lane_steps_per_sec']:.0f} lane-steps/s)"
        )
    fused = measure_fused()
    current["fused"] = fused
    print(
        f"{'fused_gate':<20} "
        f"alley={fused['fused_speedup_alley']:.2f}x "
        f"wj={fused['fused_speedup_wj']:.2f}x "
        f"(vec {fused['wall_ms_vectorized_alley']:.0f}/"
        f"{fused['wall_ms_vectorized_wj']:.0f}ms, fused "
        f"{fused['wall_ms_fused_alley']:.0f}/"
        f"{fused['wall_ms_fused_wj']:.0f}ms)"
    )
    fused_counter = measure_fused(rng_mode="counter")
    current["fused_counter"] = fused_counter
    print(
        f"{'fused_counter_gate':<20} "
        f"alley={fused_counter['fused_speedup_alley']:.2f}x "
        f"wj={fused_counter['fused_speedup_wj']:.2f}x "
        f"(vec {fused_counter['wall_ms_vectorized_alley']:.0f}/"
        f"{fused_counter['wall_ms_vectorized_wj']:.0f}ms, fused "
        f"{fused_counter['wall_ms_fused_alley']:.0f}/"
        f"{fused_counter['wall_ms_fused_wj']:.0f}ms)"
    )
    if args.plan_out is not None:
        dump_plan_ir(args.plan_out)
        print(f"fused plan IR written to {args.plan_out}")
    sharding = measure_sharding()
    current["sharding"] = sharding
    measured_note = (
        f"measured={sharding['measured_speedup']:.2f}x"
        if sharding["host_cores"] >= SHARD_GATE
        else f"measured not enforceable on {sharding['host_cores']} cores"
    )
    print(
        f"{'sharding_' + str(SHARD_GATE) + 'w':<20} "
        f"est={sharding['estimate']:<12.4f} "
        f"multidev={sharding['multidev_ms']:.3f}ms "
        f"modeled={sharding['modeled_speedup']:.2f}x {measured_note}"
    )
    tracing = measure_tracing()
    print(
        f"{'tracing':<20} events={tracing['n_events']:<4} "
        f"guard={tracing['guard_ns']:.0f}ns "
        f"projected_overhead={tracing['projected_overhead_pct']:.4f}% "
        f"(gate <{TRACE_OVERHEAD_PCT:.0f}%)"
    )
    print(
        f"{'flight':<20} event={tracing['flight_event_ns']:.0f}ns "
        f"projected_overhead="
        f"{tracing['flight_projected_overhead_pct']:.4f}% "
        f"(gate <{TRACE_OVERHEAD_PCT:.0f}%)"
    )
    dynamic = measure_dynamic()
    print(
        f"{'dynamic':<20} churn={dynamic['churn_rate']:.0%} "
        f"refresh={dynamic['refresh_ms']:.1f}ms "
        f"rebuild={dynamic['rebuild_ms']:.1f}ms bit-identical"
    )
    plan_build = measure_plan_build()
    current["plan_build"] = plan_build
    for name, entry in plan_build.items():
        print(
            f"{name:<20} wall={entry['wall_ms']:.1f}ms "
            f"local_entries={entry['local_entries']}"
        )

    if args.update_baselines:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baselines written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.is_file():
        print("no baselines.json — run with --update-baselines first")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = compare(
        current, baseline, args.wall_tolerance, args.min_speedup
    )
    failures += compare_fused(
        fused, baseline.get("fused", {}), args.min_fused_speedup
    )
    failures += compare_fused_counter(
        fused_counter, baseline.get("fused_counter", {})
    )
    failures += compare_sharding(sharding, baseline.get("sharding", {}))
    failures += compare_tracing(tracing)
    failures += compare_plan_build(
        plan_build, baseline.get("plan_build", {}), args.wall_tolerance
    )
    if failures:
        print("\nPERF SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
