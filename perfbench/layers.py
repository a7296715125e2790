"""Which program callables the traced run wraps, and the per-layer metrics
computed from the resulting spans and counters.

Span names are ``<layer>.<step>``; the layer is the program module the
wrapped callable lives in (see README.md for the table).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.candidate import candidate_graph, filters
from repro.core.engine import GSWORDEngine
from repro.core.fused import FusedRunner
from repro.core.vectorized import VectorWarpProvider, WaveRunner
from repro.dyn import DeltaPlanMaintainer, DynamicEstimationSession, MutableGraph
from repro.gpu.device import DeviceModel
from repro.obs.trace import TraceRecorder, validate_chrome_trace
from repro.serve import cache as serve_cache
from repro.serve.cache import PlanCache
from repro.serve.controller import AdaptiveBudgetController
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import EstimationService

from harness import Bench, LoopResult, percentile
from tracer import Tracer, format_layer_table

ROOT_SPAN = "bench.window"


@dataclass
class LayerCounters:
    """Counts read from call arguments and results while tracing."""

    local_entries: int = 0
    plans: List[object] = field(default_factory=list)
    warps: int = 0
    rerun_warps: int = 0
    samples: int = 0
    valid: int = 0
    fused_rounds: int = 0
    ticks: int = 0
    executes: int = 0
    batch_tasks: int = 0
    submit_t: Dict[str, float] = field(default_factory=dict)
    queue_wait_ms: Dict[str, float] = field(default_factory=dict)
    touched: List[float] = field(default_factory=list)


def install(tracer: Tracer, c: LayerCounters) -> None:
    """Wrap every measured callable; undo with ``tracer.restore()``."""

    def on_plan(args, kwargs, plan):
        c.plans.append(plan.cg)

    def on_candidate(args, kwargs, cg):
        c.local_entries += cg.total_local_entries()

    def on_run(args, kwargs, result):
        c.samples += result.n_samples
        c.valid += result.n_valid
        c.fused_rounds += result.backend == "fused"

    def on_waves(args, kwargs):
        # Called from ``VectorWarpProvider.warp``, ``run_warps`` re-runs
        # one warp whose quota the fold loop shrank; elsewhere it runs the
        # first wave of every warp of a round.
        if tracer.parent() == "waves.provider_warp":
            c.rerun_warps += len(args[1])
        else:
            c.warps += len(args[1])

    def on_submit(args, kwargs):
        c.submit_t[args[1].request_id] = tracer.clock()

    def on_tick(args, kwargs, ticked):
        c.ticks += bool(ticked)

    def on_execute(args, kwargs):
        # Queue wait: wall time from ``submit`` to the first batch that
        # runs one of the request's rounds.
        now = tracer.clock()
        tasks = args[1]
        c.executes += 1
        c.batch_tasks += len(tasks)
        for task in tasks:
            rid = getattr(getattr(task.payload, "request", None), "request_id", "")
            if rid in c.submit_t and rid not in c.queue_wait_ms:
                c.queue_wait_ms[rid] = (now - c.submit_t[rid]) * 1000.0

    def on_refresh(args, kwargs, stats):
        if not stats.is_noop:
            c.touched.append(stats.touched_fraction)

    # candidate, serve.cache
    tracer.patch_function(serve_cache.build_plan, "plan.build", on_plan)
    tracer.patch_function(
        candidate_graph.build_candidate_graph, "candidate.build", on_candidate
    )
    tracer.patch_function(filters.label_degree_filter, "candidate.label_degree")
    tracer.patch_function(filters.nlf_filter, "candidate.nlf")
    tracer.patch_function(filters.refine_global_candidates, "candidate.refine")
    tracer.patch_method(PlanCache, "get_or_build", "cache.get_or_build")
    # core.engine, core.vectorized / core.fused
    tracer.patch_method(GSWORDEngine, "run", "engine.run", on_run)
    tracer.patch_method(VectorWarpProvider, "__init__", "waves.provider_init")
    tracer.patch_method(
        VectorWarpProvider, "warp", "waves.provider_warp", record=False
    )
    for runner in (WaveRunner, FusedRunner):
        tracer.patch_method(runner, "run_warps", "waves.run_warps", pre=on_waves)
    # serve.controller
    tracer.patch_method(
        AdaptiveBudgetController, "next_round_samples", "controller.next_round"
    )
    tracer.patch_method(AdaptiveBudgetController, "observe", "controller.observe")
    # serve.service, serve.scheduler, gpu.device, obs
    tracer.patch_method(EstimationService, "submit", "service.submit", pre=on_submit)
    tracer.patch_method(EstimationService, "process_once", "service.tick", on_tick)
    tracer.patch_method(
        BatchScheduler, "execute", "scheduler.execute", pre=on_execute
    )
    tracer.patch_method(DeviceModel, "coresident_ms", "gpu.coresident")
    for attr in ("begin", "end", "instant", "add_span"):
        tracer.patch_method(TraceRecorder, attr, "obs.record", record=False)
    # dyn
    tracer.patch_method(DynamicEstimationSession, "mutate", "dyn.mutate")
    tracer.patch_method(DynamicEstimationSession, "estimate", "dyn.estimate")
    tracer.patch_method(MutableGraph, "apply", "dyn.apply")
    tracer.patch_method(MutableGraph, "snapshot", "dyn.snapshot")
    tracer.patch_method(DeltaPlanMaintainer, "refresh", "dyn.refresh", on_refresh)
    tracer.patch_method(EstimationService, "install_plan", "dyn.install")
    tracer.patch_method(EstimationService, "invalidate_plans", "dyn.invalidate")


#: Per-layer metrics: name -> unit.  Order is the README's table order.
PER_LAYER_UNITS: Dict[str, str] = {
    "plan.builds": "count",
    "plan.build_s": "s",
    "candidate.build_s": "s",
    "candidate.label_degree_s": "s",
    "candidate.nlf_s": "s",
    "candidate.refine_s": "s",
    "candidate.csr_self_s": "s",
    "candidate.local_entries": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "engine.rounds": "count",
    "engine.run_self_s": "s",
    "waves.provider_init_self_s": "s",
    "waves.run_warps_s": "s",
    "waves.warps": "count",
    "waves.rerun_warps": "count",
    "waves.rerun_ratio": "ratio",
    "estimators.samples": "count",
    "estimators.valid_ratio": "ratio",
    "engine.backend_fused_frac": "ratio",
    "controller.samples_per_req": "count",
    "controller.rounds_per_req": "count",
    "service.ticks": "count",
    "service.batch_size_mean": "count",
    "service.tick_self_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "scheduler.execute_self_s": "s",
    "gpu.coresident_s": "s",
    "obs.events": "count",
    "obs.self_s": "s",
    "dyn.apply_s": "s",
    "dyn.snapshot_s": "s",
    "dyn.refresh_self_s": "s",
    "dyn.touched_fraction": "ratio",
    "dyn.install_s": "s",
    "dyn.invalidate_s": "s",
    "wall.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "degraded_frac": "ratio",
    "mutate_p50_ms": "ms",
    "mutate_p90_ms": "ms",
}


def layer_values(
    tracer: Tracer, c: LayerCounters, responses: list,
    cache_hits: int, cache_misses: int,
) -> Dict[str, float]:
    """The span/counter-derived per-layer metrics of one traced phase."""
    total = tracer.total_s.get
    self_s = tracer.self_s.get
    calls = tracer.calls.get
    n_resp = max(1, len(responses))
    lookups = cache_hits + cache_misses
    waits = list(c.queue_wait_ms.values())
    return {
        "plan.builds": calls("plan.build", 0),
        "plan.build_s": total("plan.build", 0.0),
        "candidate.build_s": total("candidate.build", 0.0),
        "candidate.label_degree_s": total("candidate.label_degree", 0.0),
        "candidate.nlf_s": total("candidate.nlf", 0.0),
        "candidate.refine_s": total("candidate.refine", 0.0),
        "candidate.csr_self_s": self_s("candidate.build", 0.0),
        "candidate.local_entries": c.local_entries,
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.hit_ratio": cache_hits / lookups if lookups else 0.0,
        "engine.rounds": calls("engine.run", 0),
        "engine.run_self_s": self_s("engine.run", 0.0),
        "waves.provider_init_self_s": self_s("waves.provider_init", 0.0),
        "waves.run_warps_s": total("waves.run_warps", 0.0),
        "waves.warps": c.warps,
        "waves.rerun_warps": c.rerun_warps,
        "waves.rerun_ratio": c.rerun_warps / c.warps if c.warps else 0.0,
        "estimators.samples": c.samples,
        "estimators.valid_ratio": c.valid / c.samples if c.samples else 0.0,
        "engine.backend_fused_frac": (
            c.fused_rounds / calls("engine.run", 1) if calls("engine.run") else 0.0
        ),
        "controller.samples_per_req": (
            sum(r.n_samples for _, _, r in responses) / n_resp
        ),
        "controller.rounds_per_req": (
            sum(r.n_rounds for _, _, r in responses) / n_resp
        ),
        "service.ticks": c.ticks,
        "service.batch_size_mean": (
            c.batch_tasks / c.executes if c.executes else 0.0
        ),
        "service.tick_self_s": self_s("service.tick", 0.0),
        "service.submit_s": total("service.submit", 0.0),
        "service.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "scheduler.execute_self_s": self_s("scheduler.execute", 0.0),
        "gpu.coresident_s": total("gpu.coresident", 0.0),
        "obs.events": calls("obs.record", 0),
        "obs.self_s": self_s("obs.record", 0.0),
        "dyn.apply_s": total("dyn.apply", 0.0),
        "dyn.snapshot_s": total("dyn.snapshot", 0.0),
        "dyn.refresh_self_s": self_s("dyn.refresh", 0.0),
        "dyn.touched_fraction": (
            sum(c.touched) / len(c.touched) if c.touched else 0.0
        ),
        "dyn.install_s": total("dyn.install", 0.0),
        "dyn.invalidate_s": total("dyn.invalidate", 0.0),
        "wall.unattributed_s": self_s(ROOT_SPAN, 0.0),
    }


def measure_per_layer(
    bench: Bench, out_dir: Path
) -> Tuple[Dict[str, float], LoopResult, dict]:
    """An untraced phase (the baseline for the tracing overhead, and the
    failure, quality and mutate figures), then a traced one; writes the
    Chrome trace and the layer table to ``out_dir``."""
    _, handle = bench.setup()
    base = bench.loop(handle)
    quality = bench.finish(handle, base)

    _, handle = bench.setup()
    config = bench.service(handle).engine_config
    cache = bench.service(handle).cache
    hits0, misses0 = cache.hits, cache.misses
    tracer, counters = Tracer(), LayerCounters()
    install(tracer, counters)
    try:
        with tracer.span(ROOT_SPAN):
            res = bench.loop(handle, tracer=tracer)
    finally:
        tracer.restore()
    for cg in counters.plans:
        cg.validate()  # raises CandidateGraphError
    bench.finish(handle, res)

    values = layer_values(
        tracer, counters, res.responses,
        cache.hits - hits0, cache.misses - misses0,
    )
    per_req = res.program_s / max(1, res.completed_in_window)
    base_per_req = base.program_s / max(1, base.completed_in_window)
    mutate = base.mutate_ms
    values.update({
        "trace.overhead_frac": per_req / base_per_req - 1.0,
        "failed_frac": base.failed / max(1, base.attempted),
        "degraded_frac": quality["degraded_frac"],
        "mutate_p50_ms": percentile(mutate, 50) if mutate else 0.0,
        "mutate_p90_ms": percentile(mutate, 90) if mutate else 0.0,
    })

    wall_s = tracer.total_s[ROOT_SPAN]
    stem = f"{bench.workload.name}-s{bench.workload.seed}"
    payload = tracer.chrome_trace(f"perfbench {stem}")
    validate_chrome_trace(payload)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{stem}-trace.json"
    trace_path.write_text(json.dumps(payload))
    table = format_layer_table(tracer.layer_rows(wall_s), wall_s)
    (out_dir / f"{stem}-layers.txt").write_text(table + "\n")
    print(table)
    return values, base, {
        "config": config, "quality": quality, "trace_file": trace_path.name,
        "traced_wall_s": wall_s, "untraced_window_s": base.window_s,
        "plans_validated": len(counters.plans),
        "trace_events": len(tracer.events),
    }
