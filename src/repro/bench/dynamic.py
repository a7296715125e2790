"""Dynamic-graph benchmark: plan refresh under churn.

Sweeps uniform-churn update rates over a seeded sparse scenario and, per
rate, measures the three quantities the dynamic subsystem is judged on:

* **refresh cost** — wall-clock of :meth:`DeltaPlanMaintainer.refresh`
  next to a bare ``build_candidate_graph`` on the same snapshot.  A refresh
  *is* a rebuild, so the two should sit within a few percent; the refreshed
  plan must be bit-identical to the bare build (checked periodically and on
  the final version);
* **accuracy** — q-error of a fixed-budget estimate on the refreshed
  plan against budgeted exact enumeration on the final snapshot;
* **staleness** — a :class:`DynamicEstimationSession` with
  ``refresh_every > 1`` serving during the same churn: every response names
  the version it was computed at (``response.graph_version``), so the
  version lag distribution and the plan refresh/invalidation counters are
  measured, not assumed.

The scenario (6000 vertices, average degree ~2) is the one the retired
incremental refresh path was measured on; DESIGN.md "Dynamic graphs" keeps
those numbers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.dyn.delta import DeltaPlanMaintainer, candidate_graphs_equal
from repro.dyn.mutable import MutableGraph
from repro.dyn.serving import DynamicEstimationSession
from repro.dyn.stream import UniformChurnStream
from repro.enumeration.backtracking import count_embeddings
from repro.errors import ReproError
from repro.estimators.alley import AlleyEstimator
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph, random_labels
from repro.metrics.qerror import q_error
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.query.query_graph import QueryGraph
from repro.utils.rng import as_generator, derive_seed

DYN_SEED = 20250807
#: Update rates the default sweep visits (fraction of edges churned/batch).
DEFAULT_CHURN_RATES = (0.01, 0.05, 0.10)
ESTIMATE_SAMPLES = 4096
TRUTH_NODE_BUDGET = 5_000_000


def build_scenario(
    n_vertices: int = 6000,
    n_edges: int = 6000,
    n_labels: int = 2,
    k: int = 4,
    seed: int = DYN_SEED,
) -> Tuple[CSRGraph, QueryGraph]:
    """The seeded base graph + query every run mutates from."""
    rng = as_generator(derive_seed(seed, "dyn-scenario"))
    labels = random_labels(n_vertices, n_labels, rng)
    base = erdos_renyi_graph(
        n_vertices, n_edges, rng, labels=labels, name="dyn-er"
    )
    query = extract_query(
        base, k, rng=derive_seed(seed, "dyn-query"), name=f"dyn-q{k}"
    )
    return base, query


def _batch_sizes(rate: float, n_edges: int) -> Tuple[int, int]:
    """Insert/delete counts for one batch churning ``rate`` of the edges."""
    half = max(1, int(round(rate * n_edges / 2.0)))
    return half, half


def run_churn_run(
    base: CSRGraph,
    query: QueryGraph,
    rate: float,
    n_batches: int = 20,
    seed: int = DYN_SEED,
    check_every: int = 5,
) -> Dict[str, object]:
    """One churn-rate run: refresh and rebuild timing plus final q-error.

    Every ``check_every``-th version (and the last) is checked bit-identical
    against a from-scratch build on the same snapshot; the run aborts if any
    check fails — a wrong-but-fast refresh is not a benchmark result.
    """
    graph = MutableGraph(base)
    maintainer = DeltaPlanMaintainer(graph, query, validate_after_refresh=False)
    n_ins, n_del = _batch_sizes(rate, base.n_edges)
    stream = UniformChurnStream(
        n_ins, n_del, rng=derive_seed(seed, "dyn-stream", rate)
    )

    refresh_ms: List[float] = []
    rebuild_ms: List[float] = []
    n_checks = 0
    for b in range(n_batches):
        graph.apply(stream.next_batch(graph))
        snap = graph.snapshot()
        start = time.perf_counter()
        cg_full = build_candidate_graph(snap, query)
        rebuild_ms.append((time.perf_counter() - start) * 1000.0)
        stats = maintainer.refresh()
        refresh_ms.append(stats.refresh_ms)
        if (b + 1) % check_every == 0 or b == n_batches - 1:
            n_checks += 1
            if not candidate_graphs_equal(maintainer.cg, cg_full):
                raise SystemExit(
                    f"dynamic: refreshed plan diverged from full rebuild at "
                    f"rate {rate}, version {graph.version} — "
                    "bit-identity broken"
                )
    maintainer.cg.validate()

    snap = graph.snapshot()
    order = quicksi_order(query, snap)
    truth = count_embeddings(
        maintainer.cg, order, max_nodes=TRUTH_NODE_BUDGET
    )
    engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
    result = engine.run(
        maintainer.cg, order, ESTIMATE_SAMPLES,
        rng=derive_seed(seed, "dyn-estimate", rate),
    )

    mean_refresh = sum(refresh_ms) / len(refresh_ms)
    mean_rebuild = sum(rebuild_ms) / len(rebuild_ms)
    return {
        "churn_rate": rate,
        "n_batches": n_batches,
        "inserts_per_batch": n_ins,
        "deletes_per_batch": n_del,
        "final_version": graph.version,
        "final_edges": graph.n_edges,
        "mean_refresh_ms": mean_refresh,
        "mean_rebuild_ms": mean_rebuild,
        "n_identity_checks": n_checks,
        "bit_identical": True,  # a failed check aborts above
        "truth": truth.count,
        "truth_exhaustive": truth.complete,
        "estimate": result.estimate,
        "q_error": q_error(truth.count, result.estimate),
    }


def run_staleness_run(
    base: CSRGraph,
    query: QueryGraph,
    rate: float,
    n_batches: int = 20,
    refresh_every: int = 4,
    seed: int = DYN_SEED,
) -> Dict[str, object]:
    """Serve during churn with deferred refresh; measure the version lag.

    Between refreshes the session intentionally serves the stale plan —
    the contract under test is that every response still names the version
    it was computed at, so lag is observable and never exceeds
    ``refresh_every - 1`` + the in-flight batch.
    """
    with DynamicEstimationSession(
        MutableGraph(base), refresh_every=refresh_every
    ) as session:
        session.register_query(query)
        n_ins, n_del = _batch_sizes(rate, base.n_edges)
        stream = UniformChurnStream(
            n_ins, n_del, rng=derive_seed(seed, "dyn-stale-stream", rate)
        )
        lags: List[int] = []
        for _ in range(n_batches):
            session.mutate(stream.next_batch(session.graph))
            response = session.estimate(
                query, max_samples=1024, target_rel_ci=0.5
            )
            assert response.graph_version is not None
            lags.append(session.graph.version - response.graph_version)
        snap = session.service.metrics_snapshot()
    plans = snap["plans"]
    cache = snap["cache"]
    return {
        "churn_rate": rate,
        "refresh_every": refresh_every,
        "n_responses": len(lags),
        "mean_version_lag": sum(lags) / len(lags),
        "max_version_lag": max(lags),
        "stale_response_fraction": sum(1 for l in lags if l > 0) / len(lags),
        "n_plan_refreshes": plans["n_refreshes"],
        "n_plans_invalidated": plans["n_invalidated_entries"],
        "evictions_by_reason": cache["evictions_by_reason"],
    }


def run_dynamic_benchmark(
    churn_rates: Sequence[float] = DEFAULT_CHURN_RATES,
    n_batches: int = 20,
    refresh_every: int = 4,
    n_vertices: int = 6000,
    n_edges: int = 6000,
    n_labels: int = 2,
    k: int = 4,
    seed: int = DYN_SEED,
) -> Dict[str, object]:
    """The full sweep plus the acceptance verdict.

    Acceptance: at least three rates swept, bit-identity held at every
    checked version (a divergence aborts the run outright), and every
    staleness run kept its max version lag below ``refresh_every``.
    """
    if not churn_rates:
        raise ReproError("mutate-bench needs at least one churn rate")
    if n_batches < 1:
        raise ReproError(f"--batches must be >= 1, got {n_batches}")
    if refresh_every < 1:
        raise ReproError(f"--refresh-every must be >= 1, got {refresh_every}")
    base, query = build_scenario(n_vertices, n_edges, n_labels, k, seed)
    runs = [
        run_churn_run(base, query, rate, n_batches=n_batches, seed=seed)
        for rate in churn_rates
    ]
    staleness = [
        run_staleness_run(
            base, query, rate, n_batches=n_batches,
            refresh_every=refresh_every, seed=seed,
        )
        for rate in churn_rates
    ]

    checks = {
        "swept_three_rates": len(runs) >= 3,
        "bit_identical_all_rates": all(r["bit_identical"] for r in runs),
        "lag_bounded_by_refresh_every": all(
            s["max_version_lag"] < s["refresh_every"] for s in staleness
        ),
    }
    acceptance = {**checks, "passed": all(checks.values())}
    return {
        "seed": seed,
        "scenario": {
            "n_vertices": n_vertices,
            "n_edges": n_edges,
            "n_labels": n_labels,
            "query_k": k,
            "query": query.name,
        },
        "churn_rates": list(churn_rates),
        "n_batches": n_batches,
        "runs": runs,
        "staleness": staleness,
        "acceptance": acceptance,
    }
