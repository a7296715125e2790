"""Dynamic graphs: plan refresh under edge churn.

Not a paper figure — gSWORD assumes a static data graph; this benchmarks
the ``repro.dyn`` subsystem the reproduction adds on top.  Expected shape:

* **refresh ≈ rebuild** — a refresh rebuilds the plan on the new
  snapshot, so its wall time tracks a bare ``build_candidate_graph``
  (a few ms on the 6000-vertex scenario) at every churn rate;
* **bit-identity always** — every checked version must match a
  from-scratch build exactly (q-error differences come only from the
  estimator);
* **bounded staleness** — with deferred refresh (``refresh_every=4``)
  responses lag at most 3 versions and every response names the version
  it was computed at.
"""

from __future__ import annotations

import os

from repro.bench.dynamic import run_dynamic_benchmark
from repro.bench.reporting import render_table, save_results

CHURN_RATES = tuple(
    float(r) for r in os.environ.get(
        "REPRO_BENCH_DYN_RATES", "0.01,0.05,0.10"
    ).split(",")
)
N_BATCHES = int(os.environ.get("REPRO_BENCH_DYN_BATCHES", "20"))
N_VERTICES = int(os.environ.get("REPRO_BENCH_DYN_VERTICES", "6000"))
N_EDGES = int(os.environ.get("REPRO_BENCH_DYN_EDGES", "6000"))


def run_dynamic_graph():
    payload = run_dynamic_benchmark(
        churn_rates=CHURN_RATES,
        n_batches=N_BATCHES,
        n_vertices=N_VERTICES,
        n_edges=N_EDGES,
    )
    rows = [
        [
            run["churn_rate"], run["mean_refresh_ms"],
            run["mean_rebuild_ms"], run["q_error"],
        ]
        for run in payload["runs"]
    ]
    print()
    print(render_table(
        ["churn", "refresh ms", "rebuild ms", "q-err"],
        rows,
        title="Plan refresh under churn",
    ))
    save_results("dynamic_graph", payload)
    return payload


def test_dynamic_graph(benchmark):
    payload = benchmark.pedantic(run_dynamic_graph, rounds=1, iterations=1)
    assert payload["acceptance"]["passed"], payload["acceptance"]


if __name__ == "__main__":
    raise SystemExit(
        0 if run_dynamic_graph()["acceptance"]["passed"] else 1
    )
