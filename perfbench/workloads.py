"""Workload generation: every input the benchmark sends, as a pure function
of the workload seed.

Query *banks* are pinned by :data:`BANK_SEED`, so runs on different seeds
measure the same mix of query shapes and cost classes; per-request cost
varies by an order of magnitude between queries, and a 16-template pool
drawn afresh per seed would make ``req_per_s`` a measure of the draw rather
than of the program.  The workload seed draws everything else: the order in
which templates are requested, every request id (the service derives each
request's sampling streams from its id), and the churn edge stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.candidate.candidate_graph import build_candidate_graph
from repro.enumeration.backtracking import count_embeddings
from repro.errors import QueryError
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.query.query_graph import QueryGraph
from repro.utils.rng import derive_seed

#: Root of every pinned query bank.
BANK_SEED = 20241017

#: Request envelope shared by all workloads: the serving benchmark's
#: interactive envelope (``repro.bench.serving.build_request_pool``).
TARGET_REL_CI = 0.2
MAX_SAMPLES = 8192

#: Closed-loop concurrency of every workload.
OUTSTANDING = 8

HOT_DATASETS = ("yeast", "hprd", "wordnet", "dblp")
COLD_DATASETS = ("yeast", "hprd", "wordnet", "dblp", "patents")
CHURN_DATASET = "hprd"

#: cold-plans dataset slots of one block.  dblp and patents take two slots
#: each.  yeast and hprd queries are two to three times cheaper than the
#: rest, and with one slot per dataset the latency median fell on the
#: boundary between the two cost classes (p45 880 ms, p55 1275 ms) and
#: jumped from run to run.  wordnet keeps one slot: its budget-capped
#: queries make the q-error tail, and with two slots ``qerror_p90`` sat
#: inside that tail and moved by 0.5 between seeds.
COLD_SLOTS = ("yeast", "dblp", "patents", "wordnet", "hprd", "dblp", "patents")
COLD_GROUPS = tuple((k, qtype) for qtype in ("dense", "sparse") for k in (8, 16))
#: cold-plans bank: blocks of one query per stratum (dataset slot x size x
#: type).  Pass ``a`` over the slots puts slot ``s`` in group ``(s + a) % 4``:
#: every (slot, group) pair occurs once, and any run of consecutive strata,
#: also across a cyclic wrap, has close to the block's mix.  Blocks are
#: consumed in bank order and the seed rotates each block, so the requests a
#: run gets through, and the quality prefix, have nearly the same mix of
#: cost classes on every seed.  (Permuting each block at random moved
#: ``sim_ms_per_req`` of the quality prefix by 30% between seeds.)
COLD_STRATA: Tuple[Tuple[str, int, str], ...] = tuple(
    (dataset, *COLD_GROUPS[(s + a) % len(COLD_GROUPS)])
    for a in range(len(COLD_GROUPS))
    for s, dataset in enumerate(COLD_SLOTS)
)
#: Blocks generated up front: four times what a 25 s run used on a quiet
#: 2-core host (340 requests), so a faster program still has new queries.
#: A run that consumes them all fails loudly rather than repeat a query
#: (which would turn into a plan-cache hit).
COLD_BLOCKS = 48

#: churn: 1% of the graph's edges change per batch (half inserts, half
#: deletes), then every registered query is estimated.
CHURN_RATE = 0.01
#: Batches run in epochs of ``CHURN_EPOCH`` stream batches followed by
#: their inverses in reverse order, so the graph never drifts more than
#: ``CHURN_EPOCH`` % from the base graph and the work per step does not
#: depend on how many steps a run gets through.  (A free-running uniform
#: stream rewires the graph towards a random one whose labelled embeddings
#: vanish, making later steps cheaper than earlier ones.)
CHURN_EPOCH = 10
#: Five queries, not four: with an even number of equally weighted
#: queries the latency median falls on the boundary between two queries'
#: cost classes and jumps between them from run to run.
CHURN_QUERIES: Tuple[Tuple[int, str, str], ...] = (
    (4, "sparse", "alley"),
    (4, "sparse", "wanderjoin"),
    (5, "sparse", "alley"),
    (5, "sparse", "wanderjoin"),
    (4, "dense", "alley"),
)
#: Churn queries need this many embeddings in the base graph, so that a
#: 10% drift leaves them non-empty (most hprd-analog queries have 1-3).
CHURN_MIN_COUNT = 20


@dataclass(frozen=True)
class Template:
    """One query the workload can request: dataset, query, estimator."""

    dataset: str
    query: QueryGraph
    estimator: str


def bank_query(dataset: str, k: int, qtype: str, *tokens: object) -> QueryGraph:
    """The pinned bank query for ``tokens``: extraction retried on fresh
    derived seeds until it succeeds (some sparse 16-vertex shapes fail on a
    given walk)."""
    graph = load_dataset(dataset)
    for attempt in range(64):
        try:
            return extract_query(
                graph, k,
                rng=derive_seed(BANK_SEED, dataset, k, qtype, *tokens, attempt),
                query_type=qtype,
                name=f"{dataset}-q{k}-{qtype}-" + "-".join(map(str, tokens)),
            )
        except QueryError:
            continue
    raise QueryError(f"no {qtype} {k}-vertex query from {dataset} in 64 tries")


def _permutation(n: int, *tokens: object) -> List[int]:
    gen = np.random.default_rng(derive_seed(*tokens))
    return [int(x) for x in gen.permutation(n)]


class ServingWorkload:
    """A request stream for the closed-loop service workloads.

    ``warm`` is the set-up warm pass; ``request(i)`` is the ``i``-th timed
    request as ``(template, request_id)``.
    """

    def __init__(
        self, name: str, seed: int, datasets: Sequence[str],
        warm: Sequence[Template],
    ) -> None:
        self.name = name
        self.seed = seed
        self.datasets = tuple(datasets)
        self.warm = tuple(warm)

    def request_id(self, i: int) -> str:
        return f"{self.name}-s{self.seed}-{i}"

    def warm_request_id(self, j: int) -> str:
        # Seed-free: the warm pass is set-up, and its sampling work must
        # not vary with the workload seed.
        return f"{self.name}-warm-{j}"

    def request(self, i: int) -> Tuple[Template, str]:
        raise NotImplementedError


class HotCacheWorkload(ServingWorkload):
    """16 templates (4 datasets x 4- and 8-vertex queries x 2 instances,
    Alley and WanderJoin alternating) requested in seed-permuted cycles;
    the warm pass builds every plan, so timed requests are all cache hits."""

    def __init__(self, seed: int) -> None:
        templates = []
        for i in range(16):
            dataset = HOT_DATASETS[i % 4]
            k = (4, 8)[(i // 4) % 2]
            qtype = "sparse" if k == 8 and (i // 8) % 2 else "dense"
            templates.append(
                Template(
                    dataset,
                    bank_query(dataset, k, qtype, "hot", i),
                    "alley" if i % 2 == 0 else "wanderjoin",
                )
            )
        super().__init__("hot-cache", seed, HOT_DATASETS, templates)
        self.templates = tuple(templates)
        self._perms: Dict[int, List[int]] = {}

    def _perm(self, cycle: int) -> List[int]:
        perm = self._perms.get(cycle)
        if perm is None:
            perm = _permutation(len(self.templates), self.seed, self.name, cycle)
            self._perms[cycle] = perm
        return perm

    def request(self, i: int) -> Tuple[Template, str]:
        n = len(self.templates)
        return self.templates[self._perm(i // n)[i % n]], self.request_id(i)


class ColdPlansWorkload(ServingWorkload):
    """Every timed request is a query not seen before in the run (8- and
    16-vertex, dense and sparse, over five datasets), so every admission
    builds a plan.  The warm pass uses its own queries, outside the bank."""

    def __init__(self, seed: int) -> None:
        warm = [
            Template(d, bank_query(d, 8, "dense", "cold-warm"), "alley")
            for d in COLD_DATASETS
        ]
        super().__init__("cold-plans", seed, COLD_DATASETS, warm)
        self.bank = tuple(
            Template(
                dataset,
                bank_query(dataset, k, qtype, "cold", b, s),
                "alley" if (b + s) % 2 == 0 else "wanderjoin",
            )
            for b in range(COLD_BLOCKS)
            for s, (dataset, k, qtype) in enumerate(COLD_STRATA)
        )

    def request(self, i: int) -> Tuple[Template, str]:
        n = len(COLD_STRATA)
        block = i // n
        if block * n >= len(self.bank):
            raise RuntimeError(
                f"cold-plans bank exhausted after {len(self.bank)} requests; "
                "raise COLD_BLOCKS"
            )
        rotation = derive_seed(self.seed, self.name, block) % n
        return (
            self.bank[block * n + (rotation + i) % n],
            self.request_id(i),
        )


def counted_query(dataset: str, k: int, qtype: str, min_count: int, *tokens):
    """The first pinned bank query with at least ``min_count`` embeddings."""
    graph = load_dataset(dataset)
    for attempt in range(200):
        query = bank_query(dataset, k, qtype, *tokens, attempt)
        cg = build_candidate_graph(graph, query)
        result = count_embeddings(
            cg, quicksi_order(query, graph), max_count=min_count
        )
        if result.count >= min_count:
            return query
    raise QueryError(f"no {qtype} {k}-vertex query with {min_count} embeddings")


class ChurnWorkload:
    """The hprd analog as a mutating graph with five registered queries.

    Each step applies one :class:`~repro.dyn.UniformChurnStream` batch
    (drawn from the seed) or, in the second half of an epoch, the inverse
    of one, then estimates every registered query."""

    name = "churn"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.datasets = (CHURN_DATASET,)
        self.epoch = CHURN_EPOCH
        self.templates = tuple(
            Template(
                CHURN_DATASET,
                counted_query(
                    CHURN_DATASET, k, qtype, CHURN_MIN_COUNT, "churn", j
                ),
                estimator,
            )
            for j, (k, qtype, estimator) in enumerate(CHURN_QUERIES)
        )

    def batch_sizes(self, n_edges: int) -> Tuple[int, int]:
        """(inserts, deletes) per batch for a graph of ``n_edges`` edges."""
        half = max(1, int(round(n_edges * CHURN_RATE / 2)))
        return half, half

    def stream_seed(self) -> int:
        return derive_seed(self.seed, "churn-stream")

    def request_id(self, step: int, j: int) -> str:
        return f"churn-s{self.seed}-{step}-{j}"

    def warm_request_id(self, j: int) -> str:
        return f"churn-warm-{j}"


WORKLOADS = ("hot-cache", "cold-plans", "churn")


def make_workload(name: str, seed: int):
    """The workload ``name`` for ``seed`` (pure: equal seeds, equal inputs)."""
    if name == "hot-cache":
        return HotCacheWorkload(seed)
    if name == "cold-plans":
        return ColdPlansWorkload(seed)
    if name == "churn":
        return ChurnWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
