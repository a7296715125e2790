"""Memory-budgeted LRU cache of built query plans.

Candidate-graph construction dominates per-query precomputation (the
paper's Table 3: build + transfer outweigh sampling for many queries), and
the artifact is identical for every request that shares the same
``(graph, query, build parameters)`` triple.  The serving layer therefore
caches the built :class:`~repro.candidate.candidate_graph.CandidateGraph`
and its matching order under the stable key from
:func:`repro.candidate.candidate_graph.plan_key`.

The budget is expressed in bytes of simulated device memory
(``CandidateGraph.nbytes``), mirroring how a real deployment would pin
candidate graphs in GPU global memory: plans are evicted least-recently-
used when admitting a new plan would exceed the budget.  A single plan
larger than the whole budget is built and returned but never admitted.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.candidate.candidate_graph import (
    CandidateGraph,
    build_candidate_graph,
    plan_key,
)
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.query.matching_order import MatchingOrder, gcare_order, quicksi_order
from repro.query.query_graph import QueryGraph

#: Order heuristics a plan may be built with.
_ORDER_BUILDERS = {
    "quicksi": quicksi_order,
    "gcare": gcare_order,
}

#: Versioned graph-id convention minted by ``repro.dyn.MutableGraph``:
#: ``<base>@v<version>`` with an optional ``#<fingerprint>`` suffix.  The
#: cache parses (rather than imports) the convention so the serve layer
#: stays import-independent of ``repro.dyn``.
_VERSIONED_ID = re.compile(r"^(?P<base>.+)@v(?P<version>\d+)(?:#[0-9a-f]+)?$")


def parse_versioned_graph_id(
    graph_id: Optional[str],
) -> Optional[Tuple[str, int]]:
    """``(base, version)`` when ``graph_id`` follows the versioned
    convention, else ``None``."""
    if graph_id is None:
        return None
    match = _VERSIONED_ID.match(graph_id)
    if match is None:
        return None
    return match.group("base"), int(match.group("version"))


@dataclass
class CachedPlan:
    """A built plan: the candidate graph, its matching order, and the
    simulated cost that building it charged (construction + PCIe
    transfer) — what a cache hit saves."""

    key: Tuple[str, int, Tuple[Tuple[str, object], ...]]
    cg: CandidateGraph
    order: MatchingOrder
    nbytes: int
    build_ms: float


def build_plan(
    graph: CSRGraph,
    query: QueryGraph,
    order_method: str = "quicksi",
    graph_id: Optional[str] = None,
    **filter_kwargs: object,
) -> CachedPlan:
    """Build one plan (cache-free path; also the cache's miss path)."""
    order_builder = _ORDER_BUILDERS.get(order_method)
    if order_builder is None:
        raise ServiceError(
            f"unknown order method {order_method!r}; known: "
            f"{sorted(_ORDER_BUILDERS)}"
        )
    key = plan_key(
        graph, query, order_method=order_method, graph_id=graph_id,
        **filter_kwargs,
    )
    cg = build_candidate_graph(graph, query, **filter_kwargs)
    order = order_builder(query, graph)
    return CachedPlan(
        key=key,
        cg=cg,
        order=order,
        nbytes=cg.nbytes,
        build_ms=cg.simulated_construction_ms() + cg.transfer_ms(),
    )


@dataclass
class PlanCache:
    """LRU plan cache bounded by simulated device bytes."""

    max_bytes: int = 64 << 20
    _entries: "OrderedDict[tuple, CachedPlan]" = field(default_factory=OrderedDict)
    current_bytes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Why entries left the cache: LRU pressure ("capacity") vs. explicit
    #: staleness eviction ("version", see :meth:`invalidate`).
    evictions_by_reason: Dict[str, int] = field(
        default_factory=lambda: {"capacity": 0, "version": 0}
    )

    def __post_init__(self) -> None:
        if self.max_bytes <= 0:
            raise ServiceError("cache max_bytes must be positive")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(
        self,
        graph: CSRGraph,
        query: QueryGraph,
        order_method: str = "quicksi",
        graph_id: Optional[str] = None,
        **filter_kwargs: object,
    ) -> Tuple[CachedPlan, bool]:
        """Return the plan for ``(graph, query)``, building on a miss.

        Returns ``(plan, hit)``; ``hit=False`` means the plan was built
        this call and its ``build_ms`` must be charged to the requester.
        """
        if order_method not in _ORDER_BUILDERS:
            raise ServiceError(
                f"unknown order method {order_method!r}; "
                f"known: {sorted(_ORDER_BUILDERS)}"
            )
        key = plan_key(
            graph, query, order_method=order_method, graph_id=graph_id,
            **filter_kwargs,
        )
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached, True

        self.misses += 1
        plan = build_plan(
            graph, query, order_method=order_method, graph_id=graph_id,
            **filter_kwargs,
        )
        self._admit(plan)
        return plan, False

    # ------------------------------------------------------------------
    def put(self, plan: CachedPlan) -> bool:
        """Install an externally built plan (e.g. a refreshed dynamic-graph one).

        Replaces any entry under the same key, then runs normal budget
        admission.  Returns True when the plan is resident afterwards.
        """
        existing = self._entries.pop(plan.key, None)
        if existing is not None:
            self.current_bytes -= existing.nbytes
        self._admit(plan)
        return plan.key in self._entries

    def invalidate(
        self, base_id: str, before_version: Optional[int] = None
    ) -> int:
        """Evict plans for stale versions of a mutating graph.

        Removes every entry whose graph id parses as ``base_id@vK`` with
        ``K < before_version`` (every version of ``base_id`` when
        ``before_version`` is None).  Counted under the ``"version"``
        eviction reason; returns how many entries were evicted.
        """
        stale: List[tuple] = []
        for key in self._entries:
            parsed = parse_versioned_graph_id(str(key[0]))
            if parsed is None:
                continue
            base, version = parsed
            if base != base_id:
                continue
            if before_version is None or version < before_version:
                stale.append(key)
        for key in stale:
            plan = self._entries.pop(key)
            self.current_bytes -= plan.nbytes
            self.evictions += 1
            self.evictions_by_reason["version"] += 1
        return len(stale)

    def _admit(self, plan: CachedPlan) -> None:
        if plan.nbytes > self.max_bytes:
            return  # larger than the whole budget: serve uncached
        while self.current_bytes + plan.nbytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self.current_bytes -= evicted.nbytes
            self.evictions += 1
            self.evictions_by_reason["capacity"] += 1
        self._entries[plan.key] = plan
        self.current_bytes += plan.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Plain-dict cache metrics merged into the service snapshot."""
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evictions_by_reason": dict(self.evictions_by_reason),
            "hit_rate": self.hit_rate,
        }
