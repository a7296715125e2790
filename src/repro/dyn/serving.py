"""Serving over a mutating graph: versioned plans, marked staleness.

:class:`DynamicEstimationSession` composes the three dynamic-graph pieces
with the existing :class:`~repro.serve.service.EstimationService`:

* a :class:`~repro.dyn.mutable.MutableGraph` supplies versioned snapshots
  and ids (``name@v<version>#<fingerprint>``);
* one :class:`~repro.dyn.delta.DeltaPlanMaintainer` per registered query
  keeps its plan in sync with the graph's version;
* refreshed plans are installed into the service's plan cache and stale
  versions are evicted (counted under the ``"version"`` eviction reason).

The consistency contract under concurrent mutation: an estimate is always
computed against the *snapshot its plan was built on*, and the response's
``graph_version`` names that version — so a caller can always detect (and
quantify) staleness by comparing against ``graph.version``, and the service
never silently mixes plan and graph from different versions.  With
``refresh_every > 1`` the session intentionally serves stale plans between
refreshes; they stay resident (not yet invalidated) and every response still
carries the version it was computed at.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.candidate.candidate_graph import plan_key, query_fingerprint
from repro.dyn.delta import DeltaPlanMaintainer, RefreshStats
from repro.dyn.mutable import AppliedDelta, EdgeBatch, MutableGraph
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.query.query_graph import QueryGraph
from repro.serve.cache import _ORDER_BUILDERS, CachedPlan
from repro.serve.request import EstimateRequest, EstimateResponse
from repro.serve.service import EstimationService, ServiceConfig


class DynamicEstimationSession:
    """Estimate over a :class:`MutableGraph` through the serving stack.

    Queries must use the service's default build parameters (full filter
    stack) so installed plans are found by the cache key the service
    computes at admission.
    """

    def __init__(
        self,
        graph: MutableGraph,
        service: Optional[EstimationService] = None,
        *,
        config: Optional[ServiceConfig] = None,
        refresh_every: int = 1,
        validate_refresh: bool = False,
    ) -> None:
        if refresh_every < 1:
            raise ServiceError("refresh_every must be >= 1")
        self.graph = graph
        self.service = service or EstimationService(config or ServiceConfig())
        if self.service.cache is None:
            raise ServiceError(
                "DynamicEstimationSession needs a plan cache "
                "(ServiceConfig.cache_bytes > 0)"
            )
        self.refresh_every = refresh_every
        self.validate_refresh = validate_refresh
        self._mutations_since_refresh = 0
        # Keyed by query fingerprint: the maintainer plus the versioned
        # graph id its current plan was installed under.
        self._maintainers: Dict[int, Tuple[QueryGraph, DeltaPlanMaintainer]] = {}
        self._plan_ids: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def register_query(self, query: QueryGraph) -> DeltaPlanMaintainer:
        """Build and install the plan for ``query`` at the current version."""
        fp = query_fingerprint(query)
        existing = self._maintainers.get(fp)
        if existing is not None:
            return existing[1]
        maintainer = DeltaPlanMaintainer(
            self.graph, query, validate_after_refresh=self.validate_refresh
        )
        self._maintainers[fp] = (query, maintainer)
        self._install(fp, query, maintainer)
        return maintainer

    def _install(
        self, fp: int, query: QueryGraph, maintainer: DeltaPlanMaintainer
    ) -> None:
        graph_id = self.graph.graph_id
        snap = maintainer.cg.graph
        order_builder = _ORDER_BUILDERS[self.service.config.order_method]
        cg = maintainer.cg
        plan = CachedPlan(
            key=plan_key(
                snap,
                query,
                order_method=self.service.config.order_method,
                graph_id=graph_id,
            ),
            cg=cg,
            order=order_builder(query, snap),
            nbytes=cg.nbytes,
            build_ms=cg.simulated_construction_ms() + cg.transfer_ms(),
        )
        self.service.install_plan(plan)
        self._plan_ids[fp] = graph_id
        # Seed the flight recorder's graph identity so a postmortem bundle
        # triggered before any round names the exact installed version.
        self.service.note_graph_identity(
            snap, graph_id=graph_id, graph_version=maintainer.version
        )

    # ------------------------------------------------------------------
    def mutate(self, batch: EdgeBatch) -> AppliedDelta:
        """Apply one update batch; refresh plans per ``refresh_every``."""
        delta = self.graph.apply(batch)
        self._mutations_since_refresh += 1
        if self._mutations_since_refresh >= self.refresh_every:
            self.refresh_plans()
        return delta

    def refresh_plans(self) -> List[RefreshStats]:
        """Bring every registered plan to the current version.

        Installs each refreshed plan under the new versioned id, then
        evicts every cached plan of an older version of this graph.
        """
        stats: List[RefreshStats] = []
        for fp, (query, maintainer) in self._maintainers.items():
            stats.append(maintainer.refresh())
            self._install(fp, query, maintainer)
        self.service.invalidate_plans(
            self.graph.name, before_version=self.graph.version
        )
        self._mutations_since_refresh = 0
        return stats

    # ------------------------------------------------------------------
    def staleness(self, query: QueryGraph) -> int:
        """Versions the query's plan lags behind the graph (0 = fresh)."""
        fp = query_fingerprint(query)
        entry = self._maintainers.get(fp)
        if entry is None:
            raise ServiceError("query not registered")
        return self.graph.version - entry[1].version

    def plan_snapshot(self, query: QueryGraph) -> CSRGraph:
        """The snapshot the query's current plan was built on."""
        fp = query_fingerprint(query)
        entry = self._maintainers.get(fp)
        if entry is None:
            raise ServiceError("query not registered")
        return entry[1].cg.graph

    def estimate(self, query: QueryGraph, **request_kwargs: object) -> EstimateResponse:
        """One estimate for ``query``, served against its plan's version.

        The request carries the plan's snapshot and versioned graph id, so
        the answer is consistent with one graph version end to end and
        ``response.graph_version`` names it — even when the plan is stale
        relative to ``graph.version``.
        """
        fp = query_fingerprint(query)
        entry = self._maintainers.get(fp)
        if entry is None:
            self.register_query(query)
            entry = self._maintainers[fp]
        _, maintainer = entry
        self.service.note_graph_identity(
            maintainer.cg.graph,
            graph_id=self._plan_ids[fp],
            graph_version=maintainer.version,
        )
        request = EstimateRequest(
            graph=maintainer.cg.graph,
            query=query,
            graph_id=self._plan_ids[fp],
            graph_version=maintainer.version,
            **request_kwargs,  # type: ignore[arg-type]
        )
        return self.service.estimate(request)

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "DynamicEstimationSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
