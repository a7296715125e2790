"""Candidate-graph maintenance over a mutating graph.

:class:`DeltaPlanMaintainer` keeps one query's
:class:`~repro.candidate.candidate_graph.CandidateGraph` in sync with a
:class:`~repro.dyn.mutable.MutableGraph`.  A refresh rebuilds the plan with
:func:`~repro.candidate.candidate_graph.build_candidate_graph` on the new
snapshot, so the refreshed plan is bit-identical to a from-scratch build
by construction (``tests/test_dyn_equivalence.py`` still checks it at every
version of a 200-batch stream).

The build's filters and CSR materialisation are flat array passes, and a
rebuild outruns the incremental refresh this module used to run (cache
every filter stage, re-evaluate only a delta's dirty frontier, copy clean
CSR rows): on the ``repro mutate-bench`` scenario at 5% churn the old
refresh took ~14 ms and the rebuild ~3 ms.  DESIGN.md "Dynamic graphs"
has the full comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph, build_candidate_graph
from repro.dyn.mutable import MutableGraph
from repro.errors import CandidateGraphError
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class RefreshStats:
    """Accounting for one :meth:`DeltaPlanMaintainer.refresh` call."""

    from_version: int
    to_version: int
    n_added: int
    n_removed: int
    rows_total: int  # (edge, candidate) slots in the refreshed CSR 3
    rows_touched: int  # slots recomputed: all of them unless a no-op
    refresh_ms: float
    validated: bool

    @property
    def touched_fraction(self) -> float:
        if self.rows_total == 0:
            return 0.0
        return self.rows_touched / self.rows_total

    @property
    def is_noop(self) -> bool:
        return self.from_version == self.to_version


def candidate_graphs_equal(a: CandidateGraph, b: CandidateGraph) -> bool:
    """Array-level equality of two candidate graphs (the bit-identity check).

    Compares every CSR array and every global candidate set; ignores
    timings and the host-side edge-id dict (derived data).
    """
    pairs = (
        (a.q_offsets, b.q_offsets),
        (a.q_targets, b.q_targets),
        (a.ecand_offsets, b.ecand_offsets),
        (a.ecand_vertices, b.ecand_vertices),
        (a.local_offsets, b.local_offsets),
        (a.local_vertices, b.local_vertices),
    )
    for x, y in pairs:
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    if len(a.global_candidates) != len(b.global_candidates):
        return False
    for x, y in zip(a.global_candidates, b.global_candidates):
        if not np.array_equal(x, y):
            return False
    return True


class DeltaPlanMaintainer:
    """Keeps a :class:`CandidateGraph` in sync with a :class:`MutableGraph`.

    Construction builds the plan at the graph's current version; each
    :meth:`refresh` catches up with every delta applied since the last sync.
    """

    def __init__(
        self,
        graph: MutableGraph,
        query: QueryGraph,
        *,
        use_nlf: bool = True,
        refine_passes: int = 2,
        use_degree: bool = True,
        use_label: bool = True,
        validate_after_refresh: bool = True,
    ) -> None:
        self.graph = graph
        self.query = query
        self.use_nlf = use_nlf
        self.refine_passes = max(0, refine_passes)
        self.use_degree = use_degree
        self.use_label = use_label
        self.validate_after_refresh = validate_after_refresh
        self.last_stats: Optional[RefreshStats] = None
        self.rebuild()

    def _build(self) -> CandidateGraph:
        return build_candidate_graph(
            self.graph.snapshot(),
            self.query,
            use_nlf=self.use_nlf,
            refine_passes=self.refine_passes,
            use_degree=self.use_degree,
            use_label=self.use_label,
        )

    def refresh(self) -> RefreshStats:
        """Catch up with every delta applied since the last sync.

        Returns accounting (and stores it in ``last_stats``).  When
        ``validate_after_refresh`` is set, runs the refreshed graph through
        :meth:`CandidateGraph.validate` — a structural audit that raises
        :class:`CandidateGraphError` on any inconsistency.
        """
        start = time.perf_counter()
        from_version = self.version
        if self.graph.version == from_version:
            stats = RefreshStats(
                from_version=from_version,
                to_version=from_version,
                n_added=0,
                n_removed=0,
                rows_total=int(len(self.cg.ecand_vertices)),
                rows_touched=0,
                refresh_ms=0.0,
                validated=False,
            )
        else:
            deltas = self.graph.deltas_since(from_version)
            self.rebuild()
            if self.validate_after_refresh:
                self.cg.validate()
            rows = int(len(self.cg.ecand_vertices))
            stats = RefreshStats(
                from_version=from_version,
                to_version=self.version,
                n_added=sum(len(d.added) for d in deltas),
                n_removed=sum(len(d.removed) for d in deltas),
                rows_total=rows,
                rows_touched=rows,
                refresh_ms=(time.perf_counter() - start) * 1000.0,
                validated=self.validate_after_refresh,
            )
        self.last_stats = stats
        return stats

    def rebuild(self) -> CandidateGraph:
        """Full from-scratch build on the current snapshot (what
        :meth:`refresh` runs when the graph moved)."""
        self.version = self.graph.version
        self.cg = self._build()
        return self.cg

    def check_against_rebuild(self) -> bool:
        """Bit-identity probe: does the maintained plan equal a fresh build?"""
        return candidate_graphs_equal(self.cg, self._build())

    def assert_synced(self) -> None:
        if self.version != self.graph.version:
            raise CandidateGraphError(
                f"maintainer at v{self.version} behind graph "
                f"v{self.graph.version}; call refresh()"
            )
