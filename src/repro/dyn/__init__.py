"""repro.dyn — dynamic graphs: estimation over a mutating, versioned graph.

The subsystem in four pieces (see DESIGN.md "Dynamic graphs"):

* :mod:`repro.dyn.mutable` — :class:`MutableGraph`, a versioned edge-overlay
  wrapper over the immutable CSR graph (O(batch) mutation, per-version
  snapshots, incremental content fingerprint);
* :mod:`repro.dyn.delta` — :class:`DeltaPlanMaintainer`, which keeps a
  query's candidate graph synced by rebuilding it per refreshed version;
* :mod:`repro.dyn.stream` — seeded synthetic update streams and an
  Algorithm-R edge reservoir;
* :mod:`repro.dyn.serving` — :class:`DynamicEstimationSession`, version-aware
  plan caching and staleness-marked serving.
"""

from repro.dyn.delta import (
    DeltaPlanMaintainer,
    RefreshStats,
    candidate_graphs_equal,
)
from repro.dyn.mutable import (
    AppliedDelta,
    EdgeBatch,
    MutableGraph,
    normalize_edges,
)
from repro.dyn.serving import DynamicEstimationSession
from repro.dyn.stream import (
    EdgeReservoir,
    PreferentialGrowthStream,
    SlidingWindowStream,
    UniformChurnStream,
    drive,
)

__all__ = [
    "AppliedDelta",
    "DeltaPlanMaintainer",
    "DynamicEstimationSession",
    "EdgeBatch",
    "EdgeReservoir",
    "MutableGraph",
    "PreferentialGrowthStream",
    "RefreshStats",
    "SlidingWindowStream",
    "UniformChurnStream",
    "candidate_graphs_equal",
    "drive",
    "normalize_edges",
]
