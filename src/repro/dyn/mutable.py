"""A mutable, versioned view over an immutable :class:`CSRGraph`.

Every other layer of the library treats the data graph as frozen; this module
adds mutation *around* that contract instead of breaking it.  A
:class:`MutableGraph` keeps an immutable CSR base plus a small edge overlay
(added / removed sets).  Applying an :class:`EdgeBatch` touches only the
overlay — O(batch), never O(graph) — bumps a monotonically increasing
``version``, and XOR-updates a content fingerprint.  A consistent
:class:`CSRGraph` snapshot can be materialised for the current version (and is
cached per version); when the overlay grows past a threshold the overlay is
folded into a new base ("compaction") so snapshot cost stays proportional to
the graph, not to history.

The version/fingerprint pair is what the serving layer keys plan-cache entries
on: ``graph_id`` embeds both (``name@v<version>#<fingerprint>``), so two
distinct versions can never collide in the cache and a stale entry is
identifiable by parsing the id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.utils.rng import DrawLedger, RandomSource, as_generator

_MASK64 = (1 << 64) - 1

EdgeLike = Union[Tuple[int, int], Sequence[int]]


def _mix64(x: int) -> int:
    """splitmix64 finaliser: a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64_vec(keys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_mix64` over a ``uint64`` array."""
    x = (keys + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def normalize_edges(
    edges: Union[np.ndarray, Iterable[EdgeLike]], n_vertices: int
) -> np.ndarray:
    """Canonicalise an edge collection into a sorted ``int64[k, 2]`` array.

    Orients each pair as ``(min, max)``, drops duplicates, and rejects
    self-loops and out-of-range endpoints — the same invariants
    :class:`~repro.graph.builder.GraphBuilder` enforces.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    arr = arr.reshape(-1, 2).astype(np.int64)
    if np.any(arr[:, 0] == arr[:, 1]):
        raise GraphError("edge batch contains a self-loop")
    if arr.min() < 0 or arr.max() >= n_vertices:
        raise GraphError(
            f"edge endpoint out of range [0, {n_vertices}) in batch"
        )
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = np.unique(lo * np.int64(n_vertices) + hi)
    return np.stack([keys // n_vertices, keys % n_vertices], axis=1)


@dataclass(frozen=True)
class EdgeBatch:
    """One atomic unit of graph mutation: edges to insert and to delete.

    Arrays are canonical (``(min, max)`` orientation, sorted, deduplicated);
    build instances through :meth:`make` unless the inputs are already
    canonical.  Inserting an edge that exists, or deleting one that does not,
    is a no-op at apply time — streams can be generated optimistically.
    """

    inserts: np.ndarray  # int64[k, 2]
    deletes: np.ndarray  # int64[j, 2]

    @staticmethod
    def make(
        inserts: Union[np.ndarray, Iterable[EdgeLike]] = (),
        deletes: Union[np.ndarray, Iterable[EdgeLike]] = (),
        n_vertices: int = 0,
    ) -> "EdgeBatch":
        ins = normalize_edges(inserts, n_vertices)
        dels = normalize_edges(deletes, n_vertices)
        return EdgeBatch(inserts=ins, deletes=dels)

    @property
    def size(self) -> int:
        return len(self.inserts) + len(self.deletes)


@dataclass(frozen=True)
class AppliedDelta:
    """The *effective* change of one applied batch.

    ``added``/``removed`` list only edges whose presence actually flipped
    (insert-of-existing and delete-of-absent requests are dropped), so a
    consumer replaying deltas sees exactly the graph's evolution.
    """

    version: int  # version the graph reached after this delta
    added: np.ndarray  # int64[a, 2], canonical
    removed: np.ndarray  # int64[r, 2], canonical

    @property
    def is_empty(self) -> bool:
        return len(self.added) == 0 and len(self.removed) == 0

    def endpoints(self) -> np.ndarray:
        """Sorted unique vertex ids touched by this delta."""
        if self.is_empty:
            return np.zeros(0, dtype=np.int64)
        return np.unique(
            np.concatenate([self.added.ravel(), self.removed.ravel()])
        )


class MutableGraph:
    """Versioned edge-mutable wrapper over an immutable :class:`CSRGraph`.

    The vertex set and labels are fixed (streams mutate edges only), so
    vertex ids and label indexes stay valid across versions.  All mutation
    goes through :meth:`apply`, which is O(batch).
    """

    def __init__(
        self,
        base: CSRGraph,
        *,
        compact_every: Optional[int] = None,
        compact_ratio: float = 0.25,
    ) -> None:
        if compact_every is not None and compact_every <= 0:
            raise GraphError("compact_every must be positive when set")
        if compact_ratio <= 0:
            raise GraphError("compact_ratio must be positive")
        self._base = base
        self._name = base.name
        self._compact_every = compact_every
        self._compact_ratio = compact_ratio
        self._version = 0
        # Overlay invariants: _added ∩ base edges = ∅ and _removed ⊆ base
        # edges, so membership is `in added or (in base and not in removed)`.
        self._added: set = set()
        self._removed: set = set()
        self._log: List[AppliedDelta] = []
        self._snapshot_cache: Dict[int, CSRGraph] = {}
        # XOR-of-edge-hashes fingerprint: toggling an edge toggles its term,
        # so maintenance per applied edge is O(1).
        n = base.n_vertices
        if base.n_edges:
            src = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(base.offsets)
            )
            dst = base.neighbors.astype(np.int64)
            once = src < dst  # hash each undirected edge exactly once
            keys = (src[once] * n + dst[once]).astype(np.uint64)
            self._edge_fp = int(
                np.bitwise_xor.reduce(_mix64_vec(keys), initial=np.uint64(0))
            )
        else:
            self._edge_fp = 0
        self._labels_fp = _mix64(
            int(
                np.bitwise_xor.reduce(
                    _mix64_vec(
                        base.labels.astype(np.uint64)
                        * np.uint64(0x9E3779B97F4A7C15)
                        + np.arange(n, dtype=np.uint64)
                    ),
                    initial=np.uint64(0),
                )
            )
            if n
            else 0
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def version(self) -> int:
        """Monotonically increasing; bumped once per :meth:`apply`."""
        return self._version

    @property
    def n_vertices(self) -> int:
        return self._base.n_vertices

    @property
    def n_edges(self) -> int:
        return self._base.n_edges + len(self._added) - len(self._removed)

    @property
    def delta_size(self) -> int:
        """Current overlay size (edges pending compaction)."""
        return len(self._added) + len(self._removed)

    def content_fingerprint(self) -> str:
        """16-hex-digit digest of the current edge set + labels.

        Maintained incrementally (XOR of per-edge hashes), so reading it is
        O(1) at any version; two versions with identical content hash
        identically even across different mutation histories.
        """
        mixed = _mix64(
            self._edge_fp ^ self._labels_fp ^ _mix64(self.n_vertices)
        )
        return f"{mixed:016x}"

    @property
    def graph_id(self) -> str:
        """Versioned cache identity: ``name@v<version>#<fingerprint>``.

        The serve plan cache parses this format (see
        :meth:`repro.serve.PlanCache.invalidate`) to evict stale versions.
        """
        return f"{self._name}@v{self._version}#{self.content_fingerprint()}"

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Overlay-aware edge membership (no snapshot materialisation)."""
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in self._added:
            return True
        if key in self._removed:
            return False
        return self._base.has_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, batch: EdgeBatch) -> AppliedDelta:
        """Apply one batch; returns the effective delta. O(batch) work.

        No-op requests (inserting a present edge, deleting an absent one)
        are silently dropped; the version advances even for an empty
        effective delta so every applied batch is a distinct version.
        """
        added: List[Tuple[int, int]] = []
        removed: List[Tuple[int, int]] = []
        n = self.n_vertices
        for u, v in batch.inserts:
            key = (int(u), int(v))
            if key in self._added:
                continue
            if key in self._removed:
                self._removed.discard(key)  # base edge restored
            elif self._base.has_edge(*key):
                continue
            else:
                self._added.add(key)
            added.append(key)
            self._edge_fp ^= _mix64(key[0] * n + key[1])
        for u, v in batch.deletes:
            key = (int(u), int(v))
            if key in self._added:
                self._added.discard(key)
            elif key in self._removed or not self._base.has_edge(*key):
                continue
            else:
                self._removed.add(key)
            removed.append(key)
            self._edge_fp ^= _mix64(key[0] * n + key[1])
        self._version += 1
        delta = AppliedDelta(
            version=self._version,
            added=np.asarray(added, dtype=np.int64).reshape(-1, 2),
            removed=np.asarray(removed, dtype=np.int64).reshape(-1, 2),
        )
        self._log.append(delta)
        self._snapshot_cache.clear()
        if self._should_compact():
            self.compact()
        return delta

    def _should_compact(self) -> bool:
        if self._compact_every and self._version % self._compact_every == 0:
            return self.delta_size > 0
        threshold = max(1, int(self._compact_ratio * self._base.n_edges))
        return self.delta_size > threshold

    def compact(self) -> None:
        """Fold the overlay into a fresh immutable base.

        Pure representation change: snapshots before and after are
        bit-identical, and the delta log / version are untouched.
        """
        if self.delta_size == 0:
            return
        snap = self._materialize()
        self._base = CSRGraph(
            offsets=snap.offsets,
            neighbors=snap.neighbors,
            labels=snap.labels,
            name=self._name,
        )
        self._added.clear()
        self._removed.clear()

    # ------------------------------------------------------------------
    # Snapshots & history
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """A consistent immutable :class:`CSRGraph` of the current version.

        Cached per version; cost is one pass over the adjacency of touched
        vertices plus block copies of untouched CSR runs.
        """
        cached = self._snapshot_cache.get(self._version)
        if cached is None:
            cached = self._materialize()
            self._snapshot_cache[self._version] = cached
        return cached

    def _materialize(self) -> CSRGraph:
        base = self._base
        name = f"{self._name}@v{self._version}"
        if not self._added and not self._removed:
            return CSRGraph(
                offsets=base.offsets,
                neighbors=base.neighbors,
                labels=base.labels,
                name=name,
            )
        add_adj: Dict[int, List[int]] = {}
        rem_adj: Dict[int, set] = {}
        for u, v in self._added:
            add_adj.setdefault(u, []).append(v)
            add_adj.setdefault(v, []).append(u)
        for u, v in self._removed:
            rem_adj.setdefault(u, set()).add(v)
            rem_adj.setdefault(v, set()).add(u)
        touched = sorted(set(add_adj) | set(rem_adj))
        new_adj: Dict[int, np.ndarray] = {}
        degrees = np.diff(base.offsets)
        for v in touched:
            adj = base.neighbors_of(v)
            rem = rem_adj.get(v)
            if rem:
                keep = ~np.isin(adj, np.fromiter(rem, dtype=np.int64))
                adj = adj[keep]
            add = add_adj.get(v)
            if add:
                adj = np.concatenate(
                    [adj.astype(np.int32), np.asarray(sorted(add), dtype=np.int32)]
                )
                adj = np.sort(adj)
            new_adj[v] = np.ascontiguousarray(adj, dtype=np.int32)
            degrees[v] = len(new_adj[v])
        offsets = np.zeros(base.n_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        neighbors = np.empty(int(offsets[-1]), dtype=np.int32)
        # Copy untouched runs in contiguous blocks between touched vertices.
        prev = 0
        for v in touched:
            if v > prev:
                src = base.neighbors[base.offsets[prev] : base.offsets[v]]
                neighbors[offsets[prev] : offsets[v]] = src
            neighbors[offsets[v] : offsets[v + 1]] = new_adj[v]
            prev = v + 1
        if prev < base.n_vertices:
            neighbors[offsets[prev] :] = base.neighbors[base.offsets[prev] :]
        return CSRGraph(
            offsets=offsets,
            neighbors=neighbors,
            labels=base.labels,
            name=name,
        )

    def deltas_since(self, version: int) -> List[AppliedDelta]:
        """Effective deltas applied after ``version`` (oldest first).

        The full log is retained (memory grows with history); callers
        track their own high-water mark (the candidate-graph maintainer
        reads the deltas since its last refresh for its accounting).
        """
        if version > self._version:
            raise GraphError(
                f"version {version} is ahead of graph version {self._version}"
            )
        return [d for d in self._log if d.version > version]

    # ------------------------------------------------------------------
    # Sampling helpers (used by repro.dyn.stream)
    # ------------------------------------------------------------------
    def sample_edges(self, k: int, rng: RandomSource = None) -> np.ndarray:
        """``k`` uniform existing edges (with replacement), ``int64[k, 2]``.

        Samples directed slots of the current snapshot's neighbour array —
        each undirected edge owns exactly two slots, so the marginal is
        uniform over undirected edges.
        """
        gen = as_generator(rng)
        snap = self.snapshot()
        if snap.n_edges == 0 or k <= 0:
            return np.zeros((0, 2), dtype=np.int64)
        slots = gen.integers(0, len(snap.neighbors), size=k)
        src = (
            np.searchsorted(snap.offsets, slots, side="right") - 1
        ).astype(np.int64)
        dst = snap.neighbors[slots].astype(np.int64)
        return np.stack(
            [np.minimum(src, dst), np.maximum(src, dst)], axis=1
        )

    def sample_non_edges(self, k: int, rng: RandomSource = None) -> np.ndarray:
        """``k`` uniform vertex pairs that are currently *not* edges.

        Rejection sampling; suitable for the sparse graphs this library
        targets (acceptance probability ``1 - density`` ≈ 1).
        """
        gen = as_generator(rng)
        n = self.n_vertices
        if n < 2 or k <= 0:
            return np.zeros((0, 2), dtype=np.int64)
        out: List[Tuple[int, int]] = []
        guard = 0
        # Ledgered (see :class:`repro.utils.rng.DrawLedger`): the churn
        # streams call this every batch with a shared generator, so the
        # rejection loop must consume the stream exactly as the scalar
        # draws did — the ledger batches the fetches without moving them.
        with DrawLedger(gen) as led:
            while len(out) < k and guard < 200 * k + 1000:
                guard += 1
                u = led.integers(0, n)
                v = led.integers(0, n)
                if u != v and not self.has_edge(u, v):
                    out.append((min(u, v), max(u, v)))
        return np.asarray(out, dtype=np.int64).reshape(-1, 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableGraph(name={self._name!r}, v={self._version}, "
            f"|V|={self.n_vertices}, |E|={self.n_edges}, "
            f"delta={self.delta_size})"
        )
