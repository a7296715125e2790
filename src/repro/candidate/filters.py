"""Global candidate-set filters (Definition 4).

Candidate graphs start from per-query-vertex global candidate sets.  We
implement the standard filter stack used by CPU subgraph-matching systems
(and by G-CARE / the paper's candidate-graph preparation):

1. label + degree filter (``C(u) = {v : L(v)=L(u), deg(v) >= deg(u)}``),
2. the NLF (neighbourhood label frequency) filter, and
3. iterative edge-consistency refinement: drop ``v`` from ``C(u)`` when some
   query edge ``(u, u')`` leaves ``v`` with no neighbour in ``C(u')``.

All three are *sound*: they never remove a vertex that participates in an
embedding, which the property tests assert.

NLF and refinement run as array passes, GSI-style: one flat CSR gather of
the adjacency of every candidate in ``C(u)`` (:func:`gather_neighbors`,
which also tags each entry with its owning candidate), then one
``bincount`` over the owner index per required label or per query
neighbour.  No per-candidate Python loop remains; the output is identical
to the per-candidate predicates the docstrings state.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.query.query_graph import QueryGraph


def gather_neighbors(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated adjacency lists of ``vertices`` in one flat gather.

    Returns ``(nbrs, owner)``: ``nbrs`` lists the neighbours of
    ``vertices[0]``, then of ``vertices[1]``, ... (each run sorted, as
    stored in the CSR), and ``owner[i]`` is the position in ``vertices``
    whose adjacency entry ``nbrs[i]`` is.
    """
    starts = graph.offsets[vertices]
    counts = graph.offsets[vertices + 1] - starts
    bases = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    flat_idx = np.arange(len(owner), dtype=np.int64) + np.repeat(starts - bases, counts)
    return graph.neighbors[flat_idx], owner


def label_degree_filter(
    graph: CSRGraph,
    query: QueryGraph,
    use_degree: bool = True,
) -> List[np.ndarray]:
    """Per-query-vertex candidates by label equality and degree dominance.

    ``use_degree=False`` skips the degree filter.  The label filter always
    applies: even sampling *directly on the data graph* (appendix Figs.
    26-28) seeds from a label index.  ``build_candidate_graph(...,
    use_label=False)`` models that mode through its local-candidate
    membership masks, not here.
    """
    degrees = graph.degrees
    candidates: List[np.ndarray] = []
    for u in range(query.n_vertices):
        pool = graph.vertices_with_label(query.label(u))
        if use_degree:
            pool = pool[degrees[pool] >= query.degree(u)]
        candidates.append(np.sort(pool).astype(np.int64))
    return candidates


def nlf_filter(
    graph: CSRGraph, query: QueryGraph, candidates: List[np.ndarray]
) -> List[np.ndarray]:
    """Neighbourhood-label-frequency filter.

    ``v`` survives in ``C(u)`` only if, for every label ``l`` appearing among
    ``u``'s query neighbours, ``v`` has at least as many data neighbours with
    label ``l``.  Per query vertex: one gather of the candidates' adjacency,
    then ``bincount(owner[labels[nbrs] == l]) >= count`` per required label.
    """
    refined: List[np.ndarray] = []
    for u in range(query.n_vertices):
        cand = candidates[u]
        required = Counter(query.label(w) for w in query.neighbors(u))
        if not required:
            refined.append(cand.copy())
            continue
        nbrs, owner = gather_neighbors(graph, cand)
        nbr_labels = graph.labels[nbrs]
        keep = np.ones(len(cand), dtype=bool)
        for label, count in required.items():
            have = np.bincount(owner[nbr_labels == label], minlength=len(cand))
            keep &= have >= count
        refined.append(cand[keep].astype(np.int64, copy=False))
    return refined


def refine_global_candidates(
    graph: CSRGraph,
    query: QueryGraph,
    candidates: List[np.ndarray],
    passes: int = 2,
) -> List[np.ndarray]:
    """Iterative edge-consistency pruning (semi-join reduction).

    Repeats up to ``passes`` sweeps or until a fixpoint: for every query edge
    ``(u, u')``, a candidate ``v`` of ``u`` must have at least one data
    neighbour inside ``C(u')``.  Sweeps are Jacobi-style: membership masks
    are frozen at the start of each sweep, so pruning ``C(u)`` mid-sweep does
    not feed into the same sweep's verdicts for ``u``'s neighbours.
    """
    n_data = graph.n_vertices
    current = [c.copy() for c in candidates]
    for _ in range(max(0, passes)):
        changed = False
        masks: Dict[int, np.ndarray] = {}
        for u in range(query.n_vertices):
            mask = np.zeros(n_data, dtype=bool)
            mask[current[u]] = True
            masks[u] = mask
        for u in range(query.n_vertices):
            cand = current[u]
            if len(cand) == 0:
                continue
            nbrs, owner = gather_neighbors(graph, cand)
            keep = np.ones(len(cand), dtype=bool)
            for w in query.neighbors(u):
                keep &= np.bincount(owner[masks[w][nbrs]], minlength=len(cand)) > 0
            if not keep.all():
                current[u] = cand[keep]
                changed = True
        if not changed:
            break
    return current
