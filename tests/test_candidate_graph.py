"""Tests for candidate filters and the triple-CSR candidate graph."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidate.candidate_graph import build_candidate_graph
from repro.candidate.filters import (
    label_degree_filter,
    nlf_filter,
    refine_global_candidates,
)
from repro.enumeration.backtracking import enumerate_embeddings
from repro.errors import CandidateGraphError, QueryError
from repro.graph.builder import from_edge_list
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph, random_labels
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.query.query_graph import QueryGraph
from repro.utils.rng import derive_seed


class TestFilters:
    def test_label_degree_filter(self, paper_graph, paper_query):
        cands = label_degree_filter(paper_graph, paper_query)
        # u1 has label A: v1, v2 are A-labelled with sufficient degree.
        assert set(cands[0]) <= {0, 1}
        for u in range(paper_query.n_vertices):
            for v in cands[u]:
                assert paper_graph.label(int(v)) == paper_query.label(u)
                assert paper_graph.degree(int(v)) >= paper_query.degree(u)

    def test_nlf_filter_sound(self, paper_graph, paper_query):
        base = label_degree_filter(paper_graph, paper_query)
        refined = nlf_filter(paper_graph, paper_query, base)
        for u in range(paper_query.n_vertices):
            assert set(refined[u]) <= set(base[u])

    def test_refinement_reaches_fixpoint(self, paper_graph, paper_query):
        base = label_degree_filter(paper_graph, paper_query)
        once = refine_global_candidates(paper_graph, paper_query, base, passes=8)
        twice = refine_global_candidates(paper_graph, paper_query, once, passes=1)
        for a, b in zip(once, twice):
            assert list(a) == list(b)

    def test_filters_never_drop_embedding_vertices(self):
        """Soundness: every vertex of every embedding survives filtering."""
        graph = load_dataset("yeast")
        query = extract_query(graph, 5, rng=3, query_type="dense")
        cg = build_candidate_graph(graph, query, use_nlf=True, refine_passes=3)
        order = quicksi_order(query, graph)
        found = 0
        for embedding in enumerate_embeddings(cg, order, limit=50):
            found += 1
            for u, v in enumerate(embedding):
                assert v in set(int(x) for x in cg.global_candidates[u])
        assert found > 0


class TestCandidateGraphStructure:
    def test_validate_passes(self, paper_workload):
        _, _, cg, _ = paper_workload
        cg.validate()

    def test_edge_ids_cover_both_directions(self, paper_workload):
        _, query, cg, _ = paper_workload
        assert cg.n_directed_edges == 2 * query.n_edges
        for u, v in query.edges():
            assert cg.edge_id(u, v) != cg.edge_id(v, u)

    def test_unknown_edge_rejected(self, paper_workload):
        _, _, cg, _ = paper_workload
        with pytest.raises(CandidateGraphError):
            cg.edge_id(0, 4)

    def test_local_candidates_are_neighbours(self, paper_workload):
        graph, _, cg, _ = paper_workload
        for eid, u, u_prime in cg.directed_edges():
            for v in cg.candidates_of_edge(eid):
                for w in cg.local_candidates(eid, int(v)):
                    assert graph.has_edge(int(v), int(w))
                    assert int(w) in set(
                        int(x) for x in cg.global_candidates[u_prime]
                    )

    def test_local_candidates_missing_vertex_empty(self, paper_workload):
        _, _, cg, _ = paper_workload
        eid = cg.directed_edges()[0][0]
        assert len(cg.local_candidates(eid, 9999)) == 0
        assert cg.local_slice(eid, 9999) == (0, 0)

    def test_has_local_candidate(self, paper_workload):
        _, _, cg, _ = paper_workload
        for eid, u, u_prime in cg.directed_edges():
            for v in cg.candidates_of_edge(eid):
                local = cg.local_candidates(eid, int(v))
                for w in local:
                    assert cg.has_local_candidate(eid, int(v), int(w))
                assert not cg.has_local_candidate(eid, int(v), 10**6)

    def test_figure2_example_local_set(self):
        """Example 1: C(u2) = {v3..v6} and C(u2, u4, v3) = {v7, v9}."""
        labels = [0, 0, 1, 1, 1, 1, 2, 3, 2]
        edges = [
            (0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (2, 3),
            (2, 6), (3, 6), (6, 7), (2, 8), (3, 7),
        ]
        graph = from_edge_list(edges, labels=labels, name="fig2")
        query = QueryGraph.from_edges(
            [0, 1, 1, 2, 3], [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]
        )
        cg = build_candidate_graph(
            graph, query, use_nlf=False, refine_passes=0
        )
        # u2 is query vertex 1 (label B): candidates among v3..v6 = ids 2..5
        # that pass the degree filter (deg >= 3).
        assert set(int(x) for x in cg.global_candidates[1]) <= {2, 3, 4, 5}
        # Local set of v3 (id 2) along (u2 -> u4): C-labelled neighbours
        # inside C(u4).  The paper's figure lists {v7, v9}; our fixture's v9
        # has degree 1 < deg(u4) so the degree filter prunes it — only v7
        # remains (the filter is sound: v9 is in no instance).
        eid = cg.edge_id(1, 3)
        local = set(int(x) for x in cg.local_candidates(eid, 2))
        assert local == {6}  # v7

    def test_memory_and_transfer_accounting(self, paper_workload):
        _, _, cg, _ = paper_workload
        assert cg.memory_bytes() > 0
        assert cg.transfer_ms() > 0
        assert cg.construction_ms >= 0
        assert cg.total_local_entries() == len(cg.local_vertices)

    def test_empty_candidate_graph_detected(self):
        # Query label 9 does not exist in the graph.
        graph = from_edge_list([(0, 1)], labels=[0, 0])
        query = QueryGraph.from_edges([9, 0], [(0, 1)])
        cg = build_candidate_graph(graph, query)
        assert cg.is_empty()


class TestCompleteness:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_every_embedding_is_representable(self, seed):
        """Completeness: all embeddings survive in the candidate graph's
        local sets (checked via full enumeration equality elsewhere)."""
        graph = load_dataset("yeast")
        query = extract_query(graph, 4, rng=seed, query_type="dense")
        cg = build_candidate_graph(graph, query)
        order = quicksi_order(query, graph)
        for embedding in enumerate_embeddings(cg, order, limit=20):
            for (u, u_prime) in query.edges():
                assert graph.has_edge(embedding[u], embedding[u_prime])


class TestValidateAdversarial:
    """validate() must reject every class of corruption it claims to check.

    The dynamic subsystem calls validate() after every delta refresh
    (DeltaPlanMaintainer's validate_after_refresh), so these tests pin down
    that the audit actually bites — a validate() that silently passes
    corrupted CSR arrays would void that safety net.
    """

    @pytest.fixture()
    def cg(self):
        from repro.graph.generators import erdos_renyi_graph, random_labels

        graph = erdos_renyi_graph(
            120, 200, rng=2, labels=random_labels(120, 2, rng=3)
        )
        query = extract_query(graph, 4, rng=1)
        cg = build_candidate_graph(graph, query)
        assert not cg.is_empty()
        cg.validate()  # sanity: the uncorrupted build passes
        return cg

    @staticmethod
    def _copy(cg, **overrides):
        import dataclasses

        return dataclasses.replace(cg, **overrides)

    def test_unsorted_global_candidates_rejected(self, cg):
        u = next(
            u for u, c in enumerate(cg.global_candidates) if len(c) > 1
        )
        corrupted = [c.copy() for c in cg.global_candidates]
        corrupted[u] = corrupted[u][::-1].copy()
        bad = self._copy(cg, global_candidates=corrupted)
        with pytest.raises(CandidateGraphError, match="not strictly sorted"):
            bad.validate()

    def test_duplicate_global_candidate_rejected(self, cg):
        u = next(
            u for u, c in enumerate(cg.global_candidates) if len(c) > 1
        )
        corrupted = [c.copy() for c in cg.global_candidates]
        corrupted[u][1] = corrupted[u][0]  # duplicate = non-strict order
        bad = self._copy(cg, global_candidates=corrupted)
        with pytest.raises(CandidateGraphError, match="not strictly sorted"):
            bad.validate()

    def test_wrong_label_candidate_rejected(self, cg):
        graph, query = cg.graph, cg.query
        for u in range(query.n_vertices):
            cand = set(int(x) for x in cg.global_candidates[u])
            wrong = [
                v for v in range(graph.n_vertices)
                if graph.label(v) != query.label(u) and v not in cand
            ]
            if wrong:
                break
        corrupted = [c.copy() for c in cg.global_candidates]
        corrupted[u] = np.unique(
            np.append(corrupted[u], np.int64(wrong[0]))
        )
        bad = self._copy(cg, global_candidates=corrupted)
        with pytest.raises(CandidateGraphError, match="wrong label"):
            bad.validate()

    def test_unsorted_edge_candidates_rejected(self, cg):
        eid = next(
            eid for eid, _, _ in cg.directed_edges()
            if len(cg.candidates_of_edge(eid)) > 1
        )
        ecand = cg.ecand_vertices.copy()
        lo, hi = int(cg.ecand_offsets[eid]), int(cg.ecand_offsets[eid + 1])
        ecand[lo:hi] = ecand[lo:hi][::-1]
        bad = self._copy(cg, ecand_vertices=ecand)
        with pytest.raises(CandidateGraphError, match="candidates not sorted"):
            bad.validate()

    def test_unsorted_local_set_rejected(self, cg):
        local = cg.local_vertices.copy()
        for pos in range(len(cg.local_offsets) - 1):
            lo, hi = int(cg.local_offsets[pos]), int(cg.local_offsets[pos + 1])
            if hi - lo > 1:
                local[lo:hi] = local[lo:hi][::-1]
                break
        else:
            pytest.skip("no multi-entry local set in this build")
        bad = self._copy(cg, local_vertices=local)
        with pytest.raises(CandidateGraphError, match="not sorted"):
            bad.validate()

    def test_non_edge_local_candidate_rejected(self, cg):
        graph = cg.graph
        local = cg.local_vertices.copy()
        replaced = False
        for eid, _, _ in cg.directed_edges():
            for v in cg.candidates_of_edge(eid):
                lo, hi = cg.local_slice(eid, int(v))
                width = hi - lo
                if width == 0:
                    continue
                non_nbrs = [
                    w for w in range(graph.n_vertices)
                    if w != int(v) and not graph.has_edge(int(v), w)
                ]
                if len(non_nbrs) >= width:
                    local[lo:hi] = np.asarray(
                        non_nbrs[:width], dtype=local.dtype
                    )
                    replaced = True
                    break
            if replaced:
                break
        assert replaced
        bad = self._copy(cg, local_vertices=local)
        with pytest.raises(CandidateGraphError, match="not a data edge"):
            bad.validate()


# ----------------------------------------------------------------------
# Array-pass filters vs the per-candidate reference loops
# ----------------------------------------------------------------------
def reference_nlf_filter(graph, query, candidates):
    """Per-candidate NLF loop: the scalar reference for ``nlf_filter``."""
    refined = []
    for u in range(query.n_vertices):
        required = Counter(query.label(w) for w in query.neighbors(u))
        if not required:
            refined.append(candidates[u].copy())
            continue
        min_length = max(required) + 1
        survivors = []
        for v in candidates[u]:
            nbr_labels = graph.labels[graph.neighbors_of(int(v))]
            counts = np.bincount(nbr_labels, minlength=min_length)
            if all(counts[l] >= c for l, c in required.items()):
                survivors.append(int(v))
        refined.append(np.asarray(survivors, dtype=np.int64))
    return refined


def reference_refine(graph, query, candidates, passes=2):
    """Per-candidate Jacobi refinement: the scalar reference for
    ``refine_global_candidates`` (masks frozen at sweep start, early stop
    at a fixpoint)."""
    current = [c.copy() for c in candidates]
    for _ in range(max(0, passes)):
        changed = False
        masks = {}
        for u in range(query.n_vertices):
            mask = np.zeros(graph.n_vertices, dtype=bool)
            mask[current[u]] = True
            masks[u] = mask
        for u in range(query.n_vertices):
            if len(current[u]) == 0:
                continue
            keep = np.ones(len(current[u]), dtype=bool)
            for idx, v in enumerate(current[u]):
                nbrs = graph.neighbors_of(int(v))
                for w in query.neighbors(u):
                    if not masks[w][nbrs].any():
                        keep[idx] = False
                        break
            if not keep.all():
                current[u] = current[u][keep]
                changed = True
        if not changed:
            break
    return current


def assert_same_sets(got, want):
    assert len(got) == len(want)
    for u, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype, f"C({u}) dtype {g.dtype} != {w.dtype}"
        np.testing.assert_array_equal(g, w, err_msg=f"C({u})")


def assert_filters_match_reference(graph, query, use_degree=True):
    base = label_degree_filter(graph, query, use_degree=use_degree)
    nlf = nlf_filter(graph, query, base)
    assert_same_sets(nlf, reference_nlf_filter(graph, query, base))
    for start in (base, nlf):
        for passes in (0, 1, 3):
            assert_same_sets(
                refine_global_candidates(graph, query, start, passes=passes),
                reference_refine(graph, query, start, passes=passes),
            )


def bank_query(graph, dataset, k, qtype):
    """A pinned query in the style of a serving benchmark's bank:
    extraction retried on fresh derived seeds until it succeeds."""
    for attempt in range(32):
        try:
            return extract_query(
                graph,
                k,
                query_type=qtype,
                rng=derive_seed(1017, dataset, k, qtype, attempt),
            )
        except QueryError:
            continue
    raise AssertionError(f"no {qtype} {k}-vertex query on {dataset}")


class TestArrayPassFilters:
    @pytest.mark.parametrize("dataset", ["yeast", "hprd", "wordnet", "dblp", "patents"])
    @pytest.mark.parametrize("k,qtype", [(8, "dense"), (16, "sparse")])
    def test_dataset_analogs(self, dataset, k, qtype):
        graph = load_dataset(dataset)
        query = bank_query(graph, dataset, k, qtype)
        assert_filters_match_reference(graph, query)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs(self, seed):
        # Sparse ER graphs leave many degree-zero vertices; without the
        # degree filter they stay candidates.
        graph = erdos_renyi_graph(
            300, 280, rng=seed, labels=random_labels(300, 3, rng=seed + 7)
        )
        assert np.any(graph.degrees == 0)
        for k, qtype in ((4, "dense"), (5, "sparse")):
            query = extract_query(graph, k, rng=seed, query_type=qtype)
            for use_degree in (True, False):
                assert_filters_match_reference(graph, query, use_degree)

    def test_degree_zero_and_empty_candidate_sets(self):
        graph = from_edge_list(
            [(0, 1), (1, 2), (2, 3), (1, 3)], labels=[0, 1, 0, 1, 0, 1]
        )
        assert graph.degree(4) == 0 and graph.degree(5) == 0
        query = QueryGraph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
        for candidates in (
            [np.array([0, 2, 4]), np.array([1, 3, 5]), np.array([0, 2, 4])],
            [np.array([4]), np.array([5]), np.zeros(0, dtype=np.int64)],
            [np.zeros(0, dtype=np.int64)] * 3,
        ):
            candidates = [c.astype(np.int64) for c in candidates]
            assert_same_sets(
                nlf_filter(graph, query, candidates),
                reference_nlf_filter(graph, query, candidates),
            )
            for passes in (0, 1, 3):
                assert_same_sets(
                    refine_global_candidates(graph, query, candidates, passes),
                    reference_refine(graph, query, candidates, passes),
                )

    def test_one_vertex_query(self):
        graph = load_dataset("yeast")
        query = QueryGraph.from_edges([int(graph.labels[0])], [])
        assert_filters_match_reference(graph, query)
        assert_filters_match_reference(graph, query, use_degree=False)

    def test_query_labels_absent_from_graph(self):
        graph = erdos_renyi_graph(
            200, 400, rng=5, labels=random_labels(200, 2, rng=6)
        )
        absent = int(graph.labels.max()) + 3
        query = QueryGraph.from_edges(
            [0, absent, 1, 0], [(0, 1), (1, 2), (2, 3), (0, 3)]
        )
        assert_filters_match_reference(graph, query)
        # The absent label empties its own C(u) and, through NLF, every
        # candidate whose query vertex neighbours it.
        nlf = nlf_filter(graph, query, label_degree_filter(graph, query))
        assert len(nlf[0]) == len(nlf[1]) == len(nlf[2]) == 0
