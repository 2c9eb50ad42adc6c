import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_labeled_graphs, petersen
from makerbreaker.coloring import chromatic_number, greedy_clique, is_k_colorable
from makerbreaker.errors import ResourceLimitError
from makerbreaker.graphs import Graph, OddCycleWitness, find_odd_cycle, verify_coloring


def brute_force_k_colorable(g, k):
    """Independent oracle: plain positional recursion, no ordering tricks."""

    def go(i, colors):
        if i == g.n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in g.neighbors(i) if u < i):
                colors[i] = c
                if go(i + 1, colors):
                    return True
                colors[i] = -1
        return False

    return go(0, [-1] * g.n)


def brute_force_chromatic(g):
    k = 1
    while not brute_force_k_colorable(g, k):
        k += 1
    return k


class TestIsKColorable:
    def test_c5_not_2(self):
        assert is_k_colorable(Graph.cycle(5), 2) is None

    def test_c5_is_3(self):
        coloring = is_k_colorable(Graph.cycle(5), 3)
        assert coloring is not None
        assert verify_coloring(Graph.cycle(5), coloring, 3)

    def test_k4_not_3(self):
        assert is_k_colorable(Graph.complete(4), 3) is None

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=4))
    def test_matches_brute_force_on_all_4_vertex_graphs(self, k):
        for g in all_labeled_graphs(4):
            got = is_k_colorable(g, k)
            want = brute_force_k_colorable(g, k)
            assert (got is not None) == want
            if got is not None:
                assert verify_coloring(g, got, k)


class TestChromaticNumber:
    def test_examples(self):
        assert chromatic_number(Graph.cycle(5)) == 3
        assert chromatic_number(Graph.complete(4)) == 4
        assert chromatic_number(Graph.empty(3)) == 1

    def test_petersen_vs_oracle(self):
        g = petersen()
        assert chromatic_number(g) == brute_force_chromatic(g) == 3

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            chromatic_number(Graph.empty(65))
        assert chromatic_number(Graph.empty(64)) == 1

    def test_all_4_vertex_graphs_vs_oracle(self):
        for g in all_labeled_graphs(4):
            assert chromatic_number(g) == brute_force_chromatic(g)

    def test_bipartite_iff_odd_cycle_free_small(self):
        # cross-check the two independent bipartiteness routes
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                chromatic_small = chromatic_number(g) <= 2
                verdict = find_odd_cycle(g)
                assert chromatic_small == (not isinstance(verdict, OddCycleWitness))


class TestGreedyClique:
    def test_lower_bound_on_samples(self):
        for g in (Graph.complete(6), petersen(), Graph.cycle(7)):
            q = greedy_clique(g)
            assert all(g.has_edge(u, v) for i, u in enumerate(q) for v in q[i + 1 :])
