import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    greedy_clique_by_degree_into,
    petersen,
    random_graphs,
    recursive_k_coloring,
    verify_coloring,
)
from makerbreaker import coloring
from makerbreaker.coloring import chromatic_number, is_k_colorable, k_coloring
from makerbreaker.errors import DomainError, ResourceLimitError
from makerbreaker.generators import complete_multipartite, gnp
from makerbreaker.graphs import Graph, OddCycleWitness, find_odd_cycle, induced_subgraph


def greedy_clique(g):
    """``coloring.greedy_clique`` on the whole of g."""
    return coloring.greedy_clique(g.neighbor_masks(), (1 << g.n) - 1)


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


class TestAgainstPreviousSearch:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=14), st.integers(min_value=0, max_value=5))
    def test_same_coloring_as_recursive_search(self, g, k):
        assert is_k_colorable(g, k) == recursive_k_coloring(g, k)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=16))
    def test_same_clique_as_degree_into_ranking(self, g):
        assert greedy_clique(g) == greedy_clique_by_degree_into(g)

    def test_same_on_seeded_gnp_hosts(self):
        for seed in range(40):
            g = gnp(12 + seed % 9, 0.2 + 0.015 * seed, seed)
            assert greedy_clique(g) == greedy_clique_by_degree_into(g)
            for k in (2, 3, 4):
                assert is_k_colorable(g, k) == recursive_k_coloring(g, k)

    def test_same_clique_on_a_multipartite_host(self):
        g = complete_multipartite([6] * 5)
        assert greedy_clique(g) == greedy_clique_by_degree_into(g)


class TestDeepSearch:
    def test_1500_isolated_vertices_one_color(self):
        assert is_k_colorable(Graph(1500), 1) == [0] * 1500

    def test_1500_vertex_path_two_colors(self):
        coloring = is_k_colorable(Graph.path(1500), 2)
        assert verify_coloring(Graph.path(1500), coloring, 2)

    def test_1501_vertex_cycle_backtracks_to_none(self):
        assert is_k_colorable(Graph.cycle(1501), 2) is None


class TestNodeBudget:
    def test_search_past_the_budget_raises_with_stats(self, monkeypatch):
        # C_7 has no 2-coloring, but only the search finds that out
        assert is_k_colorable(Graph.cycle(7), 2) is None
        monkeypatch.setattr(coloring, "COLORING_NODE_BUDGET", 3)
        with pytest.raises(ResourceLimitError) as err:
            is_k_colorable(Graph.cycle(7), 2)
        assert err.value.stats == {"nodes": 4, "n": 7, "k": 2}

    def test_searches_within_the_budget_are_untouched(self, monkeypatch):
        monkeypatch.setattr(coloring, "COLORING_NODE_BUDGET", 1499)
        assert is_k_colorable(Graph(1500), 1) == [0] * 1500
        # a clique above k refutes without a search
        monkeypatch.setattr(coloring, "COLORING_NODE_BUDGET", 0)
        assert is_k_colorable(Graph.complete(5), 3) is None


@st.composite
def strict_member_subsets(draw, max_n=14):
    """A random graph and a strict subset of its vertices as members, so
    that non-members sit beside them."""
    g = draw(random_graphs(max_n=max_n))
    return g, draw(st.frozensets(st.integers(0, g.n - 1), max_size=g.n - 1))


def on_relabelled_subgraph(search, g, members, k):
    """``search`` on the subgraph of g induced on ``members``, relabelled,
    its coloring mapped back to g's labels with -1 off ``members``."""
    sub, to_parent = induced_subgraph(g, members)
    local = search(sub, k)
    if local is None:
        return None
    colors = [-1] * g.n
    for v, c in enumerate(local):
        colors[to_parent[v]] = c
    return colors


class TestKColoringUnderAMemberMask:
    @settings(max_examples=300, deadline=None)
    @given(strict_member_subsets(), st.integers(min_value=0, max_value=5))
    def test_matches_the_search_on_the_relabelled_subgraph(self, g_members, k):
        g, members = g_members
        mask = sum(1 << v for v in members)
        want = on_relabelled_subgraph(recursive_k_coloring, g, members, k)
        assert k_coloring(g.neighbor_masks(), mask, k) == want

    @settings(max_examples=200, deadline=None)
    @given(strict_member_subsets(max_n=16))
    def test_same_clique_as_on_the_relabelled_subgraph(self, g_members):
        g, members = g_members
        sub, to_parent = induced_subgraph(g, members)
        want = [to_parent[v] for v in greedy_clique_by_degree_into(sub)]
        assert coloring.greedy_clique(g.neighbor_masks(), sum(1 << v for v in members)) == want

    def test_same_on_seeded_gnp_hosts(self):
        rng = random.Random(22)
        for seed in range(60):
            g = gnp(rng.randint(4, 18), rng.choice((0.3, 0.5, 0.7)), seed)
            members = [v for v in range(g.n) if rng.random() < 0.7]
            mask = sum(1 << v for v in members)
            for k in (1, 2, 3, 4):
                want = on_relabelled_subgraph(recursive_k_coloring, g, members, k)
                assert k_coloring(g.neighbor_masks(), mask, k) == want

    def test_a_member_past_the_host_is_refused(self):
        adj = Graph.cycle(5).neighbor_masks()
        for members in (1 << 5, 0b111 | 1 << 9):
            with pytest.raises(DomainError):
                k_coloring(adj, members, 2)

    def test_budget_stats_count_the_members(self, monkeypatch):
        # C_7 with three non-members joined to all of it
        joins = [(u, v) for u in range(7, 10) for v in range(u)]
        g = Graph(10, [(i, (i + 1) % 7) for i in range(7)] + joins)
        monkeypatch.setattr(coloring, "COLORING_NODE_BUDGET", 3)
        with pytest.raises(ResourceLimitError) as err:
            k_coloring(g.neighbor_masks(), 0b1111111, 2)
        assert err.value.stats == {"nodes": 4, "n": 7, "k": 2}
