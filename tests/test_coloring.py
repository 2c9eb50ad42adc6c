import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_labeled_graphs, petersen, random_graphs
from makerbreaker import coloring
from makerbreaker.coloring import chromatic_number, greedy_clique, is_k_colorable
from makerbreaker.errors import ResourceLimitError
from makerbreaker.generators import complete_multipartite, gnp
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


def greedy_clique_by_degree_into(g):
    """``greedy_clique`` as it was before it ranked candidates by set
    intersection: ``degree_into`` per candidate, same key."""
    best = []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for seed in order[: min(g.n, 24)]:
        clique = [seed]
        common = set(g.neighbors(seed))
        while common:
            v = min(common, key=lambda x: (-g.degree_into(x, common), x))
            clique.append(v)
            common &= g.neighbors(v)
        if len(clique) > len(best):
            best = clique
    return best


def recursive_k_coloring(g, k):
    """``is_k_colorable`` as it was with a recursive search, after the same
    trivial cases and clique precoloring."""
    if g.n == 0:
        return []
    if k == 0:
        return None
    if k >= g.n:
        return list(range(g.n))
    clique = greedy_clique_by_degree_into(g)
    if len(clique) > k:
        return None
    colors = [-1] * g.n
    sat = [set() for _ in range(g.n)]
    used = 0
    for i, v in enumerate(clique):
        colors[v] = i
        used = i + 1
        for u in g.neighbors(v):
            sat[u].add(i)
    uncolored = set(x for x in range(g.n) if colors[x] == -1)

    def assign(v, c):
        colors[v] = c
        touched = []
        for u in g.neighbors(v):
            if colors[u] == -1 and c not in sat[u]:
                sat[u].add(c)
                touched.append(u)
        return touched

    def unassign(v, c, touched):
        colors[v] = -1
        for u in touched:
            sat[u].discard(c)

    def solve(used):
        if not uncolored:
            return True
        v = min(uncolored, key=lambda x: (k - len(sat[x]), -g.degree(x), x))
        if len(sat[v]) >= k:
            return False
        uncolored.discard(v)
        for c in range(used):
            if c not in sat[v]:
                touched = assign(v, c)
                if solve(used):
                    return True
                unassign(v, c, touched)
        if used < k:
            touched = assign(v, used)
            if solve(used + 1):
                return True
            unassign(v, used, touched)
        uncolored.add(v)
        return False

    return colors if solve(used) else None


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
