import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import two_triangles_shared_vertex
from makerbreaker import connectivity
from makerbreaker.connectivity import (
    _cut_from_residual,
    _local_vertex_flow,
    _max_flow,
    _short_paths,
    _vertex_network,
    edge_connectivity,
    mader_subgraph,
    unfriendly_partition,
    vertex_connectivity,
    vertex_connectivity_at_least,
    vertex_cut_below,
)
from makerbreaker.errors import DomainError
from makerbreaker.generators import disjoint_union, gnp
from makerbreaker.graphs import Graph, frac_ceil, induced_subgraph, min_degree


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestEdgeConnectivity:
    def test_examples(self):
        assert edge_connectivity(Graph.complete(4)) == 3
        assert edge_connectivity(Graph.cycle(5)) == 2
        assert edge_connectivity(Graph.path(4)) == 1

    def test_too_small(self):
        with pytest.raises(DomainError):
            edge_connectivity(Graph(1))

    def test_disconnected_is_zero(self):
        assert edge_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_against_networkx(self):
        for seed in range(12):
            g = gnp(10, 0.4, seed)
            assert edge_connectivity(g) == nx.edge_connectivity(to_nx(g))

    def test_random_bipartition_upper_bound(self):
        rng = random.Random(7)
        for seed in range(4):
            g = gnp(14, 0.5, seed)
            lam = edge_connectivity(g)
            for _ in range(200):
                size = rng.randint(1, g.n - 1)
                side = set(rng.sample(range(g.n), size))
                cut = sum(1 for u, v in g.edges if (u in side) != (v in side))
                assert lam <= cut


class TestVertexConnectivity:
    def test_examples(self):
        assert vertex_connectivity(Graph.complete(5)) == 4
        assert vertex_connectivity(Graph.cycle(5)) == 2
        assert vertex_connectivity(two_triangles_shared_vertex()) == 1

    def test_too_small(self):
        with pytest.raises(DomainError):
            vertex_connectivity(Graph(1))

    def test_against_networkx(self):
        for seed in range(12):
            g = gnp(9, 0.45, seed)
            assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g))

    def test_threshold_agrees_with_exact(self):
        for seed in range(8):
            g = gnp(10, 0.5, seed)
            if g.is_complete():
                continue
            kappa = vertex_connectivity(g)
            for t in range(0, kappa + 2):
                assert vertex_connectivity_at_least(g, t) == (kappa >= t)

    def test_cut_below_returns_real_cut(self):
        for seed in range(8):
            g = gnp(10, 0.4, seed)
            if g.is_complete():
                continue
            kappa = vertex_connectivity(g)
            cut = vertex_cut_below(g, kappa + 1)
            assert cut is not None and len(cut) == kappa
            if g.n - len(cut) > 1:
                remaining = sorted(set(range(g.n)) - cut)
                sub, _ = induced_subgraph(g, remaining)
                assert nx.number_connected_components(to_nx(sub)) > 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=4, max_value=10))
    def test_connectivity_chain(self, seed, n):
        g = gnp(n, 0.5, seed)
        assert vertex_connectivity(g) <= edge_connectivity(g) <= min_degree(g)


def unseeded_cut_below(g: Graph, threshold: int):
    """vertex_cut_below with every unit of flow found by its own BFS from the
    empty flow: the construction before greedy short-path seeding."""
    if threshold <= 0:
        return None
    base, adj = _vertex_network(g)
    for s in range(min(threshold, min_degree(g) + 1, g.n)):
        for t in range(g.n):
            if t == s or g.has_edge(s, t):
                continue
            cap = [dict(d) for d in base]
            if _max_flow(cap, adj, 2 * s + 1, 2 * t, threshold) < threshold:
                return _cut_from_residual(g, cap, adj, s)
    return None


@st.composite
def flow_hosts(draw):
    """Seeded gnp hosts of 2-22 vertices, from sparse to dense, not complete."""
    n = draw(st.integers(min_value=2, max_value=22))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
    g = gnp(n, p, draw(st.integers(min_value=0, max_value=10**6)))
    assume(not g.is_complete())
    return g


def blocked_host() -> Graph:
    """s = 0 and t = 1 with N(s) = {2, 3, 6}, N(t) = {4, 5}.  The greedy
    three-edge path 0-2-4-1 takes 4, the only neighbour of t that 3 sees, so
    the two disjoint paths 0-2-5-1 and 0-3-4-1 need an augmenting path that
    cancels the seeded arc 2 -> 4."""
    edges = [(0, 2), (0, 3), (0, 6), (2, 4), (2, 5), (2, 6), (3, 4), (1, 4), (1, 5)]
    return Graph(7, edges)


class TestSeededVertexFlow:
    @settings(max_examples=150, deadline=None)
    @given(flow_hosts())
    def test_cut_below_matches_unseeded_reference(self, g):
        kappa = vertex_connectivity(g)
        for t in range(kappa + 3):
            assert vertex_cut_below(g, t) == unseeded_cut_below(g, t)

    @settings(max_examples=150, deadline=None)
    @given(flow_hosts())
    def test_connectivity_and_cut_size_match_networkx(self, g):
        h = to_nx(g)
        kappa = vertex_connectivity(g)
        assert kappa == nx.node_connectivity(h)
        cut = vertex_cut_below(g, kappa + 1)
        if nx.is_connected(h):
            assert len(cut) == len(nx.minimum_node_cut(h))
        else:
            assert cut == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(flow_hosts(), st.data())
    def test_short_paths_are_disjoint_host_paths(self, g, data):
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t and not g.has_edge(s, t)]
        s, t = data.draw(st.sampled_from(pairs))
        limit = data.draw(st.integers(min_value=1, max_value=g.n))
        paths = _short_paths(g, s, t, limit)
        assert len(paths) <= limit
        inner = [x for path in paths for x in path]
        assert len(inner) == len(set(inner)) and not {s, t} & set(inner)
        for path in paths:
            walk = (s, *path, t)
            assert all(g.has_edge(u, v) for u, v in zip(walk, walk[1:]))

    def test_augmenting_path_cancels_seeded_flow(self):
        g = blocked_host()
        assert _short_paths(g, 0, 1, 3) == [(2, 4)]
        base, adj = _vertex_network(g)
        flow, cap = _local_vertex_flow(g, lambda: (base, adj), 0, 1, 3)
        assert flow == 2
        assert cap[2 * 2 + 1][2 * 4] == base[2 * 2 + 1][2 * 4]
        assert _cut_from_residual(g, cap, adj, 0) == frozenset({2, 3})
        assert vertex_connectivity(g) == 2 == nx.node_connectivity(to_nx(g))
        assert vertex_cut_below(g, 2) is None
        assert vertex_cut_below(g, 3) == frozenset({2, 3}) == unseeded_cut_below(g, 3)

    def test_saturated_pair_skips_the_network(self):
        def network():
            raise AssertionError("the split network was asked for")

        assert _local_vertex_flow(Graph.cycle(4), network, 0, 2, 2) == (2, None)

    def test_network_is_built_once_and_only_when_needed(self, monkeypatch):
        builds = []

        def counting(g):
            builds.append(g)
            return _vertex_network(g)

        monkeypatch.setattr(connectivity, "_vertex_network", counting)
        # every non-adjacent pair of C_5 is joined by a path of two edges and
        # one of three, disjoint: the greedy paths saturate every flow
        assert vertex_connectivity(Graph.cycle(5)) == 2
        assert vertex_cut_below(Graph.cycle(5), 2) is None
        assert builds == []
        # in blocked_host the greedy paths fall short, and two pairs need flows
        g = blocked_host()
        assert vertex_connectivity(g) == 2
        assert vertex_cut_below(g, 3) == frozenset({2, 3})
        assert builds == [g, g]

    def test_first_flow_is_capped_at_min_degree(self, monkeypatch):
        limits = []

        def spy(g, network, s, t, limit):
            limits.append(limit)
            return _local_vertex_flow(g, network, s, t, limit)

        monkeypatch.setattr(connectivity, "_local_vertex_flow", spy)
        for seed in range(6):
            g = gnp(12, 0.6, seed)
            limits.clear()
            kappa = vertex_connectivity(g)
            assert limits[0] == min_degree(g)
            assert max(limits) == min_degree(g) and min(limits) >= kappa


class TestUnfriendlyPartition:
    def test_c4(self):
        x1, x2 = unfriendly_partition(Graph.cycle(4))
        g = Graph.cycle(4)
        for v in range(4):
            other = x2 if v in x1 else x1
            assert 2 * g.degree_into(v, other) >= g.degree(v)

    def test_k3_postcondition(self):
        g = Graph.complete(3)
        x1, x2 = unfriendly_partition(g)
        assert x1 and x2
        for v in range(3):
            other = x2 if v in x1 else x1
            assert 2 * g.degree_into(v, other) >= g.degree(v)

    def test_c5_postcondition(self):
        g = Graph.cycle(5)
        x1, x2 = unfriendly_partition(g)
        for v in range(5):
            other = x2 if v in x1 else x1
            assert g.degree_into(v, other) >= 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=2, max_value=12))
    def test_pointwise_half_degree(self, seed, n):
        g = gnp(n, 0.5, seed)
        x1, x2 = unfriendly_partition(g)
        assert x1 | x2 == frozenset(range(n)) and not x1 & x2
        for v in range(n):
            other = x2 if v in x1 else x1
            assert 2 * g.degree_into(v, other) >= g.degree(v)


class TestMaderSubgraph:
    def test_k8(self):
        assert mader_subgraph(Graph.complete(8), 4) == frozenset(range(8))

    def test_edgeless_none(self):
        assert mader_subgraph(Graph.empty(5), 1) is None

    def test_two_cliques(self):
        g = disjoint_union(Graph.complete(5), Graph.complete(5))
        found = mader_subgraph(g, 4)
        assert found is not None
        sub, _ = induced_subgraph(g, found)
        assert vertex_connectivity(sub) >= 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=5, max_value=14),
        st.integers(min_value=1, max_value=6),
    )
    def test_self_certifying(self, seed, n, k):
        g = gnp(n, 0.5, seed)
        found = mader_subgraph(g, k)
        if found is not None:
            sub, _ = induced_subgraph(g, found)
            target = frac_ceil(Fraction(k, 4))
            if sub.n >= 2:
                assert vertex_connectivity(sub) >= target
            else:
                assert target <= 0

    def test_succeeds_when_average_degree_suffices(self):
        for seed in range(6):
            g = gnp(12, 0.6, seed)
            avg = 2 * g.m / g.n
            k = int(avg)
            if k >= 1:
                assert mader_subgraph(g, k) is not None
