import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    connected_components,
    cut_from_residual_by_range,
    graph_edge_connectivity,
    mader_subgraph_on_graph,
    random_graphs,
    two_triangles_shared_vertex,
    unfriendly_partition_by_sets,
    unfriendly_partition_on_graph,
    vertex_connectivity_by_source_scan,
    vertex_cut_below_on_graph,
    vertex_network_by_edges,
)
from makerbreaker import connectivity
from makerbreaker.connectivity import (
    _cut_from_residual,
    _local_vertex_flow,
    _max_flow,
    _pairs,
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
from makerbreaker.generators import (
    complete_multipartite,
    disjoint_union,
    gnp,
    join,
    odd_cycle_blowup,
    random_regular,
)
from makerbreaker.graphs import (
    Graph,
    frac_ceil,
    induced_subgraph,
    min_degree,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def whole(g: Graph) -> int:
    """The vertex mask of every vertex of g."""
    return (1 << g.n) - 1


def cut_below(g: Graph, threshold: int):
    """``vertex_cut_below`` on the whole of g."""
    return vertex_cut_below(g.neighbor_masks(), whole(g), threshold)


def mader(g: Graph, k):
    """``mader_subgraph`` on the whole of g."""
    return mader_subgraph(g.neighbor_masks(), whole(g), k)


class TestEdgeConnectivity:
    def test_examples(self):
        assert graph_edge_connectivity(Graph.complete(4)) == 3
        assert graph_edge_connectivity(Graph.cycle(5)) == 2
        assert graph_edge_connectivity(Graph.path(4)) == 1

    @pytest.mark.parametrize("members", [0, 0b1, 0b100])
    def test_too_small(self, members):
        with pytest.raises(DomainError, match="at least 2 vertices"):
            edge_connectivity(Graph.complete(3).neighbor_masks(), members)

    @pytest.mark.parametrize("members", [0b1001, 0b1000, 1 << 40 | 0b11])
    def test_a_member_past_adj(self, members):
        with pytest.raises(DomainError, match="out of range for n=3"):
            edge_connectivity(Graph.complete(3).neighbor_masks(), members)

    def test_disconnected_is_zero(self):
        assert graph_edge_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_against_networkx(self):
        for seed in range(12):
            g = gnp(10, 0.4, seed)
            assert graph_edge_connectivity(g) == nx.edge_connectivity(to_nx(g))

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=9), st.data())
    def test_members_against_networkx_on_the_induced_subgraph(self, g, data):
        assume(g.n >= 2)
        members = data.draw(
            st.frozensets(st.integers(min_value=0, max_value=g.n - 1), min_size=2)
        )
        sub, _ = induced_subgraph(g, members)
        got = edge_connectivity(g.neighbor_masks(), sum(1 << v for v in members))
        assert got == nx.edge_connectivity(to_nx(sub))

    @pytest.mark.parametrize(
        "members, want",
        [
            ({1, 2, 3, 4}, 2),  # vertex 0 left out: the 4-cycle 1-2-3-4
            ({1, 2, 5, 6}, 0),  # two edges apart
            ({1, 2, 3, 4, 7}, 0),  # an isolated member
            ({0, 1, 2, 3, 4}, 3),
        ],
    )
    def test_members_leaving_out_vertex_0(self, members, want):
        # a wheel on 0 with rim 1-2-3-4, and a separate edge 5-6, vertex 7 alone
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1), (5, 6)])
        sub, _ = induced_subgraph(g, members)
        got = edge_connectivity(g.neighbor_masks(), sum(1 << v for v in members))
        assert got == want == nx.edge_connectivity(to_nx(sub))

    def test_random_bipartition_upper_bound(self):
        rng = random.Random(7)
        for seed in range(4):
            g = gnp(14, 0.5, seed)
            lam = graph_edge_connectivity(g)
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
            cut = cut_below(g, kappa + 1)
            assert cut is not None and len(cut) == kappa
            if g.n - len(cut) > 1:
                remaining = sorted(set(range(g.n)) - cut)
                sub, _ = induced_subgraph(g, remaining)
                assert nx.number_connected_components(to_nx(sub)) > 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=4, max_value=10))
    def test_connectivity_chain(self, seed, n):
        g = gnp(n, 0.5, seed)
        assert vertex_connectivity(g) <= graph_edge_connectivity(g) <= min_degree(g)


@st.composite
def family_hosts(draw):
    """A small host of at least two vertices from any generator family; gnp
    hosts have up to 22 vertices, the others up to 16."""
    family = draw(st.sampled_from(["gnp", "multipartite", "blowup", "regular", "union", "join"]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    small = st.integers(min_value=1, max_value=4)
    if family == "gnp":
        p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
        g = gnp(draw(st.integers(min_value=2, max_value=22)), p, seed)
    elif family == "multipartite":
        g = complete_multipartite(draw(st.lists(small, min_size=1, max_size=4)))
    elif family == "blowup":
        g = odd_cycle_blowup(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 2)))
    elif family == "regular":
        n = draw(st.integers(min_value=5, max_value=12))  # the pairing model's rejection
        d = draw(st.integers(min_value=0, max_value=4).filter(lambda d: n * d % 2 == 0))  # stays rare
        g = random_regular(n, d, seed)
    else:
        parts = [gnp(draw(small) + 1, 0.6, seed + i) for i in range(2)]
        g = disjoint_union(*parts) if family == "union" else join(*parts)
    assume(g.n >= 2)
    return g


def two_cliques_sharing_a_vertex(size: int) -> Graph:
    """K_size on 0..size-1 and on size-1..2*size-2."""
    edges = [(u, v) for lo in (0, size - 1) for u in range(lo, lo + size) for v in range(u + 1, lo + size)]
    return Graph(2 * size - 1, edges)


def cut_vertex_of_minimum_degree() -> Graph:
    """Vertex 0, of minimum degree 4, is the one cut vertex: it sees 1, 2 of
    the clique on 1..5 and 6, 7 of the clique on 6..10.  It is 2-connected
    to each of its non-neighbours, so only the pairs inside N(0) find the
    cut {0}."""
    cliques = [(u, v) for lo in (1, 6) for u in range(lo, lo + 5) for v in range(u + 1, lo + 5)]
    return Graph(11, cliques + [(0, 1), (0, 2), (0, 6), (0, 7)])


class TestMinDegreePairSet:
    """``vertex_connectivity`` from one minimum-degree vertex, against the
    min-degree + 1 source scan and networkx."""

    @settings(max_examples=300, deadline=None)
    @given(family_hosts())
    def test_matches_the_source_scan_and_networkx(self, g):
        kappa = vertex_connectivity(g)
        assert kappa == vertex_connectivity_by_source_scan(g) == nx.node_connectivity(to_nx(g))

    @pytest.mark.parametrize(
        "g, kappa",
        [
            (disjoint_union(Graph.cycle(4), Graph.complete(3)), 0),
            (Graph(5, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]), 0),  # 0 isolated
            (Graph.complete(6), 5),
            (Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (2, 4)]), 4),
            (complete_multipartite([3, 5]), 3),
            (two_cliques_sharing_a_vertex(4), 1),
            (Graph.cycle(7), 2),  # every vertex has minimum degree
            (join(Graph.cycle(5), Graph.empty(2)), 4),  # minimum degree at 0-4, not 5-6
            (cut_vertex_of_minimum_degree(), 1),
        ],
        ids=["disconnected", "isolated", "complete", "complete-minus-edge", "K3,5",
             "cliques-share-a-vertex", "cycle", "wheel-like", "min-degree-cut-vertex"],
    )
    def test_named_cases(self, g, kappa):
        assert vertex_connectivity(g) == vertex_connectivity_by_source_scan(g) == kappa
        assert nx.node_connectivity(to_nx(g)) == kappa

    @pytest.mark.parametrize("n, seed", [(48, 7), (24, 7)])
    def test_flows_stay_within_the_pair_set(self, monkeypatch, n, seed):
        g = gnp(n, 0.5, seed)
        nbr = g.neighbor_masks()
        delta = min_degree(g)
        v = min(range(n), key=lambda x: (len(g.neighbors(x)), x))
        near = sorted(g.neighbors(v))
        inside = sum(1 for i, x in enumerate(near) for y in near[i + 1 :] if not nbr[x] >> y & 1)
        calls = []

        def counting(*args):
            calls.append(args[2:4])
            return _local_vertex_flow(*args)

        monkeypatch.setattr(connectivity, "_local_vertex_flow", counting)
        assert vertex_connectivity(g) == vertex_connectivity_by_source_scan(g) > 0
        bound = (n - 1 - delta) + inside
        assert len(calls) <= bound
        # the min-degree + 1 source scan would run every one of these flows
        assert bound < sum(n - 1 - len(g.neighbors(s)) for s in range(delta + 1))


def unseeded_cut_below(g: Graph, threshold: int):
    """vertex_cut_below with every unit of flow found by its own BFS from the
    empty flow: the construction before greedy short-path seeding."""
    if threshold <= 0:
        return None
    base, adj = vertex_network_by_edges(g)
    for s in range(min(threshold, min_degree(g) + 1, g.n)):
        for t in range(g.n):
            if t == s or g.has_edge(s, t):
                continue
            cap = [dict(d) for d in base]
            if _max_flow(cap, adj, 2 * s + 1, 2 * t, threshold) < threshold:
                return cut_from_residual_by_range(g, cap, adj, s)
    return None


def short_paths_by_sets(g: Graph, s, t, limit):
    """``_short_paths`` as it was before it read the neighbour masks: sorted
    neighbour sets, each y found by a scan of the unused N(t) - N(s)."""
    ns, nt = g.neighbors(s), g.neighbors(t)
    paths = [(x,) for x in sorted(ns & nt)[:limit]]
    if len(paths) < limit:
        ys = sorted(nt - ns)
        for x in sorted(ns - nt):
            near_x = g.neighbors(x)
            for i, y in enumerate(ys):
                if y in near_x:
                    paths.append((x, y))
                    del ys[i]
                    break
            if len(paths) == limit:
                break
    return paths


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
            assert cut_below(g, t) == unseeded_cut_below(g, t)

    @settings(max_examples=150, deadline=None)
    @given(flow_hosts())
    def test_connectivity_and_cut_size_match_networkx(self, g):
        h = to_nx(g)
        kappa = vertex_connectivity(g)
        assert kappa == nx.node_connectivity(h)
        cut = cut_below(g, kappa + 1)
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
        paths = _short_paths(g.neighbor_masks(), s, t, limit)
        assert len(paths) <= limit
        inner = [x for path in paths for x in path]
        assert len(inner) == len(set(inner)) and not {s, t} & set(inner)
        for path in paths:
            walk = (s, *path, t)
            assert all(g.has_edge(u, v) for u, v in zip(walk, walk[1:]))

    @settings(max_examples=60, deadline=None)
    @given(flow_hosts())
    def test_short_paths_match_set_reference(self, g):
        for s in range(g.n):
            for t in range(g.n):
                if t == s or g.has_edge(s, t):
                    continue
                for limit in (1, len(g.neighbors(s) & g.neighbors(t)) + 1, g.n):
                    got = _short_paths(g.neighbor_masks(), s, t, limit)
                    assert got == short_paths_by_sets(g, s, t, limit)

    def test_common_neighbours_reaching_the_limit_skip_the_paths(self, monkeypatch):
        def no_paths(*args):
            raise AssertionError("short paths were built")

        monkeypatch.setattr(connectivity, "_short_paths", no_paths)
        g = Graph.complete(6)
        g = Graph(6, g.edges - {(0, 1)})  # 0 and 1 share the neighbours 2..5
        assert _local_vertex_flow(g.neighbor_masks(), None, 0, 1, 4) == (4, None)
        with pytest.raises(AssertionError):
            _local_vertex_flow(g.neighbor_masks(), None, 0, 1, 5)

    def test_augmenting_path_cancels_seeded_flow(self):
        g = blocked_host()
        nbr = g.neighbor_masks()
        assert _short_paths(nbr, 0, 1, 3) == [(2, 4)]
        base, adj = _vertex_network(nbr, whole(g))
        flow, cap = _local_vertex_flow(nbr, lambda: (base, adj), 0, 1, 3)
        assert flow == 2
        assert cap[2 * 2 + 1][2 * 4] == base[2 * 2 + 1][2 * 4]
        assert _cut_from_residual(cap, adj, 0) == frozenset({2, 3})
        assert vertex_connectivity(g) == 2 == nx.node_connectivity(to_nx(g))
        assert cut_below(g, 2) is None
        assert cut_below(g, 3) == frozenset({2, 3}) == unseeded_cut_below(g, 3)

    def test_saturated_pair_skips_the_network(self):
        def network():
            raise AssertionError("the split network was asked for")

        assert _local_vertex_flow(Graph.cycle(4).neighbor_masks(), network, 0, 2, 2) == (2, None)

    def test_network_is_built_once_and_only_when_needed(self, monkeypatch):
        builds = []

        def counting(nbr, members):
            builds.append(members)
            return _vertex_network(nbr, members)

        monkeypatch.setattr(connectivity, "_vertex_network", counting)
        # every non-adjacent pair of C_5 is joined by a path of two edges and
        # one of three, disjoint: the greedy paths saturate every flow
        assert vertex_connectivity(Graph.cycle(5)) == 2
        assert cut_below(Graph.cycle(5), 2) is None
        assert builds == []
        # in blocked_host the greedy paths fall short, and two pairs need flows
        g = blocked_host()
        assert vertex_connectivity(g) == 2
        assert cut_below(g, 3) == frozenset({2, 3})
        assert builds == [whole(g), whole(g)]

    def test_first_flow_is_capped_at_min_degree(self, monkeypatch):
        limits = []

        def spy(nbr, network, s, t, limit):
            limits.append(limit)
            return _local_vertex_flow(nbr, network, s, t, limit)

        monkeypatch.setattr(connectivity, "_local_vertex_flow", spy)
        for seed in range(6):
            g = gnp(12, 0.6, seed)
            limits.clear()
            kappa = vertex_connectivity(g)
            assert limits[0] == min_degree(g)
            assert max(limits) == min_degree(g) and min(limits) >= kappa


@st.composite
def member_hosts(draw):
    """A seeded gnp host of 3-22 vertices and a strict subset of at least
    two of its vertices as members, so non-members sit beside them."""
    n = draw(st.integers(min_value=3, max_value=22))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
    g = gnp(n, p, draw(st.integers(min_value=0, max_value=10**6)))
    members = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=n - 1))
    return g, members


def to_host(to_parent, labels):
    """A relabelled subgraph's vertex set in host labels (None stays None)."""
    return None if labels is None else frozenset(to_parent[v] for v in labels)


class TestKernelsUnderAMemberMask:
    """The mask kernels on a host's masks under a member mask give, in host
    labels, what the Graph kernels give on the relabelled induced subgraph."""

    @settings(max_examples=150, deadline=None)
    @given(member_hosts())
    def test_cut_below_matches_the_relabelled_subgraph(self, host):
        g, members = host
        sub, to_parent = induced_subgraph(g, members)
        adj, mask = g.neighbor_masks(), sum(1 << v for v in members)
        if sub.is_complete():
            with pytest.raises(DomainError):
                vertex_cut_below(adj, mask, 1)
            return
        for t in range(vertex_connectivity(sub) + 3):
            want = to_host(to_parent, vertex_cut_below_on_graph(sub, t))
            assert vertex_cut_below(adj, mask, t) == want

    @settings(max_examples=150, deadline=None)
    @given(member_hosts(), st.sampled_from([1, 2, 4, 7, 12]))
    def test_mader_matches_the_relabelled_subgraph(self, host, k):
        g, members = host
        sub, to_parent = induced_subgraph(g, members)
        mask = sum(1 << v for v in members)
        want = to_host(to_parent, mader_subgraph_on_graph(sub, k))
        assert mader_subgraph(g.neighbor_masks(), mask, k) == want

    @settings(max_examples=100, deadline=None)
    @given(member_hosts())
    def test_network_matches_the_relabelled_subgraph(self, host):
        g, members = host
        sub, to_parent = induced_subgraph(g, members)
        mask = sum(1 << v for v in members)
        cap, adj = _vertex_network([x & mask for x in g.neighbor_masks()], mask)
        want_cap, want_adj = vertex_network_by_edges(sub)

        def node(x):  # a split node of the subgraph as the host's
            return 2 * to_parent[x // 2] + x % 2

        def arcs(cap, n, relabel):  # infinite capacities all read "inf"
            return {(relabel(x), relabel(y), c if c <= 1 else "inf")
                    for x in range(2 * n) for y, c in cap[x].items()}

        assert arcs(cap, g.n, lambda x: x) == arcs(want_cap, sub.n, node)
        assert all(adj[node(x)] == sorted(map(node, want_adj[x])) for x in range(2 * sub.n))
        assert all(not adj[2 * v] and not adj[2 * v + 1] for v in range(g.n) if v not in members)

    @settings(max_examples=100, deadline=None)
    @given(member_hosts(), st.integers(min_value=0, max_value=23))
    def test_pairs_match_the_double_loop(self, host, sources):
        g, members = host
        mask = sum(1 << v for v in members)
        order = sorted(members)
        want = [(s, t) for s in order[:sources] for t in order
                if t != s and not g.has_edge(s, t)]
        assert list(_pairs([x & mask for x in g.neighbor_masks()], mask, sources)) == want

    def test_a_member_past_the_host_is_refused(self):
        adj = Graph.cycle(5).neighbor_masks()
        for members in (1 << 5, 0b111 | 1 << 9):
            with pytest.raises(DomainError):
                vertex_cut_below(adj, members, 1)
            with pytest.raises(DomainError):
                mader_subgraph(adj, members, 4)


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

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=14), st.data())
    def test_matches_the_graph_version_on_member_subsets(self, g, data):
        members = data.draw(st.frozensets(st.integers(0, g.n - 1)))
        sub, to_parent = induced_subgraph(g, members)
        want = tuple(frozenset(to_parent[v] for v in x) for x in unfriendly_partition_on_graph(sub))
        assert unfriendly_partition(g, members) == want

    def test_matches_the_graph_version_on_seeded_hosts(self):
        for seed in range(30):
            g = gnp(24 + seed % 25, 0.5, seed)
            want = unfriendly_partition_on_graph(g)
            assert unfriendly_partition(g) == unfriendly_partition(g, range(g.n)) == want

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=20), st.data())
    def test_matches_the_set_form(self, g, data):
        members = data.draw(st.frozensets(st.integers(0, g.n - 1)) | st.none())
        assert unfriendly_partition(g, members) == unfriendly_partition_by_sets(g, members)

    def test_matches_the_set_form_on_dense_hosts(self):
        for seed in range(20):
            g = gnp(30 + seed, 0.6, seed)
            members = frozenset(v for v in range(g.n) if (v * seed) % 7 != 3)
            assert unfriendly_partition(g, members) == unfriendly_partition_by_sets(g, members)

    def test_a_member_out_of_range_is_refused(self):
        for members in ({0, 5}, {-1, 2}):
            with pytest.raises(DomainError):
                unfriendly_partition(Graph.cycle(5), members)


def mader_subgraph_by_induced_subgraphs(g: Graph, k):
    """``mader_subgraph`` as it was before it ranked the sides on neighbour
    masks: each side's average degree read off its induced subgraph."""
    target = frac_ceil(Fraction(k) / 4)
    current = tuple(range(g.n))
    while True:
        if len(current) <= 1:
            return None
        sub, to_parent = induced_subgraph(g, current)
        if sub.is_complete():
            return frozenset(current) if sub.n - 1 >= target else None
        cut = vertex_cut_below_on_graph(sub, target)
        if cut is None:
            return frozenset(current)
        comps = connected_components(sub, frozenset(range(sub.n)) - cut)
        if not comps:
            return None
        best = None
        best_key = None
        for comp in comps:
            side = sorted(comp | cut)
            piece, _ = induced_subgraph(sub, side)
            labels = sorted(to_parent[v] for v in side)
            key = (piece.average_degree(), len(side), -labels[0])
            if best_key is None or key > best_key:
                best, best_key = labels, key
        current = tuple(best)


class TestMaderSubgraph:
    def test_k8(self):
        assert mader(Graph.complete(8), 4) == frozenset(range(8))

    def test_edgeless_none(self):
        assert mader(Graph.empty(5), 1) is None

    def test_two_cliques(self):
        g = disjoint_union(Graph.complete(5), Graph.complete(5))
        found = mader(g, 4)
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
        found = mader(g, k)
        if found is not None:
            sub, _ = induced_subgraph(g, found)
            target = frac_ceil(Fraction(k, 4))
            if sub.n >= 2:
                assert vertex_connectivity(sub) >= target
            else:
                assert target <= 0

    @settings(max_examples=80, deadline=None)
    @given(flow_hosts(), st.integers(min_value=1, max_value=24))
    def test_matches_induced_subgraph_ranking(self, g, k):
        assert mader(g, k) == mader_subgraph_by_induced_subgraphs(g, k)

    def test_succeeds_when_average_degree_suffices(self):
        for seed in range(6):
            g = gnp(12, 0.6, seed)
            avg = 2 * g.m / g.n
            k = int(avg)
            if k >= 1:
                assert mader(g, k) is not None
