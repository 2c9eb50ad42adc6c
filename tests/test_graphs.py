import hashlib
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    components_by_set_search,
    gray_code_side_lists,
    random_graphs,
    star,
)
from makerbreaker.errors import DomainError, ResourceLimitError
from makerbreaker.graphs import (
    MAX_VERTICES,
    Graph,
    OddCycleWitness,
    connected_components,
    cross_masks,
    cut_edges,
    find_odd_cycle,
    first_edge_inside,
    format_graph,
    gray_code_bipartitions,
    has_odd_cycle,
    induced_subgraph,
    is_connected,
    mask_bits,
    mask_search,
    min_degree,
    parse_graph,
    spans,
    verify_odd_cycle,
)


class TestGraphBasics:
    def test_constructor_rejects_loops(self):
        with pytest.raises(DomainError):
            Graph(3, [(1, 1)])

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Graph(3, [(0, 3)])

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert 1 in g.neighbors(0) and 0 in g.neighbors(1)
        assert g.m == 2

    def test_min_degree_examples(self):
        assert min_degree(Graph.complete(4)) == 3
        assert min_degree(Graph.cycle(5)) == 2
        assert min_degree(star(3)) == 1

    def test_min_degree_empty_graph(self):
        with pytest.raises(DomainError):
            min_degree(Graph(0))


class TestInducedSubgraph:
    def test_k4_three_vertices_is_k3(self):
        sub, to_parent = induced_subgraph(Graph.complete(4), {0, 2, 3})
        assert sub == Graph.complete(3)
        assert to_parent == (0, 2, 3)

    def test_c5_adjacent_pair_is_edge(self):
        sub, _ = induced_subgraph(Graph.cycle(5), {1, 2})
        assert sub.m == 1

    def test_full_vertex_set_is_identity(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        sub, to_parent = induced_subgraph(g, range(5))
        assert sub == g
        assert to_parent == (0, 1, 2, 3, 4)

    def test_out_of_range_vertex(self):
        with pytest.raises(DomainError):
            induced_subgraph(Graph.complete(3), {0, 5})

    @staticmethod
    def edge_scan(g, members):
        """The plain construction: keep every host edge inside ``members``."""
        s = frozenset(members)
        order = tuple(sorted(s))
        index = {old: new for new, old in enumerate(order)}
        edges = [(index[u], index[v]) for u, v in g.edges if u in s and v in s]
        return Graph(len(order), edges), order

    def assert_matches_edge_scan(self, g, members):
        sub, to_parent = induced_subgraph(g, members)
        want, want_order = self.edge_scan(g, members)
        assert sub == want and to_parent == want_order
        assert all(sub.neighbors(v) == want.neighbors(v) for v in range(sub.n))

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=12), st.data())
    def test_matches_edge_scan_on_random_member_sets(self, g, data):
        # mostly sets whose degrees sum below 2m, where the neighbor walk runs
        members = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        self.assert_matches_edge_scan(g, members)

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_n=12), st.data())
    def test_edge_scan_side_of_the_switch(self, g, data):
        # every vertex that has a neighbor, plus any isolated ones: the
        # degrees sum to exactly 2m, so the edge scan runs
        isolated = [v for v in range(g.n) if g.degree(v) == 0]
        members = {v for v in range(g.n) if g.degree(v) > 0}
        members |= data.draw(st.sets(st.sampled_from(isolated))) if isolated else set()
        assert sum(g.degree(v) for v in members) == 2 * g.m
        self.assert_matches_edge_scan(g, members)

    def test_both_sides_on_a_dense_host(self):
        g = Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if (u * v) % 3])
        for members in ({0, 4, 5}, set(range(1, 9)), set(range(9))):
            self.assert_matches_edge_scan(g, members)


def cut_edges_by_scan(g, a, b):
    """``cut_edges`` as it was before ``cross_masks``: one scan of the edge
    set against the two sides."""
    sa, sb = set(a), set(b)
    return sorted((u, v) for u, v in g.edges if (u in sa and v in sb) or (u in sb and v in sa))


class TestCutEdges:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=12), st.data())
    def test_cross_masks_and_cut_edges_match_the_edge_scan(self, g, data):
        side = data.draw(st.lists(st.sampled_from([0, 1, None]), min_size=g.n, max_size=g.n))
        a = {v for v in range(g.n) if side[v] == 0}
        b = {v for v in range(g.n) if side[v] == 1}
        expected = cut_edges_by_scan(g, a, b)
        assert cut_edges(g, a, b) == expected
        assert cross_masks(g, a, b) == Graph(g.n, expected).neighbor_masks()

    def test_cross_masks_check_the_sides(self):
        with pytest.raises(DomainError):
            cross_masks(Graph.complete(3), {0, 1}, {1, 2})
        with pytest.raises(DomainError):
            cross_masks(Graph.complete(3), {0}, {3})

    def test_c4_alternating(self):
        assert len(cut_edges(Graph.cycle(4), {0, 2}, {1, 3})) == 4

    def test_k4_star_cut(self):
        assert len(cut_edges(Graph.complete(4), {0}, {1, 2, 3})) == 3

    def test_edgeless(self):
        assert cut_edges(Graph.empty(4), {0, 1}, {2, 3}) == []

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            cut_edges(Graph.complete(3), {0, 1}, {1, 2})


class TestOddCycle:
    def test_c5_witness(self):
        w = find_odd_cycle(Graph.cycle(5))
        assert isinstance(w, OddCycleWitness)
        assert len(w) == 5
        assert verify_odd_cycle(Graph.cycle(5), w)

    def test_c6_bipartite(self):
        coloring = find_odd_cycle(Graph.cycle(6))
        assert isinstance(coloring, list)
        g = Graph.cycle(6)
        assert all(coloring[u] != coloring[v] for u, v in g.edges)

    def test_k4_triangle(self):
        w = find_odd_cycle(Graph.complete(4))
        assert isinstance(w, OddCycleWitness)
        assert len(w) == 3
        assert verify_odd_cycle(Graph.complete(4), w)

    @settings(max_examples=150)
    @given(random_graphs())
    def test_exactly_one_outcome_and_valid(self, g):
        res = find_odd_cycle(g)
        if isinstance(res, OddCycleWitness):
            assert verify_odd_cycle(g, res)
        else:
            assert len(res) == g.n
            assert all(res[u] != res[v] for u, v in g.edges)

    def test_all_four_vertex_graphs(self):
        for g in all_labeled_graphs(4):
            res = find_odd_cycle(g)
            if isinstance(res, OddCycleWitness):
                assert verify_odd_cycle(g, res)
            else:
                assert all(res[u] != res[v] for u, v in g.edges)


class TestConnectedComponents:
    """networkx and the set search the mask search replaced are the
    references."""

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=10), st.data())
    def test_matches_networkx_outside_a_banned_set(self, g, data):
        banned = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        members = set(range(g.n)) - banned
        h = nx.Graph()
        h.add_nodes_from(members)
        h.add_edges_from((u, v) for u, v in g.edges if u in members and v in members)
        expected = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
        assert connected_components(g, members) == expected
        assert components_by_set_search(g, members) == expected
        if not banned:
            assert connected_components(g) == expected == components_by_set_search(g)
            by_set_search = g.n <= 1 or len(components_by_set_search(g)) == 1
            assert is_connected(g) == by_set_search == nx.is_connected(h)

    def test_a_member_out_of_range_is_a_domain_error(self):
        g = Graph(4, [(2, 3)])
        for members in ({-1}, {4}, {0, 9}):
            with pytest.raises(DomainError):
                connected_components(g, members)


class TestMaskSearch:
    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=10), st.data())
    def test_odd_bits_are_the_two_coloring_of_find_odd_cycle(self, g, data):
        members = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        adj = g.neighbor_masks()
        verts = rest = sum(1 << v for v in members)
        while rest:
            seen, odd, clash = mask_search(adj, verts, rest & -rest)
            comp, order = induced_subgraph(g, mask_bits(seen))
            coloring = find_odd_cycle(comp)
            assert clash == isinstance(coloring, OddCycleWitness)
            if not clash:
                assert odd == sum(c << v for v, c in zip(order, coloring))
            rest &= ~seen

    def test_mask_bits(self):
        assert mask_bits(0) == [] and mask_bits(0b101001) == [0, 3, 5]


def induced_nx(g, members):
    h = nx.Graph()
    h.add_nodes_from(members)
    h.add_edges_from((u, v) for u, v in g.edges if u in members and v in members)
    return h


class TestMaskDecisions:
    @settings(max_examples=400, deadline=None)
    @given(random_graphs(max_n=12), st.data())
    def test_against_networkx_on_the_induced_graph(self, g, data):
        members = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        h = induced_nx(g, members)
        verts = sum(1 << v for v in members)
        assert has_odd_cycle(g.neighbor_masks(), verts) == (not nx.is_bipartite(h))
        assert spans(g.neighbor_masks(), verts) == (bool(members) and nx.is_connected(h))

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=10), st.data())
    def test_first_edge_inside_is_the_least_inside_edge(self, g, data):
        members = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        inside = sorted((u, v) for u, v in g.edges if u in members and v in members)
        assert first_edge_inside(g, members) == (inside[0] if inside else None)
        assert first_edge_inside(g, frozenset(members)) == first_edge_inside(g, members)

    def test_first_edge_inside_checks_its_members(self):
        with pytest.raises(DomainError):
            first_edge_inside(Graph(3, [(0, 1)]), {0, 3})


class TestGrayCodeBipartitions:
    @settings(max_examples=150)
    @given(random_graphs())
    def test_visits_each_bipartition_once_with_exact_counts(self, g):
        masks = list(gray_code_bipartitions(g))
        assert len(masks) == len(set(masks)) == 2 ** (g.n - 1)
        for mask in masks:
            assert not mask & 1  # vertex 0 stays on side 0
            assert 0 <= mask < 1 << g.n
        assert masks[0] == 0
        assert all((a ^ b).bit_count() == 1 for a, b in zip(masks, masks[1:]))
        # the same order as the side-list walk the balanced-cut references use
        assert masks == [
            sum(bit << v for v, bit in enumerate(side)) for side, *_ in gray_code_side_lists(g)
        ]


def degree_into_by_sum(g, v, members):
    """``Graph.degree_into`` as it was before it intersected the neighbor set:
    a membership count over the smaller of the two collections."""
    nbrs = g.neighbors(v)
    if len(nbrs) < len(members):
        return sum(1 for u in nbrs if u in members)
    return sum(1 for u in members if u in nbrs)


class TestDegreeInto:
    @settings(max_examples=150)
    @given(random_graphs(max_n=12), st.data())
    def test_matches_sum_reference(self, g, data):
        members = data.draw(st.sets(st.integers(0, g.n - 1)))
        lo = data.draw(st.integers(0, g.n))
        hi = data.draw(st.integers(lo, g.n))
        for v in range(g.n):
            for kind in (set(members), frozenset(members), sorted(members), range(lo, hi)):
                assert g.degree_into(v, kind) == degree_into_by_sum(g, v, kind)


class TestNeighborMasks:
    @settings(max_examples=150)
    @given(random_graphs(max_n=12))
    def test_matches_neighbor_sets(self, g):
        masks = g.neighbor_masks()
        assert len(masks) == g.n
        for v in range(g.n):
            assert {u for u in range(g.n) if masks[v] >> u & 1} == g.neighbors(v)

    def test_computed_once(self):
        g = Graph.cycle(5)
        assert g.neighbor_masks() is g.neighbor_masks()
        assert g.neighbor_masks() == (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)


class TestTextFormat:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        assert parse_graph(format_graph(g)) == g

    def test_header_line(self):
        text = format_graph(Graph.complete(3))
        assert text.splitlines()[0] == "p 3 3"

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DomainError):
            parse_graph("p 3 2\ne 0 1\ne 1 0\n")

    def test_loop_rejected(self):
        with pytest.raises(DomainError):
            parse_graph("p 3 1\ne 2 2\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            parse_graph("p 3 2\ne 0 1\n")

    def test_fingerprint_stable(self):
        g1 = Graph(4, [(0, 1), (2, 3)])
        g2 = Graph(4, [(2, 3), (0, 1)])
        assert g1.fingerprint() == g2.fingerprint()

    @pytest.mark.parametrize("n", [100_000_000_000, 3_000_000, MAX_VERTICES + 1])
    def test_vertex_count_above_the_cap_is_refused_before_allocation(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as exc:
                parse_graph(f"p {n} 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.stats == {"n": n, "cap": MAX_VERTICES}
        assert peak < 1 << 20

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(max_n=10))
    def test_memoized_fingerprint_is_the_text_hash(self, g):
        want = hashlib.sha256(format_graph(g).encode("ascii")).hexdigest()[:16]
        assert g.fingerprint() == want
        assert g.fingerprint() == want  # the kept value, on the second call
