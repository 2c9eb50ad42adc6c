import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    balanced_cut_search_by_sets,
    extract_bipartite_core_by_crossing_graph,
    gray_code_side_lists,
    mader_subgraph_on_graph,
    random_graphs,
    robust_partition_by_sets,
)

from makerbreaker import decompose, graphs
from makerbreaker.coloring import chromatic_number, is_k_colorable
from makerbreaker.connectivity import vertex_connectivity, vertex_connectivity_at_least
from makerbreaker.decompose import (
    _part_certified,
    EXACT_CUT_LIMIT,
    _balanced_cut_exact,
    _balanced_cut_search,
    _normalize_sides,
    below_degree_floor,
    core_graph,
    extract_bipartite_core,
    extract_chromatic_core,
    highly_connected_partition,
    robust_partition,
)
from makerbreaker.errors import DomainError, PreconditionError
from makerbreaker.generators import (
    complete_multipartite,
    disjoint_union,
    gnp,
    odd_cycle_blowup,
)
from makerbreaker.graphs import (
    Graph,
    OddCycleWitness,
    find_odd_cycle,
    frac_ceil,
    induced_subgraph,
    mask_bits,
    min_degree,
)


def reverify_partition(h, partition):
    assert partition.covers(h.n)
    for part, guarantee in zip(partition.parts, partition.guarantees):
        assert Fraction(len(part)) >= guarantee.size_floor
        assert guarantee.size_ok
        sub, _ = induced_subgraph(h, part)
        if sub.n >= 2:
            assert vertex_connectivity(sub) >= guarantee.certified_connectivity


def highly_connected_partition_by_relabelling(h, k):
    """``highly_connected_partition``'s parts as they were found on
    relabelled subgraphs: each seeding round copies the unassigned vertices
    into a Graph of their own and maps Mader's set back through to_parent."""
    conn_target = frac_ceil(Fraction(k * k, 16 * h.n))
    parts = []
    unassigned = set(range(h.n))
    while unassigned:
        progress = True
        while progress and unassigned:
            progress = False
            for v in sorted(unassigned):
                for part in parts:
                    if h.degree_into(v, part) >= conn_target:
                        part.add(v)
                        unassigned.discard(v)
                        progress = True
                        break
        if not unassigned:
            break
        sub, to_parent = induced_subgraph(h, unassigned)
        core = mader_subgraph_on_graph(sub, Fraction(k, 2))
        parts.append({to_parent[v] for v in core})
        unassigned -= parts[-1]
    return tuple(frozenset(p) for p in parts)


@st.composite
def partition_hosts(draw):
    """A gnp host of 4-22 vertices, or two or three cliques of 9-12 vertices
    joined by one to three random edges, where Mader's search at k near the
    minimum degree keeps one clique and the partition absorbs the rest."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=4, max_value=22))
        return gnp(n, draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])), seed)
    sizes = draw(st.lists(st.integers(min_value=9, max_value=12), min_size=2, max_size=3))
    g = Graph.complete(sizes[0])
    for size in sizes[1:]:
        g = disjoint_union(g, Graph.complete(size))
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    extra = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    return Graph(g.n, g.edges | set(extra))


class TestHighlyConnectedPartition:
    def test_complete_graph_single_part(self):
        g = Graph.complete(12)
        p = highly_connected_partition(g, 11)
        assert len(p.parts) == 1 and p.parts[0] == frozenset(range(12))
        reverify_partition(g, p)

    def test_two_cliques_two_parts(self):
        g = disjoint_union(Graph.complete(10), Graph.complete(10))
        p = highly_connected_partition(g, 9)
        assert sorted(map(sorted, p.parts)) == [list(range(10)), list(range(10, 20))]
        reverify_partition(g, p)

    def test_c4_single_part(self):
        p = highly_connected_partition(Graph.cycle(4), 2)
        assert p.parts == (frozenset(range(4)),)
        assert p.certified_connectivity == 1
        reverify_partition(Graph.cycle(4), p)

    def test_precondition(self):
        with pytest.raises(DomainError, match="minimum degree 2 below k=3"):
            highly_connected_partition(Graph.cycle(5), 3)
        with pytest.raises(DomainError, match="k must be positive"):
            highly_connected_partition(Graph.cycle(5), 0)
        with pytest.raises(DomainError, match="min_degree of the empty graph"):
            highly_connected_partition(Graph(0), 1)

    def test_gnp_corpus_certificates(self):
        for seed in range(8):
            g = gnp(26, 0.5, seed)
            k = min_degree(g)
            if k == 0:
                continue
            p = highly_connected_partition(g, k)
            assert p.certified_connectivity == frac_ceil(Fraction(k * k, 16 * g.n))
            reverify_partition(g, p)

    @settings(max_examples=150, deadline=None)
    @given(partition_hosts(), st.data())
    def test_matches_the_relabelling_partition(self, g, data):
        top = max(1, min_degree(g))
        k = data.draw(st.integers(min_value=max(1, top - 3), max_value=top))
        if min_degree(g) < k:
            with pytest.raises(DomainError):
                highly_connected_partition(g, k)
            return
        want = highly_connected_partition_by_relabelling(g, k)
        assert highly_connected_partition(g, k).parts == want


def certified_by_relabelling(g, members, target) -> bool:
    """The part certificate on a relabelled copy of the part, as it was."""
    sub, _ = induced_subgraph(g, members)
    return sub.n == 1 or vertex_connectivity_at_least(sub, target)


class TestPartCertificate:
    """The part certificate on host masks against the relabelled copy."""

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=10), st.data())
    def test_matches_the_relabelled_certificate(self, g, data):
        members = data.draw(
            st.frozensets(st.integers(min_value=0, max_value=g.n - 1), min_size=1)
        )
        target = data.draw(st.integers(min_value=1, max_value=6))
        part = sum(1 << v for v in members)
        got = _part_certified(g.neighbor_masks(), part, target)
        assert got == certified_by_relabelling(g, members, target)

    def test_every_part_of_seeded_gnp_hosts(self):
        for seed in range(12):
            g = gnp(20 + seed, 0.5, seed)
            k = min_degree(g)
            for part in highly_connected_partition(g, k).parts:
                mask = sum(1 << v for v in part)
                for target in range(1, 6):
                    assert _part_certified(g.neighbor_masks(), mask, target) == (
                        certified_by_relabelling(g, part, target))

    def test_a_complete_host_needs_no_vertex_cut(self, monkeypatch):
        monkeypatch.setattr(decompose, "vertex_cut_below", None)
        p = highly_connected_partition(Graph.complete(20), 19)
        assert p.parts == (frozenset(range(20)),) and p.certified_connectivity == 2

    @pytest.mark.parametrize(
        "g, k",
        [
            (disjoint_union(Graph.complete(10), Graph.complete(10)), 9),
            # two K_34 sharing vertex 33: a cut vertex, certificate target 2
            (Graph(67, [(u, v) for side in (range(34), range(33, 67))
                        for u in side for v in side if u < v]), 33),
        ],
        ids=["two-cliques", "cut-vertex"],
    )
    def test_a_weak_part_fails_its_certificate(self, monkeypatch, g, k):
        # a Mader search that hands back the whole remainder, weak as it is
        monkeypatch.setattr(decompose, "mader_subgraph", lambda adj, members, k: mask_bits(members))
        with pytest.raises(RuntimeError, match="a produced part failed its connectivity certificate"):
            highly_connected_partition(g, k)


class TestExtractBipartiteCore:
    def test_blowup_fails_chromatic_gate(self):
        g = odd_cycle_blowup(5, 4)  # n=20, min degree 8, chromatic number 3
        assert chromatic_number(g) == 3
        with pytest.raises(PreconditionError):
            extract_bipartite_core(g, Fraction(2, 5))

    def test_tripartite_with_force(self):
        g = complete_multipartite([6, 6, 6])
        core = extract_bipartite_core(g, Fraction(2, 3), force=True)
        u, v = core.witness_edge
        assert u in core.a and v in core.a and g.has_edge(u, v)
        assert not core.a & core.b
        h, _ = core_graph(g, core)
        assert not isinstance(find_odd_cycle(h), OddCycleWitness)
        assert core.certified_connectivity >= frac_ceil(
            Fraction(2, 3) ** 2 * g.n / 64
        )
        if h.n >= 2:
            assert vertex_connectivity(h) >= core.certified_connectivity

    def test_bipartite_with_force_errors(self):
        g = complete_multipartite([8, 8])
        with pytest.raises(PreconditionError):
            extract_bipartite_core(g, Fraction(1, 2), force=True)

    def test_min_degree_precondition(self):
        with pytest.raises(PreconditionError):
            extract_bipartite_core(Graph.cycle(8), Fraction(1, 2), force=True)


class TestRobustPartition:
    def test_complete_graph_no_split(self):
        # every 8/8 cut of K16 has 64 >= 16^(3/2) edges
        rp = robust_partition(Graph.complete(16), Fraction(1, 2), seed=0)
        assert rp.split_count == 0
        assert rp.parts == (frozenset(range(16)),)

    def test_two_cliques_split_along_empty_cut(self):
        g = disjoint_union(Graph.complete(10), Graph.complete(10))
        rp = robust_partition(g, Fraction(2, 5), seed=0)
        assert rp.split_count == 1
        assert sorted(map(sorted, rp.parts)) == [list(range(10)), list(range(10, 20))]

    def test_single_part_when_balance_impossible(self):
        # 2*delta*n > n leaves no room for a balanced cut
        rp = robust_partition(Graph.complete(8), Fraction(5, 8), seed=0)
        assert rp.split_count == 0 and len(rp.parts) == 1

    def test_small_graph_every_balanced_cut_is_sparse(self):
        # below n=16 the bound n^(3/2) exceeds every possible cut size, so a
        # split happens as soon as the balance constraint allows one
        rp = robust_partition(Graph.complete(8), Fraction(1, 2), seed=0)
        assert rp.split_count == 1 and len(rp.parts) == 2

    def test_pointwise_floor_and_split_budget(self):
        for seed in range(6):
            g = gnp(28, 0.5, seed)
            delta = Fraction(min_degree(g), g.n)
            if delta == 0:
                continue
            rp = robust_partition(g, delta, seed=seed)
            assert rp.split_count <= frac_ceil(1 / delta)
            floor = delta * delta * g.n
            seen = set()
            for part in rp.parts:
                assert not seen & part
                seen |= part
                for v in part:
                    assert Fraction(g.degree_into(v, part)) >= floor
            assert seen == set(range(g.n))

    def test_stats_shape(self):
        g = gnp(24, 0.5, 3)
        delta = Fraction(min_degree(g), g.n)
        rp = robust_partition(g, delta, seed=1)
        assert len(rp.part_stats) == len(rp.parts)
        for part, stats in zip(rp.parts, rp.part_stats):
            assert stats.size == len(part)
            assert stats.min_internal_degree == min(
                g.degree_into(v, part) for v in part
            )

    def test_determinism(self):
        g = gnp(26, 0.5, 9)
        delta = Fraction(min_degree(g), g.n)
        a = robust_partition(g, delta, seed=5)
        b = robust_partition(g, delta, seed=5)
        assert a.parts == b.parts and a.moved == b.moved


@st.composite
def dense_hosts(draw, max_n=48):
    """A gnp host of 8 to ``max_n`` vertices at a random density, or a
    complete multipartite host, with delta drawn from (0, min degree / n]
    or one step above it, below 1."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=8, max_value=max_n))
        g = gnp(n, draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])), seed)
    else:
        sizes = draw(st.lists(st.integers(min_value=2, max_value=9), min_size=2, max_size=5))
        g = complete_multipartite(sizes)
    low = max(min_degree(g), 1)
    numerator = draw(st.integers(min_value=1, max_value=min(low + 1, g.n - 1)))
    return g, Fraction(numerator, g.n)


def outcome(run):
    """A call's result, or its error's type and message."""
    try:
        return run()
    except (PreconditionError, DomainError) as exc:
        return type(exc), str(exc)


class TestMaskDecompositionsMatchTheSetForms:
    """robust_partition and extract_bipartite_core against the set-based
    forms they replaced, kept in conftest: parts, moved, split counts, part
    stats and cores equal, and the same precondition errors."""

    @settings(max_examples=60, deadline=None)
    @given(dense_hosts(), st.integers(min_value=0, max_value=50))
    def test_robust_partition(self, host, seed):
        g, delta = host
        got = outcome(lambda: robust_partition(g, delta, seed=seed))
        assert got == outcome(lambda: robust_partition_by_sets(g, delta, seed=seed))

    @settings(max_examples=60, deadline=None)
    @given(dense_hosts())
    def test_extract_bipartite_core(self, host):
        g, delta = host
        got = outcome(lambda: extract_bipartite_core(g, delta, force=True))
        assert got == outcome(lambda: extract_bipartite_core_by_crossing_graph(g, delta))

    def test_parts_above_the_exact_limit_take_the_seeded_search(self):
        # two sparse halves of 24 vertices: the first split is on 48 > EXACT_CUT_LIMIT
        # vertices, so it comes from _balanced_cut_search and its rng draws
        g = disjoint_union(gnp(24, 0.6, 1), gnp(24, 0.6, 2))
        delta = Fraction(min_degree(g), g.n)
        for seed in range(4):
            rp = robust_partition(g, delta, seed=seed)
            assert rp == robust_partition_by_sets(g, delta, seed=seed)
            assert rp.split_count >= 1 and g.n > EXACT_CUT_LIMIT

    def test_search_draws_the_same_sides(self):
        g = gnp(40, 0.5, 7)
        members = [v for v in range(g.n) if v % 5]
        for seed in range(5):
            got = _balanced_cut_search(g, members, Fraction(8), g.n, random.Random(seed))
            old = balanced_cut_search_by_sets(g, set(members), Fraction(8), g.n,
                                              random.Random(seed))
            assert got == old

    def test_both_precondition_errors(self):
        # minimum degree below delta*n, for both decompositions
        cycle = Graph.cycle(8)
        for run in (lambda: robust_partition(cycle, Fraction(1, 2)),
                    lambda: extract_bipartite_core(cycle, Fraction(1, 2), force=True)):
            with pytest.raises(PreconditionError, match="minimum degree below"):
                run()
        # a bipartite host leaves every part 2-colorable
        with pytest.raises(PreconditionError, match="every part is 2-colorable"):
            extract_bipartite_core(complete_multipartite([8, 8]), Fraction(1, 2), force=True)


def balanced_cut_exact_by_induced_subgraph(g, members, min_side, n):
    """``_balanced_cut_exact`` as it was on the members' induced subgraph:
    the same pruned search over its relabelled neighbour masks, its sides
    mapped back through the sorted members."""
    order = sorted(members)
    m = len(order)
    sub, _ = induced_subgraph(g, order)
    nbr = sub.neighbor_masks()
    lo = frac_ceil(min_side)
    best = best_mask = None
    unassigned = [nbr[1 : v + 1] for v in range(m)]

    def search(v, side0, side1, ones, cut, reverse):
        nonlocal best, best_mask
        if best is not None:
            bound = cut
            for x in unassigned[v]:
                a = (x & side0).bit_count()
                b = (x & side1).bit_count()
                bound += a if a < b else b
            if bound >= best:
                return
        if v == 0:
            best, best_mask = cut, side1
            return
        bit, x = 1 << v, nbr[v]
        for one in (1, 0) if reverse else (0, 1):
            if one:
                if ones < m - lo:
                    search(v - 1, side0, side1 | bit, ones + 1,
                           cut + (x & side0).bit_count(), not reverse)
            elif ones + v > lo:
                search(v - 1, side0 | bit, side1, ones, cut + (x & side1).bit_count(), reverse)

    if lo <= m - lo:
        search(m - 1, 1, 0, 0, 0, False)
    if best is None:
        return None, None
    if best * best >= n**3:
        return None, best
    return _normalize_sides(order, [order[i] for i in range(m) if not best_mask >> i & 1]), best


def balanced_cut_exact_by_side_lists(g, members, min_side, n):
    """``_balanced_cut_exact`` as it was before the neighbor-mask walk: the
    best bipartition is kept as a copy of the side list."""
    order = sorted(members)
    m = len(order)
    sub, _ = induced_subgraph(g, order)
    lo = frac_ceil(min_side)
    best = None
    best_sides = None
    for side, _, ones, cut in gray_code_side_lists(sub):
        if lo <= ones <= m - lo and (best is None or cut < best):
            best = cut
            best_sides = side.copy()
    if best is None:
        return None, None
    if best * best >= n**3:
        return None, best
    return _normalize_sides(order, [order[i] for i in range(m) if best_sides[i] == 0]), best


def balanced_cut_exact_by_gray_walk(g, members, min_side, n):
    """``_balanced_cut_exact`` as it was before the pruned search: every
    bipartition in Gray-code order, its side-1 size and cut kept by one
    popcount per step, and the first minimum balanced one kept."""
    order = sorted(members)
    m = len(order)
    sub, _ = induced_subgraph(g, order)
    nbr = sub.neighbor_masks()
    lo = frac_ceil(min_side)
    best = best_mask = None
    mask = ones = cut = 0
    for code in range(1 << (m - 1)):
        if code:
            v = (code & -code).bit_length()
            same = (nbr[v] & mask).bit_count()  # v's neighbors on side 1
            mask ^= 1 << v
            if mask >> v & 1:
                ones += 1
                cut += sub.degree(v) - 2 * same
            else:
                ones -= 1
                cut += 2 * same - sub.degree(v)
        if lo <= ones <= m - lo and (best is None or cut < best):
            best, best_mask = cut, mask
    if best is None:
        return None, None
    if best * best >= n**3:
        return None, best
    return _normalize_sides(order, [order[i] for i in range(m) if not best_mask >> i & 1]), best


@st.composite
def balanced_cut_instances(draw, max_n=EXACT_CUT_LIMIT, strict=False):
    """A gnp host of 2 to ``max_n`` vertices (3 to ``max_n + 1`` when
    ``strict``), a member set of at least two vertices (a strict subset when
    ``strict``), a positive side floor up to half the members (as
    ``robust_partition`` passes), and the n the split bound uses (at 100n
    every minimum cut is below the bound, so its sides are compared too)."""
    n = draw(st.integers(min_value=2 + strict, max_value=max_n + strict))
    g = gnp(n, draw(st.sampled_from([0.2, 0.5, 0.8])), draw(st.integers(0, 2**16)))
    members = set(draw(st.permutations(range(n)))[: draw(st.integers(2, n - strict))])
    min_side = Fraction(draw(st.integers(1, len(members))), 2)
    big_n = draw(st.sampled_from([n, 4 * n, 100 * n]))
    return g, members, min_side, big_n


class TestBalancedCutExact:
    @settings(max_examples=100, deadline=None)
    @given(balanced_cut_instances(strict=True))
    def test_matches_the_induced_subgraph_search(self, inst):
        assert _balanced_cut_exact(*inst) == balanced_cut_exact_by_induced_subgraph(*inst)

    @settings(max_examples=40, deadline=None)
    @given(balanced_cut_instances(max_n=18))
    def test_matches_side_list_walk(self, inst):
        assert _balanced_cut_exact(*inst) == balanced_cut_exact_by_side_lists(*inst)

    @settings(max_examples=60, deadline=None)
    @given(balanced_cut_instances())
    def test_matches_gray_walk(self, inst):
        assert _balanced_cut_exact(*inst) == balanced_cut_exact_by_gray_walk(*inst)

    @pytest.mark.parametrize("n,p,seed", [(12, 0.5, 1), (15, 0.3, 2), (18, 0.5, 3), (18, 0.8, 4)])
    def test_matches_side_list_walk_on_whole_hosts(self, n, p, seed):
        g = gnp(n, p, seed)
        for inst in ((g, range(n), Fraction(n, 4), n), (g, range(n), Fraction(n, 3), 4 * n)):
            assert _balanced_cut_exact(*inst) == balanced_cut_exact_by_side_lists(*inst)

    @pytest.mark.parametrize("p,seed", [(0.5, 5), (0.8, 6)])
    def test_matches_gray_walk_on_hosts_at_the_limit(self, p, seed):
        n = EXACT_CUT_LIMIT
        g = gnp(n, p, seed)
        for inst in ((g, range(n), Fraction(n, 4), 100 * n), (g, range(n), Fraction(n, 2), n)):
            assert _balanced_cut_exact(*inst) == balanced_cut_exact_by_gray_walk(*inst)

    @pytest.mark.parametrize(
        "g,min_side",
        [
            (Graph.empty(14), Fraction(7)),  # every balanced cut is empty
            (disjoint_union(Graph.complete(8), Graph.complete(8)), Fraction(5)),
            (complete_multipartite([4, 4, 4, 4]), Fraction(8)),
            (complete_multipartite([4, 4, 4, 4]), Fraction(5)),
            (Graph.complete(16), Fraction(8)),  # every bisection cuts 64 edges
        ],
        ids=["empty", "two-cliques", "k4x4-bisection", "k4x4", "k16-bisection"],
    )
    def test_ties_go_to_the_first_minimum_in_gray_order(self, g, min_side):
        for big_n in (g.n, 100 * g.n):
            inst = (g, range(g.n), min_side, big_n)
            assert _balanced_cut_exact(*inst) == balanced_cut_exact_by_gray_walk(*inst)

    def test_two_cliques(self):
        g = disjoint_union(Graph.complete(6), Graph.complete(6))
        found, best = _balanced_cut_exact(g, range(12), Fraction(3), 12)
        assert best == 0
        assert found == (frozenset(range(6)), frozenset(range(6, 12)))


def below_degree_floor_by_fractions(d, delta_n, t, n):
    """``below_degree_floor`` as it was before it cross-multiplied."""
    diff = delta_n - d
    return diff > 0 and diff**4 > Fraction(t) ** 4 * n**3


class TestBelowDegreeFloor:
    # at n = 16, t = 1 the bound is delta*n - 8 exactly
    @example(d=2, num=10, den=1, t=1, n=16)
    @example(d=1, num=10, den=1, t=1, n=16)
    @example(d=3, num=21, den=2, t=1, n=16)
    @settings(max_examples=300)
    @given(
        d=st.integers(0, 300),
        num=st.integers(1, 10**4),
        den=st.integers(1, 60),
        t=st.integers(1, 12),
        n=st.integers(1, 300),
    )
    def test_matches_fraction_form(self, d, num, den, t, n):
        delta_n = Fraction(num, den)
        assert below_degree_floor(d, delta_n, t, n) == below_degree_floor_by_fractions(
            d, delta_n, t, n
        )


class TestExtractChromaticCore:
    def test_bipartite_with_force_errors(self):
        g = complete_multipartite([10, 10])
        with pytest.raises(PreconditionError):
            extract_chromatic_core(g, Fraction(1, 2), 1, force=True)

    def test_multipartite_success(self):
        g = complete_multipartite([3] * 7)  # chromatic number 7
        core = extract_chromatic_core(g, Fraction(6, 7), 2, force=True)
        side, _ = induced_subgraph(g, core.a)
        assert is_k_colorable(side, 3) is None  # needs more than b+1 colors
        assert core.chi_floor == 4
        h, _ = core_graph(g, core)
        assert not isinstance(find_odd_cycle(h), OddCycleWitness)
        assert Fraction(core.h_min_degree) >= Fraction(6, 7) ** 2 * g.n / 2

    def test_degenerate_threshold(self):
        g = complete_multipartite([2] * 5)
        with pytest.raises(PreconditionError):
            extract_chromatic_core(g, Fraction(4, 5), 4)  # threshold 2*5/(4/5) >= n

    def test_strict_gate(self):
        # complete 7-partite with b=2: threshold equals the chromatic number,
        # so the strict inequality fails without force
        g = complete_multipartite([3] * 7)
        with pytest.raises(PreconditionError):
            extract_chromatic_core(g, Fraction(6, 7), 2)

    @pytest.mark.parametrize(
        "parts, size, b, delta, side, h_min, digest",
        [
            (7, 40, 2, Fraction(6, 7), 140, 120, "816b80db1f08fe3e"),
            (7, 12, 1, Fraction(6, 7), 42, 36, "7202c3b176f907a2"),
            (9, 20, 3, Fraction(8, 9), 90, 80, "66f3bcfcad6981db"),
        ],
        ids=["K40x7-b2", "K12x7-b1", "K20x9-b3"],
    )
    def test_pinned_cores_on_multipartite_hosts(
        self, monkeypatch, parts, size, b, delta, side, h_min, digest
    ):
        # the sides as the relabelling pipeline found them, by sha256 of the text below
        monkeypatch.setattr(graphs, "induced_subgraph", None)  # no relabelled copy
        core = extract_chromatic_core(complete_multipartite([size] * parts), delta, b, force=True)
        text = f"{sorted(core.a)} {sorted(core.b)} {core.h_min_degree} {core.chi_floor}"
        assert (len(core.a), len(core.b), core.h_min_degree, core.chi_floor) == (
            side, side, h_min, b + 2)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
