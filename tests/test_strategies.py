import decimal
import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    components_by_set_search,
    forced_dense_edge_maker,
    forced_dense_vertex_maker,
    gray_code_side_lists,
    random_graphs,
    sample_uniform_vertices,
)
from makerbreaker.connectivity import edge_connectivity
from makerbreaker.decompose import EXACT_CUT_LIMIT

from makerbreaker.decompose import BipartiteCore, extract_bipartite_core
from makerbreaker.engine import (
    BREAKER,
    EDGES,
    MAKER,
    VERTICES,
    GameSpec,
    Position,
    Strategy,
    WinPredicate,
    apply_moves,
    batch_size,
    format_transcript,
    legal_moves,
    maker_graph,
    maker_win_witness,
    play,
)
from makerbreaker.errors import DomainError, PreconditionError, ResourceLimitError
from makerbreaker.generators import complete_multipartite, gnp, odd_cycle_blowup
from makerbreaker.graphs import (
    Graph,
    OddCycleWitness,
    connected_components,
    cut_edges,
    find_odd_cycle,
    induced_subgraph,
    mask_bits,
    mask_components,
    mask_search,
    verify_odd_cycle,
)
from makerbreaker.harness import build_strategy
from makerbreaker.solver import solve, verify_maker_strategy
from makerbreaker.strategies import (
    BipartiteGuardBreaker,
    ConnectedEdgeMaker,
    ConnectivityMaker,
    CutAttackBreaker,
    DenseEdgeMaker,
    DenseVertexMaker,
    MergePlan,
    RandomStrategy,
    _ClaimView,
    _maker_two_coloring,
    _spanning_bipartition_search,
    bound_report,
    dominates,
    merge_components,
)

STAGE_ORDER = {"I": 1, "II": 2, "III": 3, "IV": 4}


def edge_spec(g, a=1, b=1, objective="odd-cycle", first=MAKER):
    return GameSpec(
        host=g,
        board_kind=EDGES,
        objective=WinPredicate(objective),
        maker_bias=a,
        breaker_bias=b,
        first=first,
    )


def vertex_spec(g, b=1, first=MAKER):
    return GameSpec(
        host=g,
        board_kind=VERTICES,
        objective=WinPredicate("odd-cycle"),
        breaker_bias=b,
        first=first,
    )


class ScriptedBreaker(Strategy):
    ident = "scripted-breaker"
    position_pure = False

    def __init__(self, batches):
        self.batches = list(batches)
        self.cursor = 0
        self.fallback = RandomStrategy()

    def reset(self, spec, seed):
        self.cursor = 0
        self.fallback.reset(spec, seed)

    def propose(self, spec, pos):
        if self.cursor < len(self.batches):
            batch = self.batches[self.cursor]
            self.cursor += 1
            return batch
        return self.fallback.propose(spec, pos)


class TestConnectivityMaker:
    def test_k4_always_wins(self):
        g = Graph.complete(4)
        spec = edge_spec(g, objective="spanning-connected")
        assert solve(spec).winner == MAKER
        assert verify_maker_strategy(spec, ConnectivityMaker(g)).always_wins

    def test_tree_host_breaker_wins(self):
        g = Graph.path(5)
        spec = edge_spec(g, objective="spanning-connected")
        r = play(spec, ConnectivityMaker(g), CutAttackBreaker(), seed=0)
        assert r.winner == BREAKER

    def test_k6_biased_win_rate_regression(self):
        # deterministic given the seed range; frozen by the first verified run
        g = Graph.complete(6)
        spec = edge_spec(g, b=2, objective="spanning-connected")
        maker = ConnectivityMaker(g)
        wins = sum(
            play(spec, maker, RandomStrategy(), seed=s).winner == MAKER
            for s in range(200)
        )
        assert wins == 200


def test_connectivity_maker_refuses_a_vertex_board():
    # Breaker's vertex claims in the log are no edges for the claim view
    g = Graph.complete(4)
    pos = Position(frozenset(), frozenset({0}), MAKER, ((BREAKER, (0,)),))
    with pytest.raises(DomainError, match="edge games only"):
        ConnectivityMaker(g).propose(vertex_spec(g), pos)


def smallest_cut_by_component_scan(n, maker_edges, members, edges):
    """The plain construction: sort the crossing edges of every component in
    turn and keep the first smallest non-empty cut."""
    comps = connected_components(Graph(n, maker_edges), members)
    best = []
    if len(comps) > 1:
        for comp in comps:
            cut = sorted(e for e in edges if (e[0] in comp) != (e[1] in comp))
            if cut and (not best or len(cut) < len(best)):
                best = cut
    return best


def smallest_cut_by_mask_search(maker, members: int, avail, limit: int | None = None) -> list:
    """The smallest sorted list of available edges crossing one component of
    Maker's graph on the vertex mask ``members``, the first on ties, cut
    short after ``limit`` edges; [] when Maker's graph is connected there or
    no such edge crosses.  Every component is searched afresh, as the
    strategies did each turn before the claim view carried them.

    ``maker[v]`` and ``avail[v]`` are vertex v's neighbour masks in Maker's
    graph and among the available (unclaimed pool) edges.  Components come
    from ``mask_search`` rooted at the lowest member left, so they
    are met in order of smallest member; each is sized by the popcount of its
    members' available edges that leave it.
    """
    best = best_size = None
    comps = 0
    rest = members
    while rest:
        inside = rest & -rest
        v = inside.bit_length() - 1
        if maker[v] & members:
            inside = mask_search(maker, members, inside)[0]
            outside = ~inside
            size = 0
            bits = inside
            while bits:
                low = bits & -bits
                size += (avail[low.bit_length() - 1] & outside).bit_count()
                bits ^= low
        else:
            size = avail[v].bit_count()  # a lone vertex: all its edges leave
        rest &= ~inside
        comps += 1
        if size and (best_size is None or size < best_size):
            best, best_size = inside, size
    if comps < 2 or best is None:
        return []
    # edge (u, v), u < v, crosses when exactly one end is inside; taking u
    # upwards, then v upwards from u + 1, emits the cut in sorted order
    cut = []
    for u, row in enumerate(avail):
        across = (row & (~best if best >> u & 1 else best)) >> (u + 1)
        while across:
            low = across & -across
            cut.append((u, u + low.bit_length()))
            if len(cut) == limit:
                return cut
            across ^= low
    return cut


def masks_of(n, edges):
    return list(Graph(n, edges).neighbor_masks())


def member_mask(n, members):
    return (1 << n) - 1 if members is None else sum(1 << v for v in members)


@st.composite
def cut_instances(draw, with_members):
    """A host, Maker's edges, a pool of host edges (every edge or a strict
    subset), Breaker's edges (disjoint from Maker's, in or out of the pool)
    and a member set or None.  Returns the arguments of
    ``smallest_cut_by_mask_search`` (Maker's masks, the member mask, the
    available pool's masks) and those of the component scan."""
    g = draw(random_graphs(max_n=9))
    edges = sorted(g.edges)
    maker = draw(st.sets(st.sampled_from(edges))) if edges else set()
    pool = set(edges)
    if edges and draw(st.booleans()):
        pool = draw(st.sets(st.sampled_from(edges), max_size=len(edges) - 1))
    rest = [e for e in edges if e not in maker]
    breaker = draw(st.sets(st.sampled_from(rest))) if rest else set()
    members = None
    if with_members:
        members = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    available = pool - (maker | breaker)
    args = (masks_of(g.n, maker), member_mask(g.n, members), masks_of(g.n, available))
    return args, (g.n, maker, members, available)


class TestSmallestCut:
    """``smallest_cut_by_component_scan`` is the reference for the mask form."""

    @settings(max_examples=200, deadline=None)
    @given(cut_instances(with_members=False))
    def test_matches_component_scan_on_every_vertex(self, inst):
        args, scan = inst
        assert smallest_cut_by_mask_search(*args) == smallest_cut_by_component_scan(*scan)

    @settings(max_examples=200, deadline=None)
    @given(cut_instances(with_members=True), st.integers(min_value=1, max_value=4))
    def test_matches_component_scan_on_a_member_subset(self, inst, limit):
        args, scan = inst
        expected = smallest_cut_by_component_scan(*scan)
        assert smallest_cut_by_mask_search(*args) == expected
        assert smallest_cut_by_mask_search(*args, limit) == expected[:limit]

    def test_ties_go_to_the_first_component(self):
        # components {0, 1}, {2, 3}, {4, 5}, each crossed by two edges
        maker = {(0, 1), (2, 3), (4, 5)}
        available = {(1, 2), (3, 4), (0, 5)}
        everyone = member_mask(6, None)
        cut = smallest_cut_by_mask_search(masks_of(6, maker), everyone, masks_of(6, available))
        assert cut == [(0, 5), (1, 2)]
        # one more edge out of {0, 1} leaves {2, 3} the only smallest cut
        available.add((0, 4))
        cut = smallest_cut_by_mask_search(masks_of(6, maker), everyone, masks_of(6, available))
        assert cut == [(1, 2), (3, 4)]


def view_matches_rebuild(view, pool, pos):
    """The view's available masks and Maker's components, with their lowest
    members, labels and leaving counts, equal a rebuild from ``pos.maker``
    and ``pos.claimed()``."""
    n = len(view.avail)
    avail = masks_of(n, set(pool) - pos.claimed())
    comps = [c for c, _, _ in mask_components(masks_of(n, pos.maker), view.members)]
    rebuilt = [
        (mask_bits(c)[0], c, sum((avail[v] & ~c).bit_count() for v in mask_bits(c)))
        for c in comps
    ]
    labels = [None] * n
    for key, c in view.comp.items():
        for v in mask_bits(c):
            labels[v] = key
    carried = sorted((view.low[key], c, view.leave[key]) for key, c in view.comp.items())
    return view.avail == avail and carried == rebuilt and view.label == labels


def with_picks(pos, batch):
    """``pos`` with Maker's ``batch`` claimed: where a view that picked it stands."""
    return Position(pos.maker | set(batch), pos.breaker, pos.to_move, pos.log)


def proposes_as_fresh(maker, spec, pos) -> bool:
    """``maker`` proposes at ``pos`` what a new ConnectivityMaker does, and
    its view then stands at ``pos`` with the batch picked."""
    batch = maker.propose(spec, pos)
    return batch == ConnectivityMaker(spec.host).propose(spec, pos) and view_matches_rebuild(
        maker.view, spec.host.edges, with_picks(pos, batch)
    )


class CheckedMaker(Strategy):
    """Plays a ConnectivityMaker and checks its view and its pick each turn."""

    ident = "checked-connectivity"

    def __init__(self, g):
        self.inner = ConnectivityMaker(g)
        self.turns = 0

    def propose(self, spec, pos):
        batch = self.inner.propose(spec, pos)
        assert view_matches_rebuild(self.inner.view, spec.host.edges, with_picks(pos, batch))
        maker, available = set(pos.maker), set(spec.host.edges - pos.claimed())
        for pick in batch:
            cut = smallest_cut_by_component_scan(spec.host.n, maker, None, available)
            assert pick == (cut[0] if cut else min(available))
            maker.add(pick)
            available.remove(pick)
        self.turns += 1
        return batch


class CheckedCutAttack(CutAttackBreaker):
    """A cut-attack Breaker that checks its view and its batch each turn."""

    def propose(self, spec, pos):
        batch = super().propose(spec, pos)
        assert view_matches_rebuild(self.view, spec.host.edges, pos)
        available = spec.host.edges - pos.claimed()
        cut = smallest_cut_by_component_scan(spec.host.n, pos.maker, None, available)
        need = batch_size(spec, pos)
        assert list(batch[: len(cut)]) == cut[:need]
        return batch


class TestClaimView:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs(max_n=8), st.data())
    def test_view_matches_a_rebuild_after_every_see(self, g, data):
        """Claims played forward, a jump back, a probe and a hand-built
        position with an empty log: the view reads only the claim sets."""
        assume(g.m > 0)
        view = _ClaimView(g.neighbor_masks(), member_mask(g.n, None))
        order = data.draw(st.permutations(sorted(g.edges)))
        owners = data.draw(st.lists(st.sampled_from((MAKER, BREAKER)),
                                    min_size=len(order), max_size=len(order)))
        positions = [Position(frozenset(), frozenset(), MAKER)]
        for e, player in zip(order, owners):
            pos = positions[-1]
            maker = pos.maker | {e} if player == MAKER else pos.maker
            breaker = pos.breaker | {e} if player == BREAKER else pos.breaker
            log = pos.log + ((player, (e,)),)
            positions.append(Position(maker, breaker, BREAKER if player == MAKER else MAKER, log))
            assert view_matches_rebuild(view.see(positions[-1]), g.edges, positions[-1])
        parent = positions[data.draw(st.integers(0, len(positions) - 1))]
        assert view_matches_rebuild(view.see(parent), g.edges, parent)
        free = sorted(g.edges - parent.claimed())
        if free:
            e = data.draw(st.sampled_from(free))
            probe = Position(parent.maker | {e}, parent.breaker, parent.to_move, parent.log)
            assert view_matches_rebuild(view.see(probe), g.edges, probe)
        claims = data.draw(st.lists(st.sampled_from(order), unique=True))
        split = data.draw(st.integers(0, len(claims)))
        built = Position(frozenset(claims[:split]), frozenset(claims[split:]), MAKER)
        assert view_matches_rebuild(view.see(built), g.edges, built)

    @settings(max_examples=60, deadline=None)
    @given(
        random_graphs(max_n=10),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_view_follows_every_turn_of_edge_games(self, g, a, b, seed):
        assume(g.m > 0)
        spec = edge_spec(g, a, b, objective="spanning-connected")
        maker = CheckedMaker(g)
        for breaker in (CheckedCutAttack(), RandomStrategy()):
            # one Maker across games, as an experiment keeps it
            for game_seed in (seed, seed + 1):
                result = play(spec, maker, breaker, seed=game_seed)
                assert not result.forfeit
        assert maker.turns >= 4

    def test_probe_position_is_rebuilt(self):
        g = Graph.complete(6)
        spec = edge_spec(g, a=2, objective="spanning-connected")
        maker = ConnectivityMaker(g)
        pos = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1), (2, 3)])[0]
        pos = apply_moves(spec, pos, BREAKER, [(0, 2)])[0]
        maker.propose(spec, pos)
        probe = Position(pos.maker | {(4, 5)}, pos.breaker, pos.to_move, pos.log)
        assert proposes_as_fresh(maker, spec, probe)
        # the real position after the probed turn holds the probe's claims
        # and one more
        nxt = apply_moves(spec, pos, MAKER, [(4, 5), (0, 3)])[0]
        assert proposes_as_fresh(maker, spec, nxt)

    def test_a_log_entry_outside_the_claims_is_rebuilt(self):
        g = Graph.complete(6)
        spec = edge_spec(g, objective="spanning-connected")
        maker = ConnectivityMaker(g)
        pos = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1)])[0]
        pos = apply_moves(spec, pos, BREAKER, [(0, 2)])[0]
        maker.propose(spec, pos)
        # the log says Maker took (1, 2), the claims say (3, 4): the view
        # follows the claims
        log = pos.log + ((MAKER, ((1, 2),)), (BREAKER, ((0, 3),)))
        odd = Position(pos.maker | {(3, 4)}, pos.breaker | {(0, 3)}, MAKER, log)
        assert proposes_as_fresh(maker, spec, odd)

    def test_positions_with_an_empty_log_are_rebuilt(self):
        g = Graph.complete(5)
        spec = edge_spec(g, objective="spanning-connected")
        maker = ConnectivityMaker(g)
        # equal claim counts, no log: only the claim sets tell them apart
        for claims in ({(0, 1), (1, 2)}, {(3, 4), (2, 4)}, {(0, 4), (1, 3)}):
            pos = Position(frozenset(claims), frozenset({(0, 2)}), MAKER)
            assert proposes_as_fresh(maker, spec, pos)

    def test_an_earlier_position_is_rebuilt(self):
        g = Graph.complete(7)
        spec = edge_spec(g, b=2, objective="spanning-connected")
        result = play(spec, ConnectivityMaker(g), RandomStrategy(), seed=3)
        positions = [Position.initial(spec)]
        for player, elements in result.position.log:
            positions.append(apply_moves(spec, positions[-1], player, elements)[0])
        makers_turns = [p for p in positions if p.to_move == MAKER][:-1]
        maker = ConnectivityMaker(g)
        for pos in makers_turns[::-1]:
            assert proposes_as_fresh(maker, spec, pos)

    def test_two_games_in_turn_are_rebuilt(self):
        g = Graph.complete(7)
        spec = edge_spec(g, b=2, objective="spanning-connected")
        games = []
        for seed in (1, 2):
            log = play(spec, ConnectivityMaker(g), RandomStrategy(), seed=seed).position.log
            positions = [Position.initial(spec)]
            for player, elements in log:
                positions.append(apply_moves(spec, positions[-1], player, elements)[0])
            games.append([p for p in positions if p.to_move == MAKER][:-1])
        assert games[0][1].log != games[1][1].log
        # game 1's next position holds as many claims as the view expects
        # after game 0's, but not game 0's claims
        maker = ConnectivityMaker(g)
        for turn in range(min(map(len, games)) - 1):
            for pos in (games[0][turn], games[1][turn + 1]):
                assert proposes_as_fresh(maker, spec, pos)

    def test_cut_attack_is_reused_on_two_hosts(self):
        first, second = Graph.complete(6), Graph.cycle(6)
        breaker = CutAttackBreaker()
        for g in (first, second, first):
            spec = edge_spec(g, b=2, objective="spanning-connected")
            fresh = play(spec, ConnectivityMaker(g), CutAttackBreaker(), seed=1)
            reused = play(spec, ConnectivityMaker(g), breaker, seed=1)
            assert reused.position.log == fresh.position.log
            assert breaker.host is g


class TestCarriedCut:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=9), st.data())
    def test_smallest_cut_matches_the_reference_after_every_step(self, g, data):
        """Claims by either player, Maker's picks made through the view
        (played or not), jumps back to an earlier position, and a pool and a
        member set that may be strict subsets: after every step the carried
        cut equals the one searched afresh, at limits 1 to 4."""
        assume(g.m > 0)
        edges = sorted(g.edges)
        pool = set(edges)
        if data.draw(st.booleans()):
            pool = data.draw(st.sets(st.sampled_from(edges)))
        members = member_mask(g.n, data.draw(st.none() | st.sets(st.integers(0, g.n - 1))))
        view = _ClaimView(masks_of(g.n, pool), members)
        order = data.draw(st.permutations(edges))
        kinds = st.sampled_from((MAKER, BREAKER, "take", "unplayed", "jump"))
        steps = data.draw(st.lists(kinds, min_size=len(order), max_size=len(order)))
        maker = breaker = frozenset()
        history = [(maker, breaker)]
        for e, step in zip(order, steps):
            view.see(Position(maker, breaker, MAKER))
            shown = maker
            if step == "jump":
                maker, breaker = history[data.draw(st.integers(0, len(history) - 1))]
                shown = maker
                view.see(Position(maker, breaker, MAKER))
            elif step in ("take", "unplayed"):
                view.take(e)  # an unplayed pick is missing from the next position
                shown = maker | {e}
                maker = shown if step == "take" else maker
            elif step == MAKER:
                maker = shown = maker | {e}
                view.see(Position(maker, breaker, MAKER))
            else:
                breaker = breaker | {e}
                view.see(Position(maker, breaker, MAKER))
            history.append((maker, breaker))
            assert view_matches_rebuild(view, pool, Position(shown, breaker, MAKER))
            avail = masks_of(g.n, pool - shown - breaker)
            for limit in range(1, 5):
                expected = smallest_cut_by_mask_search(masks_of(g.n, shown), members, avail, limit)
                assert view.smallest_cut(limit) == expected

    def test_ties_go_to_the_lowest_member_not_the_label(self):
        # {0, 2, 3} is kept under 2, as {0} joined the larger {2, 3};
        # {1, 4, 5} under 1 and {6} alone: each has two available edges
        maker = [(2, 3), (0, 2), (1, 4), (4, 5)]
        available = [(0, 1), (3, 6), (5, 6)]
        view = _ClaimView(masks_of(7, maker + available), member_mask(7, None))
        for e in maker:
            view.take(e)
        assert view.label[0] == 2 and view.low[2] == 0
        assert sorted(view.leave.values()) == [2, 2, 2]
        assert view.smallest_cut(2) == [(0, 1), (3, 6)]
        reference = smallest_cut_by_mask_search(
            masks_of(7, maker), member_mask(7, None), masks_of(7, available), 2
        )
        assert reference == [(0, 1), (3, 6)]


class SampledRandom(Strategy):
    """A RandomStrategy checked each turn against ``rng.sample`` on
    ``legal_moves``, as it drew before the free list was carried."""

    def __init__(self):
        self.inner = RandomStrategy()
        self.turns = 0

    def reset(self, spec, seed):
        self.inner.reset(spec, seed)
        self.rng = random.Random(seed)

    def propose(self, spec, pos):
        batch = self.inner.propose(spec, pos)
        assert batch == tuple(self.rng.sample(legal_moves(spec, pos), batch_size(spec, pos)))
        self.turns += 1
        return batch


class TestRandomStrategy:
    @settings(max_examples=80, deadline=None)
    @given(
        random_graphs(max_n=9),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_draws_equal_sampling_legal_moves_over_whole_games(self, g, a, b, seed):
        assume(g.m > 0)
        specs = [edge_spec(g, a, b, objective="spanning-connected"), vertex_spec(g, b)]
        sampled = SampledRandom()  # one strategy across both specs and both roles
        for spec in specs:
            for game_seed in (seed, seed + 1):
                play(spec, RandomStrategy(), sampled, seed=game_seed)
                play(spec, sampled, RandomStrategy(), seed=game_seed)
        play(specs[0], ConnectivityMaker(g), sampled, seed=seed)
        assert sampled.turns >= 4

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=8), st.integers(min_value=0, max_value=2**16))
    def test_one_strategy_across_two_interleaved_specs(self, g, seed):
        """Turns of two games on two specs alternate with no reset between:
        each turn rebuilds the free list of its own spec."""
        assume(g.m > 0)
        sampled = SampledRandom()
        sampled.reset(None, seed)
        games = [
            [spec, Position.initial(spec)]
            for spec in (edge_spec(g, 2, 1, objective="spanning-connected"), vertex_spec(g, 2))
        ]
        while games:
            for game in list(games):
                spec, pos = game
                batch = sampled.propose(spec, pos)
                game[1], witness = apply_moves(spec, pos, pos.to_move, batch)
                if witness is not None or len(game[1].claimed()) == len(spec.board_set):
                    games.remove(game)

    @pytest.mark.parametrize("board_kind", (EDGES, VERTICES))
    def test_claims_that_overlap_or_leave_the_board_raise(self, board_kind):
        g = Graph.path(8)
        spec = edge_spec(g) if board_kind == EDGES else vertex_spec(g)
        x, y, z, w = spec.board()[:4]
        off = (0, 2) if board_kind == EDGES else 9
        bad = [
            Position(frozenset({x}), frozenset({x}), MAKER),
            Position(frozenset({x, z}), frozenset({y, z}), MAKER),
            Position(frozenset({x, off}), frozenset({y}), MAKER),
            Position(frozenset({x}), frozenset({y, "a"}), MAKER),
        ]
        warm = Position(frozenset({x}), frozenset(), BREAKER)
        good = Position(frozenset({x}), frozenset({w}), BREAKER)  # without y or z
        for pos in bad:
            for warmed in (False, True):
                sampled = SampledRandom()
                sampled.reset(spec, 0)
                if warmed:  # the free list is carried from a good position
                    sampled.propose(spec, warm)
                with pytest.raises(DomainError):
                    sampled.inner.propose(spec, pos)
                sampled.propose(spec, good)  # the draws go on as if it never came


class TestMultiPickTurns:
    """The bench's Maker claims one edge per turn; these games pin the turns
    that pick several edges through the view, and the special-edge Maker's
    probe position."""

    # sha256 of the transcripts below, as played before Maker's components
    # and the free list were carried from turn to turn
    DIGEST = "d30c56d617bd0283188c5a53e5728408a18097c1c44d078550e95eab80b598c4"

    def test_games_are_unchanged(self):
        digest = hashlib.sha256()
        k12 = Graph.complete(12)
        maker = build_strategy("connectivity", k12)  # one Maker across games
        for b, breaker_ident in ((3, "random"), (3, "cut-attack"), (9, "cut-attack")):
            spec = edge_spec(k12, 2, b, objective="spanning-connected")
            breaker = build_strategy(breaker_ident, k12)
            for seed in range(6):
                result = play(spec, maker, breaker, seed=seed)
                digest.update(format_transcript(spec, result, "connectivity", breaker_ident).encode())
        g = complete_multipartite([6, 6, 6])
        for b in (2, 3):
            spec = edge_spec(g, 2, b)
            maker = forced_dense_edge_maker(g, Fraction(2, 3))
            for breaker_ident in ("random", "cut-attack"):
                breaker = build_strategy(breaker_ident, g)
                for seed in range(6):
                    result = play(spec, maker, breaker, seed=seed)
                    assert maker.stage_trace[:2] == ["I", "II"]
                    digest.update(format_transcript(spec, result, "dense-edge", breaker_ident).encode())
        assert digest.hexdigest() == self.DIGEST


class TestDenseEdgeMaker:
    def test_tripartite_sweep_vs_random(self):
        g = complete_multipartite([6, 6, 6])
        maker = forced_dense_edge_maker(g, Fraction(2, 3))
        spec = edge_spec(g, b=2)
        for seed in range(100):
            r = play(spec, maker, RandomStrategy(), seed=seed)
            assert r.winner == MAKER
            assert verify_odd_cycle(g, r.witness)

    def test_bipartite_host_construction_error(self):
        with pytest.raises(PreconditionError):
            forced_dense_edge_maker(complete_multipartite([8, 8]), Fraction(1, 2))

    def test_stage_one_always_first(self):
        g = complete_multipartite([5, 5, 5])
        maker = forced_dense_edge_maker(g, Fraction(2, 3))
        spec = edge_spec(g, b=2)
        r = play(spec, maker, RandomStrategy(), seed=4)
        assert r.position.log[0][1][0] == maker.witness_edge
        order = [STAGE_ORDER["I" if s == "I" else "II"] for s in maker.stage_trace]
        assert order == sorted(order)

    def test_witness_edge_inside_a(self):
        g = complete_multipartite([5, 5, 5])
        maker = forced_dense_edge_maker(g, Fraction(2, 3))
        u, v = maker.witness_edge
        assert u in maker.core.a and v in maker.core.a

    def test_pool_is_the_cores_crossing_edges(self):
        g = gnp(14, 0.5, 3)
        hand_built = BipartiteCore(
            a=frozenset(range(1, 14, 2)),
            b=frozenset(range(2, 14, 2)),
            witness_edge=None,
            certified_connectivity=None,
            chi_floor=None,
            h_min_degree=0,
        )
        builds = [
            (complete_multipartite([5, 5, 5]), Fraction(2, 3), None),
            (odd_cycle_blowup(5, 5), Fraction(2, 5), None),
            (g, Fraction(1, 2), hand_built),
        ]
        # twice round, so every build after the first finds another core kept
        for host, delta, core in builds * 2:
            maker = DenseEdgeMaker(host, core or extract_bipartite_core(host, delta, force=True))
            crossing = Graph(host.n, cut_edges(host, maker.core.a, maker.core.b))
            assert maker.inner.view.pool_masks == crossing.neighbor_masks()


def spanning_bipartition_search_by_side_lists(g, k_prime, rng):
    """``_spanning_bipartition_search`` as it was before the neighbor-mask
    walk: sides and crossing counts are per-vertex lists."""
    n = g.n
    if n < 2 or g.m == 0:
        return None

    def achieved(in_a):
        cg = Graph(n, [e for e in g.edges if in_a[e[0]] != in_a[e[1]]])
        if any(cg.degree(v) == 0 for v in range(n)):
            return 0
        return edge_connectivity(cg)

    if any(g.degree(v) == 0 for v in range(n)):
        return None
    if n <= EXACT_CUT_LIMIT:
        best = None
        for side, cross, _, _ in gray_code_side_lists(g):
            if 0 in cross:
                continue
            lam = achieved(side)
            if lam == 0:
                continue
            if k_prime is not None:
                if lam >= k_prime:
                    return frozenset(i for i in range(n) if side[i] == 0), lam
            elif best is None or lam > best[1]:
                best = (frozenset(i for i in range(n) if side[i] == 0), lam)
        return best
    side = [rng.randint(0, 1) for _ in range(n)]
    temp = 2.0
    for _ in range(200 * n):
        v = rng.randrange(n)
        gain = sum(1 if side[u] == side[v] else -1 for u in g.neighbors(v))
        if gain > 0 or rng.random() < math.exp(gain / max(temp, 1e-9)):
            side[v] ^= 1
        temp *= 0.999
    lam = achieved(side)
    if lam == 0 or (k_prime is not None and lam < k_prime):
        return None
    return frozenset(i for i in range(n) if side[i] == 0), lam


class TestSpanningBipartitionSearch:
    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_n=8), st.sampled_from([None, 1, 2, 3]), st.integers(0, 99))
    def test_matches_side_list_search(self, g, k_prime, seed):
        assert _spanning_bipartition_search(
            g, k_prime, random.Random(seed)
        ) == spanning_bipartition_search_by_side_lists(g, k_prime, random.Random(seed))

    @pytest.mark.parametrize("n,k_prime", [(10, None), (12, 3), (EXACT_CUT_LIMIT + 4, None)])
    def test_matches_side_list_search_on_dense_hosts(self, n, k_prime):
        # the last host is past the exact limit: the annealing pass
        g = gnp(n, 0.6, n)
        assert _spanning_bipartition_search(
            g, k_prime, random.Random(n)
        ) == spanning_bipartition_search_by_side_lists(g, k_prime, random.Random(n))

    def test_cross_floor_spares_the_flows_on_a_dense_host(self, monkeypatch):
        # every Gray-code mask used to pay one flow: 7,715 on this host
        import makerbreaker.strategies as strategies

        calls = []

        def counted(g):
            calls.append(g)
            return edge_connectivity(g)

        monkeypatch.setattr(strategies, "edge_connectivity", counted)
        g = gnp(14, 0.6, 1)
        found = _spanning_bipartition_search(g, None, random.Random(0))
        assert len(calls) <= 10
        monkeypatch.undo()
        assert found == spanning_bipartition_search_by_side_lists(g, None, random.Random(0))


class TestConnectedEdgeMaker:
    def test_c5_with_chords_vs_solver(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
        maker = ConnectedEdgeMaker(g, 1, k_prime=1)
        spec = edge_spec(g)
        verdict = solve(spec)
        res = verify_maker_strategy(spec, maker)
        if res.always_wins:
            assert verdict.winner == MAKER

    def test_bipartite_rejected(self):
        with pytest.raises(DomainError):
            ConnectedEdgeMaker(Graph.cycle(6), 1)

    def test_k5_transcripts_replay_identically(self):
        g = Graph.complete(5)
        maker = ConnectedEdgeMaker(g, 1, k_prime=2)
        spec = edge_spec(g)
        r1 = play(spec, maker, RandomStrategy(), seed=7)
        r2 = play(spec, maker, RandomStrategy(), seed=7)
        assert r1.position.log == r2.position.log

    def test_case_one_on_k5(self):
        maker = ConnectedEdgeMaker(Graph.complete(5), 1)
        assert maker.case == 1
        assert maker.k_prime == 2  # best spanning bipartite subgraph is K(2,3)

    def test_case_two_fallback(self):
        # a triangle with a pendant path has no spanning bipartite subgraph
        # with positive edge connectivity once k' is forced too high
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        maker = ConnectedEdgeMaker(g, 1, k_prime=5)
        assert maker.case == 2
        spec = edge_spec(g)
        r = play(spec, maker, RandomStrategy(), seed=0)
        assert r.winner in (MAKER, BREAKER)


def merge_components_by_sets(h, pos, state):
    """``merge_components`` as it was before the host-labelled masks: it
    plays on the relabelled core graph ``h`` with neighbor sets, and
    ``state.pending_targets`` is a frozenset."""
    claimed = pos.claimed()
    maker = pos.maker
    comps = connected_components(h, maker)
    if len(comps) <= 1:
        state.last_case = "connected"
        return ()

    if state.pending_targets is not None:
        targets = sorted(state.pending_targets - claimed)
        state.pending_targets = None
        if targets:
            state.last_case = "bridge-finish"
            return (targets[0],)
        return None

    comp = comps[0]
    anchor = None
    for x in sorted(comp):
        if x in state.anchor_pairs and state.anchor_pairs[x] in comp:
            anchor = (x, state.anchor_pairs[x])
            break
    if anchor is None:
        for x in sorted(comp):
            inside = sorted(h.neighbors(x) & comp)
            if inside:
                anchor = (x, inside[0])
                break

    if anchor is not None:
        x, y = anchor
        common = sorted((h.neighbors(x) & h.neighbors(y)) - claimed)
        if Fraction(len(common)) >= state.triangle_floor() and common:
            state.last_case = "triangle"
            return (common[0],)

    hood = set(comp)
    for v in comp:
        hood |= h.neighbors(v)
    outside = frozenset(range(h.n)) - hood

    if Fraction(len(outside)) >= state.far_size_floor():
        candidates = []
        for z in sorted(hood - comp - claimed):
            out_nbrs = h.neighbors(z) & outside
            if not state.z_degree_ok(len(out_nbrs)):
                continue
            if out_nbrs & maker:
                candidates.append((z, None))
            elif out_nbrs - claimed:
                candidates.append((z, frozenset(out_nbrs - claimed)))
        if not candidates:
            state.last_case = "bridge-blocked"
            return None
        z, targets = candidates[0]
        state.pending_targets = targets
        state.last_case = "bridge-link" if targets is None else "bridge-start"
        return (z,)

    if not outside:
        state.last_case = "connected"
        return ()
    far = None
    for other in comps:
        if other is not comp and other <= outside:
            far = other
            break
    if far is None:
        state.last_case = "no-far-component"
        return None
    near_hood = hood - comp
    far_hood = set()
    for v in far:
        far_hood |= h.neighbors(v)
    meet = sorted((near_hood & far_hood) - comp - far - claimed)
    if meet:
        state.last_case = "common-neighbor"
        return (meet[0],)
    x2 = min(far)
    inside = sorted(h.neighbors(x2) & far)
    if inside:
        tri = sorted((h.neighbors(x2) & h.neighbors(inside[0])) - claimed)
        if tri:
            state.last_case = "far-triangle"
            return (tri[0],)
    state.last_case = "merge-blocked"
    return None


def dominates_by_sets(g, members):
    """``dominates`` as it was before the masks: every vertex of g is in
    ``members`` or adjacent to it."""
    s = set(members)
    return all(v in s or g.neighbors(v) & s for v in range(g.n))


@st.composite
def merge_instances(draw):
    """A host of density 0.2 to 0.8, its vertices less one to a third as the
    members (so non-members sit beside them), Maker's and Breaker's claims
    anywhere on the host, anchor pairs among the members, a pending target
    set or None, and the thresholds' scale."""
    n = draw(st.integers(min_value=3, max_value=12))
    pairs = list(combinations(range(n), 2))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.8]))
    rolls = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, roll in zip(pairs, rolls) if roll < density])
    vertices = st.sampled_from(range(n))
    members = set(range(n)) - draw(st.sets(vertices, min_size=1, max_size=max(1, n // 3)))
    maker = draw(st.sets(vertices, min_size=2))
    breaker = draw(st.sets(vertices, max_size=n // 3)) - maker
    inner = st.sampled_from(sorted(members))
    anchors = draw(st.dictionaries(inner, inner, max_size=4)) if members else {}
    pending = draw(st.none() | st.sets(inner)) if members else None
    host_n = draw(st.integers(min_value=1, max_value=100))
    delta = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]))
    return g, members, maker, breaker, anchors, pending, host_n, delta


# Maker's {0, 1} and {3, 4} are apart on the members; the triangle 3-4-5
# closes far away, and vertex 6, not a member, is next to both.
FAR_TRIANGLE = (
    Graph(7, [(0, 1), (3, 4), (3, 5), (4, 5), (0, 6), (3, 6)]),
    {0, 1, 2, 3, 4, 5}, {0, 1, 3, 4}, set(), {}, None, 100, Fraction(1, 2),
)
# Maker's {0}, {3} and {6}: vertex 1 joins {0} to {3}, the first far
# component, and vertex 2 joins it to {6}; vertex 8, not a member, is next
# to 0 and 3.
FIRST_FAR_COMPONENT = (
    Graph(9, [(0, 1), (0, 2), (1, 3), (2, 6), (0, 8), (3, 8)]),
    set(range(8)), {0, 3, 6}, set(), {}, None, 100, Fraction(1, 2),
)
# The anchor edge 1-2 has the member 3 and the non-member 0 in common.
TRIANGLE_BESIDE_THE_CORE = (
    Graph(6, [(1, 2), (0, 1), (0, 2), (1, 3), (2, 3), (4, 5)]),
    {1, 2, 3, 4, 5}, {1, 2, 5}, set(), {}, None, 4, Fraction(1, 2),
)


class TestMergeAgainstSets:
    """``merge_components`` and ``dominates`` on host-labelled masks against
    the set versions on the relabelled graph of the members, the way
    ``DenseVertexMaker`` translated its claims before."""

    @settings(max_examples=300, deadline=None)
    @given(merge_instances())
    @example(FAR_TRIANGLE)
    @example(FIRST_FAR_COMPONENT)
    @example(TRIANGLE_BESIDE_THE_CORE)
    def test_merge_components_matches_the_relabelled_set_version(self, inst):
        g, members, maker, breaker, anchors, pending, host_n, delta = inst
        maker = set(maker)
        h, to_host = induced_subgraph(g, members)
        to_local = {v: i for i, v in enumerate(to_host)}
        new = MergePlan(host_n=host_n, delta=delta, anchor_pairs=dict(anchors),
                        pending_targets=None if pending is None else member_mask(g.n, pending))
        old = MergePlan(host_n=host_n, delta=delta,
                        anchor_pairs={to_local[x]: to_local[y] for x, y in anchors.items()},
                        pending_targets=None if pending is None
                        else frozenset(to_local[v] for v in pending))
        adj, bits = g.neighbor_masks(), member_mask(g.n, members)
        for _ in range(4):  # each claim joins Maker's set, as in a game
            pos = Position(frozenset(maker), frozenset(breaker), MAKER)
            local = Position(frozenset(to_local[v] for v in maker if v in to_local),
                             frozenset(to_local[v] for v in breaker if v in to_local), MAKER)
            claim = merge_components(adj, bits, pos, new)
            expected = merge_components_by_sets(h, local, old)
            assert claim == (expected if not expected else (to_host[expected[0]],))
            assert new.last_case == old.last_case
            assert new.pending_targets == (
                None if old.pending_targets is None
                else member_mask(g.n, {to_host[v] for v in old.pending_targets})
            )
            if not claim:
                break
            maker.add(claim[0])

    @settings(max_examples=150, deadline=None)
    @given(random_graphs(max_n=12), st.data())
    def test_dominates_matches_the_set_version(self, g, data):
        members = data.draw(st.sets(st.sampled_from(range(g.n))))
        dom = data.draw(st.sets(st.sampled_from(sorted(members)))) if members else set()
        h, to_host = induced_subgraph(g, members)
        local = {i for i, v in enumerate(to_host) if v in dom}
        expected = dominates_by_sets(h, local)
        assert dominates(g.neighbor_masks(), member_mask(g.n, dom), member_mask(g.n, members)) == expected


class TestMergeComponents:
    def test_two_singletons_common_neighbor(self):
        h = Graph(5, [(0, 2), (1, 2), (3, 4)])
        pos = Position(maker=frozenset({0, 1}), breaker=frozenset(), to_move=MAKER)
        state = MergePlan(host_n=5, delta=Fraction(1, 2))
        claim = merge_components(h.neighbor_masks(), member_mask(h.n, None), pos, state)
        assert claim == (2,)

    def test_already_connected_no_op(self):
        h = Graph(4, [(0, 1), (1, 2)])
        pos = Position(maker=frozenset({0, 1, 2}), breaker=frozenset(), to_move=MAKER)
        state = MergePlan(host_n=4, delta=Fraction(1, 2))
        assert merge_components(h.neighbor_masks(), member_mask(h.n, None), pos, state) == ()

    def test_case_one_bridge_fixture(self):
        # component {0,1}; boundary vertex 2 has two outside neighbors {4,5};
        # the outside is large, so the bridge route must be taken: claim 2,
        # then an outside neighbor, after which everything is one component.
        edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 28), (28, 29)]
        h = Graph(30, edges)
        state = MergePlan(host_n=30, delta=Fraction(1, 5))
        maker = {0, 1, 28, 29}
        cases = []
        for _ in range(4):
            pos = Position(maker=frozenset(maker), breaker=frozenset(), to_move=MAKER)
            claim = merge_components(h.neighbor_masks(), member_mask(h.n, None), pos, state)
            cases.append(state.last_case)
            if claim == () or claim is None:
                break
            maker.add(claim[0])
        assert cases[:3] == ["bridge-start", "bridge-finish", "connected"]
        assert maker == {0, 1, 2, 4, 28, 29}

    def test_blocked_merge_forfeits(self):
        # the only common neighbor is already Breaker's
        h = Graph(3, [(0, 2), (1, 2)])
        pos = Position(maker=frozenset({0, 1}), breaker=frozenset({2}), to_move=MAKER)
        state = MergePlan(host_n=3, delta=Fraction(1, 2))
        assert merge_components(h.neighbor_masks(), member_mask(h.n, None), pos, state) is None


class TestDenseVertexMaker:
    def test_star_center_and_leaf_secured_when_first(self):
        g = complete_multipartite([3] * 7)
        maker = forced_dense_vertex_maker(g, Fraction(6, 7), 2)
        spec = vertex_spec(g, b=2)
        r = play(spec, maker, RandomStrategy(), seed=0)
        first_two = [log[1][0] for log in r.position.log if log[0] == MAKER][:2]
        assert first_two[0] == maker.center
        assert first_two[1] in g.neighbors(maker.center)
        assert first_two[1] in maker.core.a

    def test_full_pipeline_many_seeds(self):
        g = complete_multipartite([3] * 7)
        maker = forced_dense_vertex_maker(g, Fraction(6, 7), 2)
        spec = vertex_spec(g, b=2)
        wins = 0
        for seed in range(100):
            r = play(spec, maker, RandomStrategy(), seed=seed)
            if r.winner == MAKER:
                wins += 1
                assert verify_odd_cycle(g, r.witness)
                assert set(r.witness.vertices) <= r.position.maker
                assert len(r.witness.vertices) % 2 == 1
        assert wins == 100

    def test_stage_monotonicity(self):
        g = complete_multipartite([4] * 7)
        maker = forced_dense_vertex_maker(g, Fraction(6, 7), 2)
        spec = vertex_spec(g, b=2)
        for seed in range(20):
            play(spec, maker, BipartiteGuardBreaker(), seed=seed)
            order = [STAGE_ORDER[s] for s in maker.stage_trace]
            assert order == sorted(order)

    def test_center_theft_forfeits(self):
        g = complete_multipartite([3] * 7)
        maker = forced_dense_vertex_maker(g, Fraction(6, 7), 2)
        spec = vertex_spec(g, b=2, first=BREAKER)
        thief = ScriptedBreaker([(maker.center, (maker.center + 1) % g.n)])
        r = play(spec, maker, thief, seed=0)
        assert r.forfeit and r.forfeited_by == MAKER
        assert maker.forfeit_reason == "star-center-taken"

    def test_no_star_in_side_forfeits(self):
        # a hand-built core over a bipartite host has no star inside a side,
        # so stage one runs out of leaves immediately
        g = complete_multipartite([6, 6])
        core = BipartiteCore(
            a=frozenset(range(6)),
            b=frozenset(range(6, 12)),
            witness_edge=None,
            certified_connectivity=None,
            chi_floor=None,
            h_min_degree=6,
        )
        maker = DenseVertexMaker(g, Fraction(1, 2), 2, core)
        spec = vertex_spec(g, b=2)
        r = play(spec, maker, RandomStrategy(), seed=0)
        assert r.forfeit and maker.forfeit_reason == "star-leaves-exhausted"

    def _blowup_core(self, g):
        # the chromatic pipeline rightly rejects a chromatic-number-3 host for
        # any b >= 1, so stage IV on a triangle-free board needs a hand-built
        # core: take the cut-maximal bipartition and orient it so A spans an edge
        from makerbreaker.connectivity import unfriendly_partition

        x1, x2 = unfriendly_partition(g)

        def has_inside_edge(s):
            return any(u in s and v in s for u, v in g.edges)

        a, b_side = (x1, x2) if has_inside_edge(x1) else (x2, x1)
        hmin = min(g.degree_into(v, b_side if v in a else a) for v in a | b_side)
        return BipartiteCore(
            a=frozenset(a),
            b=frozenset(b_side),
            witness_edge=None,
            certified_connectivity=None,
            chi_floor=None,
            h_min_degree=hmin,
        )

    def test_triangle_free_wins_are_long_odd_cycles(self):
        # a blowup of an odd cycle has no triangles, so every win must be a
        # cycle of length at least 5 built through the merge stage
        g = odd_cycle_blowup(5, 3)
        maker = DenseVertexMaker(g, Fraction(2, 5), 1, self._blowup_core(g))
        spec = vertex_spec(g, b=1)
        wins = 0
        for seed in (0, 2, 5, 6, 7):
            r = play(spec, maker, RandomStrategy(), seed=seed)
            if r.winner == MAKER:
                wins += 1
                assert len(r.witness.vertices) >= 5
                assert len(r.witness.vertices) % 2 == 1
                assert verify_odd_cycle(g, r.witness)
                assert set(r.witness.vertices) <= r.position.maker
        assert wins >= 3  # frozen: these seeds win on the first verified run

    def test_stage_three_forfeit_when_partners_vanish(self):
        g = odd_cycle_blowup(5, 3)
        maker = DenseVertexMaker(g, Fraction(2, 5), 1, self._blowup_core(g))
        spec = vertex_spec(g, b=1)
        r = play(spec, maker, RandomStrategy(), seed=3)
        assert r.forfeit and maker.forfeit_reason == "no-high-degree-partner"


class TestBreakers:
    def test_guard_wins_c5(self):
        spec = edge_spec(Graph.cycle(5))
        r = play(spec, RandomStrategy(), BipartiteGuardBreaker(), seed=0)
        assert r.winner == BREAKER

    def test_random_replay_deterministic(self):
        spec = edge_spec(Graph.complete(5), b=2)
        r1 = play(spec, RandomStrategy(), RandomStrategy(), seed=42)
        r2 = play(spec, RandomStrategy(), RandomStrategy(), seed=42)
        assert r1.position.log == r2.position.log

    def test_cut_attack_beats_connectivity_on_tree(self):
        g = Graph.path(6)
        spec = edge_spec(g, objective="spanning-connected")
        r = play(spec, ConnectivityMaker(g), CutAttackBreaker(), seed=0)
        assert r.winner == BREAKER

    def test_guard_blocks_single_threats(self):
        # on a sparse blowup the guard shuts out the edge maker even at b=1
        g = odd_cycle_blowup(5, 5)
        maker = forced_dense_edge_maker(g, Fraction(2, 5))
        spec = edge_spec(g, b=1)
        wins = sum(
            play(spec, maker, BipartiteGuardBreaker(), seed=s).winner == MAKER
            for s in range(10)
        )
        assert wins == 0

    def test_cut_attack_counts_each_component_once(self):
        # Maker's components are {0, 1} and {4}: vertex 2 sees one of them
        # (through two vertices), vertex 3 sees both
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
        pos = Position(maker=frozenset({0, 1, 4}), breaker=frozenset(), to_move=BREAKER)
        assert CutAttackBreaker().propose(vertex_spec(g), pos) == (3,)

    def test_guard_flags_vertices_closing_an_odd_cycle(self):
        # Maker's path 0-1-2 colors 0 and 2 alike: 3 sees 0 and 1 (opposite
        # colors, one component) and would close a triangle; 4 sees 0 and 2
        # (one color) and is only the free vertex of highest degree
        g = Graph(6, [(0, 1), (1, 2), (0, 3), (1, 3), (0, 4), (2, 4), (4, 5), (3, 5)])
        pos = Position(maker=frozenset({0, 1, 2}), breaker=frozenset(), to_move=BREAKER)
        assert BipartiteGuardBreaker().propose(vertex_spec(g, b=2), pos) == (3, 4)

    def test_guard_passes_over_opposite_colors_in_two_components(self):
        # Maker's components {0, 1} and {2}: 3 sees 1 and 2, of opposite
        # colors but in different components, so claiming it closes nothing
        g = Graph(7, [(0, 1), (1, 3), (2, 3), (0, 4), (4, 5), (4, 6)])
        pos = Position(maker=frozenset({0, 1, 2}), breaker=frozenset(), to_move=BREAKER)
        spec = vertex_spec(g)
        labels = _maker_two_coloring(spec, pos)
        assert labels[1][0] != labels[2][0] and labels[1][1] != labels[2][1]
        assert BipartiteGuardBreaker().propose(spec, pos) == (4,)


def per_board_two_coloring(host, pos):
    """Edge-board 2-coloring as it was written before ``maker_graph``: only
    the endpoints of Maker's edges are labeled."""
    claimed = Graph(host.n, pos.maker)
    relevant = {v for e in pos.maker for v in e}
    coloring = find_odd_cycle(claimed)
    if isinstance(coloring, OddCycleWitness):
        return None
    comp_id = {}
    for i, comp in enumerate(connected_components(claimed, relevant)):
        for v in comp:
            comp_id[v] = i
    return {v: (comp_id[v], coloring[v]) for v in relevant}


def per_board_guard(spec, pos):
    """BipartiteGuardBreaker.propose on edge boards before ``maker_graph``."""
    free = legal_moves(spec, pos)
    host = spec.host
    labels = per_board_two_coloring(host, pos)
    danger = []
    if labels is not None:
        for u, v in free:
            lu, lv = labels.get(u), labels.get(v)
            if lu is not None and lv is not None and lu[0] == lv[0] and lu[1] == lv[1]:
                danger.append((u, v))
    flagged = set(danger)
    rest = sorted(
        (e for e in free if e not in flagged),
        key=lambda e: (-(host.degree(e[0]) + host.degree(e[1])), e),
    )
    return tuple((sorted(danger) + rest)[: batch_size(spec, pos)])


@st.composite
def edge_positions(draw):
    """Breaker to move on a random host of up to 7 vertices, bias 1-3, with
    random disjoint Maker and Breaker edge sets."""
    g = draw(random_graphs(max_n=7))
    spec = edge_spec(g, b=draw(st.integers(min_value=1, max_value=3)))
    owner = draw(st.lists(st.sampled_from((None, MAKER, BREAKER)), min_size=g.m, max_size=g.m))
    board = spec.board()
    maker = frozenset(e for e, o in zip(board, owner) if o == MAKER)
    breaker = frozenset(e for e, o in zip(board, owner) if o == BREAKER)
    return spec, Position(maker=maker, breaker=breaker, to_move=BREAKER)


class TestGuardOnEdgeBoards:
    @settings(max_examples=300, deadline=None)
    @given(edge_positions())
    def test_two_coloring_matches_the_per_board_labels(self, spec_pos):
        spec, pos = spec_pos
        labels, old = _maker_two_coloring(spec, pos), per_board_two_coloring(spec.host, pos)
        if old is None:
            assert labels is None
            return
        assert set(labels) == set(range(spec.host.n))
        for u in labels:
            for v in labels:
                same = labels[u][0] == labels[v][0]
                if u in old and v in old:
                    assert same == (old[u][0] == old[v][0])
                else:  # an untouched vertex is a component of its own
                    assert same == (u == v)
        assert all(labels[v][1] == old[v][1] for v in old)

    @settings(max_examples=300, deadline=None)
    @given(edge_positions())
    def test_guard_matches_the_per_board_guard(self, spec_pos):
        spec, pos = spec_pos
        assert BipartiteGuardBreaker().propose(spec, pos) == per_board_guard(spec, pos)


def two_coloring_on_a_graph(spec, pos):
    """``_maker_two_coloring`` as it was before the mask search: Maker's
    graph built, ``find_odd_cycle`` for the colors, then a second pass for
    the components."""
    claimed, to_host = maker_graph(spec, pos.maker)
    coloring = find_odd_cycle(claimed)
    if isinstance(coloring, OddCycleWitness):
        return None
    labels = {}
    for i, comp in enumerate(components_by_set_search(claimed)):
        for v in comp:
            labels[v if to_host is None else to_host[v]] = (i, coloring[v])
    return labels


@st.composite
def board_positions(draw):
    """Breaker to move on a random host of up to 9 vertices, on either
    board, with random disjoint Maker and Breaker claims."""
    g = draw(random_graphs(max_n=9))
    spec = edge_spec(g) if draw(st.booleans()) else vertex_spec(g)
    board = spec.board()
    owner = draw(st.lists(st.sampled_from((None, MAKER, BREAKER)), min_size=len(board),
                          max_size=len(board)))
    maker = frozenset(e for e, o in zip(board, owner) if o == MAKER)
    breaker = frozenset(e for e, o in zip(board, owner) if o == BREAKER)
    return spec, Position(maker=maker, breaker=breaker, to_move=BREAKER)


class TestTwoColoringOnMasks:
    @settings(max_examples=400, deadline=None)
    @given(board_positions())
    def test_matches_the_graph_two_coloring(self, spec_pos):
        spec, pos = spec_pos
        assert _maker_two_coloring(spec, pos) == two_coloring_on_a_graph(spec, pos)


class TestBoundReport:
    def test_spec_values(self):
        assert bound_report(2**20, Fraction(4, 5)).b_max == 0
        assert bound_report(2**30, Fraction(4, 5)).b_max == 119

    def test_failure_exponent_independent_of_delta(self):
        for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            assert bound_report(1000, delta).failure_exponent == -49

    def test_thresholds(self):
        br = bound_report(280, Fraction(6, 7), 2)
        assert br.chi_threshold_edge == Fraction(32 * 7, 6)
        assert br.chi_threshold_vertex == 7
        assert br.dominating_size == 767

    def test_dominating_size_next_to_an_integer(self):
        # 100 ln 3 / delta^2 = 221 + 1.8e-17: the float quotient rounds to
        # 221.0 and its ceiling misses by one
        n, delta = 3, Fraction(286968339, 407012638)
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            exact = 100 * Fraction(decimal.Decimal(n).ln()) / (delta * delta)
        assert 0 < exact - 221 < Fraction(1, 10**16)
        assert math.ceil(100 * math.log(n) / (delta * delta)) == 221
        assert bound_report(n, delta).dominating_size == 222

    @staticmethod
    def _delta_hitting(value):
        """A delta whose square is ``value`` to 120 digits."""
        with decimal.localcontext() as ctx:
            ctx.prec = 120
            return Fraction(value(ctx).sqrt())

    def test_values_on_an_integer_boundary_raise(self):
        # 100 ln 3 / delta^2 = 221 to 120 digits: 50-digit logs cannot settle it
        delta = self._delta_hitting(lambda ctx: 100 * decimal.Decimal(3).ln() / 221)
        with pytest.raises(ResourceLimitError) as err:
            bound_report(3, delta)
        assert err.value.stats["name"] == "dominating_size"
        # delta^2 n / (6400 log2(n)^2) = 100 to 120 digits
        n = 10**9 + 7
        delta = self._delta_hitting(
            lambda ctx: 100 * 6400 * (decimal.Decimal(n).ln() / decimal.Decimal(2).ln()) ** 2 / n
        )
        with pytest.raises(ResourceLimitError) as err:
            bound_report(n, delta)
        assert err.value.stats["name"] == "b_max"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bound_report(1, Fraction(1, 2))
        with pytest.raises(DomainError):
            bound_report(100, Fraction(3, 2))


class TestDomination:
    def _core(self):
        return complete_multipartite([250, 250])

    def test_sampled_sets_dominate(self):
        h = self._core()
        budget = bound_report(500, Fraction(1, 2)).dominating_size
        rng = random.Random(0)
        failures = 0
        margin_min = None
        for _ in range(200):
            d = sample_uniform_vertices(h, budget, rng)
            if not dominates(h.neighbor_masks(), member_mask(h.n, d), member_mask(h.n, None)):
                failures += 1
                continue
            margin = min(len(h.neighbors(v) & d) for v in range(h.n))
            margin_min = margin if margin_min is None else min(margin_min, margin)
        assert failures <= 10  # at most 5%
        assert margin_min is not None and margin_min >= 1

    def test_dominates_is_exact(self):
        h = Graph(4, [(0, 1), (2, 3)])
        adj, every = h.neighbor_masks(), member_mask(4, None)
        assert dominates(adj, member_mask(4, {0, 2}), every)
        assert not dominates(adj, member_mask(4, {0}), every)


class TestSolverBackedPlay:
    def test_k5_optimal_self_play_matches_solver(self):
        g = Graph.complete(5)
        spec = edge_spec(g)
        board = spec.board()
        memo = {}

        def value(maker, breaker, mover):
            key = (maker, breaker, mover)
            if key in memo:
                return memo[key]
            free = [e for e in board if e not in maker and e not in breaker]
            if maker_win_witness(spec, maker) is not None:
                res = True
            elif not free:
                res = False
            elif mover == MAKER:
                res = any(
                    value(maker | {e}, breaker, BREAKER) for e in free
                )
            else:
                need = min(spec.breaker_bias, len(free))
                res = all(
                    value(maker, breaker | set(b), MAKER)
                    for b in combinations(free, need)
                )
            memo[key] = res
            return res

        class Optimal(Strategy):
            ident = "optimal"
            position_pure = True

            def __init__(self, role):
                self.role = role

            def propose(self, inner_spec, pos):
                free = [
                    e for e in board if e not in pos.maker and e not in pos.breaker
                ]
                need = min(inner_spec.bias_of(self.role), len(free))
                if self.role == MAKER:
                    for e in free:
                        if value(pos.maker | {e}, pos.breaker, BREAKER):
                            return (e,)
                    return (free[0],)
                for batch in combinations(free, need):
                    if not value(pos.maker, pos.breaker | set(batch), MAKER):
                        return batch
                return tuple(free[:need])

        result = play(spec, Optimal(MAKER), Optimal(BREAKER), seed=0)
        assert result.winner == solve(spec).winner


class TestDenseVertexStagesThreeAndFour:
    # sha256 of the 24 transcripts and stage records below, as the Maker
    # played them on the relabelled core graph before it moved to host labels
    DIGEST = "27e90880e3070e36f99bb3e339930a10849295038f721becfe15fae00f1f1e38"

    def test_battery_reaches_stage_four_with_unchanged_games(self):
        g = complete_multipartite([12] * 7)
        digest = hashlib.sha256()
        stages = set()
        for b in (1, 2):
            spec = GameSpec(host=g, board_kind=VERTICES,
                            objective=WinPredicate("non-k-colorable", k=12), breaker_bias=b)
            ident = f"dense-vertex(delta=6/7,b={b},force=true)"
            for breaker_ident in ("random", "bipartite-guard", "cut-attack"):
                for seed in range(4):
                    maker = build_strategy(ident, g)
                    result = play(spec, maker, build_strategy(breaker_ident, g), seed=seed)
                    digest.update(format_transcript(spec, result, ident, breaker_ident).encode())
                    record = (maker.stage_trace, sorted(maker.partners.items()),
                              maker.forfeit_reason, maker.merge_plan.last_case)
                    digest.update(repr(record).encode())
                    stages |= set(maker.stage_trace)
        assert stages == {"I", "II", "III", "IV"}
        assert digest.hexdigest() == self.DIGEST
