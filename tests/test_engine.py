import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    ScriptedStrategy,
    graph_edge_connectivity,
    maker_graph,
    odd_cycle_by_relabelling,
    random_graphs,
    recursive_k_coloring,
)
from makerbreaker import engine, graphs
from makerbreaker.coloring import is_k_colorable
from makerbreaker.engine import (
    BREAKER,
    EDGES,
    MAKER,
    VERTICES,
    ClaimSetWitness,
    GameSpec,
    Position,
    Strategy,
    WinPredicate,
    apply_moves,
    format_transcript,
    legal_moves,
    maker_masks,
    maker_win_witness,
    mask_win,
    play,
    replay_transcript,
)
from makerbreaker.errors import DomainError, IllegalMoveError
from makerbreaker.generators import gnp
from makerbreaker.graphs import (
    Graph,
    OddCycleWitness,
    find_odd_cycle,
    induced_subgraph,
    is_connected,
    verify_odd_cycle,
)
from makerbreaker.solver import verify_maker_strategy
from makerbreaker.strategies import ConnectivityMaker, RandomStrategy


def edge_spec(g, a=1, b=1, objective=None, first=MAKER):
    return GameSpec(
        host=g,
        board_kind=EDGES,
        objective=objective or WinPredicate("odd-cycle"),
        maker_bias=a,
        breaker_bias=b,
        first=first,
    )


def vertex_spec(g, a=1, b=1, objective=None):
    return GameSpec(
        host=g,
        board_kind=VERTICES,
        objective=objective or WinPredicate("odd-cycle"),
        maker_bias=a,
        breaker_bias=b,
    )


class ClosingTriangleMaker(Strategy):
    """Position-pure: takes (0, 1) and (1, 2), then proposes the closing edge
    (0, 2) together with whatever Breaker holds."""

    ident = "closing-triangle"
    position_pure = True

    def propose(self, spec, pos):
        if not pos.maker:
            return ((0, 1), (1, 2))
        return ((0, 2),) + tuple(sorted(pos.breaker))


@st.composite
def small_specs(draw):
    """Game specs on random hosts of up to 6 vertices, biases 1-2."""
    board_kind = draw(st.sampled_from((EDGES, VERTICES)))
    objectives = [WinPredicate("odd-cycle"), WinPredicate("non-k-colorable", k=2)]
    if board_kind == EDGES:
        objectives.append(WinPredicate("spanning-connected"))
    return GameSpec(
        host=draw(random_graphs(max_n=6)),
        board_kind=board_kind,
        objective=draw(st.sampled_from(objectives)),
        maker_bias=draw(st.integers(min_value=1, max_value=2)),
        breaker_bias=draw(st.integers(min_value=1, max_value=2)),
        first=draw(st.sampled_from((MAKER, BREAKER))),
    )


class TestLegalMoves:
    def test_fresh_k3(self):
        spec = edge_spec(Graph.complete(3))
        assert legal_moves(spec, Position.initial(spec)) == [(0, 1), (0, 2), (1, 2)]

    def test_exhausted(self):
        spec = edge_spec(Graph.complete(3))
        pos = Position(
            maker=frozenset({(0, 1)}),
            breaker=frozenset({(0, 2), (1, 2)}),
            to_move=MAKER,
        )
        assert legal_moves(spec, pos) == []

    def test_after_claim(self):
        spec = edge_spec(Graph.complete(3))
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1)])
        assert legal_moves(spec, pos) == [(0, 2), (1, 2)]

    def test_inconsistent_position(self):
        spec = edge_spec(Graph.complete(3))
        overlap = Position(
            maker=frozenset({(0, 1)}), breaker=frozenset({(0, 1)}), to_move=MAKER
        )
        with pytest.raises(DomainError):
            legal_moves(spec, overlap)


    @settings(max_examples=100, deadline=None)
    @given(small_specs(), st.data())
    def test_matches_the_sorted_set_difference(self, spec, data):
        board = spec.board()
        taken = data.draw(st.permutations(board)) if board else []
        taken = taken[: data.draw(st.integers(min_value=0, max_value=len(taken)))]
        split = data.draw(st.integers(min_value=0, max_value=len(taken)))
        pos = Position(frozenset(taken[:split]), frozenset(taken[split:]), spec.first)
        assert legal_moves(spec, pos) == sorted(set(board) - pos.maker - pos.breaker)

    @settings(max_examples=50, deadline=None)
    @given(small_specs(), st.data())
    def test_overlapping_claims_raise(self, spec, data):
        board = spec.board()
        if not board:
            return
        shared = data.draw(st.sampled_from(board))
        pos = Position(frozenset({shared}), frozenset({shared}), spec.first)
        with pytest.raises(DomainError):
            legal_moves(spec, pos)

    @pytest.mark.parametrize("player", [MAKER, BREAKER])
    def test_off_board_claims_raise(self, player):
        for spec, off in ((edge_spec(Graph.path(3)), (0, 2)), (vertex_spec(Graph.path(3)), 3)):
            claims = {MAKER: frozenset(), BREAKER: frozenset(), player: frozenset({off})}
            pos = Position(claims[MAKER], claims[BREAKER], MAKER)
            with pytest.raises(DomainError):
                legal_moves(spec, pos)


class TestApplyMoves:
    def test_wrong_count_rejected(self):
        spec = edge_spec(Graph.complete(4), b=2)
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1)])
        with pytest.raises(IllegalMoveError):
            apply_moves(spec, pos, BREAKER, [(0, 2)])  # must claim 2 of 5 remaining

    def test_short_final_turn_accepted(self):
        g = Graph.complete(3)
        spec = edge_spec(g, b=2)
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1)])
        pos, _ = apply_moves(spec, pos, BREAKER, [(0, 2), (1, 2)])
        # board empty: nothing to do; rebuild a position with one element left
        spec4 = edge_spec(Graph.complete(4), b=2)
        pos = Position.initial(spec4)
        pos, _ = apply_moves(spec4, pos, MAKER, [(0, 1)])
        pos, _ = apply_moves(spec4, pos, BREAKER, [(0, 2), (0, 3)])
        pos, _ = apply_moves(spec4, pos, MAKER, [(1, 2)])
        pos, _ = apply_moves(spec4, pos, BREAKER, [(1, 3), (2, 3)])
        assert len(legal_moves(spec4, pos)) == 0

    def test_wrong_player(self):
        spec = edge_spec(Graph.complete(3))
        with pytest.raises(IllegalMoveError):
            apply_moves(spec, Position.initial(spec), BREAKER, [(0, 1)])

    def test_already_claimed_identifies_element(self):
        spec = edge_spec(Graph.complete(3))
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1)])
        with pytest.raises(IllegalMoveError) as err:
            apply_moves(spec, pos, BREAKER, [(0, 1)])
        assert err.value.element == (0, 1)

    def test_winning_claim_drops_the_rest_of_the_batch(self):
        spec = edge_spec(Graph.complete(4), a=2)
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1), (1, 2)])
        pos, _ = apply_moves(spec, pos, BREAKER, [(0, 3)])
        won, witness = apply_moves(spec, pos, MAKER, [(0, 2), (1, 3)])
        assert sorted(witness.vertices) == [0, 1, 2]
        assert won.log[-1] == (MAKER, ((0, 2),))
        assert won.maker == {(0, 1), (1, 2), (0, 2)}

    def test_short_maker_batch_only_when_it_wins(self):
        spec = edge_spec(Graph.complete(4), a=2)
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1), (1, 2)])
        pos, _ = apply_moves(spec, pos, BREAKER, [(0, 3)])
        with pytest.raises(IllegalMoveError):
            apply_moves(spec, pos, MAKER, [(1, 3)])
        won, witness = apply_moves(spec, pos, MAKER, [(0, 2)])
        assert witness is not None and won.log[-1] == (MAKER, ((0, 2),))

    def test_overlong_batch_is_rejected_even_if_a_prefix_wins(self):
        spec = edge_spec(Graph.complete(4))
        pos, _ = apply_moves(spec, Position.initial(spec), MAKER, [(0, 1)])
        pos, _ = apply_moves(spec, pos, BREAKER, [(0, 3)])
        pos, _ = apply_moves(spec, pos, MAKER, [(1, 2)])
        pos, _ = apply_moves(spec, pos, BREAKER, [(1, 3)])
        with pytest.raises(IllegalMoveError):
            apply_moves(spec, pos, MAKER, [(0, 2), (2, 3)])


class TestEvaluate:
    def test_maker_holds_c5(self):
        g = Graph.cycle(5)
        spec = edge_spec(g)
        pos = Position(maker=frozenset(g.edges), breaker=frozenset(), to_move=BREAKER)
        witness = maker_win_witness(spec, pos.maker)
        assert witness is not None
        assert verify_odd_cycle(g, witness)

    def test_forest_is_undecided_then_exhausted(self):
        g = Graph.path(4)
        spec = edge_spec(g)
        pos = Position(
            maker=frozenset({(0, 1)}), breaker=frozenset(), to_move=BREAKER
        )
        assert maker_win_witness(spec, pos.maker) is None
        assert legal_moves(spec, pos) != []
        done = Position(
            maker=frozenset({(0, 1), (2, 3)}),
            breaker=frozenset({(1, 2)}),
            to_move=MAKER,
        )
        assert maker_win_witness(spec, done.maker) is None
        assert legal_moves(spec, done) == []

    def test_vertex_triangle(self):
        g = Graph.complete(4)
        spec = vertex_spec(g)
        pos = Position(maker=frozenset({0, 1, 3}), breaker=frozenset(), to_move=BREAKER)
        witness = maker_win_witness(spec, pos.maker)
        assert witness is not None
        assert sorted(witness.vertices) == [0, 1, 3]

    def test_aux_connect_triangle_and_connection(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        spec = vertex_spec(g, objective=WinPredicate("aux-connect", anchor=frozenset({0, 4})))
        # claiming 1 and 2 makes host[{0,1,2,4}] disconnected but triangle 0-1-2 exists
        w = maker_win_witness(spec, {1, 2})
        assert isinstance(w, OddCycleWitness)
        # claiming 2 and 3 connects the anchors without any triangle
        w = maker_win_witness(spec, {2, 3})
        assert isinstance(w, ClaimSetWitness) and w.property == "aux-connected"

    def test_spanning_connected(self):
        g = Graph.complete(4)
        spec = edge_spec(g, objective=WinPredicate("spanning-connected"))
        tree = {(0, 1), (1, 2), (2, 3)}
        assert maker_win_witness(spec, tree) is not None
        assert maker_win_witness(spec, {(0, 1), (2, 3)}) is None

    def test_non_k_colorable_edges(self):
        g = Graph.complete(5)
        spec = edge_spec(g, objective=WinPredicate("non-k-colorable", k=3))
        k4 = {(u, v) for u in range(4) for v in range(u + 1, 4)}
        w = maker_win_witness(spec, k4)
        assert isinstance(w, ClaimSetWitness) and w.k == 3
        assert maker_win_witness(spec, {(0, 1), (1, 2), (0, 2)}) is None

    def test_non_k_colorable_vertices(self):
        g = Graph.complete(6)
        spec = vertex_spec(g, objective=WinPredicate("non-k-colorable", k=2))
        assert maker_win_witness(spec, {0, 1, 2}) is not None
        assert maker_win_witness(spec, {0, 1}) is None

    def test_k_edge_connected(self):
        g = Graph.complete(4)
        spec = edge_spec(g, objective=WinPredicate("k-edge-connected", k=2))
        cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert maker_win_witness(spec, cycle) is not None
        tree = {(0, 1), (1, 2), (2, 3)}
        assert maker_win_witness(spec, tree) is None

    def test_monotonicity(self):
        g = Graph.complete(4)
        spec = edge_spec(g)
        base = {(0, 1), (1, 2), (0, 2)}
        assert maker_win_witness(spec, base) is not None
        for extra in g.edges - base:
            assert maker_win_witness(spec, base | {extra}) is not None


def _triangle(g: Graph):
    """The first triangle of g: its smallest edge with a common neighbour,
    and the smallest such neighbour (the engine's check before it read
    neighbour masks)."""
    for u, v in sorted(g.edges):
        common = g.neighbors(u) & g.neighbors(v)
        if common:
            return (u, v, min(common))
    return None


def two_branch_win_witness(spec, maker_claims):
    """The win check as it was written before one Maker graph: one branch per
    board kind, each with its own objective dispatch, on a ``Graph`` of
    Maker's claims."""
    obj = spec.objective
    if spec.board_kind == EDGES:
        claimed = Graph(spec.host.n, maker_claims)
        if obj.kind == "odd-cycle":
            res = find_odd_cycle(claimed)
            return res if isinstance(res, OddCycleWitness) else None
        if obj.kind == "non-k-colorable":
            if is_k_colorable(claimed, obj.k) is None:
                return ClaimSetWitness(tuple(sorted(maker_claims)), "non-k-colorable", obj.k)
            return None
        if obj.kind == "spanning-connected":
            if spec.host.n >= 1 and is_connected(claimed):
                return ClaimSetWitness(tuple(sorted(maker_claims)), "spanning-connected")
            return None
        if obj.kind == "k-edge-connected":
            if spec.host.n < 2 or not is_connected(claimed):
                return None
            if min(claimed.degree(v) for v in range(claimed.n)) < obj.k:
                return None
            if graph_edge_connectivity(claimed) >= obj.k:
                return ClaimSetWitness(tuple(sorted(maker_claims)), "k-edge-connected", obj.k)
            return None
    else:
        claims = frozenset(maker_claims)
        if obj.kind == "odd-cycle":
            res = odd_cycle_by_relabelling(spec.host, claims)
            return res if isinstance(res, OddCycleWitness) else None
        if obj.kind == "non-k-colorable":
            sub, _ = induced_subgraph(spec.host, claims)
            if is_k_colorable(sub, obj.k) is None:
                return ClaimSetWitness(tuple(sorted(claims)), "non-k-colorable", obj.k)
            return None
        if obj.kind == "aux-connect":
            union = claims | obj.anchor
            if not union:
                return None
            sub, to_parent = induced_subgraph(spec.host, union)
            if is_connected(sub):
                return ClaimSetWitness(tuple(sorted(union)), "aux-connected")
            tri = _triangle(sub)
            if tri is not None:
                return OddCycleWitness(tuple(to_parent[v] for v in tri))
            return None
    raise DomainError(f"unhandled objective {obj.kind!r}")


@st.composite
def objective_specs(draw):
    """A spec on a random host of up to 7 vertices, with any objective its
    board plays (k from 1 to 3, any anchor), and a random Maker claim set."""
    g = draw(random_graphs(max_n=7))
    board_kind = draw(st.sampled_from((EDGES, VERTICES)))
    k = draw(st.integers(min_value=1, max_value=3))
    if board_kind == EDGES:
        objectives = [
            WinPredicate("odd-cycle"),
            WinPredicate("non-k-colorable", k=k),
            WinPredicate("spanning-connected"),
            WinPredicate("k-edge-connected", k=k),
        ]
    else:
        anchor = draw(st.frozensets(st.integers(min_value=0, max_value=g.n - 1)))
        objectives = [
            WinPredicate("odd-cycle"),
            WinPredicate("non-k-colorable", k=k),
            WinPredicate("aux-connect", anchor=anchor),
        ]
    spec = GameSpec(host=g, board_kind=board_kind, objective=draw(st.sampled_from(objectives)))
    board = spec.board()
    claims = draw(st.frozensets(st.sampled_from(board))) if board else frozenset()
    return spec, claims


class TestOneMakerGraph:
    @settings(max_examples=400, deadline=None)
    @given(objective_specs())
    def test_win_witness_matches_the_two_branch_check(self, spec_claims):
        spec, claims = spec_claims
        assert maker_win_witness(spec, claims) == two_branch_win_witness(spec, claims)
        assert maker_win_witness(spec, sorted(claims)) == two_branch_win_witness(spec, claims)

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=10), st.data())
    def test_aux_connect_on_random_anchors_matches_the_subgraph_check(self, g, data):
        vertices = st.frozensets(st.integers(min_value=0, max_value=g.n - 1))
        anchor, claims = data.draw(vertices), data.draw(vertices)
        spec = GameSpec(g, VERTICES, WinPredicate("aux-connect", anchor=anchor))
        assert maker_win_witness(spec, claims) == two_branch_win_witness(spec, claims)

    def test_empty_host_is_not_spanned(self):
        spec = edge_spec(Graph(0), objective=WinPredicate("spanning-connected"))
        assert maker_win_witness(spec, ()) is None is two_branch_win_witness(spec, ())

    def test_spanning_connected_below_a_tree_reads_no_masks(self, monkeypatch):
        spec = edge_spec(Graph.complete(6), objective=WinPredicate("spanning-connected"))
        calls = []
        masks = engine.maker_masks
        monkeypatch.setattr(engine, "maker_masks", lambda *args: calls.append(args) or masks(*args))
        path = [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert maker_win_witness(spec, path) is None and not calls
        assert maker_win_witness(spec, path * 2) is None and not calls  # distinct claims count
        assert maker_win_witness(spec, path + [(4, 5)]) is not None and len(calls) == 1
        # a claim off the board takes the mask path, which refuses it
        with pytest.raises(DomainError):
            maker_win_witness(spec, [(0, 1), (2, 9)])
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "board_kind, objective, claim",
        [
            (board_kind, objective, claim)
            for board_kind, objectives, claims in (
                (EDGES, ("odd-cycle", "spanning-connected"), ((0, 9), (-1, 2), (1, 1))),
                (VERTICES, ("odd-cycle",), (-1, 9)),
            )
            for objective in objectives
            for claim in claims
        ],
    )
    def test_malformed_claim_is_a_domain_error(self, board_kind, objective, claim):
        spec = GameSpec(Graph.complete(4), board_kind, WinPredicate(objective))
        with pytest.raises(DomainError):
            maker_win_witness(spec, {claim})

    @pytest.mark.parametrize("objective", ["odd-cycle", "spanning-connected"])
    def test_reversed_edge_is_not_a_win(self, objective):
        spec = edge_spec(Graph.complete(4), objective=WinPredicate(objective))
        assert maker_win_witness(spec, {(2, 0)}) is None

    def test_maker_masks_take_a_reversed_edge_in_its_normal_order(self):
        spec = edge_spec(Graph.complete(4))
        assert maker_masks(spec, {(2, 0), (1, 3)}) == maker_masks(spec, {(0, 2), (3, 1)})
        assert maker_masks(spec, {(2, 0)}) == ([0b100, 0, 0b1, 0], 0b1111)

    @pytest.mark.parametrize(
        "board_kind, claim",
        [(EDGES, c) for c in ((1, 1), (0, 4), (4, 0), (-1, 2), (2, -1))]
        + [(VERTICES, c) for c in (-1, 4)],
    )
    def test_maker_masks_refuse_a_loop_or_a_claim_out_of_range(self, board_kind, claim):
        spec = GameSpec(Graph.complete(4), board_kind, WinPredicate("odd-cycle"))
        with pytest.raises(DomainError):
            maker_masks(spec, {claim})

    def test_maker_masks_on_a_vertex_board(self):
        g = Graph.path(4)
        adj, verts = maker_masks(vertex_spec(g), {0, 2})
        assert adj is g.neighbor_masks() and verts == 0b101

    @pytest.mark.parametrize(
        "board_kind, objective",
        [(EDGES, WinPredicate("odd-cycle")), (VERTICES, WinPredicate("odd-cycle")),
         (EDGES, WinPredicate("k-edge-connected", k=2))],
    )
    def test_a_win_builds_no_relabelled_copy(self, monkeypatch, board_kind, objective):
        built = []
        monkeypatch.setattr(graphs, "induced_subgraph", lambda *args: built.append(args))
        assert not hasattr(engine, "induced_subgraph") and not hasattr(engine, "maker_graph")
        spec = GameSpec(Graph.complete(5), board_kind, objective)
        assert maker_win_witness(spec, spec.board()) is not None
        assert built == []

    def test_maker_graph_on_both_boards(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, to_host = maker_graph(edge_spec(g), {(0, 1), (3, 4)})
        assert (sub, to_host) == (Graph(5, [(0, 1), (3, 4)]), None)
        sub, to_host = maker_graph(vertex_spec(g), {4, 0, 3})
        assert (sub, to_host) == (Graph(3, [(0, 2), (1, 2)]), (0, 3, 4))


@st.composite
def colorability_claims(draw, max_n=9):
    """A ``non-k-colorable`` spec (k from 1 to 4) on either board of a random
    host, and a random Maker claim set."""
    g = draw(random_graphs(max_n=max_n))
    board_kind = draw(st.sampled_from((EDGES, VERTICES)))
    objective = WinPredicate("non-k-colorable", k=draw(st.integers(min_value=1, max_value=4)))
    spec = GameSpec(host=g, board_kind=board_kind, objective=objective)
    board = spec.board()
    return spec, draw(st.frozensets(st.sampled_from(board))) if board else frozenset()


def non_colorable_by_relabelling(spec, claims) -> bool:
    """The ``non-k-colorable`` decision on Maker's graph as a Graph of its
    own: the claimed edges on the host's vertices, or the host's subgraph
    induced on the claimed vertices, relabelled, searched by the recursive
    coloring search."""
    if spec.board_kind == EDGES:
        claimed = Graph(spec.host.n, claims)
    else:
        claimed, _ = induced_subgraph(spec.host, claims)
    return recursive_k_coloring(claimed, spec.objective.k) is None


class TestNonKColorableOnMasks:
    @settings(max_examples=400, deadline=None)
    @given(colorability_claims())
    def test_matches_the_search_on_a_relabelled_graph(self, spec_claims):
        spec, claims = spec_claims
        want = non_colorable_by_relabelling(spec, claims)
        assert mask_win(spec.objective)(*maker_masks(spec, claims)) == want
        witness = maker_win_witness(spec, claims)
        assert witness == (
            ClaimSetWitness(tuple(sorted(claims)), "non-k-colorable", spec.objective.k)
            if want else None
        )

    def test_matches_on_seeded_dense_hosts(self):
        rng = random.Random(22)
        for seed in range(40):
            g = gnp(rng.randint(6, 13), 0.6, seed)
            for board_kind in (EDGES, VERTICES):
                for k in (2, 3, 4):
                    spec = GameSpec(g, board_kind, WinPredicate("non-k-colorable", k=k))
                    claims = frozenset(e for e in spec.board() if rng.random() < 0.7)
                    won = maker_win_witness(spec, claims) is not None
                    assert won == non_colorable_by_relabelling(spec, claims)

    def test_no_maker_graph_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(graphs, "induced_subgraph", lambda *args: built.append(args))
        g = Graph.complete(5)
        for board_kind in (EDGES, VERTICES):
            spec = GameSpec(g, board_kind, WinPredicate("non-k-colorable", k=3))
            assert maker_win_witness(spec, spec.board()) is not None
            assert maker_win_witness(spec, spec.board()[:3]) is None
        assert built == []

    def test_mask_win_is_none_off_the_mask_decisions(self):
        assert mask_win(WinPredicate("odd-cycle")) is graphs.has_odd_cycle
        assert mask_win(WinPredicate("spanning-connected")) is graphs.spans
        assert mask_win(WinPredicate("aux-connect", anchor=frozenset({0}))) is None
        # k-edge-connected: two vertices and lambda >= k; C_4 has lambda 2
        c4, everyone = Graph.cycle(4).neighbor_masks(), 0b1111
        decide = {k: mask_win(WinPredicate("k-edge-connected", k=k)) for k in (1, 2, 3)}
        assert decide[1](c4, everyone) and decide[2](c4, everyone)
        assert not decide[3](c4, everyone) and not decide[1](c4, 0b1)


class TestPlay:
    def test_k3_breaker_by_counting(self):
        spec = edge_spec(Graph.complete(3))
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=0)
        assert result.winner == BREAKER

    def test_c5_breaker_by_counting(self):
        spec = edge_spec(Graph.cycle(5))
        for seed in range(5):
            result = play(spec, RandomStrategy(), RandomStrategy(), seed=seed)
            assert result.winner == BREAKER

    def test_replay_determinism(self):
        spec = edge_spec(Graph.complete(5), b=2)
        r1 = play(spec, RandomStrategy(), RandomStrategy(), seed=11)
        r2 = play(spec, RandomStrategy(), RandomStrategy(), seed=11)
        assert r1.position.log == r2.position.log
        assert r1.winner == r2.winner

    def test_claim_conservation_and_bias_accounting(self):
        g = Graph.complete(5)
        spec = edge_spec(g, b=2)
        board = len(spec.board())
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=2)
        maker_total = breaker_total = 0
        for i, (player, elements) in enumerate(result.position.log):
            if player == MAKER:
                maker_total += len(elements)
            else:
                breaker_total += len(elements)
        assert maker_total == len(result.position.maker)
        assert breaker_total == len(result.position.breaker)
        assert maker_total + breaker_total <= board
        # full rounds before any short turn obey the bias exactly
        for player, elements in result.position.log[:-1]:
            assert len(elements) == (1 if player == MAKER else 2)

    def test_forfeit_flag(self):
        spec = edge_spec(Graph.complete(3))
        result = play(spec, ScriptedStrategy([None]), RandomStrategy(), seed=0)
        assert result.winner == BREAKER and result.forfeit
        assert result.forfeited_by == MAKER

    def test_illegal_proposal_forfeits(self):
        spec = edge_spec(Graph.complete(3))
        bad = ScriptedStrategy([[(0, 1)], [(0, 1)]])  # second turn repeats a claim
        result = play(spec, bad, ScriptedStrategy([[(0, 2)]]), seed=0)
        assert result.winner == BREAKER and result.forfeited_by == MAKER

    def test_batch_with_a_claimed_element_forfeits_even_if_a_prefix_wins(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        spec = edge_spec(g, a=2)
        # Maker's second batch is ((0, 2), (3, 4)): (0, 2) closes a triangle,
        # but (3, 4) is already Breaker's, so the whole turn is illegal.
        result = play(spec, ClosingTriangleMaker(), ScriptedStrategy([[(3, 4)]]), seed=0)
        assert result.winner == BREAKER and result.reason == "forfeit"
        assert result.forfeited_by == MAKER
        assert not verify_maker_strategy(spec, ClosingTriangleMaker()).always_wins

    def test_breaker_first(self):
        spec = edge_spec(Graph.complete(3), first=BREAKER)
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=0)
        assert result.position.log[0][0] == BREAKER

    def test_earliest_winning_prefix(self):
        g = Graph.complete(3)
        spec = edge_spec(g, a=3)
        result = play(spec, ScriptedStrategy([list(sorted(g.edges))]), RandomStrategy(), seed=0)
        assert result.winner == MAKER
        assert len(result.position.log[0][1]) == 3  # triangle closes on the last claim


class QuittingStrategy(RandomStrategy):
    """Random batches for ``turns`` turns, then a forfeit."""

    def __init__(self, turns):
        super().__init__()
        self.turns = turns

    def reset(self, spec, seed):
        super().reset(spec, seed)
        self.left = self.turns

    def propose(self, spec, pos):
        if self.left == 0:
            return None
        self.left -= 1
        return super().propose(spec, pos)


class TestTranscripts:
    def _result(self):
        g = Graph.complete(4)
        spec = edge_spec(g, b=2, objective=WinPredicate("spanning-connected"))
        result = play(spec, ConnectivityMaker(g), RandomStrategy(), seed=9)
        return spec, result

    def test_replay_reproduces_winner(self):
        spec, result = self._result()
        replayed = replay_transcript(spec, format_transcript(spec, result, "m", "b"))
        assert replayed.winner == result.winner
        assert replayed.position.maker == result.position.maker
        assert replayed.witness == result.witness

    def test_forfeit_round_trip(self):
        g = Graph.complete(3)
        spec = edge_spec(g)
        result = play(spec, ScriptedStrategy([None]), RandomStrategy(), seed=0)
        text = format_transcript(spec, result, "scripted", "random")
        assert replay_transcript(spec, text).winner == BREAKER

    def _maker_win_text(self, a=1):
        spec = edge_spec(Graph.complete(4), a=a)
        if a == 1:
            maker = ScriptedStrategy([[(0, 1)], [(1, 2)], [(0, 2)]])
            breaker = ScriptedStrategy([[(0, 3)], [(1, 3)]])
        else:
            maker = ScriptedStrategy([[(0, 1), (1, 2)], [(0, 2), (2, 3)]])
            breaker = ScriptedStrategy([[(0, 3)]])
        result = play(spec, maker, breaker, seed=0)
        assert result.winner == MAKER and result.reason == "objective"
        return spec, format_transcript(spec, result, "scripted", "scripted")

    def test_replay_rejects_a_move_after_the_win(self):
        spec, text = self._maker_win_text()
        assert replay_transcript(spec, text).winner == MAKER
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace("end\n", "B e2-3\nend\n"))

    def test_replay_rejects_a_claim_after_the_winning_claim(self):
        spec, text = self._maker_win_text(a=2)
        assert "M e0-2\n" in text
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace("M e0-2\n", "M e0-2 e2-3\n"))

    @pytest.mark.parametrize("key", ["board", "host", "bias", "first", "objective"])
    def test_replay_rejects_a_header_that_does_not_describe_the_spec(self, key):
        spec, text = self._maker_win_text()
        lines = [f"{key} x" if ln.startswith(key + " ") else ln for ln in text.split("\n")]
        with pytest.raises(DomainError):
            replay_transcript(spec, "\n".join(lines))

    def test_replay_rejects_lines_after_the_witness(self):
        spec, text = self._maker_win_text()
        with pytest.raises(DomainError):
            replay_transcript(spec, text + "M e0-1\nwitness none\n")

    def test_replay_rejects_a_transcript_without_strategy_names(self):
        spec, text = self._maker_win_text()
        lines = [ln for ln in text.split("\n") if not ln.startswith(("maker ", "breaker "))]
        with pytest.raises(DomainError):
            replay_transcript(spec, "\n".join(lines))

    def test_replay_rejects_a_missing_final_newline(self):
        spec, text = self._maker_win_text()
        with pytest.raises(DomainError):
            replay_transcript(spec, text[:-1])

    @pytest.mark.parametrize("token", ["e00-1", "e9-0-1", "ex0-1", "e0_1", "v0", "e1-0"])
    def test_replay_rejects_a_malformed_edge_token(self, token):
        spec, text = self._maker_win_text()
        assert "M e0-1\n" in text
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace("M e0-1\n", f"M {token}\n"))

    @pytest.mark.parametrize("token", ["v01", "vx", "v-1", "v9", "e0-1"])
    def test_replay_rejects_a_malformed_vertex_token(self, token):
        spec = vertex_spec(Graph.complete(4))
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=0)
        text = format_transcript(spec, result, "random", "random")
        first = next(ln for ln in text.split("\n") if ln.startswith("M "))
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace(first + "\n", f"M {token}\n", 1))

    def test_replay_rejects_moves_that_stop_early(self):
        spec = edge_spec(Graph.complete(3))
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=0)
        assert result.reason == "exhausted"
        text = format_transcript(spec, result, "random", "random")
        lines = text.split("\n")
        del lines[lines.index("end") - 1]
        with pytest.raises(DomainError):
            replay_transcript(spec, "\n".join(lines))

    @pytest.mark.parametrize("forfeit", ["maker", "breaker"])
    def test_replay_rejects_a_forfeit_on_a_full_board(self, forfeit):
        spec = edge_spec(Graph.complete(3))
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=0)
        assert result.reason == "exhausted"
        text = format_transcript(spec, result, "random", "random")
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace("forfeit=none", f"forfeit={forfeit}"))

    def test_replay_rejects_a_forfeit_by_the_player_not_to_move(self):
        spec = edge_spec(Graph.complete(3))
        result = play(spec, ScriptedStrategy([None]), RandomStrategy(), seed=0)
        text = format_transcript(spec, result, "scripted", "random")
        assert "forfeit=maker" in text
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace("forfeit=maker", "forfeit=breaker"))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("winner=maker", "winner=breaker"),
            ("rounds=3", "rounds=2"),
            ("reason=objective", "reason=exhausted"),
        ],
    )
    def test_replay_rejects_a_tampered_result_line(self, old, new):
        spec, text = self._maker_win_text()
        assert old in text
        with pytest.raises(DomainError):
            replay_transcript(spec, text.replace(old, new))

    def test_replay_rejects_a_tampered_witness_cycle(self):
        spec, text = self._maker_win_text()
        lines = text.split("\n")
        i = next(i for i, ln in enumerate(lines) if ln.startswith("witness cycle "))
        cycle = lines[i].split()[2:]
        # the same triangle, rotated: still an odd cycle, but not the witness
        # the game found
        lines[i] = "witness cycle " + " ".join(cycle[1:] + cycle[:1])
        with pytest.raises(DomainError):
            replay_transcript(spec, "\n".join(lines))
        lines[i] = "witness none"
        with pytest.raises(DomainError):
            replay_transcript(spec, "\n".join(lines))

    def test_illegal_batch_counts_no_round_and_replays(self):
        spec = edge_spec(Graph.complete(3))
        bad = ScriptedStrategy([[(0, 1)], [(0, 1)]])  # second turn repeats a claim
        result = play(spec, bad, ScriptedStrategy([[(0, 2)]]), seed=0)
        assert result.forfeited_by == MAKER and result.rounds == 1
        text = format_transcript(spec, result, "scripted", "scripted")
        replayed = replay_transcript(spec, text)
        assert (replayed.winner, replayed.rounds, replayed.reason) == (BREAKER, 1, "forfeit")

    def test_replay_rejects_a_short_breaker_turn(self):
        spec = edge_spec(Graph.complete(4), b=2)
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=1)
        text = format_transcript(spec, result, "random", "random")
        lines = text.split("\n")
        i = next(i for i, ln in enumerate(lines) if ln.startswith("B "))
        lines[i] = lines[i].rsplit(" ", 1)[0]
        with pytest.raises(IllegalMoveError):
            replay_transcript(spec, "\n".join(lines))

    @settings(max_examples=80, deadline=None)
    @given(
        small_specs(),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from((MAKER, BREAKER)),
        st.integers(min_value=0, max_value=12),
    )
    def test_replay_reproduces_random_games(self, spec, seed, quitter, turns):
        maker, breaker = RandomStrategy(), RandomStrategy()
        if quitter == MAKER:
            maker = QuittingStrategy(turns)
        else:
            breaker = QuittingStrategy(turns)
        result = play(spec, maker, breaker, seed=seed)
        replayed = replay_transcript(spec, format_transcript(spec, result, "m", "b"))
        assert replayed.winner == result.winner
        assert replayed.rounds == result.rounds
        assert replayed.reason == result.reason
        assert replayed.forfeited_by == result.forfeited_by
        assert replayed.position == result.position
        assert replayed.witness == result.witness

    @settings(max_examples=150, deadline=None)
    @given(
        small_specs(),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(("delete", "duplicate", "truncate")),
        st.data(),
    )
    def test_replay_rejects_a_mutated_transcript(self, spec, seed, how, data):
        result = play(spec, RandomStrategy(), RandomStrategy(), seed=seed)
        text = format_transcript(spec, result, "random", "random")
        lines = text.split("\n")  # the last entry is what follows the final newline
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            assume(lines[i])
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
        try:
            replayed = replay_transcript(spec, "\n".join(lines))
        except (DomainError, IllegalMoveError):
            return
        # Strategy names are free text: a shortened one still names the
        # strategies of the same game.
        assert how == "truncate" and lines[i].startswith(("maker ", "breaker "))
        assert replayed == result

    def test_objective_tokens(self):
        for pred in (
            WinPredicate("odd-cycle"),
            WinPredicate("non-k-colorable", k=3),
            WinPredicate("spanning-connected"),
            WinPredicate("k-edge-connected", k=2),
            WinPredicate("aux-connect", anchor=frozenset({1, 4})),
        ):
            assert WinPredicate.from_token(pred.token()) == pred


class TestSpecValidation:
    def test_objective_board_compat(self):
        with pytest.raises(DomainError):
            vertex_spec(Graph.complete(3), objective=WinPredicate("spanning-connected"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "odd-cycle", "k": 3},
            {"kind": "spanning-connected", "k": 3},
            {"kind": "aux-connect", "k": 1, "anchor": frozenset({0})},
            {"kind": "odd-cycle", "anchor": frozenset({0})},
            {"kind": "spanning-connected", "anchor": frozenset()},
            {"kind": "non-k-colorable", "k": 2, "anchor": frozenset({0})},
            {"kind": "k-edge-connected", "k": 2, "anchor": frozenset({0})},
        ],
    )
    def test_objective_rejects_a_parameter_its_kind_does_not_take(self, kwargs):
        with pytest.raises(DomainError):
            WinPredicate(**kwargs)

    def test_bias_positive(self):
        with pytest.raises(DomainError):
            edge_spec(Graph.complete(3), a=0)
