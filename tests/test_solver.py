import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedStrategy, SolverBeforeChoose, iso_classes, random_graphs
from makerbreaker import engine, graphs, solver
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
    maker_win_witness,
    play,
    replay_transcript,
)
from makerbreaker.errors import DomainError, ResourceLimitError
from makerbreaker.generators import gnp
from makerbreaker.graphs import Graph
from makerbreaker.solver import (
    SOLVE_BOARD_CAP,
    VERIFY_BOARD_CAP,
    SolveVerdict,
    _Solver,
    solve,
    solve_reference,
    verify_maker_strategy,
)
from makerbreaker.strategies import ConnectivityMaker


def odd_cycle_spec(g, a=1, b=1):
    return GameSpec(
        host=g,
        board_kind=EDGES,
        objective=WinPredicate("odd-cycle"),
        maker_bias=a,
        breaker_bias=b,
    )


def sequence_exploring_winner(spec):
    """Deliberately explores within-turn claim sequences (permutations), not
    sets; used to confirm the combination reduction is value-preserving."""
    board = spec.board()

    def go(maker, breaker, mover):
        unclaimed = [e for e in board if e not in maker and e not in breaker]
        if not unclaimed:
            return maker_win_witness(spec, maker) is not None
        need = min(spec.bias_of(mover), len(unclaimed))
        batches = permutations(unclaimed, need)
        if mover == MAKER:
            return any(go(maker | set(b), breaker, BREAKER) for b in batches)
        return all(go(maker, breaker | set(b), MAKER) for b in batches)

    return MAKER if go(frozenset(), frozenset(), spec.first) else BREAKER


class ForfeitingMaker(Strategy):
    ident = "forfeit"
    position_pure = True

    def propose(self, spec, pos):
        return None


class TestSolve:
    def test_k3_breaker(self):
        v = solve(odd_cycle_spec(Graph.complete(3)))
        assert v.winner == BREAKER

    def test_c5_breaker(self):
        assert solve(odd_cycle_spec(Graph.cycle(5))).winner == BREAKER

    def test_k5_fixture(self):
        # frozen by the first verified run and cross-checked by the reference
        v = solve(odd_cycle_spec(Graph.complete(5)))
        assert v.winner == MAKER
        assert solve_reference(odd_cycle_spec(Graph.complete(5))) == MAKER

    def test_board_cap(self):
        with pytest.raises(ResourceLimitError):
            solve(odd_cycle_spec(Graph.complete(7)))

    @pytest.mark.parametrize(
        "spec, size",
        [
            (odd_cycle_spec(Graph.complete(7)), 21),
            (GameSpec(Graph.path(19), VERTICES, WinPredicate("odd-cycle")), 19),
        ],
    )
    def test_board_size_is_read_from_the_host_before_the_board_is_built(self, spec, size):
        with pytest.raises(ResourceLimitError) as info:
            solve(spec)
        assert info.value.stats == {"board": size, "cap": SOLVE_BOARD_CAP}
        assert "_board" not in vars(spec)  # the sorted board was never built
        with pytest.raises(ResourceLimitError):
            solve_reference(spec)
        assert "_board" not in vars(spec)

    def test_principal_line_replays_to_winner(self):
        for g in (Graph.complete(5), Graph.cycle(5), Graph.complete(4)):
            for b in (1, 2):
                spec = odd_cycle_spec(g, b=b)
                v = solve(spec)
                line = v.principal_line
                maker = ScriptedStrategy([els for player, els in line if player == MAKER])
                breaker = ScriptedStrategy([els for player, els in line if player == BREAKER])
                result = play(spec, maker, breaker)
                assert result.position.log == line and not result.forfeit
                text = format_transcript(spec, result, "scripted", "scripted")
                replayed = replay_transcript(spec, text)
                assert replayed.winner == v.winner

    def test_memoized_matches_reference_random_instances(self):
        rng = random.Random(0)
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 400:
            attempts += 1
            n = rng.randint(3, 5)
            g = gnp(n, rng.choice([0.3, 0.5, 0.8]), rng.randrange(10_000))
            if g.m > 10 or g.m == 0:
                continue
            b = rng.choice([1, 2])
            spec = odd_cycle_spec(g, b=b)
            assert solve(spec).winner == solve_reference(spec)
            checked += 1
        assert checked == 50

    def test_pruned_solve_matches_reference(self):
        rng = random.Random(1)
        for _ in range(25):
            g = gnp(4, 0.6, rng.randrange(10_000))
            if g.m == 0 or g.m > 10:
                continue
            spec = odd_cycle_spec(g, b=rng.choice([1, 2]))
            assert solve(spec).winner == solve_reference(spec)

    def test_combinations_match_sequences_tiny(self):
        rng = random.Random(2)
        for _ in range(10):
            g = gnp(3, 0.8, rng.randrange(1000))
            if not 1 <= g.m <= 3:
                continue
            for b in (1, 2):
                spec = odd_cycle_spec(g, b=b)
                assert solve(spec).winner == sequence_exploring_winner(spec)
        g = Graph.complete(3)
        for b in (1, 2):
            spec = odd_cycle_spec(g, b=b)
            assert solve(spec).winner == sequence_exploring_winner(spec)


class TestVerify:
    def test_connectivity_maker_on_k4(self):
        g = Graph.complete(4)
        spec = GameSpec(
            host=g, board_kind=EDGES, objective=WinPredicate("spanning-connected")
        )
        assert solve(spec).winner == MAKER
        res = verify_maker_strategy(spec, ConnectivityMaker(g))
        assert res.always_wins

    def test_forfeiting_maker_counter(self):
        g = Graph.complete(3)
        spec = odd_cycle_spec(g)
        res = verify_maker_strategy(spec, ForfeitingMaker())
        assert not res.always_wins
        assert len(res.counter) <= 2  # at most one round

    def test_soundness_relation(self):
        # always-wins implies the solver agrees, wherever both run
        rng = random.Random(3)
        for _ in range(15):
            g = gnp(4, 0.7, rng.randrange(1000))
            if g.m == 0:
                continue
            spec = GameSpec(
                host=g, board_kind=EDGES, objective=WinPredicate("spanning-connected")
            )
            res = verify_maker_strategy(spec, ConnectivityMaker(g))
            if res.always_wins:
                assert solve(spec).winner == MAKER

    def test_counter_transcript_is_a_loss(self):
        g = Graph.path(4)  # a tree: any claimed edge kills spanning connectivity
        spec = GameSpec(
            host=g, board_kind=EDGES, objective=WinPredicate("spanning-connected")
        )
        res = verify_maker_strategy(spec, ConnectivityMaker(g))
        assert not res.always_wins
        assert res.counter is not None

    @settings(max_examples=40, deadline=None)
    @given(
        random_graphs(max_n=6, max_edges=9),
        st.sampled_from(("odd-cycle", "spanning-connected")),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=2),
    )
    def test_counter_lines_replay_to_positions_maker_has_not_won(self, g, kind, a, b):
        spec = GameSpec(
            host=g, board_kind=EDGES, objective=WinPredicate(kind), maker_bias=a, breaker_bias=b
        )
        res = verify_maker_strategy(spec, ConnectivityMaker(g))
        assert res.always_wins == (res.counter is None)
        if res.counter is not None:
            pos = Position.initial(spec)
            for player, elements in res.counter:
                pos, witness = apply_moves(spec, pos, player, elements)
                assert witness is None
            assert maker_win_witness(spec, pos.maker) is None

    def test_budget(self):
        g = Graph.complete(5)
        spec = odd_cycle_spec(g)
        with pytest.raises(ResourceLimitError) as err:
            verify_maker_strategy(spec, ConnectivityMaker(g), node_budget=5)
        assert err.value.stats["nodes_expanded"] > 5

    def test_board_at_the_cap_is_walked_without_recursion_error(self):
        # one edge per cap element; the walk recurses once per turn
        g = Graph.path(VERIFY_BOARD_CAP + 1)
        spec = GameSpec(host=g, board_kind=EDGES, objective=WinPredicate("spanning-connected"))
        res = verify_maker_strategy(spec, ConnectivityMaker(g))
        assert not res.always_wins and res.counter is not None

    def test_board_above_the_cap_is_refused(self):
        g = Graph.path(600)
        spec = GameSpec(host=g, board_kind=EDGES, objective=WinPredicate("spanning-connected"))
        with pytest.raises(ResourceLimitError) as err:
            verify_maker_strategy(spec, ConnectivityMaker(g))
        assert err.value.stats == {"board": 599, "cap": VERIFY_BOARD_CAP}

    def test_requires_position_pure(self):
        from makerbreaker.strategies import RandomStrategy

        spec = odd_cycle_spec(Graph.complete(3))
        with pytest.raises(DomainError):
            verify_maker_strategy(spec, RandomStrategy())


class PreviousSolver:
    """The solver's node loop as it was before wins were decided on bitmasks:
    every new Maker claim set goes through ``maker_win_witness``, and batches
    are built bit by bit from element indices.  Only the rules for the
    non-monotone ``aux-connect`` are new: the futility prune is off, and
    Maker wins on a turn when a set of at most bias unclaimed elements wins
    (the turn ends at the first winning claim)."""

    def __init__(self, spec):
        self.spec = spec
        self.board = spec.board()
        self.full = (1 << len(self.board)) - 1
        self.futility = spec.objective.kind != "aux-connect"
        self.memo = {}
        self.eval_cache = {}
        self.nodes = 0

    @staticmethod
    def bit_batches(unclaimed_bits, need):
        for combo in combinations(unclaimed_bits, need):
            mask = 0
            for b in combo:
                mask |= 1 << b
            yield mask

    def elements(self, mask):
        return tuple(self.board[i] for i in range(len(self.board)) if mask >> i & 1)

    def winning_subset(self, m, bits):
        if self.futility:
            return None
        for size in range(1, min(self.spec.maker_bias, len(bits)) + 1):
            for batch in self.bit_batches(bits, size):
                if self.eval_win(m | batch):
                    return batch
        return None

    def eval_win(self, maker_mask):
        cached = self.eval_cache.get(maker_mask)
        if cached is None:
            cached = maker_win_witness(self.spec, self.elements(maker_mask)) is not None
            self.eval_cache[maker_mask] = cached
        return cached

    def win(self, m, b, mover):
        key = (m, b, mover)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        unclaimed = self.full & ~m & ~b
        bits = [i for i in range(len(self.board)) if unclaimed >> i & 1]
        if not bits:
            res = self.eval_win(m)
        elif self.futility and not self.eval_win(m | unclaimed):
            res = False
        elif mover == MAKER:
            need = min(self.spec.maker_bias, len(bits))
            res = self.winning_subset(m, bits) is not None
            for batch in () if res else self.bit_batches(bits, need):
                nm = m | batch
                if self.eval_win(nm) or self.win(nm, b, BREAKER):
                    res = True
                    break
        else:
            need = min(self.spec.breaker_bias, len(bits))
            res = True
            for batch in self.bit_batches(bits, need):
                if not self.win(m, b | batch, MAKER):
                    res = False
                    break
        self.memo[key] = res
        return res

    def principal_line(self):
        line = []
        m = b = 0
        mover = self.spec.first
        while True:
            unclaimed = self.full & ~m & ~b
            bits = [i for i in range(len(self.board)) if unclaimed >> i & 1]
            if not bits:
                break
            need = min(self.spec.bias_of(mover), len(bits))
            chosen = self.winning_subset(m, bits) if mover == MAKER else None
            if mover == MAKER and chosen is None:
                for batch in self.bit_batches(bits, need):
                    if self.eval_win(m | batch) or self.win(m | batch, b, BREAKER):
                        chosen = batch
                        break
            elif mover == BREAKER:
                for batch in self.bit_batches(bits, need):
                    if not self.win(m, b | batch, MAKER):
                        chosen = batch
                        break
            if chosen is None:
                chosen = next(self.bit_batches(bits, need))
            line.append((mover, self.elements(chosen)))
            if mover == MAKER:
                m |= chosen
                if self.eval_win(m):
                    break
                mover = BREAKER
            else:
                b |= chosen
                mover = MAKER
        return tuple(line)

    def verdict(self):
        maker_wins = self.win(0, 0, self.spec.first)
        return SolveVerdict(
            winner=MAKER if maker_wins else BREAKER,
            principal_line=self.principal_line(),
            nodes_expanded=self.nodes,
        )


@st.composite
def small_specs(draw, max_elements=8):
    """A spec on a random host with at most ``max_elements`` board elements,
    any objective playable on its board, biases 1-2 and either player first."""
    board_kind = draw(st.sampled_from((EDGES, VERTICES)))
    if board_kind == EDGES:
        host = draw(random_graphs(max_n=6, max_edges=max_elements))
        kind = draw(st.sampled_from(
            ("odd-cycle", "spanning-connected", "non-k-colorable", "k-edge-connected")
        ))
    else:
        host = draw(random_graphs(max_n=max_elements))
        kind = draw(st.sampled_from(("odd-cycle", "non-k-colorable", "aux-connect")))
    k = draw(st.integers(min_value=1, max_value=3)) if kind in (
        "non-k-colorable", "k-edge-connected") else None
    anchor = None
    if kind == "aux-connect":
        anchor = frozenset(draw(st.sets(st.integers(0, host.n - 1), max_size=2)))
    return GameSpec(
        host=host,
        board_kind=board_kind,
        objective=WinPredicate(kind, k=k, anchor=anchor),
        maker_bias=draw(st.integers(min_value=1, max_value=2)),
        breaker_bias=draw(st.integers(min_value=1, max_value=2)),
        first=draw(st.sampled_from((MAKER, BREAKER))),
    )


class TestMaskDecision:
    """Every objective is decided on bitmasks by the solver's ``decide``,
    ``mask_win`` on ``maker_masks``; the decision must equal
    ``maker_win_witness`` on every claim set."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.just(Graph(0)), random_graphs(max_n=8)),
        st.sampled_from(((EDGES, "odd-cycle"), (EDGES, "spanning-connected"),
                         (VERTICES, "odd-cycle"))),
        st.lists(st.integers(min_value=0), max_size=12),
    )
    def test_matches_maker_win_witness(self, g, board_and_kind, draws):
        board_kind, kind = board_and_kind
        spec = GameSpec(host=g, board_kind=board_kind, objective=WinPredicate(kind))
        board = spec.board()
        full = (1 << len(board)) - 1
        decide = _Solver(spec).decide
        for mask in [0, full] + [d & full for d in draws]:
            claims = tuple(board[i] for i in range(len(board)) if mask >> i & 1)
            assert decide(mask) == (maker_win_witness(spec, claims) is not None)

    @settings(max_examples=300, deadline=None)
    @given(
        random_graphs(max_n=8),
        st.sampled_from(((EDGES, "non-k-colorable"), (VERTICES, "non-k-colorable"),
                         (EDGES, "k-edge-connected"))),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0), max_size=12),
    )
    def test_objectives_with_k_match_maker_win_witness(self, g, board_and_kind, k, draws):
        board_kind, kind = board_and_kind
        spec = GameSpec(g, board_kind, WinPredicate(kind, k=k))
        board = spec.board()
        full = (1 << len(board)) - 1
        decide = _Solver(spec).decide
        for mask in [0, full] + [d & full for d in draws]:
            claims = tuple(board[i] for i in range(len(board)) if mask >> i & 1)
            assert decide(mask) == (maker_win_witness(spec, claims) is not None)

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=8), st.data())
    def test_aux_connect_matches_maker_win_witness(self, g, data):
        anchor = data.draw(st.frozensets(st.integers(min_value=0, max_value=g.n - 1)))
        spec = GameSpec(g, VERTICES, WinPredicate("aux-connect", anchor=anchor))
        decide = _Solver(spec).decide
        draws = data.draw(st.lists(st.integers(min_value=0), max_size=12))
        for mask in [0, (1 << g.n) - 1] + [d & ((1 << g.n) - 1) for d in draws]:
            claims = tuple(v for v in range(g.n) if mask >> v & 1)
            assert decide(mask) == (maker_win_witness(spec, claims) is not None)

    @pytest.mark.parametrize(
        "board_kind, objective",
        [(EDGES, WinPredicate("non-k-colorable", k=2)),
         (VERTICES, WinPredicate("non-k-colorable", k=2)),
         (EDGES, WinPredicate("k-edge-connected", k=2)),
         (VERTICES, WinPredicate("aux-connect", anchor=frozenset({0, 3})))],
    )
    def test_solve_builds_no_maker_graph(self, monkeypatch, board_kind, objective):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 4), (0, 5)])
        spec = GameSpec(g, board_kind, objective, breaker_bias=1)
        want = solve(spec)
        assert want.winner == solve_reference(spec)
        calls = []
        for module in (solver, engine):
            monkeypatch.setattr(module, "maker_win_witness", lambda *args: calls.append(args))
        monkeypatch.setattr(graphs, "induced_subgraph", lambda *args: calls.append(args))
        assert solve(spec) == want
        assert calls == []

    def test_one_vertex_host_is_spanning_connected_with_no_claims(self):
        spec = GameSpec(host=Graph(1), board_kind=EDGES,
                        objective=WinPredicate("spanning-connected"))
        assert _Solver(spec).decide(0) and maker_win_witness(spec, ()) is not None

    def test_even_cycle_with_a_pendant_triangle(self):
        # the triangle sits two layers away from the search root
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 4)])
        for board_kind in (EDGES, VERTICES):
            spec = GameSpec(host=g, board_kind=board_kind, objective=WinPredicate("odd-cycle"))
            decide = _Solver(spec).decide
            full = (1 << len(spec.board())) - 1
            assert decide(full)
            without = full & ~(1 << spec.board().index((5, 6) if board_kind == EDGES else 6))
            assert not decide(without)


class TestAgainstPreviousSolver:
    @settings(max_examples=150, deadline=None)
    @given(small_specs())
    def test_same_verdict_line_and_node_count(self, spec):
        assert solve(spec) == PreviousSolver(spec).verdict()

    def test_five_vertex_classes(self):
        for g in iso_classes(5):
            for b in (1, 2):
                spec = odd_cycle_spec(g, b=b)
                assert solve(spec) == PreviousSolver(spec).verdict()


@st.composite
def choice_specs(draw):
    """A spec on at most 10 board elements: ``odd-cycle`` or ``non-2-colorable``
    on either board, ``spanning-connected`` on edges or ``aux-connect`` on
    vertices, biases 1-3 and either player first."""
    kind = draw(st.sampled_from(
        ("odd-cycle", "spanning-connected", "non-k-colorable", "aux-connect")
    ))
    if kind == "spanning-connected":
        board_kind = EDGES
    elif kind == "aux-connect":
        board_kind = VERTICES
    else:
        board_kind = draw(st.sampled_from((EDGES, VERTICES)))
    if board_kind == EDGES:
        host = draw(random_graphs(max_n=7, max_edges=10))
    else:
        host = draw(random_graphs(max_n=10))
    anchor = None
    if kind == "aux-connect":
        anchor = frozenset(draw(st.sets(st.integers(0, host.n - 1), max_size=2)))
    return GameSpec(
        host=host,
        board_kind=board_kind,
        objective=WinPredicate(kind, k=2 if kind == "non-k-colorable" else None, anchor=anchor),
        maker_bias=draw(st.integers(min_value=1, max_value=3)),
        breaker_bias=draw(st.integers(min_value=1, max_value=3)),
        first=draw(st.sampled_from((MAKER, BREAKER))),
    )


class TestChooseAgainstReference:
    """``_Solver.choose`` gives the same verdict, node count and principal
    line as the node loop before it."""

    @settings(max_examples=150, deadline=None)
    @given(choice_specs())
    def test_same_verdict_nodes_and_line(self, spec):
        reference = SolverBeforeChoose(spec)
        maker_wins = reference.win(0, 0, spec.first)
        line = reference.principal_line()
        expected = SolveVerdict(MAKER if maker_wins else BREAKER, line, reference.nodes)
        assert solve(spec) == expected


def playout_winner(spec):
    """The winner when each turn is played through ``engine.apply_moves``:
    Maker tries every ordered batch (its turn ends at the first winning
    claim), Breaker every batch."""

    def walk(pos):
        free = legal_moves(spec, pos)
        if not free:
            return maker_win_witness(spec, pos.maker) is not None
        need = batch_size(spec, pos)
        if pos.to_move == MAKER:
            for batch in permutations(free, need):
                nxt, witness = apply_moves(spec, pos, MAKER, batch)
                if witness is not None or walk(nxt):
                    return True
            return False
        return all(
            walk(apply_moves(spec, pos, BREAKER, batch)[0])
            for batch in combinations(free, need)
        )

    return MAKER if walk(Position.initial(spec)) else BREAKER


@st.composite
def aux_connect_specs(draw):
    """aux-connect on a host of at most 5 vertices, Maker bias 2-3."""
    host = draw(random_graphs(max_n=5))
    anchor = frozenset(draw(st.sets(st.integers(0, host.n - 1), max_size=2)))
    return GameSpec(
        host=host,
        board_kind=VERTICES,
        objective=WinPredicate("aux-connect", anchor=anchor),
        maker_bias=draw(st.integers(min_value=2, max_value=3)),
        breaker_bias=draw(st.integers(min_value=1, max_value=2)),
        first=draw(st.sampled_from((MAKER, BREAKER))),
    )


class TestNonMonotoneTurns:
    """On ``aux-connect`` a batch can win on a prefix and lose as a whole;
    the solvers must score a Maker turn as ``apply_moves`` plays it."""

    def test_a_claim_that_wins_before_the_batch_undoes_it(self):
        spec = GameSpec(Graph(2), VERTICES, WinPredicate("aux-connect", anchor=frozenset()),
                        maker_bias=2)
        verdict = solve(spec)
        assert verdict.winner == solve_reference(spec) == playout_winner(spec) == MAKER
        assert verdict.principal_line == ((MAKER, (0,)),)
        assert apply_moves(spec, Position.initial(spec), MAKER, (0, 1))[0].maker == {0}

    @settings(max_examples=120, deadline=None)
    @given(aux_connect_specs())
    def test_solvers_match_the_apply_moves_playout(self, spec):
        verdict = solve(spec)
        assert verdict.winner == solve_reference(spec) == playout_winner(spec)
        # the principal line plays through apply_moves, each turn whole, and
        # ends in a Maker win exactly when Maker is the winner: on its last
        # Maker turn, or on the full board
        pos, witness = Position.initial(spec), None
        for player, elements in verdict.principal_line:
            pos, witness = apply_moves(spec, pos, player, elements)
            assert pos.log[-1] == (player, elements)
        if witness is None and not legal_moves(spec, pos):
            witness = maker_win_witness(spec, pos.maker)
        assert (witness is not None) == (verdict.winner == MAKER)


class TestAgainstReferenceOnMoreBoards:
    def test_aux_connect_win_that_the_full_board_would_undo(self):
        # claiming either vertex connects the union; claiming both does not
        spec = GameSpec(host=Graph(2), board_kind=VERTICES,
                        objective=WinPredicate("aux-connect", anchor=frozenset()))
        assert solve(spec).winner == solve_reference(spec) == MAKER

    @settings(max_examples=120, deadline=None)
    @given(small_specs(max_elements=7))
    def test_winner_matches_reference(self, spec):
        assert solve(spec).winner == solve_reference(spec)

    @pytest.mark.parametrize(
        "board_kind, kind, k",
        [(VERTICES, "odd-cycle", None), (VERTICES, "non-k-colorable", 2),
         (VERTICES, "aux-connect", None), (EDGES, "spanning-connected", None),
         (EDGES, "non-k-colorable", 2)],
    )
    def test_seeded_hosts(self, board_kind, kind, k):
        rng = random.Random(f"{board_kind}:{kind}")
        checked = 0
        while checked < 12:
            n = rng.randint(3, 7) if board_kind == VERTICES else rng.randint(3, 5)
            g = gnp(n, rng.choice([0.4, 0.6, 0.8]), rng.randrange(10_000))
            if len(g.edges if board_kind == EDGES else range(g.n)) > 7:
                continue
            anchor = frozenset({rng.randrange(n)}) if kind == "aux-connect" else None
            spec = GameSpec(
                host=g, board_kind=board_kind, objective=WinPredicate(kind, k=k, anchor=anchor),
                breaker_bias=rng.choice([1, 2]),
            )
            assert solve(spec).winner == solve_reference(spec)
            checked += 1
