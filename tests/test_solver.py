import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedStrategy, random_graphs
from makerbreaker.engine import (
    BREAKER,
    EDGES,
    MAKER,
    GameSpec,
    Position,
    Strategy,
    WinPredicate,
    apply_moves,
    format_transcript,
    maker_win_witness,
    parse_transcript,
    play,
    replay_transcript,
)
from makerbreaker.errors import DomainError, ResourceLimitError
from makerbreaker.generators import gnp
from makerbreaker.graphs import Graph
from makerbreaker.solver import solve, solve_reference, verify_maker_strategy
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
                replayed = replay_transcript(spec, parse_transcript(text))
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

    def test_requires_position_pure(self):
        from makerbreaker.strategies import RandomStrategy

        spec = odd_cycle_spec(Graph.complete(3))
        with pytest.raises(DomainError):
            verify_maker_strategy(spec, RandomStrategy())
