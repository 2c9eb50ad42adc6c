"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 re-validates
every Maker win produced by the earlier criteria, so the module accumulates
game results as it goes and must run in file order (pytest's default).
"""

import math
import random
from fractions import Fraction

from conftest import (
    forced_dense_edge_maker,
    forced_dense_vertex_maker,
    iso_classes,
    sample_uniform_vertices,
)
from makerbreaker.connectivity import vertex_connectivity
from makerbreaker.decompose import highly_connected_partition, robust_partition
from makerbreaker.engine import (
    EDGES,
    MAKER,
    VERTICES,
    GameSpec,
    WinPredicate,
    format_transcript,
    play,
)
from makerbreaker.errors import PreconditionError
from makerbreaker.generators import complete_multipartite, gnp
from makerbreaker.graphs import (
    Graph,
    frac_ceil,
    induced_subgraph,
    min_degree,
    verify_odd_cycle,
)
from makerbreaker.harness import ExperimentConfig, run_experiment
from makerbreaker.solver import solve, solve_reference, verify_maker_strategy
from makerbreaker.strategies import (
    BipartiteGuardBreaker,
    ConnectivityMaker,
    CutAttackBreaker,
    RandomStrategy,
    bound_report,
    dominates,
)

COLLECTED_WINS = []  # (host, GameResult) pairs accumulated for criterion 9


def _passed(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def odd_cycle_spec(g, b=1):
    return GameSpec(
        host=g, board_kind=EDGES, objective=WinPredicate("odd-cycle"), breaker_bias=b
    )


def test_1_oracle_agreement():
    classes = iso_classes(5)
    assert len(classes) == 34
    for g in classes:
        for b in (1, 2):
            spec = odd_cycle_spec(g, b)
            assert solve(spec).winner == solve_reference(spec)
    assert solve(odd_cycle_spec(Graph.complete(3))).winner == "breaker"
    assert solve(odd_cycle_spec(Graph.cycle(5))).winner == "breaker"
    _passed(1, "oracle agreement on the 5-vertex corpus")


def test_2_strategy_soundness_relation():
    always_wins_seen = 0
    for g in iso_classes(5):
        for b in (1, 2):
            spec = odd_cycle_spec(g, b)
            verdict = solve(spec).winner
            makers = [ConnectivityMaker(g)]
            if g.m > 0 and min_degree(g) > 0:
                try:
                    makers.append(
                        forced_dense_edge_maker(g, Fraction(min_degree(g), g.n))
                    )
                except (PreconditionError, RuntimeError):
                    pass
            for maker in makers:
                res = verify_maker_strategy(spec, maker)
                if res.always_wins:
                    always_wins_seen += 1
                    assert verdict == MAKER
    for n in (5, 6):
        g = Graph.complete(n)
        spec = GameSpec(
            host=g, board_kind=EDGES, objective=WinPredicate("spanning-connected")
        )
        res = verify_maker_strategy(spec, ConnectivityMaker(g))
        if res.always_wins:
            always_wins_seen += 1
            assert solve(spec).winner == MAKER
    assert always_wins_seen >= 2  # the spanning instances are real positives
    _passed(2, "verified strategies never contradict the solver")


def _corpus():
    for i in range(50):
        n = 24 + (i % 25)
        yield i, gnp(n, 0.5, 1000 + i)


def test_3_partition_certificates():
    for i, g in _corpus():
        k = min_degree(g)
        assert k >= 1
        partition = highly_connected_partition(g, k)
        target = frac_ceil(Fraction(k * k, 16 * g.n))
        for part in partition.parts:
            assert Fraction(len(part)) >= Fraction(k, 8)
            sub, _ = induced_subgraph(g, part)
            if sub.n >= 2:
                assert vertex_connectivity(sub) >= target
            else:
                assert target <= 0
    _passed(3, "partition size and connectivity certificates, 50/50 runs")


def test_4_pointwise_part_degrees():
    for i, g in _corpus():
        delta = Fraction(min_degree(g), g.n)
        rp = robust_partition(g, delta, seed=i)
        assert rp.split_count <= frac_ceil(1 / delta)
        floor = delta * delta * g.n
        covered = set()
        for part in rp.parts:
            assert not covered & part
            covered |= part
            for v in part:
                assert Fraction(g.degree_into(v, part)) >= floor
        assert covered == set(range(g.n))
    _passed(4, "pointwise internal-degree floor after relocation, 50/50 runs")


def test_5_vertex_game_pipeline():
    g = complete_multipartite([40] * 7)
    # chromatic number 7 only meets the threshold 2(b+1)/delta = 7 with
    # equality, so the strict hypothesis gate is bypassed explicitly
    maker = forced_dense_vertex_maker(g, Fraction(6, 7), 2)
    spec = GameSpec(
        host=g, board_kind=VERTICES, objective=WinPredicate("odd-cycle"), breaker_bias=2
    )
    for breaker in (RandomStrategy(), BipartiteGuardBreaker(), CutAttackBreaker()):
        wins = 0
        for seed in range(100):
            result = play(spec, maker, breaker, seed=seed)
            if result.winner == MAKER and not result.forfeit:
                wins += 1
                assert verify_odd_cycle(g, result.witness)
                assert set(result.witness.vertices) <= result.position.maker
                assert len(result.witness.vertices) <= 9
                COLLECTED_WINS.append((g, result))
        assert wins >= 95, f"only {wins}/100 against {type(breaker).__name__}"
    _passed(5, "vertex-game pipeline wins >= 95% against all three breakers")


def test_6_bound_report_exactness():
    report = bound_report(2**30, Fraction(4, 5), 2)
    # independent integer-arithmetic rederivation of the bias cap
    assert report.b_max == (16 * 2**30) // (25 * 6400 * 30 * 30) == 119
    for n, delta in ((2**10, Fraction(1, 3)), (12345, Fraction(4, 5)), (500, Fraction(1, 2))):
        rep = bound_report(n, delta)
        assert rep.dominating_size == math.ceil(
            100 * math.log(n) / (delta.numerator / delta.denominator) ** 2
        )
        # the union bound n * exp(-(d^2/2) * 100 ln(n) / d^2) = n^(1-50)
        assert rep.failure_exponent == -49
    assert bound_report(2**20, Fraction(4, 5)).b_max == 0
    _passed(6, "bound report matches independent rederivations exactly")


def test_7_domination_sampling():
    h = complete_multipartite([250, 250])
    budget = bound_report(h.n, Fraction(1, 2)).dominating_size
    assert budget == math.ceil(100 * math.log(500) / 0.25)
    dominated = 0
    for seed in range(1000):
        rng = random.Random(seed)
        sample = sample_uniform_vertices(h, budget, rng)
        if dominates(h.neighbor_masks(), sum(1 << v for v in sample), (1 << h.n) - 1):
            dominated += 1
    assert dominated >= 990
    _passed(7, f"budgeted random sets dominate in {dominated}/1000 samples")


def test_8_determinism():
    g = complete_multipartite([3] * 7)
    spec = GameSpec(
        host=g, board_kind=VERTICES, objective=WinPredicate("odd-cycle"), breaker_bias=2
    )
    maker = forced_dense_vertex_maker(g, Fraction(6, 7), 2)
    texts = []
    for _ in range(2):
        result = play(spec, maker, RandomStrategy(), seed=77)
        texts.append(format_transcript(spec, result, "m", "b"))
    assert texts[0] == texts[1]

    k5 = odd_cycle_spec(Graph.complete(5))
    v1, v2 = solve(k5), solve(k5)
    assert (v1.winner, v1.principal_line) == (v2.winner, v2.principal_line)

    config = ExperimentConfig.from_dict(
        {
            "generator": {
                "family": "complete_multipartite",
                "params": {"sizes": [3] * 7},
                "seed": 0,
            },
            "board_kind": "vertices",
            "objective": {"kind": "odd-cycle"},
            "maker": "dense-vertex(delta=6/7,b=2,force=true)",
            "breaker": "random",
            "maker_bias": 1,
            "breaker_bias": 2,
            "first": "maker",
            "trials": 10,
            "seed_base": 0,
        }
    )
    d1 = run_experiment(config)
    d2 = run_experiment(config)
    assert d1.canonical_json() == d2.canonical_json()
    _passed(8, "repeated play/solve/experiment runs are byte-identical")


def test_9_witness_validity():
    assert len(COLLECTED_WINS) >= 285  # at least 95% of 300 pipeline games
    for host, result in COLLECTED_WINS:
        witness = result.witness
        assert len(witness.vertices) % 2 == 1
        assert verify_odd_cycle(host, witness)
        assert set(witness.vertices) <= result.position.maker
    _passed(9, f"all {len(COLLECTED_WINS)} collected witnesses re-validate")
