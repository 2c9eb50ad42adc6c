"""Tests of the benchmark itself: every workload at a tiny size, the metric
names and units against BENCHMARK.json, and the output checks rejecting
corrupted results.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

from makerbreaker.engine import BREAKER, MAKER, play  # noqa: E402
from makerbreaker.graphs import Graph, OddCycleWitness  # noqa: E402
from makerbreaker.solver import solve  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, seed=3):
    if name == "vertex-game":
        gen = {"family": "complete_multipartite", "params": {"sizes": [3] * 7}, "seed": 0}
        breakers = (("random", 1), ("bipartite-guard", 2), ("cut-attack", 2))
        return W.GameWorkload(seed, **{**W.VERTEX_GAME, "generator": gen, "breakers": breakers})
    if name == "edge-game":
        gen = {"family": "complete_multipartite", "params": {"sizes": [1] * 8}, "seed": 0}
        breakers = (("random", 2), ("cut-attack", 2))
        return W.GameWorkload(seed, **{**W.EDGE_GAME, "generator": gen, "breakers": breakers,
                                       "breaker_bias": 2})
    if name == "certify":
        return W.CertifyWorkload(seed, sizes=(24,), pool=2, prefix_ops=2)
    strata = (("edges", "odd-cycle", None, 5, 8, 1), ("vertices", "odd-cycle", None, 0, 8, 2))
    return W.SolveWorkload(seed, strata=strata, passes=1)


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_reports_every_metric(name):
    ops, busy, failures = run.drive(tiny(name), seconds=0)
    assert failures == 0 and ops and not [op.errors for op in ops if op.errors]
    values = run.end_to_end(ops, busy, [0.5])
    assert {n: dict(run.END_TO_END)[n] for n in values} == declared("end_to_end")

    tracer = Tracer()
    with tracer.installed(W.MODULES, maker_idents=W.MAKER_IDENTS):
        tracer.active = True
        workload = tiny(name)
        tracer.active = False
        ops, busy, failures = run.drive(workload, seconds=0, tracer=tracer)
    assert failures == 0 and not [op.errors for op in ops if op.errors]
    layers = run.per_layer(tracer, ops, busy, workload.prefix_ops)
    assert {n: run.PER_LAYER_UNITS[n] for n in layers} == declared("per_layer")
    assert len(tracer) > 0


def test_tracing_is_undone_after_the_run():
    before = W.engine.maker_win_witness, W.solver.maker_win_witness, W.harness.play
    with Tracer().installed(W.MODULES):
        assert W.solver.maker_win_witness is not before[1]
    assert (W.engine.maker_win_witness, W.solver.maker_win_witness, W.harness.play) == before


def test_flipped_verdict_fails_the_check():
    spec = W.SolveWorkload._spec(Graph.complete(5), "edges", "odd-cycle", None, 1)
    verdict = solve(spec)
    assert W.check_verdict(spec, verdict) == []
    flipped = BREAKER if verdict.winner == MAKER else MAKER
    assert W.check_verdict(spec, dataclasses.replace(verdict, winner=flipped))
    short_line = dataclasses.replace(verdict, principal_line=verdict.principal_line[:-1])
    assert W.check_verdict(spec, short_line)


def test_corrupted_verdicts_count_as_failed_ops():
    class Flipped(W.SolveWorkload):
        def call(self, k, first_op):
            seconds, (spec, verdict) = super().call(k, first_op)
            flipped = BREAKER if verdict.winner == MAKER else MAKER
            return seconds, (spec, dataclasses.replace(verdict, winner=flipped))

    workload = Flipped(0, strata=(), passes=1, prefix_ops=4)
    ops, _, _ = run.drive(workload, seconds=0)
    assert len(ops) == 4 and all(op.errors for op in ops)


def test_broken_witnesses_fail_the_check():
    workload = tiny("vertex-game")
    maker = W.harness.build_strategy(workload.maker, workload.spec.host)
    breaker = W.harness.build_strategy("random", workload.spec.host)
    result = play(workload.spec, maker, breaker, seed=1)
    assert result.reason == "objective" and W.check_game(workload.spec, result) == []
    cycle = result.witness.vertices
    outside = next(v for v in range(workload.spec.host.n) if v not in result.position.maker)
    for bad in (cycle[:-1], (outside,) + cycle[1:]):
        broken = dataclasses.replace(result, witness=OddCycleWitness(bad))
        assert W.check_game(workload.spec, broken)

    workload = tiny("edge-game")
    maker = W.harness.build_strategy(workload.maker, workload.spec.host)
    result = play(workload.spec, maker, W.harness.build_strategy("random", workload.spec.host))
    assert result.reason == "objective" and W.check_game(workload.spec, result) == []
    w = result.witness
    broken = dataclasses.replace(result, witness=dataclasses.replace(w, elements=w.elements[1:]))
    assert W.check_game(workload.spec, broken)
    exhausted = dataclasses.replace(result, reason="exhausted", winner=BREAKER, witness=None)
    assert W.check_game(workload.spec, exhausted)


def test_digest_mismatch_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT", tmp_path / ".bench_out")
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"solve": "a" * 64}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    assert run.check_digest("solve", run.DEFAULT_SEED, "a" * 64) is None
    assert run.check_digest("solve", run.DEFAULT_SEED, "b" * 64)
    assert run.check_digest("solve", 5, "c" * 64) is None
    assert run.check_digest("solve", 5, "c" * 64) is None
    assert run.check_digest("solve", 5, "d" * 64)


def test_five_vertex_classes_are_the_34_isomorphism_classes():
    def canonical(edges):
        return min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in permutations(range(5))
        )

    pairs = list(combinations(range(5), 2))
    every = {
        canonical([pairs[i] for i in range(10) if mask >> i & 1]) for mask in range(1 << 10)
    }
    table = [canonical(g.edges) for g in W.five_vertex_classes()]
    assert len(table) == len(set(table)) == 34 and set(table) == every


def test_run_prints_the_result_line():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "solve", "--seed", "0",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared(section)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout
