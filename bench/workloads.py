"""The benchmark's four workloads and the checks on their outputs.

Each workload is built from a seed (its set-up), then driven in a closed loop
by ``run.py``: ``call(k, first_op)`` makes the k-th timed call into the
library, and ``finish`` turns what it returned into one ``Op`` per op, with
the output checks and the digest text.  ``finish`` runs outside the timed
call and outside tracing.

The library is reached only through public entry points: ``harness``,
``engine.play``, the ``decompose`` functions, ``solver.solve`` and the
kernels' certificate checkers.  Calls go through the module attribute
(``decompose.robust_partition(...)``) so that the traced run can wrap
them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from tracing import replace_everywhere, restore

from makerbreaker import (
    coloring,
    connectivity,
    decompose,
    engine,
    generators,
    graphs,
    harness,
    solver,
)

MODULES = {
    m.__name__.rpartition(".")[2]: m
    for m in (coloring, connectivity, decompose, engine, generators, graphs, harness, solver)
}
MAKER, BREAKER = engine.MAKER, engine.BREAKER

# One representative per isomorphism class of graphs on five vertices (34),
# as edge lists written "uv uv ...".
FIVE_VERTEX_CLASSES = (
    "", "01", "01 02", "01 02 03", "01 02 03 04", "01 02 12", "01 23",
    "01 02 13", "01 02 03 12", "01 02 34", "01 02 03 14", "01 02 03 04 12",
    "01 02 13 23", "01 02 03 12 13", "01 02 13 24", "01 02 03 12 14",
    "01 02 03 14 24", "01 02 03 04 12 13", "01 02 03 14 24 34",
    "01 02 03 04 12 13 14", "01 02 03 12 13 23", "01 02 12 34",
    "01 02 03 12 34", "01 02 03 12 13 24", "01 02 03 04 12 13 23",
    "01 02 03 04 12 34", "01 02 13 24 34", "01 02 03 12 14 34",
    "01 02 03 04 12 13 24", "01 02 03 12 13 24 34",
    "01 02 03 04 12 13 14 23", "01 02 03 04 12 13 24 34",
    "01 02 03 04 12 13 14 23 24", "01 02 03 04 12 13 14 23 24 34",
)


def five_vertex_classes() -> list:
    return [
        graphs.Graph(5, [(int(p[0]), int(p[1])) for p in text.split()])
        for text in FIVE_VERTEX_CLASSES
    ]


@contextmanager
def replaced(original, replacement):
    changed = replace_everywhere(original, replacement)
    try:
        yield
    finally:
        restore(changed)


# -- output checks -------------------------------------------------------------


def objective_holds(spec, claims) -> bool:
    """Whether Maker's claims meet the objective, decided by the kernels
    directly rather than through the engine's win check."""
    obj, host = spec.objective, spec.host
    if spec.board_kind == engine.EDGES:
        g = graphs.Graph(host.n, claims)
    else:
        g, _ = graphs.induced_subgraph(host, claims)
    if obj.kind == "odd-cycle":
        return isinstance(graphs.find_odd_cycle(g), graphs.OddCycleWitness)
    if obj.kind == "non-k-colorable":
        return coloring.is_k_colorable(g, obj.k) is None
    if obj.kind == "spanning-connected":
        return host.n >= 1 and graphs.is_connected(g)
    raise ValueError(f"the benchmark does not check objective {obj.kind!r}")


def check_game(spec, result) -> list:
    """Problems with one finished game; an empty list means it checks out."""
    errors = []
    pos, host = result.position, spec.host
    board = set(spec.board())
    if pos.maker & pos.breaker or not (pos.maker | pos.breaker) <= board:
        errors.append("claims overlap or leave the board")
    if result.reason == "objective":
        w = result.witness
        if result.winner != MAKER or w is None:
            errors.append("objective win without a Maker witness")
        elif spec.objective.kind == "odd-cycle":
            if not isinstance(w, graphs.OddCycleWitness):
                errors.append("odd-cycle win without a cycle witness")
            elif spec.board_kind == engine.VERTICES:
                if not set(w.vertices) <= pos.maker or not graphs.verify_odd_cycle(host, w):
                    errors.append("odd-cycle witness does not verify")
            elif not graphs.verify_odd_cycle(graphs.Graph(host.n, pos.maker), w):
                errors.append("odd-cycle witness does not verify")
        else:
            if w.property != spec.objective.kind or not set(w.elements) <= pos.maker:
                errors.append("claim-set witness does not match the claims")
            elif not objective_holds(spec, w.elements):
                errors.append("claim-set witness does not meet the objective")
    elif result.reason == "exhausted":
        if result.winner != BREAKER or len(pos.maker | pos.breaker) != len(board):
            errors.append("exhausted game with a bad winner or an unclaimed board")
        elif objective_holds(spec, pos.maker):
            errors.append("Breaker credited although Maker's claims meet the objective")
    elif result.reason == "forfeit":
        loser = result.forfeited_by
        if not result.forfeit or loser not in (MAKER, BREAKER) or result.winner == loser:
            errors.append("inconsistent forfeit")
    else:
        errors.append(f"unknown reason {result.reason!r}")
    return errors


def check_verdict(spec, verdict) -> list:
    """A verdict must agree with its own principal line: replaying the line,
    Maker's claims meet the objective exactly when Maker is the winner."""
    if verdict.winner not in (MAKER, BREAKER):
        return [f"unknown winner {verdict.winner!r}"]
    board = set(spec.board())
    claimed: set = set()
    maker: set = set()
    mover = spec.first
    for player, elements in verdict.principal_line:
        need = min(spec.bias_of(player), len(board) - len(claimed))
        if player != mover or len(set(elements)) != need:
            return ["principal line has a malformed turn"]
        if not set(elements) <= board - claimed:
            return ["principal line claims an unavailable element"]
        claimed |= set(elements)
        if player == MAKER:
            maker |= set(elements)
        mover = BREAKER if player == MAKER else MAKER
    if objective_holds(spec, maker) != (verdict.winner == MAKER):
        return ["verdict contradicts its principal line"]
    return []


def _json_digest(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=repr)


# -- workloads -----------------------------------------------------------------


@dataclass
class Op:
    """One finished op: its wall time (None: the whole call), its problems,
    and its digest text."""

    seconds: float
    errors: list
    digest: str
    forfeit: bool = False
    nodes: int = 0


class Workload:
    """What ``run.py`` drives: ``prefix_ops``, ``installed``, ``call``, ``finish``."""

    prefix_ops = 0

    @contextmanager
    def installed(self, tracer=None):
        """Anything the workload patches for the length of a run."""
        yield


class GameWorkload(Workload):
    """Games driven through ``harness.run_experiment``; one op is one game.

    Each call runs one experiment against each Breaker, with the number of
    trials ``breakers`` gives it and trial seeds derived from the workload
    seed.  Per-game wall time is taken at ``engine.play``, which the harness
    calls once per trial.
    """

    def __init__(self, seed, *, generator, board_kind, objective, maker, breakers,
                 breaker_bias):
        self.seed = seed
        self.maker = maker
        self.breakers = breakers
        self.prefix_ops = sum(trials for _, trials in breakers)
        self.base = {
            "generator": generator,
            "board_kind": board_kind,
            "objective": objective,
            "maker": maker,
            "maker_bias": 1,
            "breaker_bias": breaker_bias,
            "first": MAKER,
        }
        gen = generator
        host = generators.generate(gen["family"], gen["params"], gen["seed"])
        # Build every strategy once, as the first experiment would: this is
        # where the Maker's decomposition runs and is cached by the harness.
        for ident in (maker, *(b for b, _ in breakers)):
            harness.build_strategy(ident, host)
        self.spec = harness.ExperimentConfig.from_dict(
            {**self.base, "breaker": breakers[0][0], "seed_base": 0}
        ).game_spec(host)
        self._games: list = []
        self._first_op = 0

    @contextmanager
    def installed(self, tracer=None):
        """Time each game at ``engine.play`` for the duration of the run; with
        a tracer, give each game its own op id."""
        play = engine.play
        games = self._games

        def timed_play(spec, maker, breaker, seed=0):
            if tracer is not None:
                tracer.op = self._first_op + len(games)
            t0 = time.perf_counter()
            result = play(spec, maker, breaker, seed=seed)
            games.append((time.perf_counter() - t0, result))
            return result

        with replaced(play, timed_play):
            yield

    def call(self, k, first_op):
        """One experiment against each Breaker in turn, so that every call
        plays the same mix of opponents."""
        self._games.clear()
        self._first_op = first_op
        configs = [
            harness.ExperimentConfig.from_dict(
                {**self.base, "breaker": breaker, "trials": trials,
                 "seed_base": self.seed * 1_000_000 + k * 1000}
            )
            for breaker, trials in self.breakers
        ]
        t0 = time.perf_counter()
        docs = [harness.run_experiment(config) for config in configs]
        seconds = time.perf_counter() - t0
        return seconds, (docs, list(self._games))

    def finish(self, raw):
        docs, games = raw
        ops = []
        for (breaker, trials), doc in zip(self.breakers, docs):
            played, games = games[:trials], games[trials:]
            doc_errors = []
            if len(played) != trials or len(doc.rows) != trials:
                doc_errors.append("experiment did not play every trial once")
            if doc.aggregates["errors"] or any("error" in r for r in doc.rows):
                doc_errors.append("experiment recorded a failed trial")
            for i, (game_s, result) in enumerate(played):
                errors = doc_errors + check_game(self.spec, result)
                row = doc.rows[i] if i < len(doc.rows) else {}
                if (row.get("winner"), row.get("rounds"), row.get("reason")) != (
                    result.winner, result.rounds, result.reason
                ):
                    errors.append("result row does not match the game")
                game = [breaker, result.winner, result.reason, result.rounds,
                        result.forfeited_by, result.position.log, result.witness]
                digest = _json_digest(game) + (doc.canonical_json() if i == 0 else "")
                ops.append(Op(game_s, errors, digest, forfeit=result.forfeit))
        return ops


# Median minimum degree of gnp(n, 1/2), from 300 samples per n.  Certify hosts
# are drawn with exactly this minimum degree, so hosts of one size do
# comparable work and a run's cost does not hinge on a few outliers.
MEDIAN_MIN_DEGREE = {24: 7, 36: 12, 40: 13, 44: 14, 48: 16}


class CertifyWorkload(Workload):
    """Decompositions of seeded dense random hosts with every certificate
    re-verified by the kernels; one op is one host.

    Hosts are gnp(n, 1/2) with the median minimum degree for n, and n takes
    each of ``sizes`` once per pass, in an order the seed shuffles per pass.
    With five sizes the median op and the tail op each fall inside one size
    class.  Most 24-vertex hosts reach robust_partition's exhaustive
    balanced-cut search (20 to 350 ms); from 34 vertices up the minimum degree
    is too high for it to run.  Sizes 25 to 33 are left out: there the search
    takes up to 2.5 s on a third or more of hosts, so a run's totals would
    hinge on how many of those it drew.
    """

    def __init__(self, seed, *, sizes=(24, 36, 40, 44, 48), pool=150, prefix_ops=8):
        rng = random.Random(f"certify:{seed}")
        sizes = list(sizes)
        self.hosts = []
        while len(self.hosts) < pool:
            order = sizes[:]
            rng.shuffle(order)
            for n in order:
                g = generators.gnp(n, 0.5, rng.randrange(2**32))
                while graphs.min_degree(g) != MEDIAN_MIN_DEGREE[n]:
                    g = generators.gnp(n, 0.5, rng.randrange(2**32))
                self.hosts.append(g)
        self.hosts = self.hosts[:pool]
        self.prefix_ops = prefix_ops

    def call(self, k, first_op):
        g = self.hosts[k % len(self.hosts)]
        t0 = time.perf_counter()
        errors, summary = self.certify(g, seed=k)
        return time.perf_counter() - t0, (errors, summary)

    def finish(self, raw):
        errors, summary = raw
        return [Op(None, errors, _json_digest(summary))]

    def certify(self, g, seed):
        n = g.n
        k = graphs.min_degree(g)
        delta = Fraction(k, n)
        errors = []

        part = decompose.highly_connected_partition(g, k)
        if not part.covers(n):
            errors.append("highly connected parts do not cover the host")
        for members, guarantee in zip(part.parts, part.guarantees):
            if Fraction(len(members)) < Fraction(k, 8) or guarantee.size != len(members):
                errors.append("highly connected part below its size floor")
            sub, _ = graphs.induced_subgraph(g, members)
            if sub.n >= 2 and connectivity.vertex_connectivity(sub) < part.certified_connectivity:
                errors.append("highly connected part below its certified connectivity")

        rp = decompose.robust_partition(g, delta, seed=seed)
        floor = delta * delta * n
        covered: set = set()
        for members, stats in zip(rp.parts, rp.part_stats):
            if covered & members:
                errors.append("robust parts overlap")
            covered |= members
            degrees = [g.degree_into(v, members) for v in members]
            if any(Fraction(d) < floor for d in degrees):
                errors.append("robust part breaks the pointwise degree floor")
            if stats.size != len(members) or stats.min_internal_degree != min(degrees):
                errors.append("robust part stats do not match the part")
        if covered != set(range(n)) or len(rp.parts) != len(rp.part_stats):
            errors.append("robust parts do not cover the host")

        core = decompose.extract_bipartite_core(g, delta, force=True)
        u, v = core.witness_edge
        if core.a & core.b or not (u in core.a and v in core.a and g.has_edge(u, v)):
            errors.append("bipartite core sides or witness edge are wrong")
        h_min = min(g.degree_into(x, core.b if x in core.a else core.a) for x in core.a | core.b)
        if h_min != core.h_min_degree:
            errors.append("bipartite core minimum degree is wrong")
        crossing, _ = decompose.core_graph(g, core)
        if not connectivity.vertex_connectivity_at_least(crossing, core.certified_connectivity):
            errors.append("bipartite core below its certified connectivity")

        summary = {
            "n": n,
            "hcp": [sorted(p) for p in part.parts],
            "hcp_cert": part.certified_connectivity,
            "rp": [sorted(p) for p in rp.parts],
            "rp_moved": sorted(rp.moved),
            "rp_splits": rp.split_count,
            "rp_stats": [repr(s) for s in rp.part_stats],
            "core": [sorted(core.a), sorted(core.b), core.witness_edge,
                     core.certified_connectivity, core.h_min_degree],
        }
        return errors, summary


# (board kind, objective, k, host vertices for edge boards, elements, Breaker
# bias).  Each stratum was chosen so that its solves stay within a narrow
# band, a few to about two hundred milliseconds, whatever host the seed
# draws (checked over 150 hosts each); wider strata, such as odd-cycle on 18
# edges at 1:1 or on 14 vertices at 1:1, let a single board set a run's tail
# and peak memory.  Boards of at most REFERENCE_ELEMENTS are
# also cross-checked against the plain reference solver.
SOLVE_STRATA = (
    ("edges", "odd-cycle", None, 6, 12, 1),
    ("edges", "odd-cycle", None, 6, 10, 2),
    ("edges", "odd-cycle", None, 6, 12, 2),
    ("edges", "spanning-connected", None, 6, 12, 1),
    ("edges", "spanning-connected", None, 7, 16, 2),
    ("edges", "spanning-connected", None, 7, 18, 3),
    ("edges", "non-k-colorable", 2, 6, 12, 1),
    ("vertices", "odd-cycle", None, 0, 12, 2),
    ("vertices", "odd-cycle", None, 0, 10, 2),
    ("vertices", "non-k-colorable", 3, 0, 12, 2),
)
REFERENCE_ELEMENTS = 10


class SolveWorkload(Workload):
    """Exhaustive solves; one op is one board.

    A pass is the 34 five-vertex classes at 1:1 and 1:2 (odd-cycle, edge
    board), then one seeded random board per stratum.
    """

    def __init__(self, seed, *, strata=SOLVE_STRATA, passes=60, prefix_ops=None):
        rng = random.Random(f"solve:{seed}")
        fixed = [
            self._spec(g, "edges", "odd-cycle", None, b)
            for g in five_vertex_classes()
            for b in (1, 2)
        ]
        self.boards = []
        for _ in range(passes):
            self.boards += fixed
            for kind, obj, k, nv, elements, b in strata:
                if kind == "edges":
                    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
                    host = graphs.Graph(nv, rng.sample(pairs, elements))
                else:
                    host = generators.gnp(elements, 0.5, rng.randrange(2**32))
                self.boards.append(self._spec(host, kind, obj, k, b))
        self.prefix_ops = prefix_ops or len(fixed) + len(strata)

    @staticmethod
    def _spec(host, kind, obj, k, b):
        return engine.GameSpec(
            host=host, board_kind=kind,
            objective=engine.WinPredicate(obj, k=k), breaker_bias=b,
        )

    def call(self, k, first_op):
        spec = self.boards[k % len(self.boards)]
        t0 = time.perf_counter()
        verdict = solver.solve(spec)
        return time.perf_counter() - t0, (spec, verdict)

    def finish(self, raw):
        spec, verdict = raw
        errors = check_verdict(spec, verdict)
        # The fixed five-vertex boards are cross-checked by the acceptance suite.
        if not errors and len(spec.board()) <= REFERENCE_ELEMENTS and spec.host.n != 5:
            if solver.solve_reference(spec) != verdict.winner:
                errors.append("solver and reference solver disagree")
        digest = _json_digest([verdict.winner, verdict.principal_line])
        return [Op(None, errors, digest, nodes=verdict.nodes_expanded)]


VERTEX_GAME = dict(
    generator={"family": "complete_multipartite", "params": {"sizes": [40] * 7}, "seed": 0},
    board_kind="vertices",
    objective={"kind": "odd-cycle"},
    maker="dense-vertex(delta=6/7,b=2,force=true)",
    # Fewer games against the random Breaker, which are about half as long,
    # keep the median game inside the main mode of the game-time distribution.
    breakers=(("random", 10), ("bipartite-guard", 30), ("cut-attack", 30)),
    breaker_bias=2,
)
EDGE_GAME = dict(
    generator={"family": "complete_multipartite", "params": {"sizes": [1] * 40}, "seed": 0},
    board_kind="edges",
    objective={"kind": "spanning-connected"},
    maker="connectivity",
    breakers=(("random", 4), ("cut-attack", 4)),
    breaker_bias=4,
)

MAKER_IDENTS = {VERTEX_GAME["maker"], EDGE_GAME["maker"]}
WORKLOADS = {
    "vertex-game": lambda seed: GameWorkload(seed, **VERTEX_GAME),
    "edge-game": lambda seed: GameWorkload(seed, **EDGE_GAME),
    "certify": lambda seed: CertifyWorkload(seed),
    "solve": lambda seed: SolveWorkload(seed),
}


def digest_of(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()
