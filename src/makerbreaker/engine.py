"""Maker-Breaker game state machine.

Boards are either the edge set or the vertex set of a host graph.  Maker
claims ``a`` elements per turn, Breaker ``b``; the final turn of the board may
be short.  ``apply_moves`` is the one place a turn is checked and applied:
Maker's win is detected after every individual claim and ends the turn there,
so witnesses always reflect the earliest winning prefix, and all winning
predicates are monotone in Maker's claim set.  A strategy that cannot (or will
not) produce a legal batch forfeits; the forfeit convention applies to both
players.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coloring import is_k_colorable
from .connectivity import edge_connectivity
from .errors import DomainError, IllegalMoveError
from .graphs import (
    Graph,
    OddCycleWitness,
    find_odd_cycle,
    induced_subgraph,
    is_connected,
)

MAKER = "maker"
BREAKER = "breaker"

EDGES = "edges"
VERTICES = "vertices"

_EDGE_KINDS = {"odd-cycle", "non-k-colorable", "spanning-connected", "k-edge-connected"}
_VERTEX_KINDS = {"odd-cycle", "non-k-colorable", "aux-connect"}


@dataclass(frozen=True)
class WinPredicate:
    """Monotone winning condition evaluated on Maker's claims."""

    kind: str
    k: int | None = None
    anchor: frozenset | None = None

    def __post_init__(self):
        if self.kind in ("non-k-colorable", "k-edge-connected"):
            if self.k is None or self.k < 1:
                raise DomainError(f"{self.kind} needs a positive k")
        elif self.k is not None:
            raise DomainError(f"{self.kind} takes no k")
        if self.kind == "aux-connect":
            if self.anchor is None:
                raise DomainError("aux-connect needs an anchor vertex set")
        elif self.anchor is not None:
            raise DomainError(f"{self.kind} takes no anchor")

    def token(self) -> str:
        if self.kind == "non-k-colorable":
            return f"non-{self.k}-colorable"
        if self.kind == "k-edge-connected":
            return f"{self.k}-edge-connected"
        if self.kind == "aux-connect":
            return "aux-connect " + ",".join(str(v) for v in sorted(self.anchor))
        return self.kind

    @classmethod
    def from_token(cls, token: str) -> "WinPredicate":
        token = token.strip()
        if token == "odd-cycle":
            return cls("odd-cycle")
        if token == "spanning-connected":
            return cls("spanning-connected")
        if token.startswith("non-") and token.endswith("-colorable"):
            return cls("non-k-colorable", k=int(token[4:-10]))
        if token.endswith("-edge-connected"):
            return cls("k-edge-connected", k=int(token[: -len("-edge-connected")]))
        if token.startswith("aux-connect"):
            rest = token[len("aux-connect") :].strip()
            anchor = frozenset(int(x) for x in rest.split(",") if x)
            return cls("aux-connect", anchor=anchor)
        raise DomainError(f"unknown objective token: {token!r}")


@dataclass(frozen=True)
class GameSpec:
    host: Graph
    board_kind: str
    objective: WinPredicate
    maker_bias: int = 1
    breaker_bias: int = 1
    first: str = MAKER

    def __post_init__(self):
        if self.board_kind not in (EDGES, VERTICES):
            raise DomainError(f"unknown board kind {self.board_kind!r}")
        if self.maker_bias < 1 or self.breaker_bias < 1:
            raise DomainError("biases must be positive")
        if self.first not in (MAKER, BREAKER):
            raise DomainError(f"unknown first player {self.first!r}")
        allowed = _EDGE_KINDS if self.board_kind == EDGES else _VERTEX_KINDS
        if self.objective.kind not in allowed:
            raise DomainError(
                f"objective {self.objective.kind!r} is not playable on {self.board_kind}"
            )

    # Built on first use and kept, so that building a spec stays cheap.
    @cached_property
    def _board(self) -> tuple:
        if self.board_kind == EDGES:
            return tuple(sorted(self.host.edges))
        return tuple(range(self.host.n))

    @cached_property
    def board_set(self) -> frozenset:
        return frozenset(self._board)

    def board(self) -> tuple:
        return self._board

    def bias_of(self, player: str) -> int:
        return self.maker_bias if player == MAKER else self.breaker_bias


@dataclass(frozen=True)
class Position:
    maker: frozenset
    breaker: frozenset
    to_move: str
    log: tuple = ()

    @classmethod
    def initial(cls, spec: GameSpec) -> "Position":
        return cls(maker=frozenset(), breaker=frozenset(), to_move=spec.first)

    def claimed(self) -> frozenset:
        return self.maker | self.breaker


@dataclass(frozen=True)
class ClaimSetWitness:
    """Certificate made of claimed elements plus the property they exhibit."""

    elements: tuple
    property: str
    k: int | None = None


@dataclass(frozen=True)
class GameResult:
    winner: str
    witness: object
    rounds: int
    position: Position
    reason: str  # "objective" | "exhausted" | "forfeit"
    forfeit: bool = False
    forfeited_by: str | None = None


def legal_moves(spec: GameSpec, pos: Position) -> list:
    board = spec.board_set
    if pos.maker & pos.breaker:
        raise DomainError("maker and breaker claims overlap")
    if not pos.maker <= board or not pos.breaker <= board:
        raise DomainError("claims outside the board")
    claimed = pos.maker | pos.breaker
    return [e for e in spec.board() if e not in claimed]


def batch_size(spec: GameSpec, pos: Position) -> int:
    """How many elements the player to move claims: the bias, or whatever is
    left on the last turn of the board."""
    unclaimed = len(spec.board_set) - len(pos.maker) - len(pos.breaker)
    return min(spec.bias_of(pos.to_move), unclaimed)


def apply_moves(spec: GameSpec, pos: Position, player: str, elements) -> tuple:
    """Check and apply one turn of ``player``; returns (position, witness).

    The batch must hold ``batch_size`` distinct unclaimed board elements.
    Maker's claims are applied one at a time and the turn ends at the first
    one that wins: the position and its log keep only that prefix, and the
    witness is returned (None otherwise).  So a Maker batch may be short
    only when it wins.
    """
    if player != pos.to_move:
        raise IllegalMoveError(f"it is {pos.to_move}'s turn, not {player}'s")
    elements = tuple(elements)
    need = batch_size(spec, pos)
    if len(set(elements)) != len(elements):
        dup = next(e for e in elements if elements.count(e) > 1)
        raise IllegalMoveError(f"duplicate element {dup!r} in one turn", element=dup)
    if len(elements) > need:
        raise IllegalMoveError(f"{player} may claim {need} element(s), got {len(elements)}")
    for el in elements:
        if el not in spec.board_set:
            raise IllegalMoveError(f"element {el!r} is not on the board", element=el)
        if el in pos.maker or el in pos.breaker:
            raise IllegalMoveError(f"element {el!r} is already claimed", element=el)
    maker, witness = pos.maker, None
    if player == MAKER:
        for i, el in enumerate(elements):
            maker = maker | {el}
            witness = maker_win_witness(spec, maker)
            if witness is not None:
                elements = elements[: i + 1]
                break
    if witness is None and len(elements) != need:
        raise IllegalMoveError(
            f"{player} must claim exactly {need} element(s), got {len(elements)}"
        )
    breaker = pos.breaker | set(elements) if player == BREAKER else pos.breaker
    return Position(
        maker=maker,
        breaker=breaker,
        to_move=BREAKER if player == MAKER else MAKER,
        log=pos.log + ((player, elements),),
    ), witness


def _triangle(g: Graph):
    for u, v in sorted(g.edges):
        common = g.neighbors(u) & g.neighbors(v)
        if common:
            return (u, v, min(common))
    return None


def maker_graph(spec: GameSpec, claims) -> tuple:
    """Maker's graph on ``claims``, as (graph, to_host).

    On an edge board the graph has the host's vertices and the claimed
    edges, and to_host is None; on a vertex board it is the host's subgraph
    induced on the claimed vertices, relabeled, with to_host[new] = old.
    """
    if spec.board_kind == EDGES:
        return Graph(spec.host.n, claims), None
    return induced_subgraph(spec.host, claims)


def maker_win_witness(spec: GameSpec, maker_claims):
    """The witness if Maker's claims satisfy the objective, else None."""
    obj = spec.objective
    if obj.kind == "aux-connect":
        union = frozenset(maker_claims) | obj.anchor
        if not union:
            return None
        sub, to_parent = induced_subgraph(spec.host, union)
        if is_connected(sub):
            return ClaimSetWitness(tuple(sorted(union)), "aux-connected")
        tri = _triangle(sub)
        if tri is not None:
            return OddCycleWitness(tuple(to_parent[v] for v in tri))
        return None
    g, to_host = maker_graph(spec, maker_claims)
    if obj.kind == "odd-cycle":
        res = find_odd_cycle(g)
        if not isinstance(res, OddCycleWitness):
            return None
        return res if to_host is None else res.relabeled(to_host)
    if obj.kind == "non-k-colorable":
        won = is_k_colorable(g, obj.k) is None
    elif obj.kind == "spanning-connected":
        won = g.n >= 1 and is_connected(g)
    elif obj.kind == "k-edge-connected":
        won = (
            g.n >= 2
            and is_connected(g)
            and min(g.degree(v) for v in range(g.n)) >= obj.k
            and edge_connectivity(g) >= obj.k
        )
    else:
        raise DomainError(f"unhandled objective {obj.kind!r}")
    return ClaimSetWitness(tuple(sorted(maker_claims)), obj.kind, obj.k) if won else None


class Strategy:
    """Decision procedure owned by one player for one game.

    ``reset`` is called by ``play`` before the first move with the game spec
    and a seed; strategies derive all their randomness from it.  ``propose``
    returns the exact batch for this turn, or None to forfeit deliberately.
    ``position_pure`` marks strategies whose proposals depend only on the
    visible position (no history), which the verifier exploits for memoization.
    """

    ident = "strategy"
    position_pure = False

    def reset(self, spec: GameSpec, seed: int):
        pass

    def propose(self, spec: GameSpec, pos: Position):
        raise NotImplementedError


def play(spec: GameSpec, maker: Strategy, breaker: Strategy, seed: int = 0) -> GameResult:
    """Run one game to completion; deterministic given the seed."""
    maker.reset(spec, 2 * seed)
    breaker.reset(spec, 2 * seed + 1)
    pos = Position.initial(spec)
    rounds = 0
    while len(pos.claimed()) < len(spec.board_set):
        mover = pos.to_move
        strategy = maker if mover == MAKER else breaker
        proposal = strategy.propose(spec, pos)
        if proposal is None:
            winner = BREAKER if mover == MAKER else MAKER
            return GameResult(winner, None, rounds, pos, "forfeit", True, mover)
        try:
            pos, witness = apply_moves(spec, pos, mover, proposal)
        except IllegalMoveError:
            winner = BREAKER if mover == MAKER else MAKER
            return GameResult(winner, None, rounds, pos, "forfeit", True, mover)
        if mover == MAKER:
            rounds += 1
        if witness is not None:
            return GameResult(MAKER, witness, rounds, pos, "objective")
    return _full_board_result(spec, pos, rounds)


def _full_board_result(spec: GameSpec, pos: Position, rounds: int) -> GameResult:
    witness = maker_win_witness(spec, pos.maker)
    if witness is not None:
        return GameResult(MAKER, witness, rounds, pos, "objective")
    return GameResult(BREAKER, None, rounds, pos, "exhausted")


# -- transcript serialization ---------------------------------------------------
#
# Versioned line-oriented format `game-v1`: a header summarizing the spec,
# one line per turn, and a footer with the result and witness.


def element_token(spec: GameSpec, element) -> str:
    if spec.board_kind == EDGES:
        return f"e{element[0]}-{element[1]}"
    return f"v{element}"


def parse_element(spec: GameSpec, token: str):
    if spec.board_kind == EDGES:
        if not token.startswith("e"):
            raise DomainError(f"bad edge token {token!r}")
        u, v = token[1:].split("-")
        return (int(u), int(v))
    if not token.startswith("v"):
        raise DomainError(f"bad vertex token {token!r}")
    return int(token[1:])


def _witness_lines(spec: GameSpec, witness) -> str:
    if witness is None:
        return "witness none"
    if isinstance(witness, OddCycleWitness):
        return "witness cycle " + " ".join(str(v) for v in witness.vertices)
    parts = ["witness", "claims", witness.property]
    if witness.k is not None:
        parts.append(f"k={witness.k}")
    parts.extend(element_token(spec, el) for el in witness.elements)
    return " ".join(parts)


def parse_witness(spec: GameSpec, line: str):
    body = line[len("witness ") :]
    if body == "none":
        return None
    if body.startswith("cycle "):
        return OddCycleWitness(tuple(int(x) for x in body[len("cycle ") :].split()))
    if body.startswith("claims "):
        toks = body.split()[1:]
        prop = toks[0]
        k = None
        rest = toks[1:]
        if rest and rest[0].startswith("k="):
            k = int(rest[0][2:])
            rest = rest[1:]
        elements = tuple(parse_element(spec, t) for t in rest)
        return ClaimSetWitness(elements, prop, k)
    raise DomainError(f"bad witness line {line!r}")


def transcript_header(spec: GameSpec) -> tuple:
    """The (key, value) header lines that describe ``spec``; a transcript adds
    the two strategy identifiers after them."""
    g = spec.host
    return (
        ("board", spec.board_kind),
        ("host", f"{g.fingerprint()} n={g.n} m={g.m}"),
        ("bias", f"{spec.maker_bias}:{spec.breaker_bias}"),
        ("first", spec.first),
        ("objective", spec.objective.token()),
    )


def format_transcript(
    spec: GameSpec, result: GameResult, maker_ident: str, breaker_ident: str
) -> str:
    lines = ["game-v1"]
    lines.extend(f"{k} {v}" for k, v in transcript_header(spec))
    lines += [f"maker {maker_ident}", f"breaker {breaker_ident}", "moves"]
    for player, elements in result.position.log:
        tag = "M" if player == MAKER else "B"
        lines.append(tag + " " + " ".join(element_token(spec, el) for el in elements))
    lines.append("end")
    lines.extend(_footer(spec, result))
    return "\n".join(lines) + "\n"


def _footer(spec: GameSpec, result: GameResult) -> tuple:
    """The result and witness lines of a transcript."""
    return (
        f"result winner={result.winner} reason={result.reason} "
        f"rounds={result.rounds} forfeit={result.forfeited_by or 'none'}",
        _witness_lines(spec, result.witness),
    )


@dataclass(frozen=True)
class TranscriptRecord:
    header: tuple  # ordered (key, value) pairs
    moves: tuple  # (player, element tokens)
    result: tuple  # ordered (key, value) pairs
    witness_line: str


def parse_transcript(text: str) -> TranscriptRecord:
    lines = text.splitlines()
    if not lines or lines[0] != "game-v1":
        raise DomainError("transcript must start with 'game-v1'")
    header = []
    i = 1
    while i < len(lines) and lines[i] != "moves":
        key, _, value = lines[i].partition(" ")
        header.append((key, value))
        i += 1
    if i == len(lines):
        raise DomainError("transcript is missing the moves section")
    i += 1
    moves = []
    while i < len(lines) and lines[i] != "end":
        tag, _, rest = lines[i].partition(" ")
        if tag not in ("M", "B"):
            raise DomainError(f"bad move line {lines[i]!r}")
        moves.append((MAKER if tag == "M" else BREAKER, tuple(rest.split())))
        i += 1
    if i == len(lines):
        raise DomainError("transcript is missing the end marker")
    i += 1
    if i == len(lines) or not lines[i].startswith("result "):
        raise DomainError("transcript is missing the result line")
    result = tuple(
        tuple(kv.split("=", 1)) for kv in lines[i].split()[1:]
    )
    i += 1
    if i == len(lines) or not lines[i].startswith("witness"):
        raise DomainError("transcript is missing the witness line")
    return TranscriptRecord(tuple(header), tuple(moves), result, lines[i])


def format_record(record: TranscriptRecord) -> str:
    """Reproduce the exact transcript text of a parsed record."""
    lines = ["game-v1"]
    lines.extend(f"{k} {v}" for k, v in record.header)
    lines.append("moves")
    for player, tokens in record.moves:
        tag = "M" if player == MAKER else "B"
        lines.append(tag + " " + " ".join(tokens))
    lines.append("end")
    lines.extend(_record_footer(record))
    return "\n".join(lines) + "\n"


def _record_footer(record: TranscriptRecord) -> tuple:
    return "result " + " ".join(f"{k}={v}" for k, v in record.result), record.witness_line


def replay_transcript(spec: GameSpec, record: TranscriptRecord) -> GameResult:
    """Re-run a parsed transcript against a spec and recompute the outcome.

    Every turn goes through ``apply_moves``, so an illegal turn raises
    IllegalMoveError.  DomainError is raised when the header does not
    describe ``spec``, when anything follows Maker's winning claim, when the
    moves stop before the board is full with no win and no forfeit, and when
    the recorded result or witness line differs from the one
    ``format_transcript`` writes for the recomputed outcome.  A recorded
    forfeit is taken on trust only from the player to move, on a board that
    is not full.
    """
    result = _replay(spec, record)
    if _record_footer(record) != _footer(spec, result):
        raise DomainError("transcript's result or witness line differs from the replayed game")
    return result


def _replay(spec: GameSpec, record: TranscriptRecord) -> GameResult:
    header = [kv for kv in record.header if kv[0] not in ("maker", "breaker")]
    if header != list(transcript_header(spec)):
        raise DomainError("transcript header does not describe the game spec")
    pos = Position.initial(spec)
    rounds = 0
    for i, (player, tokens) in enumerate(record.moves):
        elements = tuple(parse_element(spec, t) for t in tokens)
        if player == MAKER:
            rounds += 1
        pos, witness = apply_moves(spec, pos, player, elements)
        if witness is not None:
            if len(pos.log[-1][1]) < len(elements) or i + 1 < len(record.moves):
                raise DomainError("transcript goes on after Maker's winning claim")
            return GameResult(MAKER, witness, rounds, pos, "objective")
    loser = dict(record.result).get("forfeit", "none")
    full = len(pos.claimed()) == len(spec.board_set)
    if loser == "none" and full:
        return _full_board_result(spec, pos, rounds)
    if full or loser != pos.to_move:
        raise DomainError("transcript ends without a win, a full board or a forfeit by the mover")
    winner = BREAKER if loser == MAKER else MAKER
    return GameResult(winner, None, rounds, pos, "forfeit", True, loser)
