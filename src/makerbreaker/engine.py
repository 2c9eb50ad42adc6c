"""Maker-Breaker game state machine.

Boards are either the edge set or the vertex set of a host graph.  Maker
claims ``a`` elements per turn, Breaker ``b``; the final turn of the board may
be short.  ``apply_moves`` is the one place a turn is checked and applied:
Maker's win is detected after every individual claim and ends the turn there,
so witnesses always reflect the earliest winning prefix.  Every winning
predicate but ``aux-connect`` is monotone in Maker's claim set; on
``aux-connect`` a later claim of the same batch could disconnect the union
again, which the turn's early end rules out.  A strategy that cannot (or will
not) produce a legal batch forfeits; the forfeit convention applies to both
players.

Every monotone objective (``odd-cycle``, ``spanning-connected``,
``non-k-colorable`` and ``k-edge-connected``) has one win decision on
``maker_masks``, given by ``mask_win``.  The engine's win check and the
solver decide them with it alone; a witness is built only once the decision
is a win, on the same masks and in host labels.  ``aux-connect`` is decided
on the same masks by ``spans`` and then a triangle search.  No relabelled
copy of Maker's graph is built.

``_outcome`` is the one place a game's result is worked out: ``play`` and
``replay_transcript`` stop at Maker's winning claim, a full board or a
forfeit, and hand it the position, the witness and the round count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coloring import k_coloring
from .connectivity import edge_connectivity
from .errors import DomainError, IllegalMoveError, parse_int, quoted
from .graphs import Graph, OddCycleWitness, has_odd_cycle, mask_bits, odd_cycle_on, spans

MAKER = "maker"
BREAKER = "breaker"

EDGES = "edges"
VERTICES = "vertices"

_EDGE_KINDS = {"odd-cycle", "non-k-colorable", "spanning-connected", "k-edge-connected"}
_VERTEX_KINDS = {"odd-cycle", "non-k-colorable", "aux-connect"}


@dataclass(frozen=True)
class WinPredicate:
    """Winning condition evaluated on Maker's claims; monotone except for
    ``aux-connect``."""

    kind: str
    k: int | None = None
    anchor: frozenset | None = None

    def __post_init__(self):
        if self.kind in ("non-k-colorable", "k-edge-connected"):
            if type(self.k) is not int or self.k < 1:
                raise DomainError(f"{quoted(self.kind)} needs a positive k")
        elif self.k is not None:
            raise DomainError(f"{quoted(self.kind)} takes no k")
        if self.kind == "aux-connect":
            if self.anchor is None:
                raise DomainError("aux-connect needs an anchor vertex set")
        elif self.anchor is not None:
            raise DomainError(f"{quoted(self.kind)} takes no anchor")

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
        where = f"objective {quoted(token)}"
        if token.startswith("non-") and token.endswith("-colorable"):
            return cls("non-k-colorable", k=parse_int(token[4:-10], where))
        if token.endswith("-edge-connected"):
            return cls("k-edge-connected", k=parse_int(token[: -len("-edge-connected")], where))
        if token.startswith("aux-connect"):
            rest = token[len("aux-connect") :].strip()
            anchor = frozenset(parse_int(x, where) for x in rest.split(",") if x)
            return cls("aux-connect", anchor=anchor)
        raise DomainError(f"unknown objective token: {quoted(token)}")


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
            raise DomainError(f"unknown board kind {quoted(self.board_kind)}")
        if self.maker_bias < 1 or self.breaker_bias < 1:
            raise DomainError("biases must be positive")
        if self.first not in (MAKER, BREAKER):
            raise DomainError(f"unknown first player {quoted(self.first)}")
        allowed = _EDGE_KINDS if self.board_kind == EDGES else _VERTEX_KINDS
        if self.objective.kind not in allowed:
            raise DomainError(
                f"objective {quoted(self.objective.kind)} is not playable on {self.board_kind}"
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


def _triangle(adj, verts: int):
    """The least edge u < v on ``verts`` with a common neighbour, and the least one."""
    for u in mask_bits(verts):
        for v in mask_bits(adj[u] & verts >> u + 1 << u + 1):  # the v > u
            common = adj[u] & adj[v] & verts
            if common:
                return (u, v, (common & -common).bit_length() - 1)
    return None


def mask_win(objective: WinPredicate):
    """The win decision of ``objective`` as a function of (adj, verts), on
    Maker's graph whose vertex v of the bits ``verts`` sees ``adj[v] & verts``;
    None for ``aux-connect``, the one objective that is not monotone.

    ``k-edge-connected`` needs two vertices and edge connectivity at least
    k; as k >= 1, that makes the graph connected with minimum degree >= k."""
    if objective.kind == "non-k-colorable":
        return lambda adj, verts: k_coloring(adj, verts, objective.k) is None
    if objective.kind == "k-edge-connected":
        return lambda adj, verts: (
            verts.bit_count() >= 2 and edge_connectivity(adj, verts) >= objective.k
        )
    return {"odd-cycle": has_odd_cycle, "spanning-connected": spans}.get(objective.kind)


def maker_masks(spec: GameSpec, claims) -> tuple:
    """Maker's graph on ``claims`` as ``mask_search`` reads it, (adj, verts):
    on an edge board, each claimed edge's endpoint bits (either end first)
    and every host vertex; on a vertex board, the host's masks and the claim
    mask.  A loop or a claim out of range raises DomainError."""
    n = spec.host.n
    if spec.board_kind == EDGES:
        adj = [0] * n
        for u, v in claims:
            if u > v:
                u, v = v, u
            if not 0 <= u < v < n:
                raise DomainError(f"claim {(u, v)} is a loop or out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj, (1 << n) - 1
    verts = 0
    for v in claims:
        if not 0 <= v < n:
            raise DomainError(f"claim {v} out of range for n={n}")
        verts |= 1 << v
    return spec.host.neighbor_masks(), verts


def maker_win_witness(spec: GameSpec, maker_claims):
    """The witness if Maker's claims satisfy the objective, else None.

    Every objective but ``aux-connect`` is decided by ``mask_win`` on
    ``maker_masks``; on an ``odd-cycle`` win the cycle is found on the same
    masks, in host labels.
    """
    obj = spec.objective
    if obj.kind == "spanning-connected" and spec.board_kind == EDGES:
        claims = frozenset(maker_claims)
        # a spanning tree has n - 1 edges; claims off the board go on to raise
        if len(claims) < spec.host.n - 1 and spec.board_set.issuperset(claims):
            return None
    wins = mask_win(obj)
    if wins is not None:
        adj, verts = maker_masks(spec, maker_claims)
        if not wins(adj, verts):
            return None
        if obj.kind == "odd-cycle":
            return odd_cycle_on(adj, verts)
        return ClaimSetWitness(tuple(sorted(maker_claims)), obj.kind, obj.k)
    union = frozenset(maker_claims) | obj.anchor  # aux-connect
    adj, verts = maker_masks(spec, union)
    if spans(adj, verts):
        return ClaimSetWitness(tuple(sorted(union)), "aux-connected")
    tri = _triangle(adj, verts)
    return None if tri is None else OddCycleWitness(tri)


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
    pos, witness, rounds = Position.initial(spec), None, 0
    while witness is None and len(pos.maker) + len(pos.breaker) < len(spec.board_set):
        mover = pos.to_move
        proposal = (maker if mover == MAKER else breaker).propose(spec, pos)
        if proposal is None:
            break
        try:
            pos, witness = apply_moves(spec, pos, mover, proposal)
        except IllegalMoveError:
            break
        if mover == MAKER:
            rounds += 1
    return _outcome(spec, pos, witness, rounds)


def _outcome(spec: GameSpec, pos: Position, witness, rounds: int) -> GameResult:
    """The result of a game that stopped at ``pos``: Maker's win when the
    last claim gave ``witness`` or the full board wins, Breaker's when the
    board is full and does not, and otherwise a forfeit by the player to
    move.  A full board is checked only when ``witness`` is None."""
    if witness is None and len(pos.maker) + len(pos.breaker) == len(spec.board_set):
        witness = maker_win_witness(spec, pos.maker)
        if witness is None:
            return GameResult(BREAKER, None, rounds, pos, "exhausted")
    if witness is not None:
        return GameResult(MAKER, witness, rounds, pos, "objective")
    loser = pos.to_move
    winner = BREAKER if loser == MAKER else MAKER
    return GameResult(winner, None, rounds, pos, "forfeit", True, loser)


# -- transcripts ------------------------------------------------------------------
#
# Versioned line-oriented format `game-v1`: a header summarizing the spec and
# naming both strategies, one line per turn, and a footer with the result and
# witness.  ``format_transcript`` is its only writer, and a transcript is
# checked by replaying its moves and writing it again.


def element_token(spec: GameSpec, element) -> str:
    if spec.board_kind == EDGES:
        return f"e{element[0]}-{element[1]}"
    return f"v{element}"


def _witness_line(spec: GameSpec, witness) -> str:
    if witness is None:
        return "witness none"
    if isinstance(witness, OddCycleWitness):
        return "witness cycle " + " ".join(str(v) for v in witness.vertices)
    parts = ["witness", "claims", witness.property]
    if witness.k is not None:
        parts.append(f"k={witness.k}")
    parts.extend(element_token(spec, el) for el in witness.elements)
    return " ".join(parts)


def format_transcript(
    spec: GameSpec, result: GameResult, maker_ident: str, breaker_ident: str
) -> str:
    g = spec.host
    lines = [
        "game-v1",
        f"board {spec.board_kind}",
        f"host {g.fingerprint()} n={g.n} m={g.m}",
        f"bias {spec.maker_bias}:{spec.breaker_bias}",
        f"first {spec.first}",
        f"objective {spec.objective.token()}",
        f"maker {maker_ident}",
        f"breaker {breaker_ident}",
        "moves",
    ]
    for player, elements in result.position.log:
        tag = "M" if player == MAKER else "B"
        lines.append(tag + " " + " ".join(element_token(spec, el) for el in elements))
    lines += [
        "end",
        f"result winner={result.winner} reason={result.reason} "
        f"rounds={result.rounds} forfeit={result.forfeited_by or 'none'}",
        _witness_line(spec, result.witness),
    ]
    return "\n".join(lines) + "\n"


def replay_transcript(spec: GameSpec, text: str) -> GameResult:
    """Replay a ``game-v1`` transcript against ``spec``; returns the outcome.

    Every turn goes through ``apply_moves``, so an illegal turn raises
    IllegalMoveError; the replay stops at Maker's winning claim or a full
    board.  A game whose moves stop before that was forfeited by the player
    to move.  The outcome is returned only when ``format_transcript`` writes
    exactly ``text`` for it and the two strategy names the text gives;
    otherwise DomainError is raised.
    """
    lines = text.split("\n")
    try:
        start = lines.index("moves") + 1
        stop = lines.index("end", start)
    except ValueError:
        raise DomainError("transcript has no moves section") from None
    names = dict(line.partition(" ")[::2] for line in lines[: start - 1])
    if MAKER not in names or BREAKER not in names:
        raise DomainError("transcript does not name both strategies")
    tokens = {element_token(spec, el): el for el in spec.board()}
    pos, witness, rounds = Position.initial(spec), None, 0
    for line in lines[start:stop]:
        if witness is not None or len(pos.maker) + len(pos.breaker) == len(spec.board_set):
            break  # the game is over; the lines left make the text differ
        tag, _, rest = line.partition(" ")
        if tag not in ("M", "B"):
            raise DomainError(f"bad move line {quoted(line)}")
        try:
            elements = [tokens[t] for t in rest.split()]
        except KeyError as exc:
            raise DomainError(f"unknown element token {quoted(exc.args[0])}") from None
        player = MAKER if tag == "M" else BREAKER
        pos, witness = apply_moves(spec, pos, player, elements)
        if player == MAKER:
            rounds += 1
    result = _outcome(spec, pos, witness, rounds)
    if format_transcript(spec, result, names[MAKER], names[BREAKER]) != text:
        raise DomainError("transcript differs from the one its moves replay to")
    return result
