"""Exhaustive ground truth for tiny boards.

``solve`` computes the optimal-play winner by minimax over bias-sized claim
batches.  Batches are explored as combinations, not sequences: within one turn
the claim order is irrelevant, which is a provable state reduction.  Positions
are memoized on (maker claims, breaker claims, mover); there is no
graph-automorphism reduction.  Two toggles exist purely for differential
testing: the maker-win early cutoff and the futility prune (Maker plus all
unclaimed elements failing the objective).  Winning predicates are monotone,
so disabling either never changes a verdict, only the node count.

``solve_reference`` is an intentionally plain recursive implementation kept
free of memoization and pruning, used to cross-check the main solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .engine import (
    BREAKER,
    MAKER,
    GameSpec,
    Position,
    apply_moves,
    batch_size,
    legal_moves,
    maker_win_witness,
)
from .errors import DomainError, IllegalMoveError, ResourceLimitError

SOLVE_BOARD_CAP = 18
REFERENCE_BOARD_CAP = 12
VERIFY_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SolveVerdict:
    winner: str
    principal_line: tuple  # ((player, (elements...)), ...)
    nodes_expanded: int


def _bit_batches(unclaimed_bits, need):
    for combo in combinations(unclaimed_bits, need):
        mask = 0
        for b in combo:
            mask |= 1 << b
        yield mask


def _mask_elements(board, mask):
    return tuple(board[i] for i in range(len(board)) if mask >> i & 1)


class _Solver:
    def __init__(self, spec: GameSpec, early_cutoff: bool, futility: bool):
        self.spec = spec
        self.board = spec.board()
        self.full = (1 << len(self.board)) - 1
        self.early_cutoff = early_cutoff
        self.futility = futility
        self.memo = {}
        self.eval_cache = {}
        self.nodes = 0

    def eval_win(self, maker_mask) -> bool:
        cached = self.eval_cache.get(maker_mask)
        if cached is None:
            elements = _mask_elements(self.board, maker_mask)
            cached = maker_win_witness(self.spec, elements) is not None
            self.eval_cache[maker_mask] = cached
        return cached

    def win(self, m, b, mover) -> bool:
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
            res = False
            for batch in _bit_batches(bits, need):
                nm = m | batch
                if (self.early_cutoff and self.eval_win(nm)) or self.win(nm, b, BREAKER):
                    res = True
                    break
        else:
            need = min(self.spec.breaker_bias, len(bits))
            res = True
            for batch in _bit_batches(bits, need):
                if not self.win(m, b | batch, MAKER):
                    res = False
                    break
        self.memo[key] = res
        return res

    def principal_line(self) -> tuple:
        line = []
        m = b = 0
        mover = self.spec.first
        while True:
            unclaimed = self.full & ~m & ~b
            bits = [i for i in range(len(self.board)) if unclaimed >> i & 1]
            if not bits:
                break
            need = min(self.spec.bias_of(mover), len(bits))
            chosen = None
            if mover == MAKER:
                for batch in _bit_batches(bits, need):
                    if self.eval_win(m | batch) or self.win(m | batch, b, BREAKER):
                        chosen = batch
                        break
            else:
                for batch in _bit_batches(bits, need):
                    if not self.win(m, b | batch, MAKER):
                        chosen = batch
                        break
            if chosen is None:
                chosen = next(_bit_batches(bits, need))
            line.append((mover, _mask_elements(self.board, chosen)))
            if mover == MAKER:
                m |= chosen
                if self.eval_win(m):
                    break
                mover = BREAKER
            else:
                b |= chosen
                mover = MAKER
        return tuple(line)


def solve(
    spec: GameSpec,
    *,
    board_cap: int = SOLVE_BOARD_CAP,
    early_cutoff: bool = True,
    futility: bool = True,
) -> SolveVerdict:
    """Optimal-play winner of the game, with one principal line."""
    board = spec.board()
    if len(board) > board_cap:
        raise ResourceLimitError(
            f"board of {len(board)} elements exceeds the solve cap {board_cap}",
            stats={"board": len(board), "cap": board_cap},
        )
    solver = _Solver(spec, early_cutoff, futility)
    maker_wins = solver.win(0, 0, spec.first)
    return SolveVerdict(
        winner=MAKER if maker_wins else BREAKER,
        principal_line=solver.principal_line(),
        nodes_expanded=solver.nodes,
    )


def solve_reference(spec: GameSpec, *, board_cap: int = REFERENCE_BOARD_CAP) -> str:
    """Winner by plain unmemoized recursion; the game stops at a Maker win."""
    board = spec.board()
    if len(board) > board_cap:
        raise ResourceLimitError(
            f"board of {len(board)} elements exceeds the reference cap {board_cap}",
            stats={"board": len(board), "cap": board_cap},
        )

    def recurse(maker_set, breaker_set, mover):
        unclaimed = [e for e in board if e not in maker_set and e not in breaker_set]
        if not unclaimed:
            return maker_win_witness(spec, maker_set) is not None
        need = min(spec.bias_of(mover), len(unclaimed))
        if mover == MAKER:
            for batch in combinations(unclaimed, need):
                grown = maker_set | set(batch)
                if maker_win_witness(spec, grown) is not None:
                    return True
                if recurse(grown, breaker_set, BREAKER):
                    return True
            return False
        for batch in combinations(unclaimed, need):
            if not recurse(maker_set, breaker_set | set(batch), MAKER):
                return False
        return True

    return MAKER if recurse(frozenset(), frozenset(), spec.first) else BREAKER


@dataclass(frozen=True)
class VerifyResult:
    always_wins: bool
    counter: tuple | None  # a losing move log ((player, elements), ...)
    nodes_expanded: int


def verify_maker_strategy(
    spec: GameSpec, maker, *, node_budget: int = VERIFY_NODE_BUDGET
) -> VerifyResult:
    """Exhaust every Breaker reply against a deterministic Maker strategy.

    Requires a position-pure strategy (proposals depend only on the visible
    position), which makes subtree results memoizable.  Returns a concrete
    losing transcript when one exists; a proposal that is illegal or None
    counts as an immediate loss by forfeit.
    """
    if not getattr(maker, "position_pure", False):
        raise DomainError("verification needs a position-pure maker strategy")
    maker.reset(spec, 0)
    memo = {}
    nodes = 0

    def maker_step(pos):
        """Apply the strategy once; returns (new_pos, won, legal)."""
        proposal = maker.propose(spec, pos)
        if proposal is None:
            return pos, False, False
        try:
            new_pos, witness = apply_moves(spec, pos, MAKER, proposal)
        except IllegalMoveError:
            return pos, False, False
        return new_pos, witness is not None, True

    def breaker_replies(pos):
        for batch in combinations(legal_moves(spec, pos), batch_size(spec, pos)):
            yield apply_moves(spec, pos, BREAKER, batch)[0]

    def walk(pos) -> bool:
        nonlocal nodes
        key = (pos.maker, pos.breaker, pos.to_move)
        if key in memo:
            return memo[key]
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                "verification node budget exceeded",
                stats={"nodes_expanded": nodes, "budget": node_budget},
            )
        if not legal_moves(spec, pos):
            res = maker_win_witness(spec, pos.maker) is not None
        elif pos.to_move == MAKER:
            new_pos, won, legal = maker_step(pos)
            res = True if won else (legal and walk(new_pos))
        else:
            res = all(walk(nxt) for nxt in breaker_replies(pos))
        memo[key] = res
        return res

    root = Position.initial(spec)
    if walk(root):
        return VerifyResult(True, None, nodes)

    # Reconstruct one losing line by following refuting branches.
    pos = root
    while legal_moves(spec, pos):
        if pos.to_move == MAKER:
            pos, won, legal = maker_step(pos)
            if won or not legal:
                break
        else:
            refuting = next((nxt for nxt in breaker_replies(pos) if not walk(nxt)), None)
            if refuting is None:
                break
            pos = refuting
    return VerifyResult(False, pos.log, nodes)
