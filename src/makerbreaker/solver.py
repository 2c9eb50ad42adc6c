"""Exhaustive ground truth for tiny boards.

``solve`` computes the optimal-play winner by minimax over bias-sized claim
batches.  Batches are explored as combinations, not sequences: within one turn
the claim order is irrelevant, which is a provable state reduction.  Positions
are memoized on (maker claims, breaker claims, mover); there is no
graph-automorphism reduction.  Two prunes are always on: the maker-win early
cutoff and the futility prune (Maker plus all unclaimed elements failing the
objective), which is off for ``aux-connect``: that predicate is not monotone
(``WinPredicate.monotone``), since a claimed vertex can disconnect the
union.  The others are, so the prune changes no verdict, only the node
count; ``solve_reference`` checks that.

A Maker turn ends at its first winning claim (``engine.apply_moves``).  On a
monotone objective a batch therefore wins exactly when it wins as a whole.
On ``aux-connect`` Maker wins on the turn when some non-empty set of at most
bias unclaimed elements wins; the principal line's last Maker turn is then
the first such set, fewest elements first.

Claim sets are masks over board indices, decided by the engine's
``mask_win`` on its ``maker_masks`` as the engine's win check decides them;
``solve_reference`` and ``verify_maker_strategy`` call ``maker_win_witness``
on claimed elements instead, as independent checks.  A board over its cap is
refused by the host's size, before the board is built; the verifier's walk
recurses once per turn, and ``VERIFY_BOARD_CAP`` keeps it off ``RecursionError``.

``solve_reference`` is an intentionally plain recursive implementation kept
free of memoization and pruning, used to cross-check the main solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .engine import (
    BREAKER,
    EDGES,
    MAKER,
    GameSpec,
    Position,
    apply_moves,
    batch_size,
    claim_elements,
    legal_moves,
    maker_masks,
    maker_win_witness,
    mask_win,
)
from .errors import DomainError, IllegalMoveError, ResourceLimitError

SOLVE_BOARD_CAP = 18
REFERENCE_BOARD_CAP = 12
VERIFY_BOARD_CAP = 300
VERIFY_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SolveVerdict:
    winner: str
    principal_line: tuple  # ((player, (elements...)), ...)
    nodes_expanded: int


class _Solver:
    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.bits = tuple(1 << i for i in range(len(spec.board())))
        self.full = (1 << len(self.bits)) - 1
        wins = mask_win(spec.objective)
        self.decide = lambda mask: wins(*maker_masks(spec, mask))
        # off an objective that is not monotone, Maker holding every unclaimed
        # element proves nothing, and a batch can win on a claim it then undoes
        self.monotone = spec.objective.monotone
        self.memo = {}
        self.eval_cache = {}
        self.nodes = 0

    def batches(self, unclaimed, bias):
        """Masks of every claim batch from ``unclaimed``, in lexicographic
        order of element index; ``bias`` elements, or all when fewer are left."""
        free = [bit for bit in self.bits if unclaimed & bit]
        return map(sum, combinations(free, min(bias, len(free))))

    def eval_win(self, maker_mask) -> bool:
        won = self.eval_cache.get(maker_mask)
        if won is None:
            won = self.eval_cache[maker_mask] = self.decide(maker_mask)
        return won

    def choose(self, m, b, mover):
        """The batch ``mover`` plays from a position that is not over to win
        it, the first in batch order; None when every batch loses.  Off a
        monotone objective Maker first plays the first non-empty set of at
        most bias elements that wins, fewest first."""
        unclaimed = self.full & ~m & ~b
        if mover == BREAKER:
            for batch in self.batches(unclaimed, self.spec.breaker_bias):
                if not self.win(m, b | batch, MAKER):
                    return batch
            return None
        if not self.monotone:
            for size in range(1, min(self.spec.maker_bias, unclaimed.bit_count()) + 1):
                for batch in self.batches(unclaimed, size):
                    if self.eval_win(m | batch):
                        return batch
        for batch in self.batches(unclaimed, self.spec.maker_bias):
            if self.eval_win(m | batch) or self.win(m | batch, b, BREAKER):
                return batch
        return None

    def win(self, m, b, mover) -> bool:
        key = (m, b, mover)
        res = self.memo.get(key)
        if res is not None:
            return res
        self.nodes += 1
        unclaimed = self.full & ~m & ~b
        if not unclaimed:
            res = self.eval_win(m)
        elif self.monotone and not self.eval_win(m | unclaimed):
            res = False
        else:
            res = (self.choose(m, b, mover) is None) != (mover == MAKER)
        self.memo[key] = res
        return res

    def principal_line(self) -> tuple:
        line = []
        m = b = 0
        mover = self.spec.first
        while True:
            unclaimed = self.full & ~m & ~b
            if not unclaimed:
                break
            chosen = self.choose(m, b, mover)
            if chosen is None:
                chosen = next(self.batches(unclaimed, self.spec.bias_of(mover)))
            line.append((mover, claim_elements(self.spec, chosen)))
            if mover == MAKER:
                m |= chosen
                if self.eval_win(m):
                    break
                mover = BREAKER
            else:
                b |= chosen
                mover = MAKER
        return tuple(line)


def _check_board(spec: GameSpec, cap: int, name: str):
    """Refuse a board of more than ``cap`` elements, counted on the host."""
    size = spec.host.m if spec.board_kind == EDGES else spec.host.n
    if size > cap:
        raise ResourceLimitError(
            f"board of {size} elements exceeds the {name} cap {cap}",
            stats={"board": size, "cap": cap},
        )


def solve(spec: GameSpec) -> SolveVerdict:
    """Optimal-play winner of the game, with one principal line; boards above
    ``SOLVE_BOARD_CAP`` elements are refused."""
    _check_board(spec, SOLVE_BOARD_CAP, "solve")
    solver = _Solver(spec)
    maker_wins = solver.win(0, 0, spec.first)
    return SolveVerdict(
        winner=MAKER if maker_wins else BREAKER,
        principal_line=solver.principal_line(),
        nodes_expanded=solver.nodes,
    )


def solve_reference(spec: GameSpec) -> str:
    """Winner by plain unmemoized recursion; the game stops at a Maker win,
    on an objective that is not monotone at the first winning claim of a
    turn.  Boards above ``REFERENCE_BOARD_CAP`` elements are refused."""
    _check_board(spec, REFERENCE_BOARD_CAP, "reference")
    board = spec.board()

    def recurse(maker_set, breaker_set, mover):
        unclaimed = [e for e in board if e not in maker_set and e not in breaker_set]
        if not unclaimed:
            return maker_win_witness(spec, maker_set) is not None
        need = min(spec.bias_of(mover), len(unclaimed))
        if mover == MAKER:
            # sets smaller than a full batch; full batches are tried below
            if not spec.objective.monotone and any(
                maker_win_witness(spec, maker_set | set(batch)) is not None
                for size in range(1, need)
                for batch in combinations(unclaimed, size)
            ):
                return True
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
    counts as an immediate loss by forfeit.  Boards above
    ``VERIFY_BOARD_CAP`` elements are refused.
    """
    _check_board(spec, VERIFY_BOARD_CAP, "verify")
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
