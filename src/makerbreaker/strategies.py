"""Maker strategies built on the structural decompositions, adversarial
Breaker heuristics to test them against, and exact bound calculators.

The three decomposition-backed Makers:

* ``DenseEdgeMaker`` (edge board): claim a witness edge inside one side of a
  highly connected bipartite core, then build a connected spanning subgraph of
  the core; the even crossing path plus the witness edge is an odd cycle.
* ``ConnectedEdgeMaker`` (edge board): search for a spanning bipartite
  edge-connected subgraph; found -> witness edge inside a side plus the
  connectivity game on that subgraph, not found -> connectivity game on the
  whole host, whose outcome graph is then non-bipartite by assumption.
* ``DenseVertexMaker`` (vertex board): four stages -- star center and leaf in
  A, a random dominating set of the crossing graph, a high-degree partner for
  every dominator, then component merging until Maker's vertices connect.

The connectivity Maker is a cut-defense heuristic standing in for the cited
edge-connectivity-game strategy; nothing is proved about it here, and its
adequacy is checked empirically and by the exhaustive verifier on small
boards.  It sits behind the Strategy interface so a faithful implementation
can replace it without touching the rest.

Maker's 2-coloring comes from ``mask_components`` on ``maker_masks``.  On
edge boards, Maker's components and their cuts come from a claim view carried
from turn to turn, which reads only each position's claim sets and updates
the components per new claim.
The core-backed Makers play in host labels, on the core's crossing graph as
``graphs.cross_masks``, the one cut builder; no relabelled copy is made.

On vertex boards ``CutAttackBreaker`` ranks the free vertices from one OR of
each Maker component's neighbour masks, counted bit-sliced, so it walks no
free vertex's neighbours.  ``BipartiteGuardBreaker`` still walks each free
vertex's neighbour set: on masks too, it made the bench's vertex games so
much faster that the finished ops the bench keeps until the end raised its
peak memory past its bound (61% against 20%), so it waits until the bench
stops keeping them.
"""

from __future__ import annotations

import decimal
import math
import random
from bisect import bisect_left
from itertools import islice
from dataclasses import dataclass, field
from fractions import Fraction

from .connectivity import edge_connectivity
from .decompose import EXACT_CUT_LIMIT, BipartiteCore, below_degree_floor
from .engine import (
    EDGES,
    VERTICES,
    GameSpec,
    Position,
    Strategy,
    batch_size,
    legal_moves,
    maker_masks,
)
from .errors import DomainError, ResourceLimitError, quoted
from .graphs import (
    Graph,
    cross_masks,
    first_edge_inside,
    frac_ceil,
    gray_code_bipartitions,
    has_odd_cycle,
    mask_bits,
    mask_components,
)

# -- exact bound calculators -----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """The strategy thresholds for a given (n, delta, b), exactly evaluated.

    Log-base policy: the bias cap uses log2; the dominating-set budget and
    the failure bound come from the e-based union bound, so they use the
    natural log.  The failure bound simplifies to n^(-49) independently of
    delta and is stored as an exponent.  The logs are bracketed by decimal
    intervals; a value whose interval straddles an integer boundary raises
    ResourceLimitError rather than guess.
    """

    n: int
    delta: Fraction
    b: int
    b_max: int
    chi_threshold_edge: Fraction
    chi_threshold_vertex: Fraction
    dominating_size: int
    failure_exponent: int


# Significant digits of the decimal logs behind b_max and dominating_size.
LOG_DIGITS = 50


def _ln_bounds(n: int) -> tuple:
    """Fractions (lo, hi) around ln n.  ``Decimal.ln`` is correctly rounded at
    ``LOG_DIGITS`` significant digits, so ln n lies between the neighbors of
    its result."""
    with decimal.localcontext() as ctx:
        ctx.prec = LOG_DIGITS
        x = decimal.Decimal(n).ln()
        return Fraction(x.next_minus()), Fraction(x.next_plus())


def _settled(lo: int, hi: int, name: str, n: int, delta) -> int:
    """The integer both ends of an interval round to, or ResourceLimitError
    when the interval straddles an integer boundary."""
    if lo != hi:
        raise ResourceLimitError(
            f"{name} lies too close to an integer to settle from {LOG_DIGITS}-digit logs",
            stats={"name": name, "n": n, "delta": str(delta), "low": lo, "high": hi},
        )
    return lo


def bound_report(n: int, delta, b: int = 1) -> BoundReport:
    delta = Fraction(delta)
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {quoted(str(delta))}")
    if b < 1:
        raise DomainError(f"b must be a positive integer, got {b}")
    ln_lo, ln_hi = _ln_bounds(n)
    if n & (n - 1) == 0:
        log2_lo = log2_hi = n.bit_length() - 1
    else:
        ln2_lo, ln2_hi = _ln_bounds(2)
        log2_lo, log2_hi = ln_lo / ln2_hi, ln_hi / ln2_lo
    d2 = delta * delta
    scale = d2 * n / 6400
    return BoundReport(
        n=n,
        delta=delta,
        b=b,
        b_max=_settled(
            math.floor(scale / Fraction(log2_hi) ** 2),
            math.floor(scale / Fraction(log2_lo) ** 2),
            "b_max", n, delta,
        ),
        chi_threshold_edge=Fraction(32) / delta,
        chi_threshold_vertex=Fraction(2 * (b + 1)) / delta,
        dominating_size=_settled(
            math.ceil(100 * ln_lo / d2), math.ceil(100 * ln_hi / d2),
            "dominating_size", n, delta,
        ),
        failure_exponent=-49,
    )


def dominates(adj, dom: int, members: int) -> bool:
    """True when every vertex of the mask ``members`` is in the mask ``dom``
    or has a neighbor in it, ``adj[v]`` being vertex v's neighbor mask."""
    rest = members & ~dom
    while rest and adj[_lowest(rest)] & dom:  # stops at the first one undominated
        rest &= rest - 1
    return not rest


# -- shared helpers ---------------------------------------------------------------


def _new_claims(seen, pos: Position):
    """The claims of ``pos``, (Maker's, Breaker's), not in the claim sets
    ``seen``; None when a claim seen is missing from ``pos``."""
    seen_maker, seen_breaker = seen
    new_maker, new_breaker = pos.maker - seen_maker, pos.breaker - seen_breaker
    kept = len(pos.maker) - len(new_maker), len(pos.breaker) - len(new_breaker)
    return (new_maker, new_breaker) if kept == (len(seen_maker), len(seen_breaker)) else None


class _ClaimView:
    """The unclaimed pool's masks (``avail``) and the components of Maker's
    graph on the vertex mask ``members``, at the claim sets ``seen`` last
    seen, carried from turn to turn.  It reads only a position's claim sets,
    never its log.

    A component is kept under a member of it, ``label[v]`` for member v (None
    for the others): its member mask in ``comp``, its lowest member in
    ``low`` and the count of available edges with one end in it in ``leave``.

    ``see(pos)`` applies the claims of ``pos.maker`` and ``pos.breaker`` not
    seen yet.  When a claim seen is missing from them (an earlier position,
    another game, a pick of the view's own that was not played), it starts
    again from no claims.
    """

    def __init__(self, pool_masks, members: int):
        self.pool_masks, self.members = pool_masks, members
        self._start()

    def _start(self):
        self.avail = list(self.pool_masks)
        self.label = [None] * len(self.avail)
        self.comp, self.low, self.leave = {}, {}, {}
        for v in mask_bits(self.members):
            self.label[v] = self.low[v] = v
            self.comp[v] = 1 << v
            self.leave[v] = self.avail[v].bit_count()
        self.seen = frozenset(), frozenset()

    def see(self, pos: Position) -> "_ClaimView":
        new = _new_claims(self.seen, pos)
        if new is None:
            self._start()
            new = pos.maker, pos.breaker
        for e in new[0]:
            self.claim(e, True)
        for e in new[1]:
            self.claim(e, False)
        self.seen = pos.maker, pos.breaker
        return self

    def take(self, edge):
        """Maker's claim of ``edge``, made by the view's owner: applied and
        seen, so that the next position, which holds it, adds nothing."""
        self.claim(edge, True)
        self.seen = self.seen[0] | {edge}, self.seen[1]

    def claim(self, edge, by_maker: bool):
        """Take ``edge`` out of the pool and, when it is Maker's, join the
        components of its ends."""
        u, v = edge
        a, b = self.label[u], self.label[v]
        if self.avail[u] >> v & 1:
            self.avail[u] ^= 1 << v
            self.avail[v] ^= 1 << u
            if a != b:  # it left the component of each member end
                if a is not None:
                    self.leave[a] -= 1
                if b is not None:
                    self.leave[b] -= 1
        if by_maker and a is not None and b is not None and a != b:
            if self.comp[a].bit_count() < self.comp[b].bit_count():
                a, b = b, a
            moved, kept = self.comp.pop(b), self.comp[a]  # the smaller side is relabelled
            between = 0
            for w in mask_bits(moved):
                between += (self.avail[w] & kept).bit_count()
                self.label[w] = a
            self.comp[a] = kept | moved
            self.low[a] = min(self.low[a], self.low.pop(b))
            self.leave[a] += self.leave.pop(b) - 2 * between

    def smallest_cut(self, limit: int) -> list:
        """The smallest sorted list of available edges leaving one component,
        the one with the lowest member on ties, cut short after ``limit``
        edges; [] when Maker's graph on the members is connected or no
        available edge leaves a component."""
        if len(self.comp) < 2:
            return []
        best = min(((size, self.low[c], c) for c, size in self.leave.items() if size),
                   default=None)
        if best is None:
            return []
        inside = self.comp[best[2]]
        outside = 0  # the far ends of the cut
        for u in mask_bits(inside):
            outside |= self.avail[u]
        outside &= ~inside
        # edge (u, v), u < v, crosses when exactly one end is inside; taking u
        # upwards, then v upwards from u + 1, emits the cut in sorted order
        cut = []
        rest = inside | outside
        while rest:
            bit = rest & -rest
            u = bit.bit_length() - 1
            across = (self.avail[u] & (outside if inside & bit else inside)) >> (u + 1)
            while across:
                low = across & -across
                cut.append((u, u + low.bit_length()))
                if len(cut) == limit:
                    return cut
                across ^= low
            rest ^= bit
        return cut


def _lowest(mask: int) -> int:
    """The index of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _first_edge(avail) -> tuple | None:
    """The smallest edge (u, v), u < v, left in the masks ``avail``."""
    for u, row in enumerate(avail):
        above = row >> (u + 1)
        if above:
            return (u, u + (above & -above).bit_length())
    return None


# -- connectivity maker ------------------------------------------------------------


class ConnectivityMaker(Strategy):
    """Cut-defense heuristic: claim an unclaimed edge across the most
    endangered component cut (the one with the fewest unclaimed crossing
    edges), ties broken lexicographically.  Guarantees nothing a priori.
    It claims from ``pool_masks`` (default: the host's neighbor masks) to
    connect the vertex mask ``members`` (default: every host vertex)."""

    position_pure = True

    def __init__(self, g: Graph, pool_masks=None, members=None):
        self.view = _ClaimView(
            g.neighbor_masks() if pool_masks is None else pool_masks,
            (1 << g.n) - 1 if members is None else members,
        )

    def propose(self, spec: GameSpec, pos: Position):
        if spec.board_kind != EDGES:
            raise DomainError("this maker plays edge games only")
        need = batch_size(spec, pos)
        view = self.view.see(pos)
        batch = []
        for _ in range(need):
            cut = view.smallest_cut(1)
            pick = cut[0] if cut else _first_edge(view.avail)
            if pick is None:
                rest = spec.board_set - pos.claimed() - set(batch)
                if not rest:
                    break
                pick = min(rest)
            batch.append(pick)
            view.take(pick)
        return tuple(batch) if len(batch) == need else None


# -- breakers ---------------------------------------------------------------------


class RandomStrategy(Strategy):
    """Uniform unclaimed elements; role-agnostic.  The draws are
    ``rng.sample`` on the unclaimed elements in board order, as
    ``legal_moves`` lists them; that list is carried from turn to turn of a
    game on one spec, each new claim deleted by bisection."""

    position_pure = False

    def __init__(self):
        self.rng, self.free = random.Random(0), None

    def reset(self, spec, seed):
        self.rng, self.free = random.Random(seed), None

    def propose(self, spec, pos):
        free, self.free = self.free, None  # left None if legal_moves raises
        new = None if free is None or spec is not self.spec else _new_claims(self.seen, pos)
        for e in () if new is None else (*new[0], *new[1]):
            i = bisect_left(free, e) if e in spec.board_set else len(free)
            if i == len(free) or free[i] != e:  # off the board or claimed twice
                new = None
                break
            del free[i]
        if new is None:
            free = legal_moves(spec, pos)
        self.spec, self.free, self.seen = spec, free, (pos.maker, pos.breaker)
        return tuple(self.rng.sample(free, batch_size(spec, pos)))


def _maker_two_coloring(spec: GameSpec, pos: Position):
    """(component id, color) per host vertex of Maker's graph, or None if it
    already contains an odd cycle (then the game is effectively over).  On an
    edge board every host vertex is labeled, an untouched one as a component
    of its own.  Components are numbered by smallest vertex, and color 1 is
    odd distance from that vertex."""
    labels = {}
    for comp, (seen, odd, clash) in enumerate(mask_components(*maker_masks(spec, pos.maker))):
        if clash:
            return None
        for v in mask_bits(seen):
            labels[v] = (comp, odd >> v & 1)
    return labels


class BipartiteGuardBreaker(Strategy):
    """Claim the elements that would let Maker close an odd walk; otherwise
    take the highest-degree unclaimed element."""

    position_pure = True

    def propose(self, spec, pos):
        free = legal_moves(spec, pos)
        need = batch_size(spec, pos)
        host = spec.host
        labels = _maker_two_coloring(spec, pos)
        danger = []
        if labels is not None:
            if spec.board_kind == EDGES:
                # same component, same color: the edge closes an odd cycle
                danger = [(u, v) for u, v in free if labels[u] == labels[v]]
            else:
                for w in free:
                    seen_colors = {}
                    for x in host.neighbors(w):
                        lx = labels.get(x)
                        if lx is None:
                            continue
                        comp, col = lx
                        # opposite colors in one component: odd path + two edges
                        if seen_colors.get(comp, col) != col:
                            danger.append(w)
                            break
                        seen_colors[comp] = col
        if spec.board_kind == EDGES:
            def key(e):
                return -(host.degree(e[0]) + host.degree(e[1])), e
        else:
            def key(w):
                return -host.degree(w), w
        flagged = set(danger)
        ranked = sorted(danger) + sorted((x for x in free if x not in flagged), key=key)
        return tuple(ranked[:need])


class CutAttackBreaker(Strategy):
    """Starve the smallest unclaimed cut around a Maker component; on vertex
    boards, grab the unclaimed vertices touching the most Maker components,
    the higher host degree and then the lower label first.  On edge boards
    the cut comes from a claim view; on vertex boards the tie order is the
    host's vertices by (-degree, label).  Both are kept for the last host
    played and made anew when the host changes.

    The vertex ranking reads the host's neighbour masks: each component's
    neighbourhood is one OR of its members' masks, and these are added up
    bit-sliced, ``levels[k]`` holding the free vertices next to more than k
    components, so no free vertex's neighbours are walked."""

    position_pure = True

    def __init__(self):
        self.host = self.view = self.order = None

    def propose(self, spec, pos):
        need = batch_size(spec, pos)
        host = spec.host
        if self.host is not host:
            self.host, self.view, self.order = host, None, None
        if spec.board_kind == EDGES:
            if self.view is None:
                self.view = _ClaimView(host.neighbor_masks(), (1 << host.n) - 1)
            batch = self.view.see(pos).smallest_cut(need)
            if len(batch) < need:
                for e in legal_moves(spec, pos):
                    if len(batch) == need:
                        break
                    if e not in batch:
                        batch.append(e)
            return tuple(batch)
        free = sum(1 << v for v in legal_moves(spec, pos))
        if self.order is None:
            self.order = sorted(range(host.n), key=lambda v: (-host.degree(v), v))
        adj, maker = maker_masks(spec, pos.maker)
        levels = []  # levels[k]: the free vertices next to more than k components
        for comp, _, _ in mask_components(adj, maker):
            near = 0
            for v in mask_bits(comp):
                near |= adj[v]
            near &= free
            for k, level in enumerate(levels):  # add one to the count of each bit of near
                if not near:
                    break
                levels[k], near = level | near, level & near
            if near:
                levels.append(near)
        bounds = [free, *levels, 0]  # bounds[t]: next to at least t components
        tiers = (bounds[t] & ~bounds[t + 1] for t in range(len(levels), -1, -1))
        ranked = (v for tier in tiers if tier for v in self.order if tier >> v & 1)
        return tuple(islice(ranked, need))


# -- special-edge makers for the edge games --------------------------------------


class _SpecialEdgeMaker(Strategy):
    """Stage I: claim ``special_edge``, filling the rest of the turn with
    ``inner``'s moves.  Stage II: play ``inner`` alone.  With no special edge
    the maker starts in stage II.  Subclasses set both attributes."""

    position_pure = True

    def reset(self, spec, seed):
        self.stage_trace = []

    def propose(self, spec, pos):
        edge = self.special_edge
        if edge is None or edge in pos.maker:
            self.stage_trace.append("II")
            return self.inner.propose(spec, pos)
        self.stage_trace.append("I")
        if edge in pos.breaker:
            return None  # cannot happen when Maker moves first
        need = batch_size(spec, pos)
        batch = [edge]
        if need > 1:
            probe = Position(pos.maker | {edge}, pos.breaker, pos.to_move)
            extra = self.inner.propose(spec, probe)
            batch.extend((extra or ())[: need - 1])
        return tuple(batch) if len(batch) == need else None


class DenseEdgeMaker(_SpecialEdgeMaker):
    """Stage I: claim the witness edge inside side A of the bipartite core.
    Stage II: connectivity play restricted to the core's crossing edges."""

    def __init__(self, g: Graph, core: BipartiteCore):
        self.core = core
        self.witness_edge = self.special_edge = self.core.witness_edge
        self.inner = ConnectivityMaker(
            g, cross_masks(g, core.a, core.b), sum(1 << v for v in core.a | core.b)
        )
        self.stage_trace = []


# -- case-split maker for the connected edge game ----------------------------------


def _spanning_bipartition_search(g: Graph, k_prime, rng):
    """A bipartition whose crossing subgraph is spanning and edge-connected.

    Exact Gray-code enumeration up to ``EXACT_CUT_LIMIT`` vertices; beyond
    that, an annealing max-cut pass whose result is connectivity-checked.
    Returns (sides, achieved_k) or None.  With k_prime None the search
    maximizes the achieved connectivity; otherwise it accepts the first
    bipartition at or above k_prime.
    """
    n = g.n
    if n < 2 or g.m == 0:
        return None

    nbr, everyone = g.neighbor_masks(), (1 << n) - 1

    def side_zero(ones_mask):
        return frozenset(i for i in range(n) if not ones_mask >> i & 1)

    def crossing(ones_mask):  # each vertex's neighbours across the bipartition
        return [x & (~ones_mask if ones_mask >> v & 1 else ones_mask) for v, x in enumerate(nbr)]

    def cross_floor(cross):  # the fewest neighbours a vertex has across
        return min(map(int.bit_count, cross))

    if any(g.degree(v) == 0 for v in range(n)):
        return None

    if n <= EXACT_CUT_LIMIT:
        # the least lambda a mask must reach: k_prime, or beating the best so far
        best, need = None, max(k_prime or 0, 1)
        for mask in gray_code_bipartitions(g):
            cross = crossing(mask)
            if cross_floor(cross) < need:  # lambda is at most the cross floor
                continue
            lam = edge_connectivity(cross, everyone)
            if lam >= need:
                if k_prime is not None:
                    return side_zero(mask), lam
                best, need = (side_zero(mask), lam), lam + 1
        return best

    # annealing max-cut, then one connectivity check on the outcome
    side = [rng.randint(0, 1) for _ in range(n)]
    temp = 2.0
    for _ in range(200 * n):
        v = rng.randrange(n)
        gain = sum(1 if side[u] == side[v] else -1 for u in g.neighbors(v))
        if gain > 0 or rng.random() < math.exp(gain / max(temp, 1e-9)):
            side[v] ^= 1
        temp *= 0.999
    mask = sum(1 << v for v in range(n) if side[v])
    cross = crossing(mask)
    lam = cross_floor(cross) and edge_connectivity(cross, everyone)
    if lam == 0 or (k_prime is not None and lam < k_prime):
        return None
    return side_zero(mask), lam


class ConnectedEdgeMaker(_SpecialEdgeMaker):
    """Case split at construction: if a spanning bipartite edge-connected
    subgraph exists, claim an edge inside one of its sides and then play
    connectivity on the subgraph; otherwise play connectivity on the whole
    host and rely on every such dense spanning subgraph being non-bipartite."""

    def __init__(self, g: Graph, b: int, *, k_prime: int | None = None, seed: int = 0):
        if b < 1:
            raise DomainError(f"b must be a positive integer, got {b}")
        if not has_odd_cycle(g.neighbor_masks(), (1 << g.n) - 1):
            raise DomainError("host is bipartite; the odd cycle game is unwinnable")
        rng = random.Random(seed)
        found = _spanning_bipartition_search(g, k_prime, rng)
        if found is not None:
            side_a, lam = found
            side_b = frozenset(range(g.n)) - side_a
            self.case = 1
            self.special_edge = first_edge_inside(g, side_a) or first_edge_inside(g, side_b)
            pool_masks = cross_masks(g, side_a, side_b)
            self.k_prime = lam
        else:
            self.case = 2
            self.special_edge = pool_masks = None
            self.k_prime = k_prime or 0
        self.inner = ConnectivityMaker(g, pool_masks)
        self.stage_trace = []


# -- component merging (the auxiliary connection game) ------------------------------


@dataclass
class MergePlan:
    """Private state for the merge loop: the host-scale thresholds, the
    anchor edges (dominator, high-degree partner), and a pending claim's mask."""

    host_n: int
    delta: Fraction
    anchor_pairs: dict = field(default_factory=dict)
    pending_targets: int | None = None
    last_case: str | None = None

    def triangle_floor(self) -> Fraction:
        return self.delta * self.delta * self.host_n / 4

    def far_size_floor(self) -> Fraction:
        return self.delta * self.host_n / 2

    def z_degree_ok(self, d: int) -> bool:
        return 16 * d * d >= self.host_n


def merge_components(adj, members: int, pos: Position, state: MergePlan):
    """One claim toward merging two components of Maker's subgraph of the
    graph on the vertex mask ``members``, whose vertex v sees the bits
    ``adj[v] & members``; labels are the host's.

    Returns a 1-tuple with the next vertex, () when Maker's vertices already
    induce a connected subgraph, or None when every qualifying vertex is gone
    (the forfeit signal).  Mirrors the two-round merge argument: a triangle
    through an anchor edge when enough common neighbors survive, otherwise
    either a bridge vertex pair into the far region (large remainder) or a
    direct common neighbor of two components (small remainder).  Every
    choice is the lowest qualifying vertex.
    """
    claimed = sum(1 << v for v in pos.claimed())
    maker = sum(1 << v for v in pos.maker) & members
    comps = [seen for seen, _, _ in mask_components(adj, maker)]
    if len(comps) <= 1:
        state.last_case = "connected"
        return ()

    if state.pending_targets is not None:
        targets = state.pending_targets & ~claimed
        state.pending_targets = None
        if targets:
            state.last_case = "bridge-finish"
            return (_lowest(targets),)
        return None

    def hood_of(mask):  # mask and its neighbors among the members
        for v in mask_bits(mask):
            mask |= adj[v] & members
        return mask

    comp = comps[0]
    # the first anchor pair inside comp, else comp's first inside edge
    anchored = ((x, y) for x, y in sorted(state.anchor_pairs.items()) if comp >> x & comp >> y & 1)
    inside = ((x, _lowest(adj[x] & comp)) for x in mask_bits(comp) if adj[x] & comp)
    anchor = next(anchored, None) or next(inside, None)

    if anchor is not None:
        x, y = anchor
        common = adj[x] & adj[y] & members & ~claimed
        if common and common.bit_count() >= state.triangle_floor():
            state.last_case = "triangle"
            return (_lowest(common),)

    hood = hood_of(comp)
    outside = members & ~hood

    if outside.bit_count() >= state.far_size_floor():
        # large remainder: bridge out through a well-connected boundary vertex
        for z in mask_bits(hood & ~comp & ~claimed):
            out_nbrs = adj[z] & outside
            if not state.z_degree_ok(out_nbrs.bit_count()):
                continue
            if out_nbrs & maker:  # touches another component already
                state.pending_targets, state.last_case = None, "bridge-link"
                return (z,)
            if out_nbrs & ~claimed:
                state.pending_targets, state.last_case = out_nbrs & ~claimed, "bridge-start"
                return (z,)
        state.last_case = "bridge-blocked"
        return None

    if not outside:
        state.last_case = "connected"
        return ()
    far = comps[1]  # outside, as no other component touches comp or its neighbors
    meet = hood & hood_of(far) & ~comp & ~far & ~claimed
    if meet:
        state.last_case = "common-neighbor"
        return (_lowest(meet),)
    x2 = _lowest(far)
    if adj[x2] & far:
        tri = adj[x2] & adj[_lowest(adj[x2] & far)] & members & ~claimed
        if tri:
            state.last_case = "far-triangle"
            return (_lowest(tri),)
    state.last_case = "merge-blocked"
    return None


# -- staged maker for the dense vertex game ------------------------------------------


class DenseVertexMaker(Strategy):
    """Four forward-only stages on the chromatic bipartite core, played in
    host labels on its ``cross_masks``; forfeits rather than improvising
    when a prescribed claim is unavailable."""

    position_pure = False

    def __init__(self, g: Graph, delta, b: int, core: BipartiteCore):
        self.g = g
        self.delta = Fraction(delta)
        self.core = core
        self.cross = cross_masks(g, core.a, core.b)
        self.members = sum(1 << v for v in core.a | core.b)
        self.center = min(core.a, key=lambda v: (-g.degree_into(v, core.a), v))
        self.budget = bound_report(g.n, self.delta, b).dominating_size
        self.rng = random.Random(0)
        self._clear()

    def _clear(self):
        self.stage = "I"
        self.leaf = None
        self.dom_claims = []
        self.merge_plan = MergePlan(host_n=self.g.n, delta=self.delta)
        self.partners = self.merge_plan.anchor_pairs  # the merge reads them as its anchors
        self.stage_trace = []
        self.forfeit_reason = None

    def reset(self, spec, seed):
        self.rng = random.Random(seed)
        self._clear()

    def _degree_floor_ok(self, z: int) -> bool:
        # H-degree at least (delta*n - ceil(1/delta)*n^(3/4)) / 2, exactly
        d2, t = Fraction(2 * self.cross[z].bit_count()), frac_ceil(1 / self.delta)
        return not below_degree_floor(d2, self.delta * self.g.n, t, self.g.n)

    def _forfeit(self, reason):
        self.forfeit_reason = reason
        return None

    def propose(self, spec, pos):
        if spec.board_kind != VERTICES or spec.maker_bias != 1:
            raise DomainError("this maker plays (1:b) vertex games only")
        claimed = pos.claimed()

        if self.stage == "I":
            self.stage_trace.append("I")
            if self.center not in pos.maker:
                if self.center in pos.breaker:
                    return self._forfeit("star-center-taken")
                return (self.center,)
            self.leaf = min((self.g.neighbors(self.center) & self.core.a) - claimed, default=None)
            if self.leaf is None:
                return self._forfeit("star-leaves-exhausted")
            self.stage = "II"
            return (self.leaf,)

        if self.stage == "II":
            if dominates(self.cross, sum(1 << v for v in self.dom_claims), self.members):
                self.stage = "III"
            else:
                self.stage_trace.append("II")
                if len(self.dom_claims) >= self.budget:
                    return self._forfeit("domination-budget-exhausted")
                free = sorted((self.core.a | self.core.b) - claimed)
                if not free:
                    return self._forfeit("core-exhausted")
                pick = self.rng.choice(free)
                self.dom_claims.append(pick)
                return (pick,)

        if self.stage == "III":
            targets = sorted(set(self.dom_claims) | {self.center, self.leaf})
            taken = sum(1 << v for v in claimed.union(targets, self.partners.values()))
            for w in targets:
                if w in self.partners:
                    continue
                self.stage_trace.append("III")
                z = next(
                    (z for z in mask_bits(self.cross[w] & ~taken) if self._degree_floor_ok(z)),
                    None,
                )
                if z is None:
                    return self._forfeit("no-high-degree-partner")
                self.partners[w] = z
                return (z,)
            self.stage = "IV"

        self.stage_trace.append("IV")
        claim = merge_components(self.cross, self.members, pos, self.merge_plan)
        if claim is None:
            return self._forfeit(f"merge-{self.merge_plan.last_case}")
        if claim == ():
            free = (self.core.a | self.core.b) - claimed
            return (min(free),) if free else self._forfeit("core-exhausted")
        return claim
