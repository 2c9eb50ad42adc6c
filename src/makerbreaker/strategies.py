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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .connectivity import edge_connectivity
from .decompose import (
    EXACT_CUT_LIMIT,
    BipartiteCore,
    _below_degree_floor,
    core_graph,
)
from .engine import (
    EDGES,
    MAKER,
    VERTICES,
    GameSpec,
    Position,
    Strategy,
    batch_size,
    legal_moves,
    maker_graph,
)
from .errors import DomainError
from .graphs import (
    Graph,
    OddCycleWitness,
    connected_components,
    cut_edges,
    find_odd_cycle,
    frac_ceil,
    gray_code_bipartitions,
)

# -- exact bound calculators -----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """The strategy thresholds for a given (n, delta, b), exactly evaluated.

    Log-base policy: the bias cap uses log2; the dominating-set budget and
    the failure bound come from the e-based union bound, so they use the
    natural log.  The failure bound simplifies to n^(-49) independently of
    delta and is stored as an exponent.
    """

    n: int
    delta: Fraction
    b: int
    b_max: int
    chi_threshold_edge: Fraction
    chi_threshold_vertex: Fraction
    dominating_size: int
    failure_exponent: int


def _log2_exact(n: int):
    if n & (n - 1) == 0:
        return n.bit_length() - 1
    return Fraction(math.log2(n))


def bound_report(n: int, delta, b: int = 1) -> BoundReport:
    delta = Fraction(delta)
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {delta}")
    if b < 1:
        raise DomainError(f"b must be a positive integer, got {b}")
    log2n = _log2_exact(n)
    b_max_frac = delta * delta * n / (6400 * Fraction(log2n) ** 2)
    return BoundReport(
        n=n,
        delta=delta,
        b=b,
        b_max=b_max_frac.numerator // b_max_frac.denominator,
        chi_threshold_edge=Fraction(32) / delta,
        chi_threshold_vertex=Fraction(2 * (b + 1)) / delta,
        dominating_size=math.ceil(100 * math.log(n) / (delta * delta)),
        failure_exponent=-49,
    )


def dominates(g: Graph, members) -> bool:
    """True when every vertex of g is in ``members`` or adjacent to it."""
    s = set(members)
    return all(v in s or g.neighbors(v) & s for v in range(g.n))


def sample_uniform_vertices(g: Graph, count: int, rng: random.Random) -> frozenset:
    """``count`` i.i.d. uniform draws from V(g); collisions collapse."""
    return frozenset(rng.randrange(g.n) for _ in range(count))


# -- shared helpers ---------------------------------------------------------------


def _smallest_cut(n: int, maker_edges, members, edges) -> list:
    """The smallest sorted list of ``edges`` crossing one component of Maker's
    graph on ``members`` (default: every vertex), the first on ties; [] when
    Maker's graph is connected or no edge crosses."""
    comps = connected_components(Graph(n, maker_edges), members)
    if len(comps) < 2:
        return []
    comp_of = [-1] * n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    # one pass files each crossing edge under its endpoints' components
    cuts = [[] for _ in comps]
    for e in edges:
        cu, cv = comp_of[e[0]], comp_of[e[1]]
        if cu != cv:
            if cu >= 0:
                cuts[cu].append(e)
            if cv >= 0:
                cuts[cv].append(e)
    best = min((c for c in cuts if c), key=len, default=[])
    return sorted(best)


# -- connectivity maker ------------------------------------------------------------


class ConnectivityMaker(Strategy):
    """Cut-defense heuristic: claim an unclaimed edge across the most
    endangered component cut (the one with the fewest unclaimed crossing
    edges), ties broken lexicographically.  Guarantees nothing a priori."""

    position_pure = True

    def __init__(self, g: Graph, pool=None, vertices=None):
        self.g = g
        self.pool = frozenset(pool) if pool is not None else frozenset(g.edges)
        if vertices is not None:
            self.vertices = frozenset(vertices)
        else:
            self.vertices = frozenset(range(g.n))
        self.ident = "connectivity"

    def reset(self, spec, seed):
        pass

    def _pick(self, claimed, maker_edges) -> tuple | None:
        available = self.pool - claimed
        best_cut = _smallest_cut(self.g.n, maker_edges, self.vertices, available)
        if best_cut:
            return best_cut[0]
        if available:
            return min(available)
        return None

    def propose(self, spec: GameSpec, pos: Position):
        need = batch_size(spec, pos)
        claimed = set(pos.claimed())
        maker_edges = set(pos.maker)
        batch = []
        for _ in range(need):
            pick = self._pick(frozenset(claimed), maker_edges)
            if pick is None:
                rest = spec.board_set - claimed
                if not rest:
                    break
                pick = min(rest)
            batch.append(pick)
            claimed.add(pick)
            maker_edges.add(pick)
        return tuple(batch) if len(batch) == need else None


# -- breakers ---------------------------------------------------------------------


class RandomStrategy(Strategy):
    """Uniform unclaimed elements; role-agnostic."""

    ident = "random"
    position_pure = False

    def __init__(self):
        self.rng = random.Random(0)

    def reset(self, spec, seed):
        self.rng = random.Random(seed)

    def propose(self, spec, pos):
        return tuple(self.rng.sample(legal_moves(spec, pos), batch_size(spec, pos)))


def _maker_two_coloring(spec: GameSpec, pos: Position):
    """(component id, color) per host vertex of Maker's graph, or None if it
    already contains an odd cycle (then the game is effectively over).  On an
    edge board every host vertex is labeled, an untouched one as a component
    of its own."""
    claimed, to_host = maker_graph(spec, pos.maker)
    coloring = find_odd_cycle(claimed)
    if isinstance(coloring, OddCycleWitness):
        return None
    labels = {}
    for i, comp in enumerate(connected_components(claimed)):
        for v in comp:
            labels[v if to_host is None else to_host[v]] = (i, coloring[v])
    return labels


class BipartiteGuardBreaker(Strategy):
    """Claim the elements that would let Maker close an odd walk; otherwise
    take the highest-degree unclaimed element."""

    ident = "bipartite-guard"
    position_pure = True

    def reset(self, spec, seed):
        pass

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
        flagged = set(danger)
        if spec.board_kind == EDGES:
            rest = sorted(
                (e for e in free if e not in flagged),
                key=lambda e: (-(host.degree(e[0]) + host.degree(e[1])), e),
            )
        else:
            rest = sorted(
                (w for w in free if w not in flagged),
                key=lambda w: (-host.degree(w), w),
            )
        ranked = sorted(danger) + rest
        return tuple(ranked[:need])


class CutAttackBreaker(Strategy):
    """Starve the smallest unclaimed cut around a Maker component; on vertex
    boards, grab the unclaimed vertices touching the most Maker components."""

    ident = "cut-attack"
    position_pure = True

    def reset(self, spec, seed):
        pass

    def propose(self, spec, pos):
        free = legal_moves(spec, pos)
        need = batch_size(spec, pos)
        host = spec.host
        if spec.board_kind == EDGES:
            batch = _smallest_cut(host.n, pos.maker, None, free)[:need]
            for e in free:
                if len(batch) == need:
                    break
                if e not in batch:
                    batch.append(e)
            return tuple(batch)
        comp_of = {}
        for i, comp in enumerate(connected_components(host, pos.maker)):
            for v in comp:
                comp_of[v] = i

        def touched(w):
            return len({comp_of[x] for x in host.neighbors(w) if x in comp_of})

        ranked = sorted(free, key=lambda w: (-touched(w), -host.degree(w), w))
        return tuple(ranked[:need])


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
            probe = Position(
                maker=pos.maker | {edge},
                breaker=pos.breaker,
                to_move=pos.to_move,
                log=pos.log,
            )
            extra = self.inner.propose(spec, probe)
            batch.extend((extra or ())[: need - 1])
        return tuple(batch) if len(batch) == need else None


class DenseEdgeMaker(_SpecialEdgeMaker):
    """Stage I: claim the witness edge inside side A of the bipartite core.
    Stage II: connectivity play restricted to the core's crossing edges."""

    def __init__(self, g: Graph, delta, core: BipartiteCore):
        self.g = g
        self.delta = Fraction(delta)
        self.core = core
        self.witness_edge = self.special_edge = self.core.witness_edge
        crossing, to_host = core_graph(g, self.core)
        pool = frozenset((to_host[u], to_host[v]) for u, v in crossing.edges)
        self.inner = ConnectivityMaker(g, pool=pool, vertices=self.core.a | self.core.b)
        self.ident = f"dense-edge(delta={self.delta})"
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

    def cross_graph(in_a):
        return Graph(n, [e for e in g.edges if in_a[e[0]] != in_a[e[1]]])

    def achieved(in_a):
        cg = cross_graph(in_a)
        if any(cg.degree(v) == 0 for v in range(n)):
            return 0
        return edge_connectivity(cg)

    if any(g.degree(v) == 0 for v in range(n)):
        return None

    if n <= EXACT_CUT_LIMIT:
        best = None
        for side, cross, _, _ in gray_code_bipartitions(g):
            if 0 in cross:
                continue
            lam = achieved(side)
            if lam == 0:
                continue
            if k_prime is not None:
                if lam >= k_prime:
                    return frozenset(i for i in range(n) if side[i] == 0), lam
            elif best is None or lam > best[1]:
                best = (frozenset(i for i in range(n) if side[i] == 0), lam)
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
    lam = achieved(side)
    if lam == 0 or (k_prime is not None and lam < k_prime):
        return None
    return frozenset(i for i in range(n) if side[i] == 0), lam


class ConnectedEdgeMaker(_SpecialEdgeMaker):
    """Case split at construction: if a spanning bipartite edge-connected
    subgraph exists, claim an edge inside one of its sides and then play
    connectivity on the subgraph; otherwise play connectivity on the whole
    host and rely on every such dense spanning subgraph being non-bipartite."""

    def __init__(self, g: Graph, b: int, *, k_prime: int | None = None, seed: int = 0):
        if b < 1:
            raise DomainError(f"b must be a positive integer, got {b}")
        if not isinstance(find_odd_cycle(g), OddCycleWitness):
            raise DomainError("host is bipartite; the odd cycle game is unwinnable")
        self.g = g
        self.b = b
        rng = random.Random(seed)
        found = _spanning_bipartition_search(g, k_prime, rng)
        if found is not None:
            side_a, lam = found
            side_b = frozenset(range(g.n)) - side_a
            inside = sorted(
                e for e in g.edges if (e[0] in side_a) == (e[1] in side_a)
            )
            pick = [e for e in inside if e[0] in side_a and e[1] in side_a]
            if not pick:
                pick = inside
            self.case = 1
            self.special_edge = pick[0]
            self.pool = frozenset(cut_edges(g, side_a, side_b))
            self.k_prime = lam
        else:
            self.case = 2
            self.special_edge = None
            self.pool = frozenset(g.edges)
            self.k_prime = k_prime or 0
        self.inner = ConnectivityMaker(g, pool=self.pool)
        self.ident = f"connected-edge(b={b})"
        self.stage_trace = []


# -- component merging (the auxiliary connection game) ------------------------------


@dataclass
class MergePlan:
    """Private state for the merge loop: the host-scale thresholds, the
    anchor edges (dominator, high-degree partner), and a pending second claim."""

    host_n: int
    delta: Fraction
    anchor_pairs: dict = field(default_factory=dict)
    pending_targets: frozenset | None = None
    last_case: str | None = None

    def triangle_floor(self) -> Fraction:
        return self.delta * self.delta * self.host_n / 4

    def far_size_floor(self) -> Fraction:
        return self.delta * self.host_n / 2

    def z_degree_ok(self, d: int) -> bool:
        return 16 * d * d >= self.host_n


def merge_components(h: Graph, pos: Position, state: MergePlan):
    """One claim toward merging two components of Maker's subgraph of h.

    Returns a 1-tuple with the next vertex, () when Maker's vertices already
    induce a connected subgraph, or None when every qualifying vertex is gone
    (the forfeit signal).  Mirrors the two-round merge argument: a triangle
    through an anchor edge when enough common neighbors survive, otherwise
    either a bridge vertex pair into the far region (large remainder) or a
    direct common neighbor of two components (small remainder).
    """
    claimed = pos.claimed()
    maker = pos.maker
    comps = connected_components(h, maker)
    if len(comps) <= 1:
        state.last_case = "connected"
        return ()

    if state.pending_targets is not None:
        targets = sorted(state.pending_targets - claimed)
        state.pending_targets = None
        if targets:
            state.last_case = "bridge-finish"
            return (targets[0],)
        return None

    comp = comps[0]
    anchor = None
    for x in sorted(comp):
        if x in state.anchor_pairs and state.anchor_pairs[x] in comp:
            anchor = (x, state.anchor_pairs[x])
            break
    if anchor is None:
        for x in sorted(comp):
            inside = sorted(h.neighbors(x) & comp)
            if inside:
                anchor = (x, inside[0])
                break

    if anchor is not None:
        x, y = anchor
        common = sorted((h.neighbors(x) & h.neighbors(y)) - claimed)
        if Fraction(len(common)) >= state.triangle_floor() and common:
            state.last_case = "triangle"
            return (common[0],)

    hood = set(comp)
    for v in comp:
        hood |= h.neighbors(v)
    outside = frozenset(range(h.n)) - hood

    if Fraction(len(outside)) >= state.far_size_floor():
        # large remainder: bridge out through a well-connected boundary vertex
        candidates = []
        for z in sorted(hood - comp - claimed):
            out_nbrs = h.neighbors(z) & outside
            if not state.z_degree_ok(len(out_nbrs)):
                continue
            if out_nbrs & maker:
                candidates.append((z, None))  # touches another component already
            elif out_nbrs - claimed:
                candidates.append((z, frozenset(out_nbrs - claimed)))
        if not candidates:
            state.last_case = "bridge-blocked"
            return None
        z, targets = candidates[0]
        state.pending_targets = targets
        state.last_case = "bridge-link" if targets is None else "bridge-start"
        return (z,)

    if not outside:
        state.last_case = "connected"
        return ()
    far = None
    for other in comps:
        if other is not comp and other <= outside:
            far = other
            break
    if far is None:
        state.last_case = "no-far-component"
        return None
    near_hood = hood - comp
    far_hood = set()
    for v in far:
        far_hood |= h.neighbors(v)
    meet = sorted((near_hood & far_hood) - comp - far - claimed)
    if meet:
        state.last_case = "common-neighbor"
        return (meet[0],)
    x2 = min(far)
    inside = sorted(h.neighbors(x2) & far)
    if inside:
        tri = sorted((h.neighbors(x2) & h.neighbors(inside[0])) - claimed)
        if tri:
            state.last_case = "far-triangle"
            return (tri[0],)
    state.last_case = "merge-blocked"
    return None


# -- staged maker for the dense vertex game ------------------------------------------


class DenseVertexMaker(Strategy):
    """Four forward-only stages on the chromatic bipartite core; forfeits
    rather than improvising when a prescribed claim is unavailable."""

    position_pure = False

    def __init__(self, g: Graph, delta, b: int, core: BipartiteCore):
        self.g = g
        self.delta = Fraction(delta)
        self.b = b
        self.core = core
        self.h, self.to_host = core_graph(g, self.core)
        self.to_local = {host: i for i, host in enumerate(self.to_host)}
        a_sorted = sorted(self.core.a)
        self.center = min(
            a_sorted, key=lambda v: (-g.degree_into(v, self.core.a), v)
        )
        self.budget = bound_report(g.n, self.delta, b).dominating_size
        self.ident = f"dense-vertex(delta={self.delta},b={b})"
        self.rng = random.Random(0)
        self._clear()

    def _clear(self):
        self.stage = "I"
        self.leaf = None
        self.dom_claims = []
        self.partners = {}
        self.merge_plan = MergePlan(host_n=self.g.n, delta=self.delta)
        self.stage_trace = []
        self.forfeit_reason = None

    def reset(self, spec, seed):
        self.rng = random.Random(seed)
        self._clear()

    def _degree_floor_ok(self, local_v: int) -> bool:
        # H-degree at least (delta*n - ceil(1/delta)*n^(3/4)) / 2, exactly
        d = self.h.degree(local_v)
        t = frac_ceil(1 / self.delta)
        return not _below_degree_floor(
            Fraction(2 * d), self.delta * self.g.n, t, self.g.n
        )

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
            leaves = sorted(
                v
                for v in self.g.neighbors(self.center)
                if v in self.core.a and v not in claimed
            )
            if not leaves:
                return self._forfeit("star-leaves-exhausted")
            self.leaf = leaves[0]
            self.stage = "II"
            return (self.leaf,)

        if self.stage == "II":
            dom_local = {self.to_local[v] for v in self.dom_claims}
            if dominates(self.h, dom_local):
                self.stage = "III"
            else:
                self.stage_trace.append("II")
                if len(self.dom_claims) >= self.budget:
                    return self._forfeit("domination-budget-exhausted")
                free = sorted(set(self.to_host) - claimed)
                if not free:
                    return self._forfeit("core-exhausted")
                pick = self.rng.choice(free)
                self.dom_claims.append(pick)
                return (pick,)

        if self.stage == "III":
            targets = sorted(set(self.dom_claims) | {self.center, self.leaf})
            excluded = set(targets) | set(self.partners.values())
            for w in targets:
                if w in self.partners:
                    continue
                self.stage_trace.append("III")
                w_local = self.to_local[w]
                candidates = sorted(
                    z
                    for z in self.h.neighbors(w_local)
                    if self.to_host[z] not in excluded
                    and self.to_host[z] not in claimed
                    and self._degree_floor_ok(z)
                )
                if not candidates:
                    return self._forfeit("no-high-degree-partner")
                z_host = self.to_host[candidates[0]]
                self.partners[w] = z_host
                self.merge_plan.anchor_pairs[w_local] = candidates[0]
                return (z_host,)
            self.stage = "IV"

        self.stage_trace.append("IV")
        local_pos = Position(
            maker=frozenset(self.to_local[v] for v in pos.maker if v in self.to_local),
            breaker=frozenset(self.to_local[v] for v in pos.breaker if v in self.to_local),
            to_move=MAKER,
        )
        claim = merge_components(self.h, local_pos, self.merge_plan)
        if claim is None:
            return self._forfeit(f"merge-{self.merge_plan.last_case}")
        if claim == ():
            free = sorted(set(self.to_host) - claimed)
            if free:
                return (free[0],)
            return self._forfeit("core-exhausted")
        return (self.to_host[claim[0]],)
