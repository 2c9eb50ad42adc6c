"""Structural decompositions of dense graphs.

Three pipelines, all returning certified objects that graph-core primitives
can re-verify independently:

* ``highly_connected_partition``: split a minimum-degree-k graph into parts of
  size at least k/8 whose induced subgraphs are ceil(k^2/16n)-vertex-connected.
* ``extract_bipartite_core``: inside a dense graph of large chromatic number,
  find disjoint A, B whose crossing graph is highly connected while A still
  spans an edge of the host.
* ``robust_partition`` / ``extract_chromatic_core``: partition so that no part
  admits a sparse balanced cut, every vertex keeps a quadratic fraction of its
  degree inside its part, and one part carries a side of chromatic number
  above a requested floor.

All threshold comparisons are exact: fractional bounds use Fraction or, in
the inner loops, cross-multiplied integers, and the irrational bounds
n^(3/2), n^(3/4) are compared through integer powers.

Every pipeline works in the host's labels on neighbour masks: parts, sides
and the moved set are int masks and a degree into a part is one popcount.
``highly_connected_partition`` is a thin wrapper over its mask form, which
``extract_bipartite_core`` runs on ``graphs.cross_masks`` of its
bipartition, so no crossing ``Graph`` is built; ``core_graph`` is the one
function here that builds a ``Graph``, for re-verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .coloring import chromatic_number, k_coloring
from .connectivity import mader_subgraph, unfriendly_partition, vertex_cut_below
from .errors import DomainError, PreconditionError, quoted
from .graphs import (
    Graph,
    cross_masks,
    cut_edges,
    first_edge_inside,
    frac_ceil,
    has_odd_cycle,
    mask_bits,
    min_degree,
)

DEFAULT_KL_RESTARTS = 500
EXACT_CUT_LIMIT = 20


@dataclass(frozen=True)
class PartGuarantee:
    size: int
    size_floor: Fraction
    size_ok: bool
    certified_connectivity: int


@dataclass(frozen=True)
class Partition:
    parts: tuple
    guarantees: tuple
    certified_connectivity: int

    def covers(self, n: int) -> bool:
        seen = set()
        for part in self.parts:
            if seen & part:
                return False
            seen |= part
        return seen == set(range(n))


@dataclass(frozen=True)
class BipartiteCore:
    """Disjoint sides a, b with the crossing graph bipartite by construction.

    ``certified_connectivity`` is a vertex-connectivity certificate (which
    implies the same edge connectivity).  ``witness_edge`` is an edge of the
    host inside side a; cores produced by the chromatic pipeline instead carry
    ``chi_floor``, a verified lower bound on the chromatic number of the host
    graph induced on a.
    """

    a: frozenset
    b: frozenset
    witness_edge: tuple | None
    certified_connectivity: int | None
    chi_floor: int | None
    h_min_degree: int


@dataclass(frozen=True)
class PartStats:
    size: int
    min_internal_degree: int
    low_degree_count: int
    sparsest_balanced_cut: int | None


@dataclass(frozen=True)
class RobustPartition:
    parts: tuple
    moved: frozenset
    split_count: int
    part_stats: tuple


def core_graph(g: Graph, core: BipartiteCore) -> tuple[Graph, tuple]:
    """The bipartite crossing graph (a+b, edges between a and b), relabeled,
    for checks that need a ``Graph`` of its own, such as its connectivity.

    No library code calls this: the Makers play in host labels, on
    ``graphs.cross_masks`` of the core.  It is kept for independent
    re-verification.
    """
    order = tuple(sorted(core.a | core.b))
    index = {old: new for new, old in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in cut_edges(g, core.a, core.b)]
    return Graph(len(order), edges), order


# -- partition into highly connected parts -------------------------------------


def highly_connected_partition(h: Graph, k: int) -> Partition:
    """Partition a graph of minimum degree >= k into certified connected parts:
    ``_highly_connected_partition_on`` on h's neighbour masks."""
    return _highly_connected_partition_on(h.neighbor_masks(), k)


def _highly_connected_partition_on(nbr, k: int) -> Partition:
    """``highly_connected_partition`` of the graph whose vertex v, for v below
    ``len(nbr)``, sees the bits ``nbr[v]``, in nbr's labels.

    Two alternating phases: absorb outside vertices that have enough neighbors
    inside an existing part (which preserves the part's connectivity), and
    when absorption stalls, seed a new part from the remainder with a
    ceil(k/8)-connected subgraph.  The remainder always has the density the
    seeding step needs, so exhaustion without covering everything would be an
    implementation bug and raises.  Parts and the remainder are masks in h's
    labels, so neither a seeding round nor a part's certificate copies the
    graph.
    """
    if k <= 0:
        raise DomainError(f"k must be positive, got {quoted(k)}")
    n = len(nbr)
    if n == 0:
        raise DomainError("min_degree of the empty graph is undefined")
    low = min(x.bit_count() for x in nbr)
    if low < k:
        raise DomainError(f"minimum degree {low} below k={quoted(k)}")
    conn_target = frac_ceil(Fraction(k * k, 16 * n))
    size_floor = Fraction(k, 8)

    parts: list[int] = []
    unassigned = (1 << n) - 1
    while unassigned:
        progress = True
        while progress and unassigned:
            progress = False
            for v in mask_bits(unassigned):
                for i, part in enumerate(parts):
                    if (nbr[v] & part).bit_count() >= conn_target:
                        parts[i] |= 1 << v
                        unassigned ^= 1 << v
                        progress = True
                        break
        if not unassigned:
            break
        core = mader_subgraph(nbr, unassigned, Fraction(k, 2))
        if core is None:
            raise RuntimeError(
                "partition search exhausted without covering the graph; "
                "this indicates a bug, not a valid outcome"
            )
        parts.append(sum(1 << v for v in core))
        unassigned &= ~parts[-1]

    guarantees = []
    for part in parts:
        if not _part_certified(nbr, part, conn_target):
            raise RuntimeError("a produced part failed its connectivity certificate")
        guarantees.append(
            PartGuarantee(
                size=part.bit_count(),
                size_floor=size_floor,
                size_ok=Fraction(part.bit_count()) >= size_floor,
                certified_connectivity=conn_target,
            )
        )
    return Partition(
        parts=tuple(frozenset(mask_bits(p)) for p in parts),
        guarantees=tuple(guarantees),
        certified_connectivity=conn_target,
    )


def _part_certified(nbr, part: int, target: int) -> bool:
    """Whether the graph on the vertex bits ``part`` is ``target``-vertex-
    connected (K_1 passes): a complete part by its degree count, as K_s is
    (s-1)-connected, any other by ``vertex_cut_below``."""
    size = part.bit_count()
    if all((nbr[v] & part).bit_count() == size - 1 for v in mask_bits(part)):
        return size == 1 or size - 1 >= target
    return vertex_cut_below(nbr, part, target) is None


# -- bipartite core with a witness edge ----------------------------------------


def extract_bipartite_core(g: Graph, delta, *, force: bool = False) -> BipartiteCore:
    """Find disjoint A, B with (A+B, crossing edges) highly connected and an
    edge of the host inside A.

    Pipeline: cut-maximal bipartition, drop the intra-side edges, partition
    the crossing graph into connected parts, then pick a part whose host
    subgraph is not 2-colorable and orient its sides so A spans an edge.
    The crossing graph is ``cross_masks`` of the bipartition, in host labels,
    and the partition runs on those masks directly.
    ``force`` skips the chromatic precondition so small-graph pipelines and
    error paths stay testable.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {quoted(str(delta))}")
    n = g.n
    if n == 0 or Fraction(min_degree(g)) < delta * n:
        raise PreconditionError(f"minimum degree below delta*n = {quoted(str(delta * n))}")
    if not force:
        chi = chromatic_number(g)
        threshold = Fraction(32) / delta
        if not Fraction(chi) > threshold:
            raise PreconditionError(
                f"chromatic number {chi} does not exceed 32/delta = {quoted(str(threshold))}"
            )

    x1, x2 = unfriendly_partition(g)
    cross = cross_masks(g, x1, x2)
    partition = _highly_connected_partition_on(cross, frac_ceil(delta * n / 2))

    adj = g.neighbor_masks()
    chosen = next(
        (p for p in partition.parts if has_odd_cycle(adj, sum(1 << v for v in p))), None
    )
    if chosen is None:
        raise PreconditionError(
            "every part is 2-colorable; the input did not satisfy the hypotheses"
        )

    a, b = chosen & x1, chosen & x2
    witness = first_edge_inside(g, a)
    if witness is None:
        a, b = b, a
        witness = first_edge_inside(g, a)
    if witness is None:
        raise RuntimeError("non-2-colorable part with no intra-side edge")

    cert = partition.certified_connectivity
    if cert < frac_ceil(delta * delta * n / 64):
        raise RuntimeError("connectivity certificate fell below the pipeline floor")
    # the part's crossing neighbours of a member are its neighbours on the other side
    inside = sum(1 << v for v in chosen)
    h_min = min((cross[v] & inside).bit_count() for v in chosen)
    return BipartiteCore(
        a=frozenset(a),
        b=frozenset(b),
        witness_edge=witness,
        certified_connectivity=cert,
        chi_floor=None,
        h_min_degree=h_min,
    )


# -- sparse-cut-free partition --------------------------------------------------


def _balanced_cut_exact(g: Graph, members, min_side: Fraction, n: int):
    """The sparsest balanced bipartition of ``members``, found exactly.

    Returns ((sideA, sideB), best) when the smallest cut with both sides at
    least ``min_side`` is below n^(3/2), (None, best) when it is not, and
    (None, None) when no bipartition is balanced.

    A depth-first search assigns vertices m-1 down to 1 (in sorted order of
    ``members``; vertex 0 stays on side 0) and so meets the bipartitions in
    binary-reflected Gray-code order: a forward node tries side 0 first, a
    reversed one side 1, and a child's direction is the side chosen XOR its
    parent's.  It prunes a subtree whose side sizes cannot be balanced, and
    one whose cut so far, plus for each unassigned vertex the smaller of its
    neighbour counts on the two sides, is not below the best cut found.  Only
    a smaller cut replaces the best, so of the minimum cuts the first in Gray
    order is kept.  Sides are masks in g's labels: no induced subgraph.
    """
    order = sorted(members)
    m = len(order)
    inside = sum(1 << u for u in order)
    nbr = [g.neighbor_masks()[u] & inside for u in order]
    lo = frac_ceil(min_side)
    best = best_mask = None
    unassigned = [nbr[1 : v + 1] for v in range(m)]  # masks of vertices 1..v

    def search(v, side0, side1, ones, cut, reverse):
        # vertices 1..v are unassigned, and the sides can still be balanced
        nonlocal best, best_mask
        if best is not None:
            bound = cut
            for x in unassigned[v]:
                a = (x & side0).bit_count()
                b = (x & side1).bit_count()
                bound += a if a < b else b
            if bound >= best:
                return
        if v == 0:
            best, best_mask = cut, side1
            return
        bit, x = 1 << order[v], nbr[v]
        for one in (1, 0) if reverse else (0, 1):
            if one:
                if ones < m - lo:  # side 0 keeps at least lo
                    search(v - 1, side0, side1 | bit, ones + 1,
                           cut + (x & side0).bit_count(), not reverse)
            elif ones + v > lo:  # side 1 can still reach lo
                search(v - 1, side0 | bit, side1, ones, cut + (x & side1).bit_count(), reverse)

    if lo <= m - lo:
        search(m - 1, 1 << order[0], 0, 0, 0, False)
    if best is None:
        return None, None
    if best * best >= n**3:
        return None, best
    return _normalize_sides(order, [u for u in order if not best_mask >> u & 1]), best


def _balanced_cut_search(g: Graph, members, min_side: Fraction, n: int, rng):
    """Local-search restarts that accept the first balanced cut below n^(3/2).
    Each restart draws side A as ``rng.sample`` of the sorted members; side A
    is a mask in g's labels and degrees are popcounts of neighbour masks."""
    order = sorted(members)
    m = len(order)
    lo = frac_ceil(min_side)
    nbr = g.neighbor_masks()
    everyone = sum(1 << v for v in order)
    total = {v: (nbr[v] & everyone).bit_count() for v in order}
    best_seen = None

    def record(c):  # keep the best cut seen; whether c is accepted
        nonlocal best_seen
        if best_seen is None or c < best_seen:
            best_seen = c
        return c * c < n**3

    for _ in range(DEFAULT_KL_RESTARTS):
        size_a = rng.randint(lo, m - lo)
        a = sum(1 << v for v in rng.sample(order, size_a))
        inside = {v: (nbr[v] & a).bit_count() for v in order}
        cut = sum(total[v] - inside[v] for v in mask_bits(a))
        if record(cut):
            return _normalize_sides(order, mask_bits(a)), best_seen
        improved = True
        while improved:
            improved = False
            for v in order:
                in_a = a >> v & 1
                d_own = inside[v] if in_a else total[v] - inside[v]
                delta_cut = 2 * d_own - total[v]
                if delta_cut >= 0:
                    continue
                new_size = size_a + (-1 if in_a else 1)
                if new_size < lo or m - new_size < lo:
                    continue
                a ^= 1 << v
                size_a = new_size
                sign = -1 if in_a else 1
                for u in mask_bits(nbr[v] & everyone):
                    inside[u] += sign
                cut += delta_cut
                improved = True
                if record(cut):
                    return _normalize_sides(order, mask_bits(a)), best_seen
    return None, best_seen


def _normalize_sides(order, a):
    sa = frozenset(a)
    sb = frozenset(order) - sa
    if min(sb) < min(sa):
        sa, sb = sb, sa
    return sa, sb


def robust_partition(g: Graph, delta, seed: int = 0) -> RobustPartition:
    """Split parts along sparse balanced cuts, then relocate low-degree vertices.

    A part splits while it admits a cut with both sides at least delta*n and
    fewer than n^(3/2) crossing edges.  Vertices that lose more than n^(3/4)
    degree in a split are tracked in the moved set and, at the end, relocated
    to a part holding at least delta^2*n of their neighbors.  The final sweep
    relocates *every* vertex below that floor, not only the tracked ones: the
    tracked-only rule leaves stragglers at desk scale, and a pigeonhole over
    the at most 1/delta parts guarantees a qualifying destination, so the
    sweep always terminates with the floor holding pointwise.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {quoted(str(delta))}")
    n = g.n
    if n == 0 or Fraction(min_degree(g)) < delta * n:
        raise PreconditionError(f"minimum degree below delta*n = {quoted(str(delta * n))}")
    rng = random.Random(seed)
    min_side = delta * n
    nbr = g.neighbor_masks()

    def degree_in(v, part):
        return (nbr[v] & part).bit_count()

    # parts and moved are masks in g's labels
    parts: list[int] = [(1 << n) - 1]
    moved = 0
    splits = 0
    final_best: list = []

    while True:
        split_done = False
        final_best = []
        for i, part in enumerate(parts):
            if Fraction(2) * min_side > part.bit_count():
                final_best.append(None)
                continue
            members = mask_bits(part)
            if len(members) <= EXACT_CUT_LIMIT:
                found, best = _balanced_cut_exact(g, members, min_side, n)
            else:
                found, best = _balanced_cut_search(g, members, min_side, n, rng)
            if found is None:
                final_best.append(best)
                continue
            a, b = (sum(1 << v for v in side) for side in found)
            for v in members:
                loss = degree_in(v, part) - degree_in(v, a if a >> v & 1 else b)
                if loss > 0 and loss**4 > n**3:
                    moved |= 1 << v
            parts[i : i + 1] = [a, b]
            splits += 1
            split_done = True
            break
        if not split_done:
            break

    floor = delta * delta * n
    # d >= floor, compared as d * floor.denominator >= floor.numerator
    floor_num, floor_den = floor.numerator, floor.denominator
    part_of = [0] * n
    for i, part in enumerate(parts):
        for v in mask_bits(part):
            part_of[v] = i

    def short(v):  # below the floor in its own part
        return degree_in(v, parts[part_of[v]]) * floor_den < floor_num

    def relocate(v):
        for j, pt in enumerate(parts):
            if degree_in(v, pt) * floor_den >= floor_num:
                if j != part_of[v]:
                    parts[part_of[v]] ^= 1 << v
                    parts[j] |= 1 << v
                    part_of[v] = j
                return
        raise PreconditionError(
            f"vertex {v} has no part holding delta^2*n = {quoted(str(floor))} of its neighbors"
        )

    for v in mask_bits(moved):
        relocate(v)
    while True:
        violators = [v for v in range(n) if short(v)]
        if not violators:
            break
        for v in violators:
            if short(v):
                relocate(v)

    t_bound = frac_ceil(1 / delta)
    kept = [(i, p) for i, p in enumerate(parts) if p]
    stats = []
    for i, part in kept:
        degrees = [degree_in(v, part) for v in mask_bits(part)]
        low = sum(1 for d in degrees if below_degree_floor(d, delta * n, t_bound, n))
        best = final_best[i] if i < len(final_best) else None
        stats.append(
            PartStats(
                size=len(degrees),
                min_internal_degree=min(degrees),
                low_degree_count=low,
                sparsest_balanced_cut=best,
            )
        )
    return RobustPartition(
        parts=tuple(frozenset(mask_bits(p)) for _, p in kept),
        moved=frozenset(mask_bits(moved)),
        split_count=splits,
        part_stats=tuple(stats),
    )


def below_degree_floor(d, delta_n: Fraction, t: int, n: int) -> bool:
    """Exact test for d < delta*n - t*n^(3/4), avoiding irrational arithmetic:
    with delta*n = p/q, it is p - d*q > 0 and (p - d*q)^4 > (t*q)^4 * n^3."""
    diff = delta_n.numerator - d * delta_n.denominator
    return diff > 0 and diff**4 > (t * delta_n.denominator) ** 4 * n**3


# -- bipartite core with a chromatic certificate --------------------------------


def extract_chromatic_core(
    g: Graph, delta, b: int, *, force: bool = False, seed: int = 0
) -> BipartiteCore:
    """Find disjoint A, B whose crossing graph has minimum degree at least
    delta^2*n/2 while the host graph induced on A needs more than b+1 colors.

    Pipeline: run the sparse-cut-free partition on the host, pick a part whose
    induced subgraph is not 2(b+1)-colorable (one exists by a palette-counting
    argument whenever the chromatic number clears 2(b+1)/delta), split that
    part with a cut-maximal bipartition, and keep as A whichever side is not
    (b+1)-colorable.  The colorability checks are exact: ``k_coloring`` on
    the host's masks under each vertex set, and the bipartition is in host
    labels too, so no subgraph is relabelled.  The sparse-cut property of the
    crossing graph is inherited from the partition and is not re-verified
    (doing so exactly would mean solving sparsest cut).
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {quoted(str(delta))}")
    if b < 1:
        raise DomainError(f"b must be a positive integer, got {b}")
    n = g.n
    if n == 0 or Fraction(min_degree(g)) < delta * n:
        raise PreconditionError(f"minimum degree below delta*n = {quoted(str(delta * n))}")
    threshold = Fraction(2 * (b + 1)) / delta

    def colorable(vertices, k: int) -> bool:
        return k_coloring(g.neighbor_masks(), sum(1 << v for v in vertices), k) is not None

    if not force:
        if threshold >= n:
            raise PreconditionError(
                f"chromatic threshold 2(b+1)/delta = {quoted(str(threshold))} is at least n = {n}"
            )
        gate = threshold.numerator // threshold.denominator
        if colorable(range(n), gate):
            raise PreconditionError(
                f"chromatic number does not exceed 2(b+1)/delta = {quoted(str(threshold))}"
            )

    rp = robust_partition(g, delta, seed=seed)
    chosen = next((p for p in rp.parts if not colorable(p, 2 * (b + 1))), None)
    if chosen is None:
        raise PreconditionError(
            f"every part is {2 * (b + 1)}-colorable; the input did not satisfy the hypotheses"
        )

    sides = unfriendly_partition(g, chosen)
    a = next((side for side in sides if not colorable(side, b + 1)), None)
    if a is None:
        raise RuntimeError(
            "both sides (b+1)-colorable although the part needs more than "
            "2(b+1) colors; unreachable"
        )
    bside = sides[1] if a is sides[0] else sides[0]
    h_min = min(g.degree_into(v, bside if v in a else a) for v in a | bside)
    if Fraction(h_min) < delta * delta * n / 2:
        raise RuntimeError("crossing-graph degree fell below delta^2*n/2; unreachable")
    return BipartiteCore(
        a=a,
        b=bside,
        witness_edge=None,
        certified_connectivity=None,
        chi_floor=b + 2,
        h_min_degree=h_min,
    )
