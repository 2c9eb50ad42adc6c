"""Connectivity kernels: cut computations, cut-maximal bipartitions, and
extraction of highly vertex-connected subgraphs.

Everything is exact.  Connectivity values come from unit-capacity max-flow;
the threshold variants stop augmenting early, which keeps the decomposition
pipeline fast without giving up soundness (a certified "at least t" answer is
always a real lower bound, never a heuristic one).  ``edge_connectivity``
and the vertex-cut kernels read a host's neighbour masks under a member
mask, in host labels, as ``spans`` does; the threshold kernels scan a
threshold's many sources against their non-neighbours.
``vertex_connectivity_at_least`` and ``vertex_connectivity`` take a whole
``Graph`` for independent re-verification; no library code calls them.
``unfriendly_partition`` keeps each member's neighbours among the members as
a mask and counts them by popcount.
``vertex_connectivity`` runs Esfahanian and Hakimi's smaller pair set: one
minimum-degree vertex against each of its non-neighbours, then the
non-adjacent pairs among its neighbours.  Each vertex-disjoint s-t flow first
counts the common neighbours of s and t, one popcount, and stops there when
they reach the limit.  Otherwise it starts from greedily chosen paths of two
and three edges, read off the same masks, and when those still fall short the
split network is built (once per call of the public function) and augmenting
paths, which may cancel seeded flow, complete them to a maximum flow.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction

from .errors import DomainError
from .graphs import Graph, check_vertex_set, frac_ceil, mask_bits, mask_components


def _max_flow(cap, adj, source, sink, limit):
    """Unit-augmenting BFS max-flow, stopping once ``limit`` is reached."""
    flow = 0
    while flow < limit:
        prev = {source: None}
        queue = deque([source])
        found = False
        while queue and not found:
            x = queue.popleft()
            for y in adj[x]:
                if y not in prev and cap[x][y] > 0:
                    prev[y] = x
                    if y == sink:
                        found = True
                        break
                    queue.append(y)
        if not found:
            break
        y = sink
        while prev[y] is not None:
            x = prev[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
    return flow


def edge_connectivity(adj, members: int) -> int:
    """Edge connectivity of the graph on the vertex bits ``members`` (vertex
    v sees ``adj[v] & members``): max-flow from the lowest member to each
    other member, each capped at the best so far (the minimum degree at
    first), stopping at 0.  Fewer than 2 members, or a member past ``adj``,
    raises DomainError."""
    if members >> len(adj):
        raise DomainError(f"vertex {members.bit_length() - 1} out of range for n={len(adj)}")
    order = mask_bits(members)
    if len(order) < 2:
        raise DomainError("edge connectivity needs at least 2 vertices")
    near = {v: mask_bits(adj[v] & members) for v in order}
    best = min(len(ns) for ns in near.values())
    for target in order[1:]:
        if best == 0:
            break
        cap = {v: dict.fromkeys(ns, 1) for v, ns in near.items()}
        best = min(best, _max_flow(cap, near, order[0], target, best))
    return best


def _vertex_network(nbr, members: int):
    # Split each member x into 2x (in) and 2x+1 (out) with a unit arc between;
    # edges become infinite arcs out->in both ways.
    inf = len(nbr) + 1
    cap = [dict() for _ in range(2 * len(nbr))]
    for x in mask_bits(members):
        cap[2 * x][2 * x + 1] = 1
        cap[2 * x + 1][2 * x] = 0
        for y in mask_bits(nbr[x]):
            cap[2 * x + 1][2 * y] = inf
            cap[2 * y][2 * x + 1] = 0
    adj = [sorted(d) for d in cap]
    return cap, adj


def _short_paths(nbr, s, t, limit):
    """Up to ``limit`` internally vertex-disjoint s-t paths of two and three
    edges, for non-adjacent s and t, as tuples of inner vertices: first
    s-x-t through each common neighbour x, then s-x-y-t for each other
    neighbour x of s with y the lowest unused neighbour of t adjacent to x
    (all in increasing order)."""
    ns, nt = nbr[s], nbr[t]
    paths = []
    common = ns & nt
    while common and len(paths) < limit:
        low = common & -common
        paths.append((low.bit_length() - 1,))
        common ^= low
    if len(paths) < limit:
        # every common neighbour is on a path, so the y's left are N(t) - N(s)
        ys = nt & ~ns
        xs = ns & ~nt
        while xs:
            low = xs & -xs
            xs ^= low
            x = low.bit_length() - 1
            hit = nbr[x] & ys
            if hit:
                y = hit & -hit
                paths.append((x, y.bit_length() - 1))
                ys ^= y
                if len(paths) == limit:
                    break
    return paths


def _local_vertex_flow(nbr, network, s, t, limit):
    """min(limit, number of internally disjoint s-t paths) for non-adjacent
    s and t, with the residual network when that is below ``limit`` (None
    when the common neighbours or the greedy short paths already reach it).
    ``network()`` gives the split network (capacities, adjacency); it is
    called only when the short paths fall short."""
    if (nbr[s] & nbr[t]).bit_count() >= limit:
        return limit, None
    paths = _short_paths(nbr, s, t, limit)
    if len(paths) == limit:
        return limit, None
    base, adj = network()
    cap = [dict(d) for d in base]
    for inner in paths:
        nodes = [2 * s + 1]
        for x in inner:
            nodes += (2 * x, 2 * x + 1)
        nodes.append(2 * t)
        for x, y in zip(nodes, nodes[1:]):
            cap[x][y] -= 1
            cap[y][x] += 1
    flow = len(paths) + _max_flow(cap, adj, 2 * s + 1, 2 * t, limit - len(paths))
    return flow, cap


def _cut_from_residual(cap, adj, s):
    reach = {2 * s + 1}
    queue = deque([2 * s + 1])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in reach and cap[x][y] > 0:
                reach.add(y)
                queue.append(y)
    return frozenset(x // 2 for x in reach if x % 2 == 0 and x + 1 not in reach)


def _pairs(nbr, members: int, sources: int):
    """Non-adjacent member pairs (s, t), s among the lowest ``sources`` and t ascending."""
    for s in mask_bits(members)[:sources]:
        for t in mask_bits(members & ~nbr[s] & ~(1 << s)):
            yield s, t


def _complete(adj, members: int) -> bool:
    """Whether the graph on ``members`` is complete; a bit past ``adj`` raises DomainError."""
    if members >> len(adj):
        raise DomainError(f"vertex {members.bit_length() - 1} out of range for n={len(adj)}")
    size = members.bit_count()
    return all((adj[v] & members).bit_count() == size - 1 for v in mask_bits(members))


def vertex_connectivity(g: Graph) -> int:
    """Standard vertex connectivity; complete graphs give n-1 by convention.

    The pairs are Esfahanian and Hakimi's (1984).  Take v, the lowest vertex
    of minimum degree.  A minimum separator S that misses v parts v from some
    non-neighbour.  One that holds v is minimal, so v has neighbours in two
    components of G - S, a non-adjacent pair inside N(v) that S parts.  So
    flows from v to each non-neighbour, then between the non-adjacent pairs
    x < y of N(v), see every minimum separator.  A non-complete graph has
    connectivity at most its minimum degree, so the first flow is capped
    there and each later one at the best value so far; the scan stops at 0.
    Kept for re-verification; no library code calls it.
    """
    if g.n < 2:
        raise DomainError("vertex connectivity needs at least 2 vertices")
    if g.is_complete():
        return g.n - 1
    nbr, members = g.neighbor_masks(), (1 << g.n) - 1
    network = functools.cache(lambda: _vertex_network(nbr, members))
    degrees = [x.bit_count() for x in nbr]
    best = min(degrees)
    v = degrees.index(best)
    near = nbr[v]
    pairs = [(v, t) for t in mask_bits(members & ~near & ~(1 << v))]
    pairs += [(x, y) for x in mask_bits(near) for y in mask_bits(near & ~nbr[x] & -(2 << x))]
    for s, t in pairs:
        if best == 0:
            break
        best, _ = _local_vertex_flow(nbr, network, s, t, best)
    return best


def vertex_cut_below(adj, members: int, threshold: int):
    """A vertex cut of size < threshold of the graph on the vertex bits
    ``members`` (vertex v sees ``adj[v] & members``), in adj's labels, or
    None certifying connectivity >= threshold."""
    if _complete(adj, members):
        raise DomainError("complete graphs have no vertex cut")
    if threshold <= 0:
        return None
    nbr = [x & members for x in adj]
    network = functools.cache(lambda: _vertex_network(nbr, members))
    # a cut of fewer than threshold vertices misses one of any threshold members
    for s, t in _pairs(nbr, members, threshold):
        flow, residual = _local_vertex_flow(nbr, network, s, t, threshold)
        if flow < threshold:
            return _cut_from_residual(residual, network()[1], s)
    return None


def vertex_connectivity_at_least(g: Graph, threshold: int) -> bool:
    """Whether g is ``threshold``-vertex-connected (K_n is (n-1)-connected);
    kept for re-verification, no library code calls it."""
    if g.n < 2:
        raise DomainError("vertex connectivity needs at least 2 vertices")
    if g.is_complete():
        return g.n - 1 >= threshold
    return vertex_cut_below(g.neighbor_masks(), (1 << g.n) - 1, threshold) is None


def unfriendly_partition(g: Graph, members=None) -> tuple[frozenset, frozenset]:
    """Bipartition of ``members`` (default: every vertex), in g's labels,
    where every member has at least half its neighbors among the members on
    the other side; a member out of range raises DomainError.  Local search
    from the parity of each member's rank in sorted order: flipping a
    violating vertex strictly increases the cut, so the loop ends within |E|
    flips.  Lowest violating vertex first, for determinism.  A member's
    neighbours among the members are ``nbr[v] & inside``, counted by popcount.
    """
    order = sorted(check_vertex_set(g, range(g.n) if members is None else members))
    inside = sum(1 << v for v in order)
    ones = sum(1 << v for v in order[1::2])
    nbr = g.neighbor_masks()
    side, cross, near = [0] * g.n, [0] * g.n, [0] * g.n
    for v in order:
        side[v] = ones >> v & 1
        near[v] = nbr[v] & inside
        cross[v] = (near[v] & (inside & ~ones if side[v] else ones)).bit_count()
    violating = {v for v in order if 2 * cross[v] < near[v].bit_count()}
    while violating:
        v = min(violating)
        side[v] ^= 1
        cross[v] = near[v].bit_count() - cross[v]
        violating.discard(v)
        for u in mask_bits(near[v]):
            cross[u] += 1 if side[u] != side[v] else -1
            if 2 * cross[u] < near[u].bit_count():
                violating.add(u)
            else:
                violating.discard(u)
    return frozenset(v for v in order if not side[v]), frozenset(v for v in order if side[v])


def mader_subgraph(adj, members: int, k):
    """The vertices, in adj's labels, of a ceil(k/4)-vertex-connected
    subgraph of the graph on the vertex bits ``members``, or None.

    Search: repeatedly find a minimum-side vertex cut below the target; if
    none exists the current set is certified and returned, otherwise recurse
    into the densest side (average degree, then size, then lowest label).
    The certificate comes from the threshold check, so a returned set is
    always genuinely connected enough regardless of search luck.
    """
    k = Fraction(k)
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    target = frac_ceil(k / 4)
    current = members
    while True:
        if _complete(adj, current):  # K_1 and K_0 fall short of any target
            return frozenset(mask_bits(current)) if current.bit_count() > target else None
        cut = vertex_cut_below(adj, current, target)
        if cut is None:
            return frozenset(mask_bits(current))
        cut_mask = sum(1 << v for v in cut)
        sides = [comp | cut_mask for comp, _, _ in mask_components(adj, current & ~cut_mask)]
        # the cut parts some s from some t, so there are sides; the first of
        # largest average degree within the side, then size, then lowest label
        current = max(sides, key=lambda side: (
            Fraction(sum((adj[v] & side).bit_count() for v in mask_bits(side)), side.bit_count()),
            side.bit_count(),
            -(side & -side),
        ))
