"""Connectivity kernels: cut computations, cut-maximal bipartitions, and
extraction of highly vertex-connected subgraphs.

Everything is exact.  Connectivity values come from unit-capacity max-flow;
the threshold variants stop augmenting early, which keeps the decomposition
pipeline fast without giving up soundness (a certified "at least t" answer is
always a real lower bound, never a heuristic one).  Each vertex-disjoint s-t
flow starts from greedily chosen paths of two and three edges, read off the
host's neighbour sets.  When they reach the limit no flow network is built
or copied; otherwise the split network is built (once per call of the public
function) and augmenting paths, which may cancel seeded flow, complete them
to a maximum flow.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction

from .errors import DomainError
from .graphs import Graph, connected_components, frac_ceil, induced_subgraph


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


def _edge_network(g: Graph):
    cap = [dict() for _ in range(g.n)]
    for u, v in g.edges:
        cap[u][v] = 1
        cap[v][u] = 1
    adj = [sorted(d) for d in cap]
    return cap, adj


def edge_connectivity(g: Graph) -> int:
    """Global minimum edge cut via max-flow from vertex 0 to every other vertex."""
    if g.n < 2:
        raise DomainError("edge connectivity needs at least 2 vertices")
    base, adj = _edge_network(g)
    best = min(len(g.neighbors(v)) for v in range(g.n))
    for target in range(1, g.n):
        if best == 0:
            break
        cap = [dict(d) for d in base]
        best = min(best, _max_flow(cap, adj, 0, target, best))
    return best


def _vertex_network(g: Graph):
    # Split each vertex x into 2x (in) and 2x+1 (out) with a unit arc between;
    # graph edges become infinite arcs out->in both ways.
    inf = g.n + 1
    cap = [dict() for _ in range(2 * g.n)]
    for x in range(g.n):
        cap[2 * x][2 * x + 1] = 1
        cap[2 * x + 1][2 * x] = 0
    for u, v in g.edges:
        cap[2 * u + 1][2 * v] = inf
        cap[2 * v][2 * u + 1] = 0
        cap[2 * v + 1][2 * u] = inf
        cap[2 * u][2 * v + 1] = 0
    adj = [sorted(d) for d in cap]
    return cap, adj


def _short_paths(g: Graph, s, t, limit):
    """Up to ``limit`` internally vertex-disjoint s-t paths of two and three
    edges, for non-adjacent s and t, as tuples of inner vertices: first
    s-x-t through each common neighbour x, then s-x-y-t for each other
    neighbour x of s with y the first unused neighbour of t adjacent to x
    (all in sorted order)."""
    ns, nt = g.neighbors(s), g.neighbors(t)
    paths = [(x,) for x in sorted(ns & nt)[:limit]]
    if len(paths) < limit:
        # every common neighbour is on a path, so the y's left are N(t) - N(s)
        ys = sorted(nt - ns)
        for x in sorted(ns - nt):
            near_x = g.neighbors(x)
            for i, y in enumerate(ys):
                if y in near_x:
                    paths.append((x, y))
                    del ys[i]
                    break
            if len(paths) == limit:
                break
    return paths


def _local_vertex_flow(g: Graph, network, s, t, limit):
    """min(limit, number of internally disjoint s-t paths) for non-adjacent
    s and t, with the residual network when that is below ``limit`` (None
    when the greedy short paths already reach it).  ``network()`` gives the
    split network (capacities, adjacency); it is called only when the short
    paths fall short."""
    paths = _short_paths(g, s, t, limit)
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


def _cut_from_residual(g: Graph, cap, adj, s):
    reach = {2 * s + 1}
    queue = deque([2 * s + 1])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in reach and cap[x][y] > 0:
                reach.add(y)
                queue.append(y)
    return frozenset(x for x in range(g.n) if 2 * x in reach and 2 * x + 1 not in reach)


def vertex_connectivity(g: Graph) -> int:
    """Standard vertex connectivity; complete graphs give n-1 by convention.

    A minimum separator misses at least one of any min-degree+1 vertices, and
    every vertex in the far component is a non-neighbor of that one, so
    scanning those source/target pairs is exhaustive.  A non-complete graph
    has connectivity at most its minimum degree, so the first flow is capped
    there and each later one at the best value so far.
    """
    if g.n < 2:
        raise DomainError("vertex connectivity needs at least 2 vertices")
    if g.is_complete():
        return g.n - 1
    network = functools.cache(lambda: _vertex_network(g))
    delta = min(len(g.neighbors(v)) for v in range(g.n))
    best = delta
    for s in range(min(delta + 1, g.n)):
        nbrs = g.neighbors(s)
        for t in range(g.n):
            if t == s or t in nbrs:
                continue
            if best == 0:
                return 0
            flow, _ = _local_vertex_flow(g, network, s, t, best)
            best = min(best, flow)
    return best


def vertex_cut_below(g: Graph, threshold: int):
    """A vertex cut of size < threshold, or None certifying connectivity >= threshold."""
    if g.is_complete():
        raise DomainError("complete graphs have no vertex cut")
    if threshold <= 0:
        return None
    network = functools.cache(lambda: _vertex_network(g))
    delta = min(len(g.neighbors(v)) for v in range(g.n))
    for s in range(min(threshold, delta + 1, g.n)):
        nbrs = g.neighbors(s)
        for t in range(g.n):
            if t == s or t in nbrs:
                continue
            flow, residual = _local_vertex_flow(g, network, s, t, threshold)
            if flow < threshold:
                return _cut_from_residual(g, residual, network()[1], s)
    return None


def vertex_connectivity_at_least(g: Graph, threshold: int) -> bool:
    if g.n < 2:
        raise DomainError("vertex connectivity needs at least 2 vertices")
    if threshold <= 0:
        return True
    if g.is_complete():
        return g.n - 1 >= threshold
    return vertex_cut_below(g, threshold) is None


def unfriendly_partition(g: Graph) -> tuple[frozenset, frozenset]:
    """Bipartition where every vertex keeps at least half its neighbors across.

    Local search: flipping any violating vertex strictly increases the cut,
    so the loop terminates within |E| flips.  Lowest violating vertex first,
    for determinism.
    """
    side = [v % 2 for v in range(g.n)]
    cross = [sum(1 for u in g.neighbors(v) if side[u] != side[v]) for v in range(g.n)]
    violating = {v for v in range(g.n) if 2 * cross[v] < g.degree(v)}
    while violating:
        v = min(violating)
        side[v] ^= 1
        cross[v] = g.degree(v) - cross[v]
        violating.discard(v)
        for u in g.neighbors(v):
            cross[u] += 1 if side[u] != side[v] else -1
            if 2 * cross[u] < g.degree(u):
                violating.add(u)
            else:
                violating.discard(u)
    x1 = frozenset(v for v in range(g.n) if side[v] == 0)
    x2 = frozenset(v for v in range(g.n) if side[v] == 1)
    return x1, x2


def mader_subgraph(g: Graph, k):
    """A vertex set inducing a ceil(k/4)-vertex-connected subgraph, or None.

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
    current = tuple(range(g.n))
    while True:
        if len(current) <= 1:
            return None
        sub, to_parent = induced_subgraph(g, current)
        if sub.is_complete():
            return frozenset(current) if sub.n - 1 >= target else None
        cut = vertex_cut_below(sub, target)
        if cut is None:
            return frozenset(current)
        comps = connected_components(sub, frozenset(range(sub.n)) - cut)
        if not comps:
            return None
        best = None
        best_key = None
        for comp in comps:
            side = sorted(comp | cut)
            piece, _ = induced_subgraph(sub, side)
            labels = sorted(to_parent[v] for v in side)
            key = (piece.average_degree(), len(side), -labels[0])
            if best_key is None or key > best_key:
                best, best_key = labels, key
        current = tuple(best)
