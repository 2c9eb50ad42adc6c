"""Shared graph builders, a coloring check, a scripted strategy, the
decomposition-backed Makers on forced cores, uniform vertex sampling, the
small-graph isomorphism-class enumeration, the set-based component search, the
solver's node loop before its one choice routine, the connectivity and
coloring kernels on relabelled subgraphs, Maker's graph and the odd-cycle
witness on a relabelled copy, edge connectivity of a whole ``Graph``, and
vertex connectivity by the min-degree + 1 source scan."""

from collections import deque
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations

from hypothesis import strategies as st

from makerbreaker.connectivity import (
    _local_vertex_flow,
    _pairs,
    _vertex_network,
    edge_connectivity,
)
from makerbreaker.decompose import extract_bipartite_core, extract_chromatic_core
from makerbreaker.engine import BREAKER, EDGES, MAKER, Strategy
from makerbreaker.errors import DomainError
from makerbreaker.graphs import (
    Graph,
    OddCycleWitness,
    connected_components,
    find_odd_cycle,
    frac_ceil,
    induced_subgraph,
)
from makerbreaker.solver import _mask_elements, _Solver
from makerbreaker.strategies import DenseEdgeMaker, DenseVertexMaker


def verify_coloring(g: Graph, coloring, k: int | None = None) -> bool:
    if len(coloring) != g.n:
        return False
    if k is not None and any(not (0 <= c < k) for c in coloring):
        return False
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def graph_edge_connectivity(g: Graph) -> int:
    """``edge_connectivity`` of the whole of g, on g's own neighbour masks."""
    return edge_connectivity(g.neighbor_masks(), (1 << g.n) - 1)


def maker_graph(spec, claims) -> tuple:
    """Maker's graph on ``claims`` as a ``Graph`` of its own, (graph, to_host):
    on an edge board the host's vertices and the claimed edges, with to_host
    None; on a vertex board the host's subgraph induced on the claimed
    vertices, relabelled, with to_host[new] = old."""
    if spec.board_kind == EDGES:
        return Graph(spec.host.n, claims), None
    return induced_subgraph(spec.host, claims)


def odd_cycle_by_relabelling(g: Graph, members):
    """``find_odd_cycle`` on g's subgraph induced on ``members``, relabelled,
    with a witness mapped back to g's labels (a coloring stays relabelled)."""
    sub, to_host = induced_subgraph(g, members)
    found = find_odd_cycle(sub)
    if isinstance(found, OddCycleWitness):
        return OddCycleWitness(tuple(to_host[v] for v in found.vertices))
    return found


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def two_triangles_shared_vertex() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def forced_dense_edge_maker(g: Graph, delta) -> DenseEdgeMaker:
    """A DenseEdgeMaker on the bipartite core extracted with ``force=True``."""
    return DenseEdgeMaker(g, extract_bipartite_core(g, delta, force=True))


def forced_dense_vertex_maker(g: Graph, delta, b: int) -> DenseVertexMaker:
    """A DenseVertexMaker on the chromatic core extracted with ``force=True``."""
    return DenseVertexMaker(g, delta, b, extract_chromatic_core(g, delta, b, force=True))


def sample_uniform_vertices(g: Graph, count: int, rng) -> frozenset:
    """``count`` i.i.d. uniform draws from V(g); collisions collapse."""
    return frozenset(rng.randrange(g.n) for _ in range(count))


def gray_code_side_lists(g: Graph):
    """Reference for ``graphs.gray_code_bipartitions`` as it was before the
    neighbor-mask walk: yields ``(side, cross, ones, cut)`` with per-vertex
    side and crossing-neighbor lists updated in place, one neighbor at a
    time, in the same binary-reflected Gray-code order."""
    n = g.n
    side = [0] * n
    cross = [0] * n
    ones = cut = 0
    yield side, cross, ones, cut
    for code in range(1, 1 << (n - 1)):
        v = (code & -code).bit_length()
        side[v] ^= 1
        ones += 1 if side[v] else -1
        for u in g.neighbors(v):
            cross[u] += 1 if side[u] != side[v] else -1
        d = g.degree(v)
        cut += d - 2 * cross[v]
        cross[v] = d - cross[v]
        yield side, cross, ones, cut


def components_by_set_search(g: Graph, members=None) -> list:
    """``graphs.connected_components`` as it was before the mask search: a
    breadth-first search over neighbor sets, with the vertices outside
    ``members`` marked seen from the start."""
    if members is None:
        seen = [False] * g.n
    else:
        seen = [True] * g.n
        for v in members:
            seen[v] = False
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for x in comp:
            for y in g.neighbors(x):
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        comps.append(frozenset(comp))
    return comps


@st.composite
def random_graphs(draw, max_n=8, max_edges=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)))


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _canonical_form(n: int, edges: frozenset) -> frozenset:
    best = None
    for perm in permutations(range(n)):
        mapped = frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        )
        key = tuple(sorted(mapped))
        if best is None or key < best[0]:
            best = (key, mapped)
    return best[1]


@lru_cache(maxsize=None)
def iso_classes(n: int) -> tuple:
    """One representative per isomorphism class of graphs on exactly n vertices."""
    seen = {}
    for g in all_labeled_graphs(n):
        canon = _canonical_form(n, g.edges)
        if canon not in seen:
            seen[canon] = Graph(n, canon)
    return tuple(seen.values())


class ScriptedStrategy(Strategy):
    """Proposes the given batches in order, then forfeits."""

    ident = "scripted"
    position_pure = False

    def __init__(self, batches):
        self.batches = list(batches)
        self.cursor = 0

    def reset(self, spec, seed):
        self.cursor = 0

    def propose(self, spec, pos):
        if self.cursor >= len(self.batches):
            return None
        batch = self.batches[self.cursor]
        self.cursor += 1
        return batch


class SolverBeforeChoose(_Solver):
    """``solver._Solver`` as it was before ``choose``: ``win`` and
    ``principal_line`` each work out the batch a player makes."""

    def winning_subset(self, m, unclaimed):
        most = min(self.spec.maker_bias, unclaimed.bit_count())
        for size in range(1, most + 1):
            for batch in self.batches(unclaimed, size):
                if self.eval_win(m | batch):
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
        elif mover == MAKER:
            res = not self.monotone and self.winning_subset(m, unclaimed) is not None
            if not res:
                for batch in self.batches(unclaimed, self.spec.maker_bias):
                    nm = m | batch
                    if self.eval_win(nm) or self.win(nm, b, BREAKER):
                        res = True
                        break
        else:
            res = True
            for batch in self.batches(unclaimed, self.spec.breaker_bias):
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
            if not unclaimed:
                break
            bias = self.spec.bias_of(mover)
            chosen = None
            if mover == MAKER:
                if not self.monotone:
                    chosen = self.winning_subset(m, unclaimed)
                if chosen is None:
                    for batch in self.batches(unclaimed, bias):
                        if self.eval_win(m | batch) or self.win(m | batch, b, BREAKER):
                            chosen = batch
                            break
            else:
                for batch in self.batches(unclaimed, bias):
                    if not self.win(m, b | batch, MAKER):
                        chosen = batch
                        break
            if chosen is None:
                chosen = next(self.batches(unclaimed, bias))
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


# The kernels as they were on relabelled subgraphs, each a Graph of its own,
# kept as references for the mask kernels that read a host's masks under a
# member mask.


def vertex_network_by_edges(g: Graph):
    """``_vertex_network`` on a Graph, its arcs read off ``g.edges``."""
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


def cut_from_residual_by_range(g: Graph, cap, adj, s):
    """``_cut_from_residual`` on a Graph: the split vertices x of 0..n-1."""
    reach = {2 * s + 1}
    queue = deque([2 * s + 1])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in reach and cap[x][y] > 0:
                reach.add(y)
                queue.append(y)
    return frozenset(x for x in range(g.n) if 2 * x in reach and 2 * x + 1 not in reach)


def vertex_cut_below_on_graph(g: Graph, threshold: int):
    """``vertex_cut_below`` on a Graph: sources among the lowest
    min(threshold, min degree + 1) vertices, each pair by two loops."""
    if g.is_complete():
        raise DomainError("complete graphs have no vertex cut")
    if threshold <= 0:
        return None
    nbr = g.neighbor_masks()
    base, adj = vertex_network_by_edges(g)
    delta = min(len(g.neighbors(v)) for v in range(g.n))
    for s in range(min(threshold, delta + 1, g.n)):
        for t in range(g.n):
            if t == s or t in g.neighbors(s):
                continue
            flow, residual = _local_vertex_flow(nbr, lambda: (base, adj), s, t, threshold)
            if flow < threshold:
                return cut_from_residual_by_range(g, residual, adj, s)
    return None


def vertex_connectivity_by_source_scan(g: Graph) -> int:
    """``vertex_connectivity`` as it was before Esfahanian and Hakimi's pair
    set: each of the lowest min-degree + 1 vertices against all of its
    non-neighbours, each flow capped at the best value so far."""
    if g.is_complete():
        return g.n - 1
    nbr, members = g.neighbor_masks(), (1 << g.n) - 1
    network = cache(lambda: _vertex_network(nbr, members))
    best = min(x.bit_count() for x in nbr)
    for s, t in _pairs(nbr, members, best + 1):
        best, _ = _local_vertex_flow(nbr, network, s, t, best)
    return best


def mader_subgraph_on_graph(g: Graph, k):
    """``mader_subgraph`` on a Graph: each round on the induced subgraph of
    the current set, relabelled, its cut's sides mapped back through
    to_parent."""
    target = frac_ceil(Fraction(k) / 4)
    current = tuple(range(g.n))
    while True:
        if len(current) <= 1:
            return None
        sub, to_parent = induced_subgraph(g, current)
        if sub.is_complete():
            return frozenset(current) if sub.n - 1 >= target else None
        cut = vertex_cut_below_on_graph(sub, target)
        if cut is None:
            return frozenset(current)
        nbr = sub.neighbor_masks()
        best = best_key = None
        for comp in connected_components(sub, frozenset(range(sub.n)) - cut):
            side = comp | cut
            side_mask = sum(1 << v for v in side)
            degree_sum = sum((nbr[v] & side_mask).bit_count() for v in side)
            labels = sorted(to_parent[v] for v in side)
            key = (Fraction(degree_sum, len(side)), len(side), -labels[0])
            if best_key is None or key > best_key:
                best, best_key = labels, key
        current = tuple(best)


# The coloring search and the cut-maximal bipartition as they were on a
# Graph of their own, kept as references for the kernels that read a host's
# masks under a member mask.


def greedy_clique_by_degree_into(g):
    """``greedy_clique`` as it was before it ranked candidates by set
    intersection: ``degree_into`` per candidate, same key."""
    best = []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for seed in order[: min(g.n, 24)]:
        clique = [seed]
        common = set(g.neighbors(seed))
        while common:
            v = min(common, key=lambda x: (-g.degree_into(x, common), x))
            clique.append(v)
            common &= g.neighbors(v)
        if len(clique) > len(best):
            best = clique
    return best


def recursive_k_coloring(g, k):
    """``is_k_colorable`` as it was with a recursive search, after the same
    trivial cases and clique precoloring."""
    if g.n == 0:
        return []
    if k == 0:
        return None
    if k >= g.n:
        return list(range(g.n))
    clique = greedy_clique_by_degree_into(g)
    if len(clique) > k:
        return None
    colors = [-1] * g.n
    sat = [set() for _ in range(g.n)]
    used = 0
    for i, v in enumerate(clique):
        colors[v] = i
        used = i + 1
        for u in g.neighbors(v):
            sat[u].add(i)
    uncolored = set(x for x in range(g.n) if colors[x] == -1)

    def assign(v, c):
        colors[v] = c
        touched = []
        for u in g.neighbors(v):
            if colors[u] == -1 and c not in sat[u]:
                sat[u].add(c)
                touched.append(u)
        return touched

    def unassign(v, c, touched):
        colors[v] = -1
        for u in touched:
            sat[u].discard(c)

    def solve(used):
        if not uncolored:
            return True
        v = min(uncolored, key=lambda x: (k - len(sat[x]), -g.degree(x), x))
        if len(sat[v]) >= k:
            return False
        uncolored.discard(v)
        for c in range(used):
            if c not in sat[v]:
                touched = assign(v, c)
                if solve(used):
                    return True
                unassign(v, c, touched)
        if used < k:
            touched = assign(v, used)
            if solve(used + 1):
                return True
            unassign(v, used, touched)
        uncolored.add(v)
        return False

    return colors if solve(used) else None


def unfriendly_partition_on_graph(g: Graph) -> tuple[frozenset, frozenset]:
    """``unfriendly_partition`` on a whole Graph: sides from vertex parity,
    then the lowest violating vertex flips until none is left."""
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
