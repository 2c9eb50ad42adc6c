"""Shared graph builders, a coloring check, a scripted strategy, the
decomposition-backed Makers on forced cores, uniform vertex sampling, the
small-graph isomorphism-class enumeration, components and the set-based
component search, the decompositions and cut-attack's ranking on neighbour
sets, the
solver's node loop before its one choice routine, the connectivity and
coloring kernels on relabelled subgraphs, Maker's graph and the odd-cycle
witness on a relabelled copy, edge connectivity of a whole ``Graph``, and
vertex connectivity by the min-degree + 1 source scan."""

import random
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
from makerbreaker.decompose import (
    DEFAULT_KL_RESTARTS,
    EXACT_CUT_LIMIT,
    BipartiteCore,
    PartStats,
    RobustPartition,
    _balanced_cut_exact,
    _normalize_sides,
    below_degree_floor,
    extract_bipartite_core,
    extract_chromatic_core,
    highly_connected_partition,
)
from makerbreaker.engine import (
    BREAKER,
    EDGES,
    MAKER,
    Strategy,
    batch_size,
    claim_elements,
    legal_moves,
)
from makerbreaker.errors import DomainError, PreconditionError, quoted
from makerbreaker.graphs import (
    Graph,
    OddCycleWitness,
    check_vertex_set,
    cut_edges,
    find_odd_cycle,
    frac_ceil,
    has_odd_cycle,
    induced_subgraph,
    mask_bits,
    mask_components,
    min_degree,
)
from makerbreaker.solver import _Solver
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


def connected_components(g: Graph, members=None) -> list[frozenset]:
    """Components of the subgraph of g induced on ``members`` (default: every
    vertex), as frozensets ordered by smallest member, from ``mask_components``
    on g's neighbour masks; a member out of range raises DomainError.  It was
    ``graphs.connected_components`` until its last library caller, the
    cut-attack ranking, moved onto the masks themselves."""
    if members is None:
        verts = (1 << g.n) - 1
    else:
        verts = sum(1 << v for v in check_vertex_set(g, members))
    return [frozenset(mask_bits(c)) for c, _, _ in mask_components(g.neighbor_masks(), verts)]


def components_by_set_search(g: Graph, members=None) -> list:
    """``connected_components`` as it was before the mask search: a
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


# The decompositions and cut-attack's vertex ranking as they were on neighbour
# sets, kept as references for the forms that read a host's neighbour masks.


def first_edge_inside_by_edge_scan(g: Graph, members):
    """``first_edge_inside`` as it was: the least edge of g with both ends in
    ``members``, by a scan over every edge of g."""
    s = check_vertex_set(g, members)
    return min((e for e in g.edges if e[0] in s and e[1] in s), default=None)


def cut_attack_by_touched_scan(spec, pos) -> tuple:
    """``CutAttackBreaker.propose`` on a vertex board as it was: every free
    vertex ranked by ``touched``, the number of Maker components among its
    host neighbours, then by (-degree, vertex)."""
    host = spec.host
    free = legal_moves(spec, pos)
    comp_of = {}
    for i, comp in enumerate(connected_components(host, pos.maker)):
        for v in comp:
            comp_of[v] = i

    def touched(w):
        return len({comp_of[x] for x in host.neighbors(w) if x in comp_of})

    ranked = sorted(free, key=lambda w: (-touched(w), -host.degree(w), w))
    return tuple(ranked[: batch_size(spec, pos)])


def unfriendly_partition_by_sets(g: Graph, members=None) -> tuple[frozenset, frozenset]:
    """``unfriendly_partition`` as it was: each member's neighbours among the
    members as a set, walked one at a time."""
    inside = check_vertex_set(g, range(g.n) if members is None else members)
    order = sorted(inside)
    ones = sum(1 << v for v in order[1::2])
    zeros = sum(1 << v for v in order[::2])
    nbr = g.neighbor_masks()
    side, cross, near = [0] * g.n, [0] * g.n, [()] * g.n
    for v in order:
        side[v] = ones >> v & 1
        cross[v] = (nbr[v] & (zeros if side[v] else ones)).bit_count()
        near[v] = g.neighbors(v) & inside
    violating = {v for v in order if 2 * cross[v] < len(near[v])}
    while violating:
        v = min(violating)
        side[v] ^= 1
        cross[v] = len(near[v]) - cross[v]
        violating.discard(v)
        for u in near[v]:
            cross[u] += 1 if side[u] != side[v] else -1
            if 2 * cross[u] < len(near[u]):
                violating.add(u)
            else:
                violating.discard(u)
    return frozenset(v for v in order if not side[v]), frozenset(v for v in order if side[v])


def extract_bipartite_core_by_crossing_graph(g: Graph, delta) -> BipartiteCore:
    """``extract_bipartite_core(g, delta, force=True)`` as it was: the
    crossing graph built as a ``Graph`` of its own and partitioned with
    ``highly_connected_partition``, degrees by ``degree_into`` and the
    witness edge by an edge scan."""
    delta = Fraction(delta)
    n = g.n
    if n == 0 or Fraction(min_degree(g)) < delta * n:
        raise PreconditionError(f"minimum degree below delta*n = {quoted(str(delta * n))}")
    x1, x2 = unfriendly_partition_by_sets(g)
    crossing = Graph(n, cut_edges(g, x1, x2))
    partition = highly_connected_partition(crossing, frac_ceil(delta * n / 2))
    adj = g.neighbor_masks()
    chosen = next(
        (p for p in partition.parts if has_odd_cycle(adj, sum(1 << v for v in p))), None
    )
    if chosen is None:
        raise PreconditionError(
            "every part is 2-colorable; the input did not satisfy the hypotheses"
        )
    a, b = chosen & x1, chosen & x2
    witness = first_edge_inside_by_edge_scan(g, a)
    if witness is None:
        a, b = b, a
        witness = first_edge_inside_by_edge_scan(g, a)
    h_min = min(g.degree_into(v, b if v in a else a) for v in a | b)
    return BipartiteCore(a, b, witness, partition.certified_connectivity, None, h_min)


def balanced_cut_search_by_sets(g: Graph, members, min_side, n: int, rng):
    """``_balanced_cut_search`` as it was: side A a set, degrees by
    ``degree_into``, the same ``rng`` draws."""
    order = sorted(members)
    m = len(order)
    lo = frac_ceil(min_side)
    best_seen = None
    for _ in range(DEFAULT_KL_RESTARTS):
        size_a = rng.randint(lo, m - lo)
        a = set(rng.sample(order, size_a))
        inside = {v: g.degree_into(v, a) for v in order}
        total = {v: g.degree_into(v, members) for v in order}
        cut = sum(total[v] - inside[v] for v in a)
        if best_seen is None or cut < best_seen:
            best_seen = cut
        if cut * cut < n**3:
            return _normalize_sides(order, a), best_seen
        improved = True
        while improved:
            improved = False
            for v in order:
                in_a = v in a
                d_own = inside[v] if in_a else total[v] - inside[v]
                delta_cut = d_own - (total[v] - d_own)
                new_size = size_a + (-1 if in_a else 1)
                if delta_cut >= 0 or new_size < lo or m - new_size < lo:
                    continue
                if in_a:
                    a.discard(v)
                else:
                    a.add(v)
                size_a = new_size
                for u in g.neighbors(v):
                    if u in inside:
                        inside[u] += -1 if in_a else 1
                cut += delta_cut
                best_seen = min(best_seen, cut)
                improved = True
                if cut * cut < n**3:
                    return _normalize_sides(order, a), best_seen
    return None, best_seen


def robust_partition_by_sets(g: Graph, delta, seed: int = 0) -> RobustPartition:
    """``robust_partition`` as it was: parts and the moved set as sets,
    degrees by ``degree_into``, the same ``rng`` draws."""
    delta = Fraction(delta)
    n = g.n
    if n == 0 or Fraction(min_degree(g)) < delta * n:
        raise PreconditionError(f"minimum degree below delta*n = {quoted(str(delta * n))}")
    rng = random.Random(seed)
    min_side = delta * n
    parts, moved, splits, final_best = [set(range(n))], set(), 0, []
    split_done = True
    while split_done:
        split_done = False
        final_best = []
        for i, part in enumerate(parts):
            if 2 * min_side > len(part):
                final_best.append(None)
                continue
            if len(part) <= EXACT_CUT_LIMIT:
                found, best = _balanced_cut_exact(g, part, min_side, n)
            else:
                found, best = balanced_cut_search_by_sets(g, part, min_side, n, rng)
            if found is None:
                final_best.append(best)
                continue
            a, b = found
            for v in part:
                loss = g.degree_into(v, part) - g.degree_into(v, a if v in a else b)
                if loss > 0 and loss**4 > n**3:
                    moved.add(v)
            parts[i : i + 1] = [set(a), set(b)]
            splits += 1
            split_done = True
            break
    floor = delta * delta * n
    part_of = {v: i for i, part in enumerate(parts) for v in part}

    def relocate(v):
        for j, pt in enumerate(parts):
            if g.degree_into(v, pt) >= floor:
                parts[part_of[v]].discard(v)
                pt.add(v)
                part_of[v] = j
                return
        raise PreconditionError(
            f"vertex {v} has no part holding delta^2*n = {quoted(str(floor))} of its neighbors"
        )

    for v in sorted(moved):
        relocate(v)
    while True:
        violators = [v for v in range(n) if g.degree_into(v, parts[part_of[v]]) < floor]
        if not violators:
            break
        for v in violators:
            if g.degree_into(v, parts[part_of[v]]) < floor:
                relocate(v)
    t_bound = frac_ceil(1 / delta)
    kept = [(i, p) for i, p in enumerate(parts) if p]
    stats = []
    for i, part in kept:
        degrees = [g.degree_into(v, part) for v in sorted(part)]
        low = sum(1 for d in degrees if below_degree_floor(d, delta * n, t_bound, n))
        best = final_best[i] if i < len(final_best) else None
        stats.append(PartStats(len(part), min(degrees), low, best))
    return RobustPartition(
        tuple(frozenset(p) for _, p in kept), frozenset(moved), splits, tuple(stats)
    )
