"""Simple undirected graphs on dense integer labels and the basic primitives.

Vertices are always 0..n-1.  Graphs are immutable after construction and safe
to share; every operation here is a pure function of its inputs.  Library
code never builds a relabelled copy of part of a graph: every question about
a part reads the host's neighbour masks under a member mask and answers in
the host's labels.  ``induced_subgraph`` and ``is_connected`` keep their
``Graph`` forms for independent re-verification; no library code calls them.

Besides neighbor sets, a graph hands out its adjacency as bitmasks
(``neighbor_masks``, built once and kept).  They take n^2 bits, so a graph
that needs more than ``MASK_BIT_BUDGET`` is refused with
``ResourceLimitError`` instead: every mask kernel, and so every component,
odd-cycle and subgraph question, is bounded on long sparse hosts.  The cut
kernels -- the balanced cuts of ``decompose`` and the component cuts of
``strategies`` -- count crossing edges with one popcount per vertex instead
of walking edges one at a time, and the short paths that seed vertex flows
are read off them.  The Gray-code walk here only enumerates bipartitions as
masks.  ``cross_masks``
is the one cut builder: the crossing graph between two sides, as masks in
the host's own labels, which the core-backed Makers play on directly.

``mask_search``, the one search over neighbor masks, answers every
component, connectivity, bipartiteness and 2-coloring question; every yes/no
one is ``has_odd_cycle`` or ``spans`` on a vertex mask, for Maker's graph and
a host's part alike; k-colorability is ``coloring.k_coloring`` on one.
``odd_cycle_on`` only builds the odd cycle of a witness, on the same masks;
``find_odd_cycle`` runs it on a whole ``Graph``, and ``first_edge_inside``
reads the lowest edge of a vertex set off the same masks.

A graph has at most ``MAX_VERTICES`` vertices; a larger one is refused with
``ResourceLimitError`` before anything is allocated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError, quoted

MAX_VERTICES = 100_000
# The most bits (n^2 for n vertices) ``neighbor_masks`` builds: 4,096 vertices.
MASK_BIT_BUDGET = 1 << 24


def frac_ceil(x) -> int:
    """Ceiling of a Fraction/int as an int, exactly."""
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


class Graph:
    """Immutable simple undirected graph; no loops, no multi-edges."""

    __slots__ = ("n", "_edges", "_adj", "_fingerprint", "_masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        if n > MAX_VERTICES:
            raise ResourceLimitError(
                f"{n} vertices exceed the cap of {MAX_VERTICES}",
                {"n": n, "cap": MAX_VERTICES},
            )
        adj = [set() for _ in range(n)]
        eset = set()
        for pair in edges:
            u, v = pair
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {pair} out of range for n={n}")
            if u > v:
                u, v = v, u
            eset.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._edges = frozenset(eset)
        self._adj = tuple(frozenset(s) for s in adj)
        self._fingerprint = None
        self._masks = None

    @property
    def edges(self) -> frozenset:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbor_masks(self) -> tuple:
        """Per vertex v, an int whose bit u is set when u is a neighbor of v;
        computed on first use and kept.  Above ``MASK_BIT_BUDGET`` bits (n^2)
        it raises ResourceLimitError carrying n, m and the budget."""
        if self._masks is None:
            if self.n * self.n > MASK_BIT_BUDGET:
                raise ResourceLimitError(
                    f"neighbour masks of {self.n} vertices need {self.n * self.n} bits, "
                    f"over the budget of {MASK_BIT_BUDGET}",
                    {"n": self.n, "m": self.m, "budget": MASK_BIT_BUDGET},
                )
            self._masks = tuple(sum(1 << u for u in nbrs) for nbrs in self._adj)
        return self._masks

    def degree_into(self, v: int, members) -> int:
        """Number of neighbors of v inside the vertex set ``members``."""
        return len(self._adj[v].intersection(members))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if 0 <= u < self.n else False

    def average_degree(self) -> Fraction:
        if self.n == 0:
            return Fraction(0)
        return Fraction(2 * self.m, self.n)

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other):
        if other is self:
            return True
        return isinstance(other, Graph) and self.n == other.n and self._edges == other._edges

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- common constructions -------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise DomainError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    def fingerprint(self) -> str:
        """Stable hash of the canonical text encoding, for transcripts and caches;
        computed on first use and kept."""
        if self._fingerprint is None:
            text = format_graph(self).encode("ascii")
            self._fingerprint = hashlib.sha256(text).hexdigest()[:16]
        return self._fingerprint


@dataclass(frozen=True)
class OddCycleWitness:
    """A cyclic vertex sequence of odd length whose consecutive pairs are edges."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices)


def verify_odd_cycle(g: Graph, witness: OddCycleWitness) -> bool:
    """Independent check: odd length >= 3, distinct vertices, all edges present."""
    vs = witness.vertices
    if len(vs) < 3 or len(vs) % 2 == 0 or len(set(vs)) != len(vs):
        return False
    return all(g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def check_vertex_set(g: Graph, members) -> frozenset:
    """``members`` as a frozenset; a member out of range raises DomainError."""
    s = frozenset(members)
    for v in s:
        if not (0 <= v < g.n):
            raise DomainError(f"vertex {v} out of range for n={g.n}")
    return s


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise DomainError("min_degree of the empty graph is undefined")
    return min(len(g.neighbors(v)) for v in range(g.n))


def induced_subgraph(g: Graph, members) -> tuple[Graph, tuple]:
    """Subgraph on ``members``; returns (subgraph, to_parent) with to_parent[new] = old.

    Each member's edges to later members are read off its neighbor mask.
    Kept for re-verification; no library code calls it.
    """
    order = tuple(sorted(check_vertex_set(g, members)))
    index = {old: new for new, old in enumerate(order)}
    nbr, s = g.neighbor_masks(), sum(1 << v for v in order)
    edges = [(index[u], index[v]) for u in order for v in mask_bits(nbr[u] & s >> u + 1 << u + 1)]
    return Graph(len(order), edges), order


def cross_masks(g: Graph, a, b) -> tuple:
    """Per vertex of g, its neighbors across the cut as a mask: those in b
    for a vertex of a, those in a for a vertex of b, else 0 (a, b disjoint)."""
    sa, sb = check_vertex_set(g, a), check_vertex_set(g, b)
    if sa & sb:
        raise DomainError("cut sides must be disjoint")
    bits_a, bits_b = sum(1 << v for v in sa), sum(1 << v for v in sb)
    return tuple(
        x & bits_b if bits_a >> v & 1 else x & bits_a if bits_b >> v & 1 else 0
        for v, x in enumerate(g.neighbor_masks())
    )


def cut_edges(g: Graph, a, b) -> list:
    """Edges of g with one endpoint in a and the other in b (a, b disjoint),
    sorted, as read off ``cross_masks``."""
    rows = enumerate(cross_masks(g, a, b))
    return [(u, v) for u, row in rows for v in mask_bits(row >> (u + 1) << (u + 1))]


def find_odd_cycle(g: Graph):
    """Either an OddCycleWitness or a proper 2-coloring of every component.

    Exactly one of the two is returned: a witness when some component is not
    bipartite, otherwise a list of 0/1 colors indexed by vertex.
    """
    return odd_cycle_on(g.neighbor_masks(), (1 << g.n) - 1)


def odd_cycle_on(adj, verts: int):
    """``find_odd_cycle`` on the graph whose vertex v of the bits ``verts``
    sees ``adj[v] & verts``, in adj's labels (colors are -1 off ``verts``).
    Roots and neighbors go in increasing order, so an order-preserving
    relabeling runs the same search and finds the same cycle."""
    color, parent, depth = [-1] * len(adj), [-1] * len(adj), [0] * len(adj)
    for root in mask_bits(verts):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in mask_bits(adj[u] & verts):
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        parent[v] = u
                        depth[v] = depth[u] + 1
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return _tree_cycle(u, v, parent, depth)
            queue = nxt
    return color


def _tree_cycle(u, v, parent, depth) -> OddCycleWitness:
    # Walk both endpoints up to their lowest common ancestor; the two tree
    # paths plus the conflict edge form a cycle, odd because the endpoints
    # share a BFS parity.
    pu, pv = [u], [v]
    while depth[pu[-1]] > depth[pv[-1]]:
        pu.append(parent[pu[-1]])
    while depth[pv[-1]] > depth[pu[-1]]:
        pv.append(parent[pv[-1]])
    while pu[-1] != pv[-1]:
        pu.append(parent[pu[-1]])
        pv.append(parent[pv[-1]])
    cycle = pu + pv[-2::-1]
    return OddCycleWitness(tuple(cycle))


def mask_search(adj, verts: int, root: int) -> tuple:
    """Layer-by-layer search from the vertex bit ``root`` over the graph
    whose vertex v sees the bits ``adj[v] & verts``.  Returns (reached, odd,
    clash): the bits reached, those at odd distance from the root, and
    whether an edge joins two vertices of one layer, that is, whether the
    component has an odd cycle; without one, ``odd`` is its color 1."""
    seen = layer = root
    odd = 0
    clash = at_odd = False
    while layer:
        reach = 0
        rest = layer
        while rest:
            low = rest & -rest
            nbrs = adj[low.bit_length() - 1] & verts
            clash = clash or nbrs & layer != 0
            reach |= nbrs
            rest ^= low
        layer = reach & ~seen
        seen |= layer
        at_odd = not at_odd
        if at_odd:
            odd |= layer
    return seen, odd, clash


def mask_components(adj, verts: int):
    """``mask_search`` once per component of the graph on ``verts``, rooted
    at its smallest vertex; yields (reached, odd, clash) by smallest vertex."""
    while verts:  # a component found is whole, so the rest holds the others
        found = mask_search(adj, verts, verts & -verts)
        yield found
        verts &= ~found[0]


def spans(adj, verts: int) -> bool:
    """Whether the graph on ``verts`` has a vertex and is connected."""
    return verts != 0 and mask_search(adj, verts, verts & -verts)[0] == verts


def has_odd_cycle(adj, verts: int) -> bool:
    """Whether some component of the graph on ``verts`` has an odd cycle
    (``mask_components`` inline: its generator slows 5-vertex solves 10-15%)."""
    while verts:
        seen, _, clash = mask_search(adj, verts, verts & -verts)
        if clash:
            return True
        verts &= ~seen
    return False


def mask_bits(mask: int) -> list:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected(g: Graph) -> bool:
    """Whether g is connected; kept for re-verification, no library code calls it."""
    return g.n <= 1 or spans(g.neighbor_masks(), (1 << g.n) - 1)


def first_edge_inside(g: Graph, members):
    """The smallest edge of g with both ends in ``members``, or None: the
    lowest member u with a neighbour among the members, and the lowest such
    neighbour, which is above u (a lower one would have been found first).
    A member out of range raises DomainError."""
    inside = sum(1 << v for v in check_vertex_set(g, members))
    nbr = g.neighbor_masks()
    for u in mask_bits(inside):
        near = nbr[u] & inside
        if near:
            return u, (near & -near).bit_length() - 1
    return None


def gray_code_bipartitions(g: Graph):
    """Every bipartition of V(g) with vertex 0 on side 0, each exactly once,
    as a mask whose bit v is set when v is on side 1.

    Consecutive masks differ in one vertex (binary-reflected Gray code),
    starting with side 1 empty.  g needs at least one vertex.
    """
    for code in range(1 << (g.n - 1)):
        yield (code ^ code >> 1) << 1


# -- text format --------------------------------------------------------------
#
# First line `p <n> <m>`, then m lines `e <u> <v>` with 0-based endpoints.
# Duplicate or loop lines are a parse error.


def format_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p "):
        raise DomainError("graph text must start with a 'p <n> <m>' line")
    head = lines[0].split()
    if len(head) != 3:
        raise DomainError(f"malformed header: {quoted(lines[0])}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise DomainError(f"malformed header: {quoted(lines[0])}") from None
    if len(lines) - 1 != m:
        raise DomainError(f"header promises {m} edges, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "e":
            raise DomainError(f"malformed edge line: {quoted(ln)}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise DomainError(f"malformed edge line: {quoted(ln)}") from None
        if u == v:
            raise DomainError(f"loop line: {quoted(ln)}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DomainError(f"duplicate edge line: {quoted(ln)}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)
