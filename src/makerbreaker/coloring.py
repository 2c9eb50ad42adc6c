"""Exact graph coloring: k-colorability with certificates and chromatic number.

The k-colorability test is DSATUR-ordered backtracking with two standard
exactness-preserving shortcuts: a greedily found clique larger than k refutes
immediately, and a clique is pre-colored to break color symmetry.  Chromatic
number runs the test between a clique lower bound and a greedy upper bound.
The k-colorability search gives up with ``ResourceLimitError`` after
``COLORING_NODE_BUDGET`` color assignments.
"""

from __future__ import annotations

from .errors import DomainError, ResourceLimitError
from .graphs import Graph

CHROMATIC_VERTEX_CAP = 64
COLORING_NODE_BUDGET = 2_000_000


def greedy_clique(g: Graph) -> list[int]:
    """A maximal clique found greedily from each high-degree seed. Lower bound only."""
    best: list[int] = []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for seed in order[: min(g.n, 24)]:
        clique = [seed]
        common = set(g.neighbors(seed))
        while common:
            v = min(common, key=lambda x: (-len(g.neighbors(x) & common), x))
            clique.append(v)
            common &= g.neighbors(v)
        if len(clique) > len(best):
            best = clique
    return best


def greedy_coloring(g: Graph) -> list[int]:
    """DSATUR greedy coloring; proper but not necessarily optimal."""
    colors = [-1] * g.n
    sat = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = min(
            (x for x in range(g.n) if colors[x] == -1),
            key=lambda x: (-len(sat[x]), -g.degree(x), x),
        )
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for u in g.neighbors(v):
            sat[u].add(c)
    return colors


def is_k_colorable(g: Graph, k: int):
    """Proper k-coloring of g as a list, or None when no such coloring exists.
    Past ``COLORING_NODE_BUDGET`` color assignments it raises
    ``ResourceLimitError`` with the node count, n and k."""
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if g.n == 0:
        return []
    if k == 0:
        return None
    if k >= g.n:
        return list(range(g.n))

    clique = greedy_clique(g)
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

    def branch(used):
        """A search frame for the next vertex (fewest colors left), or None
        when that vertex has no color left."""
        v = min(uncolored, key=lambda x: (k - len(sat[x]), -g.degree(x), x))
        if len(sat[v]) >= k:
            return None
        uncolored.discard(v)
        # existing colors first, then at most one fresh color (symmetry break)
        untried = iter([c for c in range(min(used + 1, k)) if c not in sat[v]])
        return [v, used, untried, None]

    # Depth-first search on an explicit stack of [vertex, colors in use,
    # untried colors, neighbors touched by the vertex's current color].
    if not uncolored:
        return colors
    stack = [branch(used)]
    nodes = 0
    while stack:
        frame = stack[-1]
        if frame is None:  # a dead end: back to the vertex above
            stack.pop()
            continue
        v, used, untried, touched = frame
        if touched is not None:
            unassign(v, colors[v], touched)
        c = next(untried, None)
        if c is None:
            uncolored.add(v)
            stack.pop()
            continue
        nodes += 1
        if nodes > COLORING_NODE_BUDGET:
            raise ResourceLimitError(
                f"k-colorability search exceeded {COLORING_NODE_BUDGET} nodes",
                stats={"nodes": nodes, "n": g.n, "k": k},
            )
        frame[3] = assign(v, c)
        if not uncolored:
            return colors
        stack.append(branch(max(used, c + 1)))
    return None


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number; refuses graphs above ``CHROMATIC_VERTEX_CAP``
    vertices."""
    if g.n > CHROMATIC_VERTEX_CAP:
        raise ResourceLimitError(
            f"chromatic_number is exponential; {g.n} vertices exceeds the cap "
            f"{CHROMATIC_VERTEX_CAP}",
            stats={"n": g.n, "cap": CHROMATIC_VERTEX_CAP},
        )
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    lower = max(2, len(greedy_clique(g)))
    upper = max(greedy_coloring(g)) + 1
    for k in range(lower, upper):
        if is_k_colorable(g, k) is not None:
            return k
    return upper
