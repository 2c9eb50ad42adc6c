"""Exact graph coloring: k-colorability with certificates and chromatic number.

The k-colorability test is DSATUR-ordered backtracking with two standard
exactness-preserving shortcuts: a greedily found clique larger than k refutes
immediately, and a clique is pre-colored to break color symmetry.  Chromatic
number runs the test between a clique lower bound and a greedy upper bound.
"""

from __future__ import annotations

from .errors import DomainError, ResourceLimitError
from .graphs import Graph

CHROMATIC_VERTEX_CAP = 64


def greedy_clique(g: Graph) -> list[int]:
    """A maximal clique found greedily from each high-degree seed. Lower bound only."""
    best: list[int] = []
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
    """Proper k-coloring of g as a list, or None when no such coloring exists."""
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

    def solve(used):
        if not uncolored:
            return True
        v = min(uncolored, key=lambda x: (k - len(sat[x]), -g.degree(x), x))
        if len(sat[v]) >= k:
            return False
        uncolored.discard(v)
        # existing colors first, then at most one fresh color (symmetry break)
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

    if solve(used):
        return colors
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
