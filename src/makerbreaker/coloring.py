"""Exact graph coloring in host labels: k-colorability with certificates and
chromatic number.

``k_coloring`` colors the graph a host's neighbor masks give under a member
mask, as ``graphs.spans`` reads them: no caller relabels a vertex set to ask
whether it is k-colorable.  It is DSATUR-ordered backtracking with two
exactness-preserving shortcuts: a greedily found clique larger than k refutes
immediately, and a clique is pre-colored to break color symmetry.  Chromatic
number runs it between a clique lower bound and a greedy upper bound.  The
search gives up with ``ResourceLimitError`` after ``COLORING_NODE_BUDGET``
color assignments.
"""

from __future__ import annotations

from .errors import DomainError, ResourceLimitError
from .graphs import Graph, mask_bits

CHROMATIC_VERTEX_CAP = 64
COLORING_NODE_BUDGET = 2_000_000


def greedy_clique(adj, members: int) -> list[int]:
    """A maximal clique of the graph on ``members``, in adj's labels, found
    greedily from each of the 24 members of highest degree. Lower bound only."""
    best: list[int] = []
    order = sorted(mask_bits(members), key=lambda v: (-(adj[v] & members).bit_count(), v))
    for seed in order[:24]:
        clique = [seed]
        common = adj[seed] & members
        while common:
            v = min(mask_bits(common), key=lambda x: (-(adj[x] & common).bit_count(), x))
            clique.append(v)
            common &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def greedy_coloring(adj, members: int) -> list[int]:
    """DSATUR greedy coloring of the graph on ``members``, -1 off them;
    proper but not necessarily optimal."""
    colors, sat = [-1] * len(adj), [0] * len(adj)
    rest = set(mask_bits(members))
    while rest:
        v = min(rest, key=lambda x: (-sat[x].bit_count(), -(adj[x] & members).bit_count(), x))
        rest.discard(v)
        colors[v] = c = (~sat[v] & sat[v] + 1).bit_length() - 1  # the least color not seen
        for u in mask_bits(adj[v] & members):
            sat[u] |= 1 << c
    return colors


def k_coloring(adj, members: int, k: int):
    """A proper k-coloring of the graph on the vertex bits ``members``
    (vertex v sees ``adj[v] & members``) as a list over adj's labels, -1 off
    ``members``, or None when there is none.  A member bit at or past
    ``len(adj)`` raises DomainError; past ``COLORING_NODE_BUDGET`` color
    assignments, ``ResourceLimitError`` with the nodes, members and k."""
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if members >> len(adj):
        raise DomainError(f"vertex {members.bit_length() - 1} out of range for n={len(adj)}")
    colors, sat, near = [-1] * len(adj), [0] * len(adj), [()] * len(adj)
    verts = mask_bits(members)
    if k >= len(verts):
        for c, v in enumerate(verts):
            colors[v] = c
        return colors
    if k == 0:
        return None
    clique = greedy_clique(adj, members)
    if len(clique) > k:
        return None
    for v in verts:
        near[v] = mask_bits(adj[v] & members)
    for c, v in enumerate(clique):
        colors[v] = c
        for u in near[v]:
            sat[u] |= 1 << c
    uncolored = set(verts).difference(clique)

    def assign(v, c):
        colors[v] = c
        bit, touched = 1 << c, []
        for u in near[v]:
            if colors[u] == -1 and not sat[u] & bit:
                sat[u] |= bit
                touched.append(u)
        return touched

    def branch(used):
        """A search frame for the next vertex (fewest colors left), or None
        when that vertex has no color left."""
        v = min(uncolored, key=lambda x: (k - sat[x].bit_count(), -len(near[x]), x))
        if sat[v].bit_count() >= k:
            return None
        uncolored.discard(v)
        # existing colors first, then at most one fresh color (symmetry break)
        untried = iter([c for c in range(min(used + 1, k)) if not sat[v] >> c & 1])
        return [v, used, untried, None]

    # Depth-first search on an explicit stack of [vertex, colors in use,
    # untried colors, neighbors touched by the vertex's current color]; some
    # member is uncolored, as the clique has at most k < |members| vertices.
    stack = [branch(len(clique))]
    nodes = 0
    while stack:
        frame = stack[-1]
        if frame is None:  # a dead end: back to the vertex above
            stack.pop()
            continue
        v, used, untried, touched = frame
        if touched is not None:  # take the vertex's current color back
            for u in touched:
                sat[u] ^= 1 << colors[v]
            colors[v] = -1
        c = next(untried, None)
        if c is None:
            uncolored.add(v)
            stack.pop()
            continue
        nodes += 1
        if nodes > COLORING_NODE_BUDGET:
            raise ResourceLimitError(
                f"k-colorability search exceeded {COLORING_NODE_BUDGET} nodes",
                stats={"nodes": nodes, "n": len(verts), "k": k},
            )
        frame[3] = assign(v, c)
        if not uncolored:
            return colors
        stack.append(branch(max(used, c + 1)))
    return None


def is_k_colorable(g: Graph, k: int):
    """``k_coloring`` of the whole of g: a proper k-coloring as a list, or None."""
    return k_coloring(g.neighbor_masks(), (1 << g.n) - 1, k)


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
    adj, whole = g.neighbor_masks(), (1 << g.n) - 1
    lower = max(2, len(greedy_clique(adj, whole)))
    upper = max(greedy_coloring(adj, whole)) + 1
    return next((k for k in range(lower, upper) if k_coloring(adj, whole, k) is not None), upper)
