"""Shared graph builders, a scripted strategy, the decomposition-backed
Makers on forced cores and the small-graph isomorphism-class enumeration."""

from functools import lru_cache
from itertools import combinations, permutations

from hypothesis import strategies as st

from makerbreaker.decompose import extract_bipartite_core, extract_chromatic_core
from makerbreaker.engine import Strategy
from makerbreaker.graphs import Graph
from makerbreaker.strategies import DenseEdgeMaker, DenseVertexMaker


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
    return DenseEdgeMaker(g, delta, extract_bipartite_core(g, delta, force=True))


def forced_dense_vertex_maker(g: Graph, delta, b: int) -> DenseVertexMaker:
    """A DenseVertexMaker on the chromatic core extracted with ``force=True``."""
    return DenseVertexMaker(g, delta, b, extract_chromatic_core(g, delta, b, force=True))


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
