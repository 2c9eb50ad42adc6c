"""Deterministic graph generators.

Families are chosen so hosts with prescribed minimum degree and chromatic
number are easy to construct: dense random graphs, complete multipartite
graphs, blowups of odd cycles, random regular graphs, and disjoint-union /
join compositions.  Every family is a pure function of its parameters and
seed.

Each family works out its vertex count and how many vertex pairs or edges it
would walk before it walks any: more than ``graphs.MAX_VERTICES`` vertices,
or more than ``MAX_PAIRS`` pairs, is refused with ``ResourceLimitError``
(stats ``n``, ``pairs`` and ``cap``).
"""

from __future__ import annotations

import random

from .errors import DomainError, ResourceLimitError, require
from .graphs import MAX_VERTICES, Graph

# The most vertex pairs (or edges, or configuration-model stubs) a generator
# walks for one graph.
MAX_PAIRS = 10**7


def _check_size(family: str, n: int, pairs: int):
    """Refuse a ``family`` graph on n vertices whose loops walk ``pairs``
    pairs, when either count is above its cap."""
    for count, cap, what in ((n, MAX_VERTICES, "vertices"), (pairs, MAX_PAIRS, "pairs")):
        if count > cap:
            raise ResourceLimitError(
                f"{family} would walk {count} {what}, above the cap of {cap}",
                {"n": n, "pairs": pairs, "cap": cap},
            )


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    if n < 0 or not 0 <= p <= 1:
        raise DomainError(f"bad gnp parameters n={n}, p={p}")
    _check_size("gnp", n, n * (n - 1) // 2)
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise DomainError(f"class sizes must be positive, got {sizes}")
    n = sum(sizes)
    _check_size("complete_multipartite", n, (n * n - sum(s * s for s in sizes)) // 2)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = []
    for i, cls_a in enumerate(bounds):
        for cls_b in bounds[i + 1 :]:
            edges.extend((u, v) for u in cls_a for v in cls_b)
    return Graph(start, edges)


def odd_cycle_blowup(length: int, m: int) -> Graph:
    """Each vertex of an odd cycle becomes an independent m-set; adjacent
    classes are joined completely.  Min degree 2m, chromatic number 3."""
    if length < 3 or length % 2 == 0:
        raise DomainError(f"cycle length must be odd and >= 3, got {length}")
    if m < 1:
        raise DomainError(f"blowup factor must be positive, got {m}")
    _check_size("odd_cycle_blowup", length * m, length * m * m)
    edges = []
    for i in range(length):
        j = (i + 1) % length
        for a in range(m):
            for b in range(m):
                u, v = i * m + a, j * m + b
                edges.append((min(u, v), max(u, v)))
    return Graph(length * m, edges)


def random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Configuration-model sample, rejecting pairings with loops or doubles;
    gives up after 1000 pairings.  The pairings together shuffle at most
    ``MAX_PAIRS`` stubs, n*d each; the one past it raises ResourceLimitError."""
    if n < 1 or d < 0 or d >= n or (n * d) % 2 != 0:
        raise DomainError(f"no {d}-regular graph on {n} vertices")
    rng = random.Random(seed)
    for tries in range(1, 1001):
        _check_size("random_regular", n, tries * n * d)
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            return Graph(n, edges)
    raise DomainError(f"could not sample a {d}-regular graph on {n} vertices")


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    _check_size("union", g1.n + g2.n, g1.m + g2.m)
    shift = g1.n
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return Graph(g1.n + g2.n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    _check_size("join", g1.n + g2.n, g1.m + g2.m + g1.n * g2.n)
    shift = g1.n
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    edges.extend((u, v + shift) for u in range(g1.n) for v in range(g2.n))
    return Graph(g1.n + g2.n, edges)


FAMILIES = (
    "gnp",
    "complete_multipartite",
    "odd_cycle_blowup",
    "random_regular",
    "union",
    "join",
)


def generate(family: str, params: dict, seed: int = 0) -> Graph:
    """Dispatch by family name; compositions recurse into child generator specs.

    A missing parameter, or one that does not convert to the type the family
    needs, raises DomainError naming the key; so do parameters that are not
    a mapping and a seed that is not an integer.
    """
    context = f"generator {family!r}"
    if not isinstance(params, dict) or type(seed) is not int:
        raise DomainError(f"{context} needs a parameter mapping and an integer seed")

    def param(key, convert):
        value = require(params, key, context)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{context} has a bad {key!r}: {value!r}") from None

    if family == "gnp":
        return gnp(param("n", int), param("p", float), seed)
    if family == "complete_multipartite":
        return complete_multipartite(param("sizes", lambda value: [int(s) for s in value]))
    if family == "odd_cycle_blowup":
        return odd_cycle_blowup(param("length", int), param("m", int))
    if family == "random_regular":
        return random_regular(param("n", int), param("d", int), seed)
    if family in ("union", "join"):
        left, right = param("left", dict), param("right", dict)
        g1 = generate(
            require(left, "family", context),
            left.get("params", {}),
            left.get("seed", 2 * seed + 1),
        )
        g2 = generate(
            require(right, "family", context),
            right.get("params", {}),
            right.get("seed", 2 * seed + 2),
        )
        return disjoint_union(g1, g2) if family == "union" else join(g1, g2)
    raise DomainError(f"unknown generator family {family!r}")
