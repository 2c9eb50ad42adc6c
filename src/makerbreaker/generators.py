"""Deterministic graph generators.

Families are chosen so hosts with prescribed minimum degree and chromatic
number are easy to construct: dense random graphs, complete multipartite
graphs, blowups of odd cycles, random regular graphs, and disjoint-union /
join compositions.  Every family is a pure function of its parameters and
seed.
"""

from __future__ import annotations

import random

from .errors import DomainError, require
from .graphs import Graph


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    if n < 0 or not 0 <= p <= 1:
        raise DomainError(f"bad gnp parameters n={n}, p={p}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise DomainError(f"class sizes must be positive, got {sizes}")
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
    gives up after 1000 pairings."""
    if n < 1 or d < 0 or d >= n or (n * d) % 2 != 0:
        raise DomainError(f"no {d}-regular graph on {n} vertices")
    rng = random.Random(seed)
    for _ in range(1000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, edges)
    raise DomainError(f"could not sample a {d}-regular graph on {n} vertices")


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.n
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return Graph(g1.n + g2.n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
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
    needs, raises DomainError naming the key.
    """
    context = f"generator {family!r}"

    def param(key, convert):
        value = require(params, key, context)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{context} has a bad {key!r}: {value!r}") from None

    def sizes(value):
        return [int(s) for s in value]

    if family == "gnp":
        return gnp(param("n", int), param("p", float), seed)
    if family == "complete_multipartite":
        return complete_multipartite(param("sizes", sizes))
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
