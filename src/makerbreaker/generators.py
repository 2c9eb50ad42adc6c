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

import copy
import random

from .errors import DomainError, ResourceLimitError, quoted, refuse_unknown, require
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


# The parameters each family takes; union and join take two child specs,
# each with the keys ``CHILD_KEYS``.
FAMILY_PARAMS = {
    "gnp": ("n", "p"),
    "complete_multipartite": ("sizes",),
    "odd_cycle_blowup": ("length", "m"),
    "random_regular": ("n", "d"),
    "union": ("left", "right"),
    "join": ("left", "right"),
}
FAMILIES = tuple(FAMILY_PARAMS)
CHILD_KEYS = ("family", "params", "seed")


# The last top-level spec (a deep copy) and the host it built.
_last: tuple = (None, None)


def generate(family: str, params: dict, seed: int = 0) -> Graph:
    """Dispatch by family name; compositions recurse into child generator specs.

    A missing, unknown or unconvertible parameter raises DomainError naming
    the key; so do parameters that are not a mapping, a seed that is not an
    integer, and child specs or params nested too deeply to walk.

    The last host is kept with a deep copy of its spec: a call whose family,
    params (nested child specs included) and seed compare equal to the
    previous call's gets the same Graph, so a bias sweep, a repeated config,
    or a set-up and the experiment after it generate one host.  Nested dicts
    are unhashable, so ``functools.cache`` cannot keep this memo, and a
    JSON-text key would raise TypeError on the non-JSON params the API takes.
    """
    global _last
    key = (family, params, seed)
    try:
        if _last[0] != key or type(seed) is not int:  # True == 1, but is no seed
            _last = (copy.deepcopy(key), _generate(*key))
    except RecursionError:
        what = "nests its child specs" if family in ("union", "join") else "has params nested"
        raise DomainError(f"generator {quoted(family)} {what} too deeply") from None
    return _last[1]


def _generate(family, params, seed) -> Graph:
    """``generate`` without the memo; union and join children come here too,
    so they never displace the kept host."""
    context = f"generator {quoted(family)}"
    if not isinstance(params, dict) or type(seed) is not int:
        raise DomainError(f"{context} needs a parameter mapping and an integer seed")
    if family not in FAMILIES:  # a tuple, so an unhashable family is refused too
        raise DomainError(f"unknown generator family {quoted(family)}")
    refuse_unknown(params, FAMILY_PARAMS[family], f"{context} has unknown key(s)")

    def param(key, convert):
        value = require(params, key, context)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{context} has a bad {key!r}: {quoted(value)}") from None

    if family == "gnp":
        return gnp(param("n", int), param("p", float), seed)
    if family == "complete_multipartite":
        return complete_multipartite(param("sizes", lambda value: [int(s) for s in value]))
    if family == "odd_cycle_blowup":
        return odd_cycle_blowup(param("length", int), param("m", int))
    if family == "random_regular":
        return random_regular(param("n", int), param("d", int), seed)
    children = []
    for key, child_seed in (("left", 2 * seed + 1), ("right", 2 * seed + 2)):
        child = param(key, dict)
        refuse_unknown(child, CHILD_KEYS, f"{context} child {key!r} has unknown key(s)")
        name = require(child, "family", context)
        children.append(_generate(name, child.get("params", {}), child.get("seed", child_seed)))
    return disjoint_union(*children) if family == "union" else join(*children)
