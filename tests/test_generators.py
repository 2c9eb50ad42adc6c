import copy
import random
from types import SimpleNamespace

import pytest

from makerbreaker import generators
from makerbreaker.coloring import chromatic_number, is_k_colorable
from makerbreaker.errors import DomainError, ResourceLimitError
from makerbreaker.generators import (
    MAX_PAIRS,
    _check_size,
    complete_multipartite,
    disjoint_union,
    generate,
    gnp,
    join,
    odd_cycle_blowup,
    random_regular,
)
from makerbreaker.graphs import (
    MAX_VERTICES,
    Graph,
    OddCycleWitness,
    find_odd_cycle,
    format_graph,
    min_degree,
)


class TestGnp:
    def test_deterministic(self):
        assert gnp(20, 0.5, 7) == gnp(20, 0.5, 7)

    def test_extremes(self):
        assert gnp(10, 0.0, 1).m == 0
        assert gnp(10, 1.0, 1).m == 45

    def test_bad_params(self):
        with pytest.raises(DomainError):
            gnp(5, 1.5, 0)


class TestCompleteMultipartite:
    def test_structure(self):
        g = complete_multipartite([4, 4, 4])
        assert g.n == 12
        assert min_degree(g) == 8
        assert chromatic_number(g) == 3

    def test_unequal_classes(self):
        g = complete_multipartite([1, 2, 3])
        assert g.n == 6 and g.m == 1 * 2 + 1 * 3 + 2 * 3

    def test_bad_sizes(self):
        with pytest.raises(DomainError):
            complete_multipartite([3, 0])


class TestOddCycleBlowup:
    def test_structure(self):
        g = odd_cycle_blowup(5, 4)
        assert g.n == 20
        assert min_degree(g) == 8
        assert isinstance(find_odd_cycle(g), OddCycleWitness)
        assert is_k_colorable(g, 3) is not None
        assert is_k_colorable(g, 2) is None

    def test_even_length_rejected(self):
        with pytest.raises(DomainError):
            odd_cycle_blowup(4, 3)


class TestRandomRegular:
    def test_degrees(self):
        g = random_regular(12, 5, seed=3)
        assert all(g.degree(v) == 5 for v in range(12))

    def test_deterministic(self):
        assert random_regular(10, 3, seed=9) == random_regular(10, 3, seed=9)

    def test_parity_rejected(self):
        with pytest.raises(DomainError):
            random_regular(5, 3)

    @pytest.mark.parametrize(
        "n, d, seed",
        [(12, 5, 3), (10, 3, 9), (30, 4, 0), (60, 3, 2), (16, 5, 4), (8, 6, 5), (20, 6, 1)],
    )
    def test_samples_as_the_uncapped_pairings_do(self, n, d, seed):
        assert sample_text(random_regular, n, d, seed) == sample_text(
            regular_by_uncapped_pairings, n, d, seed
        )

    def test_pairings_together_are_held_to_the_cap(self, monkeypatch):
        # nearly every pairing of 4,000 stubs has a loop or a double edge,
        # so the sampler would go on for all of its 1,000 tries
        monkeypatch.setattr(generators, "MAX_PAIRS", 40_000)
        with pytest.raises(ResourceLimitError) as info:
            random_regular(100, 40)
        assert info.value.stats == {"n": 100, "pairs": 44_000, "cap": 40_000}

    def test_a_pairing_within_the_cap_still_samples(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_PAIRS", 36)
        assert random_regular(12, 3, seed=1) == regular_by_uncapped_pairings(12, 3, 1)


def sample_text(sampler, n, d, seed) -> str:
    """The sampled graph's text, or the message of its DomainError."""
    try:
        return format_graph(sampler(n, d, seed))
    except DomainError as exc:
        return str(exc)


def regular_by_uncapped_pairings(n, d, seed):
    """``random_regular`` as it was before the pairings were capped
    together: 1,000 configuration-model pairings, each checked for loops and
    double edges."""
    rng = random.Random(seed)
    for _ in range(1000):
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


def large(n, m=0):
    """The counts of a large graph, which is never built."""
    return SimpleNamespace(n=n, m=m, edges=())


class TestSizeCaps:
    """Every family is refused before its loops run, so none of these
    allocates or walks anything."""

    @pytest.mark.parametrize(
        "make, n, pairs, cap",
        [
            (lambda: gnp(MAX_VERTICES + 1, 0.5), MAX_VERTICES + 1, None, MAX_VERTICES),
            (lambda: gnp(100_000, 0.5), 100_000, 100_000 * 99_999 // 2, MAX_PAIRS),
            (lambda: generate("gnp", {"n": 5000, "p": 0.01}), 5000, 5000 * 4999 // 2, MAX_PAIRS),
            (lambda: complete_multipartite([5000, 5000]), 10_000, 25_000_000, MAX_PAIRS),
            (lambda: complete_multipartite([1] * (MAX_VERTICES + 1)), MAX_VERTICES + 1, None,
             MAX_VERTICES),
            (lambda: odd_cycle_blowup(3, 2000), 6000, 12_000_000, MAX_PAIRS),
            (lambda: odd_cycle_blowup(3, 40_000), 120_000, None, MAX_VERTICES),
            (lambda: random_regular(100_000, 200), 100_000, 20_000_000, MAX_PAIRS),
            (lambda: random_regular(10**9, 2), 10**9, None, MAX_VERTICES),
            (lambda: join(large(4000), large(4000)), 8000, 16_000_000, MAX_PAIRS),
            (lambda: disjoint_union(large(60_000), large(60_000)), 120_000, 0, MAX_VERTICES),
        ],
    )
    def test_refused_at_once(self, make, n, pairs, cap):
        with pytest.raises(ResourceLimitError) as info:
            make()
        stats = info.value.stats
        assert stats["n"] == n and stats["cap"] == cap
        if pairs is not None:
            assert stats["pairs"] == pairs

    def test_at_the_caps_is_not_refused(self):
        _check_size("gnp", MAX_VERTICES, MAX_PAIRS)
        with pytest.raises(ResourceLimitError):
            _check_size("gnp", MAX_VERTICES, MAX_PAIRS + 1)


class TestCompositions:
    def test_union(self):
        g = disjoint_union(Graph.complete(3), Graph.cycle(4))
        assert g.n == 7 and g.m == 3 + 4
        assert not g.has_edge(0, 3)

    def test_join(self):
        g = join(Graph.empty(2), Graph.empty(3))
        assert g.m == 6  # complete bipartite

    def test_generate_dispatch(self):
        g = generate(
            "union",
            {
                "left": {"family": "gnp", "params": {"n": 5, "p": 0.5}, "seed": 1},
                "right": {"family": "complete_multipartite", "params": {"sizes": [2, 2]}},
            },
            seed=0,
        )
        assert g.n == 9

    def test_generate_unknown_family(self):
        with pytest.raises(DomainError):
            generate("hypercube", {}, 0)

    @pytest.mark.parametrize("family", [["gnp"], {"gnp": 1}, "x" * 10_000])
    def test_unhashable_or_long_family_is_unknown_and_quoted_short(self, family):
        with pytest.raises(DomainError, match="unknown generator family") as info:
            generate(family, {}, 0)
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("complete_multipartite", {"sizes": "abc"}, "sizes"),
            ("complete_multipartite", {"sizes": 7}, "sizes"),
            ("gnp", {"n": "x", "p": 0.5}, "n"),
            ("gnp", {"n": 5, "p": "half"}, "p"),
            ("gnp", {"n": float("inf"), "p": 0.5}, "n"),
            ("odd_cycle_blowup", {"length": 5, "m": None}, "m"),
            ("random_regular", {"n": [6], "d": 2}, "n"),
            ("union", {"left": 3, "right": {"family": "gnp"}}, "left"),
            ("join", {"left": {"family": "gnp", "params": {"n": 2, "p": 1}}, "right": "x"}, "right"),
        ],
    )
    def test_unconvertible_parameter_names_its_key(self, family, params, key):
        with pytest.raises(DomainError, match=repr(key)):
            generate(family, params, 0)

    @pytest.mark.parametrize(
        "family, params, named",
        [
            ("gnp", {"n": 5, "p": 0.5, "bogus": 3}, "bogus"),
            ("gnp", {"n": 5, "p": 0.5, "seed": 3}, "seed"),
            ("complete_multipartite", {"sizes": [2, 2], "n": 4, "m": 1}, "m, n"),
            ("odd_cycle_blowup", {"length": 3, "m": 2, 7: 1}, "7"),
            ("random_regular", {"n": 6, "d": 3, "p": 0.5}, "p"),
        ],
    )
    def test_unknown_parameter_is_refused_by_name(self, family, params, named):
        with pytest.raises(DomainError, match=f"generator {family!r} has unknown key\\(s\\) {named}$"):
            generate(family, params, 0)

    @pytest.mark.parametrize("family", ["union", "join"])
    def test_child_spec_with_an_unknown_key_is_refused(self, family):
        child = {"family": "gnp", "params": {"n": 2, "p": 1}}
        params = {"left": child, "right": {**child, "sed": 1}}
        with pytest.raises(DomainError, match=f"{family!r} child 'right' has unknown key\\(s\\) sed$"):
            generate(family, params, 0)
        assert generate(family, {"left": child, "right": {**child, "seed": 1}}, 0).n == 4

    @pytest.mark.parametrize("family", ["union", "join"])
    def test_deeply_nested_child_specs_are_a_domain_error(self, family):
        leaf = spec = {"family": "gnp", "params": {"n": 1, "p": 1}}
        for _ in range(2000):
            spec = {"family": family, "params": {"left": spec, "right": leaf}}
        with pytest.raises(DomainError, match=f"generator {family!r} nests its child specs too deeply"):
            generate(spec["family"], spec["params"], 0)


class TestLastHostMemo:
    SPEC = ("union", {"left": {"family": "gnp", "params": {"n": 5, "p": 0.5}},
                      "right": {"family": "complete_multipartite", "params": {"sizes": [2, 2]}}})

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(generators, "_last", (None, None))

    def test_an_equal_spec_gets_the_same_graph(self):
        family, params = self.SPEC
        g = generate(family, params, 3)
        assert generate(family, copy.deepcopy(params), 3) is g
        assert generators._last[1] is g  # the children did not displace it

    def test_a_changed_or_mutated_spec_gets_a_new_graph(self):
        family, params = self.SPEC
        params = copy.deepcopy(params)
        g = generate(family, params, 3)
        assert generate(family, params, 4) is not g
        h = generate(family, params, 3)
        assert h is not g and h.edges == g.edges
        params["right"]["params"]["sizes"].append(1)
        assert generate(family, params, 3).n == h.n + 1

    def test_a_bool_seed_is_refused_after_the_equal_int(self):
        generate("gnp", {"n": 4, "p": 0.5}, 1)
        with pytest.raises(DomainError, match="integer seed"):
            generate("gnp", {"n": 4, "p": 0.5}, True)
