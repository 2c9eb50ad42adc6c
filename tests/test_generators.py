import pytest

from makerbreaker.coloring import chromatic_number, is_k_colorable
from makerbreaker.errors import DomainError
from makerbreaker.generators import (
    complete_multipartite,
    disjoint_union,
    generate,
    gnp,
    join,
    odd_cycle_blowup,
    random_regular,
)
from makerbreaker.graphs import Graph, OddCycleWitness, find_odd_cycle, min_degree


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
