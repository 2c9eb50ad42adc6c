import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from makerbreaker import harness
from makerbreaker.errors import DomainError
from makerbreaker.harness import (
    STRATEGY_PARAMS,
    ExperimentConfig,
    build_strategy,
    parse_ident,
    rows_to_csv,
    run_experiment,
    sweep_bias,
)
from makerbreaker.graphs import Graph


def multipartite_config(**overrides):
    base = {
        "generator": {
            "family": "complete_multipartite",
            "params": {"sizes": [3] * 7},
            "seed": 0,
        },
        "board_kind": "vertices",
        "objective": {"kind": "odd-cycle"},
        "maker": "dense-vertex(delta=6/7,b=2,force=true)",
        "breaker": "random",
        "maker_bias": 1,
        "breaker_bias": 2,
        "first": "maker",
        "trials": 12,
        "seed_base": 50,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestParseIdent:
    def test_plain(self):
        assert parse_ident("random") == ("random", {})

    def test_with_params(self):
        name, kw = parse_ident("dense-vertex(delta=6/7,b=2,force=true)")
        assert name == "dense-vertex"
        assert kw == {"delta": Fraction(6, 7), "b": 2, "force": True}

    def test_float_and_string(self):
        _, kw = parse_ident("x(p=0.25,tag=abc)")
        assert kw == {"p": 0.25, "tag": "abc"}

    def test_malformed(self):
        with pytest.raises(DomainError):
            parse_ident("broken(delta=1/2")


class TestBuildStrategy:
    def test_known_names(self):
        g = Graph.complete(6)
        for ident in ("random", "bipartite-guard", "cut-attack", "connectivity"):
            assert build_strategy(ident, g) is not None

    def test_unknown(self):
        with pytest.raises(DomainError):
            build_strategy("alphabeta", Graph.complete(3))

    @pytest.mark.parametrize(
        "ident, unknown",
        [
            ("dense-vertex(delta=6/7,b=2,force=true,sead=5,bogus=1)", "bogus, sead"),
            ("random(x=1)", "x"),
            ("connectivity(k=2)", "k"),
            ("dense-edge(delta=2/5,seed=1)", "seed"),
            ("connected-edge(b=2,force=true)", "force"),
        ],
    )
    def test_unknown_parameter_is_named(self, ident, unknown):
        from makerbreaker.generators import complete_multipartite

        with pytest.raises(DomainError, match=f"takes no parameter\\(s\\) {unknown}$"):
            build_strategy(ident, complete_multipartite([3] * 7))

    def test_identifiers_in_docs_and_bench_take_listed_parameters(self):
        root = Path(__file__).resolve().parent.parent
        names = "|".join(re.escape(name) for name in STRATEGY_PARAMS)
        found = 0
        for path in [root / "README.md", *sorted((root / "bench").glob("*.py"))]:
            for ident in re.findall(rf"(?<![\w.-])(?:{names})\([^)]*=[^)]*\)", path.read_text()):
                name, kw = parse_ident(ident)
                assert set(kw) <= set(STRATEGY_PARAMS[name]), (path.name, ident)
                found += 1
        assert found >= 3

    def test_core_cache_reuse(self):
        from makerbreaker.generators import complete_multipartite

        g = complete_multipartite([3] * 7)
        s1 = build_strategy("dense-vertex(delta=6/7,b=2,force=true)", g)
        s2 = build_strategy("dense-vertex(delta=6/7,b=2,force=true)", g)
        assert s1.core is s2.core


class TestRunExperiment:
    def test_document_shape_and_aggregates(self):
        doc = run_experiment(multipartite_config())
        assert doc.version == "result-v1"
        assert len(doc.rows) == 12
        agg = doc.aggregates
        assert agg["trials"] == 12
        assert agg["maker_wins"] == sum(1 for r in doc.rows if r["winner"] == "maker")
        hist_total = sum(agg["witness_length_histogram"].values())
        assert hist_total == sum(
            1 for r in doc.rows if r.get("witness_kind") == "cycle"
        )

    def test_zero_trials(self):
        doc = run_experiment(multipartite_config(trials=0))
        assert doc.rows == []
        assert doc.aggregates["trials"] == 0
        assert doc.config["trials"] == 0

    def test_reproducible_modulo_timestamp(self):
        cfg = multipartite_config(trials=6)
        d1 = run_experiment(cfg)
        d2 = run_experiment(cfg)
        assert d1.canonical_json() == d2.canonical_json()

    def test_atomic_write(self, tmp_path):
        out = tmp_path / "doc.json"
        doc = run_experiment(multipartite_config(trials=3), out=str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk["trials"] == doc.to_dict()["trials"]

    def test_unresolvable_ident_fails_before_trials(self):
        cfg = multipartite_config(maker="nonsense")
        with pytest.raises(DomainError):
            run_experiment(cfg)


class TestConfigTypes:
    @pytest.mark.parametrize("data", [[], 5, "x", None])
    def test_a_config_that_is_not_an_object_is_refused(self, data):
        with pytest.raises(DomainError, match="JSON object"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("generator", []),
            ("board_kind", 1),
            ("objective", "odd-cycle"),
            ("maker", None),
            ("maker_bias", "1"),
            ("maker_bias", True),
            ("trials", 2.0),
            ("seed_base", None),
        ],
    )
    def test_a_value_of_another_json_type_is_refused(self, key, value):
        with pytest.raises(DomainError, match=key):
            multipartite_config(**{key: value})

    @pytest.mark.parametrize(
        "objective",
        [
            {"kind": "aux-connect", "anchor": 3},
            {"kind": "aux-connect", "anchor": ["a"]},
            {"kind": "aux-connect", "anchor": [[0]]},
            {"kind": "non-k-colorable", "k": "2"},
            {"kind": "non-k-colorable", "k": 2.0},
        ],
    )
    def test_a_malformed_objective_is_refused(self, objective):
        with pytest.raises(DomainError):
            multipartite_config(objective=objective).predicate()

    @pytest.mark.parametrize(
        "generator",
        [
            {"family": "gnp", "params": [5, 0.5], "seed": 0},
            {"family": "gnp", "params": 5},
            {"family": "gnp", "params": {"n": 5, "p": 0.5}, "seed": "x"},
            {"family": "union", "params": {"left": {"family": "gnp", "params": {"n": 2, "p": 1}},
                                           "right": {"family": "gnp", "params": {"n": 2, "p": 1}}},
             "seed": 1.5},
        ],
    )
    def test_a_malformed_generator_is_refused(self, generator):
        with pytest.raises(DomainError):
            run_experiment(multipartite_config(generator=generator, maker="random"))


@pytest.fixture
def host_log(monkeypatch):
    """Empty process memos, and a log of every host ``generate`` builds and
    every host a strategy is built on."""
    monkeypatch.setattr(harness, "_last_host", (None, None))
    harness._cached_core.cache_clear()
    log = {"generated": [], "built_on": []}
    generate, build = harness.generate, harness.build_strategy

    def logged_generate(*args):
        g = generate(*args)
        log["generated"].append(g)
        return g

    def logged_build(ident, g):
        log["built_on"].append(g)
        return build(ident, g)

    monkeypatch.setattr(harness, "generate", logged_generate)
    monkeypatch.setattr(harness, "build_strategy", logged_build)
    return log


def union_config(right_sizes, **overrides):
    child = {"family": "complete_multipartite", "params": {"sizes": right_sizes}}
    generator = {
        "family": "union",
        "params": {"left": {"family": "gnp", "params": {"n": 4, "p": 0.5}}, "right": child},
        "seed": 3,
    }
    return multipartite_config(
        generator=generator, maker="random", trials=2, **overrides
    )


class TestHostMemo:
    def test_repeated_config_shares_one_host(self, host_log):
        cfg = multipartite_config(trials=4)
        d1 = run_experiment(cfg)
        d2 = run_experiment(cfg)
        assert len(host_log["generated"]) == 1
        assert all(g is host_log["generated"][0] for g in host_log["built_on"])
        assert d1.canonical_json() == d2.canonical_json()

    def test_same_document_as_with_cold_memos(self, host_log, monkeypatch):
        cfg = multipartite_config(trials=4)
        run_experiment(cfg)
        warm = run_experiment(cfg).canonical_json()
        monkeypatch.setattr(harness, "_last_host", (None, None))
        harness._cached_core.cache_clear()
        assert run_experiment(cfg).canonical_json() == warm
        assert len(host_log["generated"]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            lambda gen: gen.update(seed=1),
            lambda gen: gen["params"].update(sizes=[3] * 6 + [4]),
        ],
        ids=["seed", "params"],
    )
    def test_changed_seed_or_params_gets_a_new_host(self, host_log, change):
        cfg = multipartite_config(trials=2, maker="random")
        gen = json.loads(json.dumps(cfg.generator))
        change(gen)
        run_experiment(cfg)
        run_experiment(multipartite_config(trials=2, maker="random", generator=gen))
        first, second = host_log["generated"]
        assert first is not second
        assert host_log["built_on"][-1] is second

    def test_changed_nested_child_spec_gets_a_new_host(self, host_log):
        run_experiment(union_config([2, 2]))
        run_experiment(union_config([2, 2]))
        run_experiment(union_config([2, 3]))
        first, second = host_log["generated"]
        assert (first.n, second.n) == (8, 9)
        assert host_log["built_on"][-1] is second

    def test_caller_mutating_params_gets_a_new_host(self, host_log):
        cfg = union_config([2, 2])
        run_experiment(cfg)
        cfg.generator["params"]["right"]["params"]["sizes"].append(1)
        run_experiment(cfg)
        assert [g.n for g in host_log["generated"]] == [8, 9]

    def test_sweep_generates_its_host_once(self, host_log):
        docs, _ = sweep_bias(multipartite_config(trials=2), [1, 2, 3])
        assert len(docs) == 3
        assert len(host_log["generated"]) == 1


class TestSweep:
    def test_empty_range(self):
        docs, summary = sweep_bias(multipartite_config(trials=2), [])
        assert docs == [] and summary == []

    def test_summary_rows(self, tmp_path):
        docs, summary = sweep_bias(
            multipartite_config(trials=4), [1, 2], out_dir=str(tmp_path)
        )
        assert [s["breaker_bias"] for s in summary] == [1, 2]
        assert (tmp_path / "bias-1.json").exists()

    def test_bias_exceeding_board_short_rounds(self):
        # breaker bias larger than the board forces short turns; games end
        # within ceil(|board|/(1+b)) rounds
        cfg = multipartite_config(trials=3, breaker_bias=30)
        doc = run_experiment(cfg)
        board = 21
        for row in doc.rows:
            assert row["rounds"] <= -(-board // 31) + 1

    def test_win_rate_declines_with_bias_on_blowup(self):
        # regression baseline from the first verified run: the edge maker's
        # win rate against a random breaker falls off as the bias grows
        cfg = ExperimentConfig.from_dict(
            {
                "generator": {
                    "family": "odd_cycle_blowup",
                    "params": {"length": 5, "m": 5},
                    "seed": 0,
                },
                "board_kind": "edges",
                "objective": {"kind": "odd-cycle"},
                "maker": "dense-edge(delta=2/5,force=true)",
                "breaker": "random",
                "maker_bias": 1,
                "breaker_bias": 1,
                "first": "maker",
                "trials": 10,
                "seed_base": 0,
            }
        )
        _, summary = sweep_bias(cfg, [1, 2, 4])
        rates = [row["maker_win_rate"] for row in summary]
        assert rates[0] >= rates[1] >= rates[2]
        assert rates == [1.0, 0.6, 0.0]


class TestCsv:
    def test_flattens_rows(self):
        doc = run_experiment(multipartite_config(trials=4))
        csv_text = rows_to_csv(doc)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("trial,seed,winner")
        assert len(lines) == 5


class TestWitnessLengthAcrossSizes:
    def test_max_length_not_increasing_with_n(self):
        # growing hosts in one family: the biggest cycle the maker needs does
        # not grow with n (regression check on three sizes)
        maxima = []
        for m in (17, 34, 68):
            cfg = multipartite_config(
                generator={
                    "family": "complete_multipartite",
                    "params": {"sizes": [m] * 7},
                    "seed": 0,
                },
                trials=10,
            )
            doc = run_experiment(cfg)
            lengths = [
                r["witness_length"]
                for r in doc.rows
                if r.get("witness_kind") == "cycle"
            ]
            assert lengths, "expected cycle wins at every size"
            maxima.append(max(lengths))
        assert not (maxima[0] < maxima[1] < maxima[2])
