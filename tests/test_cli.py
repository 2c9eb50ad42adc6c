import contextlib
import io
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graphs
from makerbreaker import cli, coloring
from makerbreaker.cli import main
from makerbreaker.decompose import (
    extract_bipartite_core,
    extract_chromatic_core,
    highly_connected_partition,
    robust_partition,
)
from makerbreaker.engine import GameSpec, WinPredicate, replay_transcript
from makerbreaker.errors import DomainError, PreconditionError
from makerbreaker.generators import FAMILIES
from makerbreaker.graphs import MAX_VERTICES, Graph, format_graph, frac_ceil, parse_graph
from makerbreaker.harness import ExperimentConfig, build_strategy, parse_fraction, parse_ident
from makerbreaker.strategies import bound_report


# a valid Fraction of 4,001 digits, out of (0,1)
LONG_DELTA = "3" + "9" * 4000 + "/2"
# just over 1/2, with a 4,001-digit denominator
NEAR_HALF_DELTA = "1" + "0" * 4000 + "/2" + "0" * 3999 + "1"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def tripartite_file(tmp_path):
    path = tmp_path / "g.graph"
    assert (
        run_cli(
            "generate",
            "--family",
            "complete_multipartite",
            "--param",
            "sizes=4x3",
            "--out",
            str(path),
        )
        == 0
    )
    return path


class TestGenerate:
    def test_writes_parseable_graph(self, tripartite_file):
        g = parse_graph(tripartite_file.read_text())
        assert g.n == 12 and g.m == 48

    def test_gnp_seed_flag(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        run_cli("generate", "--family", "gnp", "--param", "n=9", "--param", "p=0.5",
                "--seed", "4", "--out", str(a))
        run_cli("generate", "--family", "gnp", "--param", "n=9", "--param", "p=0.5",
                "--seed", "4", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_sizes_dash_syntax(self, tmp_path, capsys):
        assert run_cli("generate", "--family", "complete_multipartite",
                       "--param", "sizes=2-3-4") == 0
        out = capsys.readouterr().out
        assert out.startswith("p 9 ")

    @pytest.mark.parametrize("count", [MAX_VERTICES + 1, 10**20])
    def test_sizes_count_past_the_vertex_cap_builds_no_list(self, capsys, monkeypatch, count):
        # refused before the list of parts or the graph is built
        monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("generate was called"))
        tracemalloc.start()
        try:
            code = run_cli("generate", "--family", "complete_multipartite",
                           "--param", f"sizes=1x{count}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 200_000  # a list of MAX_VERTICES + 1 parts is 800 kB
        err = capsys.readouterr().err
        assert err.startswith(f"error: --param 'sizes=1x{count}' asks for {count} parts")
        assert f"cap of {MAX_VERTICES}" in err


class TestDecompose:
    @pytest.mark.parametrize("mode", ["bfkm", "core", "robust"])
    def test_modes_emit_versioned_documents(self, tripartite_file, tmp_path, mode):
        out = tmp_path / f"{mode}.json"
        extra = ["--force"] if mode == "core" else []
        code = run_cli(
            "decompose", str(tripartite_file), "--mode", mode, "--delta", "2/3",
            *extra, "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "decompose-v1"
        assert doc["mode"] == mode

    def test_key2_mode(self, tmp_path):
        # the chromatic pipeline needs more color classes than 2(b+1)
        path = tmp_path / "g7.graph"
        run_cli("generate", "--family", "complete_multipartite",
                "--param", "sizes=3x7", "--out", str(path))
        out = tmp_path / "key2.json"
        code = run_cli("decompose", str(path), "--mode", "key2", "--delta", "6/7",
                       "--b", "2", "--force", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "key2" and doc["chi_floor"] == 4

    def test_missing_generator_parameter_is_clean(self, capsys):
        assert run_cli("generate", "--family", "gnp", "--param", "n=5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'p'" in err

    def test_generator_above_its_cap_is_refused_at_once(self, capsys):
        # 5 * 10**9 vertex pairs: refused before the pair loop starts
        argv = ("generate", "--family", "gnp", "--param", "n=100000", "--param", "p=0.5")
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap" in err

    def test_unconvertible_generator_parameter_is_clean(self, capsys):
        assert run_cli("generate", "--family", "gnp", "--param", "n=x", "--param", "p=0.5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'n'" in err

    def test_precondition_failure_is_clean(self, tripartite_file, capsys):
        code = run_cli("decompose", str(tripartite_file), "--mode", "core", "--delta", "2/3")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bfkm", "robust"])
    @pytest.mark.parametrize("delta", ["1/0", "x/2", "1/"])
    def test_bad_delta_is_clean(self, tripartite_file, capsys, mode, delta):
        code = run_cli("decompose", str(tripartite_file), "--mode", mode, "--delta", delta)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: not a fraction")


def field_by_field_document(g, mode, delta_text, b=1, seed=0, force=False):
    """A ``decompose-v1`` document as the CLI wrote it before documents were
    read from the records: each field copied by hand."""
    delta = parse_fraction(delta_text)
    doc = {
        "version": "decompose-v1",
        "mode": mode,
        "delta": str(delta),
        "seed": seed,
        "force": force,
        "host": {"fingerprint": g.fingerprint(), "n": g.n, "m": g.m},
    }
    if mode == "bfkm":
        k = frac_ceil(delta * g.n)
        part = highly_connected_partition(g, k)
        doc["k"] = k
        doc["parts"] = [sorted(p) for p in part.parts]
        doc["certified_connectivity"] = part.certified_connectivity
        doc["guarantees"] = [
            {
                "size": gu.size,
                "size_floor": str(gu.size_floor),
                "size_ok": gu.size_ok,
                "certified_connectivity": gu.certified_connectivity,
            }
            for gu in part.guarantees
        ]
    elif mode == "core":
        core = extract_bipartite_core(g, delta, force=force)
        doc["a"] = sorted(core.a)
        doc["b"] = sorted(core.b)
        doc["witness_edge"] = list(core.witness_edge)
        doc["certified_connectivity"] = core.certified_connectivity
        doc["h_min_degree"] = core.h_min_degree
    elif mode == "robust":
        rp = robust_partition(g, delta, seed=seed)
        doc["parts"] = [sorted(p) for p in rp.parts]
        doc["moved"] = sorted(rp.moved)
        doc["split_count"] = rp.split_count
        doc["part_stats"] = [
            {
                "size": s.size,
                "min_internal_degree": s.min_internal_degree,
                "low_degree_count": s.low_degree_count,
                "sparsest_balanced_cut": s.sparsest_balanced_cut,
            }
            for s in rp.part_stats
        ]
    else:
        core = extract_chromatic_core(g, delta, b, force=force, seed=seed)
        doc["a"] = sorted(core.a)
        doc["b"] = sorted(core.b)
        doc["chi_floor"] = core.chi_floor
        doc["h_min_degree"] = core.h_min_degree
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestDocumentsFromRecords:
    @pytest.mark.parametrize("mode", ["bfkm", "core", "robust", "key2"])
    @pytest.mark.parametrize(
        "family, params, seed",
        [("complete_multipartite", ["sizes=3x7"], 0), ("gnp", ["n=24", "p=0.6"], 3)],
    )
    def test_same_bytes_as_the_field_by_field_mapping(
        self, tmp_path, capsys, mode, family, params, seed
    ):
        path = tmp_path / "g.graph"
        argv = ["generate", "--family", family, "--seed", str(seed), "--out", str(path)]
        for param in params:
            argv += ["--param", param]
        assert run_cli(*argv) == 0
        g = parse_graph(path.read_text())
        assert run_cli("decompose", str(path), "--mode", mode, "--delta", "1/3",
                       "--b", "1", "--seed", "2", "--force") == 0
        out = capsys.readouterr().out
        assert out == field_by_field_document(g, mode, "1/3", b=1, seed=2, force=True)


class TestPlay:
    def test_transcript_file_replays(self, tripartite_file, tmp_path):
        out = tmp_path / "game.txt"
        code = run_cli(
            "play", str(tripartite_file),
            "--maker", "dense-edge(delta=2/3,force=true)",
            "--breaker", "random", "--bias", "1:2", "--seed", "5",
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        g = parse_graph(tripartite_file.read_text())
        spec = GameSpec(
            host=g, board_kind="edges", objective=WinPredicate("odd-cycle"),
            maker_bias=1, breaker_bias=2,
        )
        replayed = replay_transcript(spec, text)
        assert replayed.winner in ("maker", "breaker")
        assert f"\nhost {g.fingerprint()} n={g.n} m={g.m}\n" in text

    def test_bad_strategy_fraction_is_clean(self, tripartite_file, capsys):
        code = run_cli("play", str(tripartite_file), "--maker", "dense-edge(delta=1/0)",
                       "--breaker", "random")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: not a fraction")

    @pytest.mark.parametrize("delta", ["inf", "1e400", "nan"])
    def test_non_finite_strategy_parameter_is_clean(self, tripartite_file, capsys, delta):
        code = run_cli("play", str(tripartite_file), "--maker",
                       f"dense-edge(delta={delta},force=true)", "--breaker", "random")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not a finite number") and delta in err

    def test_determinism(self, tripartite_file, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run_cli("play", str(tripartite_file), "--maker", "random",
                    "--breaker", "random", "--bias", "1:2", "--seed", "9",
                    "--out", str(out))
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_strategy_parameter_is_clean(self, tripartite_file, capsys):
        code = run_cli("play", str(tripartite_file), "--maker", "dense-edge",
                       "--breaker", "random")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'delta'" in err

    def test_misspelt_strategy_parameter_is_clean(self, tripartite_file, capsys):
        code = run_cli("play", str(tripartite_file), "--maker", "dense-edge(delta=2/3,forse=true)",
                       "--breaker", "random")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "forse" in err


class TestSolveVerify:
    def test_solve_json(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        run_cli("generate", "--family", "complete_multipartite",
                "--param", "sizes=1x4", "--out", str(path))
        # K(1,1,1,1) == K4
        assert run_cli("solve", str(path), "--objective", "spanning-connected") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["winner"] == "maker"
        assert doc["principal_line"]

    def test_coloring_budget_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c9.graph"
        path.write_text(format_graph(Graph.cycle(9)))
        monkeypatch.setattr(coloring, "COLORING_NODE_BUDGET", 2)
        assert run_cli("solve", str(path), "--board", "vertices",
                       "--objective", "non-2-colorable") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k-colorability search exceeded 2 nodes" in err

    def test_solve_cap_error(self, tripartite_file, capsys):
        assert run_cli("solve", str(tripartite_file)) == 1
        assert "exceeds the solve cap" in capsys.readouterr().err

    def test_mask_budget_error(self, tmp_path, capsys):
        # a 4,097-vertex path needs more neighbour-mask bits than the budget
        path = tmp_path / "long.graph"
        path.write_text(format_graph(Graph.path(4_097)))
        assert run_cli("decompose", str(path), "--mode", "bfkm", "--delta", "1/5000") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "4097 vertices need 16785409 bits" in err
        assert "over the budget of 16777216" in err

    @pytest.mark.parametrize("n", [100_000_000_000, 3_000_000])
    def test_vertex_cap_error(self, tmp_path, capsys, n):
        path = tmp_path / "huge.graph"
        path.write_text(f"p {n} 0\n")
        assert run_cli("solve", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{n} vertices exceed the cap" in err

    def test_solve_takes_no_cap(self, tripartite_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", str(tripartite_file), "--cap", "40")
        assert exc.value.code == 2

    def test_verify_json(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        run_cli("generate", "--family", "complete_multipartite",
                "--param", "sizes=1x4", "--out", str(path))
        assert run_cli("verify", str(path), "--objective", "spanning-connected",
                       "--maker", "connectivity") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["always_wins"] is True and doc["counter"] is None

    def test_verify_board_above_its_cap_is_refused(self, tmp_path, capsys):
        path = tmp_path / "p600.graph"
        path.write_text(format_graph(Graph.path(600)))
        assert run_cli("verify", str(path), "--objective", "spanning-connected",
                       "--maker", "connectivity") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds the verify cap 300" in err

    @pytest.mark.parametrize(
        "argv",
        [("solve", "--format", "csv"), ("verify", "--maker", "connectivity", "--seed", "1")],
    )
    def test_flags_of_other_subcommands_are_rejected(self, tripartite_file, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv[0], str(tripartite_file), *argv[1:])
        assert exc.value.code == 2


EXPERIMENT_CONFIG = {
    "generator": {"family": "complete_multipartite",
                  "params": {"sizes": [3] * 7}, "seed": 0},
    "board_kind": "vertices",
    "objective": {"kind": "odd-cycle"},
    "maker": "dense-vertex(delta=6/7,b=2,force=true)",
    "breaker": "random",
    "maker_bias": 1, "breaker_bias": 2, "first": "maker",
    "trials": 5, "seed_base": 10,
}


class TestExperimentAndSweep:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(EXPERIMENT_CONFIG))
        return path

    def test_experiment_json(self, config_file, capsys):
        assert run_cli("experiment", str(config_file)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "result-v1"
        assert len(doc["trials"]) == 5

    def test_experiment_csv(self, config_file, capsys):
        assert run_cli("experiment", str(config_file), "--format", "csv") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("trial,seed,")

    def test_sweep(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert run_cli("sweep", str(config_file), "--b-range", "1:2",
                       "--out-dir", str(out_dir)) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert [row["breaker_bias"] for row in summary] == [1, 2]
        assert (out_dir / "bias-2.json").exists()

    @pytest.mark.parametrize("section, key", [("generator", "family"), ("objective", "kind")])
    def test_config_section_missing_its_key_is_clean(self, config_file, capsys, section, key):
        cfg = json.loads(config_file.read_text())
        del cfg[section][key]
        config_file.write_text(json.dumps(cfg))
        assert run_cli("experiment", str(config_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    def test_unconvertible_generator_parameter_in_config_is_clean(self, config_file, capsys):
        cfg = json.loads(config_file.read_text())
        cfg["generator"]["params"]["sizes"] = "abc"
        config_file.write_text(json.dumps(cfg))
        assert run_cli("experiment", str(config_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'sizes'" in err

    @pytest.mark.parametrize("key, value", [("k", 3), ("anchor", [0])])
    def test_objective_parameter_its_kind_does_not_take_is_clean(
        self, config_file, capsys, key, value
    ):
        cfg = json.loads(config_file.read_text())
        cfg["objective"][key] = value
        config_file.write_text(json.dumps(cfg))
        assert run_cli("experiment", str(config_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"takes no {key}" in err

    def test_unknown_config_key_is_clean(self, config_file, capsys):
        cfg = json.loads(config_file.read_text())
        cfg["trails"] = 5
        config_file.write_text(json.dumps(cfg))
        assert run_cli("experiment", str(config_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trails" in err


class TestMalformedNumbers:
    """A malformed number or JSON value ends in exit 1 with a message that
    names the flag, the line or the token it came from, not Python's own
    ``int()`` text."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve", "@triangle", "--bias", "1"], "--bias '1'"),
            (["solve", "@triangle", "--bias", "1:x"], "--bias '1:x'"),
            (["solve", "@triangle", "--bias", "y:1"], "--bias 'y:1'"),
            (["solve", "@bad_line"], "'e 0 x'"),
            (["solve", "@triangle", "--objective", "non-x-colorable"], "'non-x-colorable'"),
            (["solve", "@triangle", "--objective", "k-edge-connected"], "'k-edge-connected'"),
            (["solve", "@triangle", "--board", "vertices", "--objective", "aux-connect 0,y"],
             "'aux-connect 0,y'"),
            (["generate", "--family", "complete_multipartite", "--param", "sizes=3x"],
             "--param 'sizes=3x'"),
            (["generate", "--family", "complete_multipartite", "--param", "sizes=3x2x2"],
             "--param 'sizes=3x2x2'"),
            (["generate", "--family", "complete_multipartite", "--param", "sizes=3-z"],
             "--param 'sizes=3-z'"),
            (["generate", "--family", "union", "--param", "left={x"], "--param 'left={x'"),
            (["sweep", "@config", "--b-range", "1:x"], "--b-range '1:x'"),
            (["sweep", "@config", "--b-range", "x"], "--b-range 'x'"),
        ],
    )
    def test_message_names_the_input(self, tmp_path, capsys, argv, named):
        files = {
            "triangle": "p 3 3\ne 0 1\ne 1 2\ne 0 2\n",
            "bad_line": "p 3 1\ne 0 x\n",
            "config": json.dumps(EXPERIMENT_CONFIG),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_deeply_nested_config_is_a_domain_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text('{"generator": ' + "[" * 100_000)
        extra = ["--b-range", "1:2"] if command == "sweep" else []
        assert run_cli(command, str(path), *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "nests too deeply" in err

    def test_deeply_nested_param_is_a_domain_error(self, capsys):
        value = 'left={"a":' + "[" * 100_000
        assert run_cli("generate", "--family", "gnp", "--param", value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --param 'left=") and "is not valid JSON" in err

    @pytest.mark.parametrize(
        "value",
        [
            'left={"a":' + "[" * 100_000,
            "sizes=" + "[" * 100_000,
            "n=" + "9x" * 50_000,
            "x" * 100_000,
        ],
        ids=["json", "sizes", "family-param", "no-equals"],
    )
    def test_malformed_param_is_quoted_short(self, capsys, value):
        assert run_cli("generate", "--family", "gnp", "--param", "p=1", "--param", value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.encode()) < 1024
        assert "..." in err

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["solve", "@triangle", "--bias", "1:" + "9" * 50_000 + "z"], {}, "--bias '1:999"),
            (["solve", "@triangle", "--objective", "non-" + "9" * 50_000 + "z-colorable"], {},
             "objective 'non-999"),
            (["play", "@triangle", "--maker", "m" * 50_000, "--breaker", "random"], {},
             "unknown strategy 'mmm"),
            (["decompose", "@triangle", "--mode", "bfkm", "--delta", "d" * 50_000], {},
             "not a fraction: 'ddd"),
            (["experiment", "@config"], {"trials": "t" * 50_000}, "'trials' must be int: 'ttt"),
            (["sweep", "@config", "--b-range", "1:" + "9" * 50_000], {}, "--b-range '1:999"),
            (["decompose", "@triangle", "--mode", "bfkm", "--delta", LONG_DELTA], {},
             "minimum degree 2 below k=5999"),
            (["decompose", "@triangle", "--mode", "bfkm", "--delta=-" + LONG_DELTA], {},
             "k must be positive, got -5999"),
            (["decompose", "@triangle", "--mode", "core", "--delta", LONG_DELTA], {},
             "delta must be in (0,1), got '3999"),
            (["decompose", "@triangle", "--mode", "core", "--delta", NEAR_HALF_DELTA], {},
             "does not exceed 32/delta = '2000"),
            (["decompose", "@triangle", "--mode", "key2", "--delta", NEAR_HALF_DELTA], {},
             "chromatic threshold 2(b+1)/delta = '2000"),
        ],
        ids=["bias", "objective", "maker", "delta", "trials", "b-range", "bfkm-delta",
             "bfkm-negative-delta", "core-delta", "core-threshold", "key2-threshold"],
    )
    def test_long_input_is_quoted_short(self, tmp_path, capsys, argv, config, named):
        (tmp_path / "triangle").write_text("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
        (tmp_path / "config").write_text(json.dumps({**EXPERIMENT_CONFIG, **config}))
        argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.encode()) < 1024 and named in err

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: ExperimentConfig.from_dict({**EXPERIMENT_CONFIG, "trials": list(range(30000))}),
             "[0, 1, 2"),
            (lambda: ExperimentConfig.from_dict(
                {**EXPERIMENT_CONFIG, "objective": {"kind": "aux-connect", "anchor": ["a"] * 50_000}}
            ).predicate(), "['a', 'a'"),
            (lambda: parse_graph("p " + "9" * 100_000 + "z 1\n"), "'p 999"),
            (lambda: parse_graph("p 2 1\ne 0 " + "x" * 100_000 + "\n"), "'e 0 xxx"),
            # 4,000 leading zeros: under int()'s digit limit, over 1 KB
            (lambda: parse_graph("p 2 1\ne 1 " + "0" * 4000 + "1\n"), "loop line: 'e 1 000"),
            (lambda: parse_graph("p 2 2\ne 0 1\ne 1 " + "0" * 4000 + "\n"), "duplicate edge line"),
            (lambda: parse_ident("f(" + "a" * 100_000), "'f(aaa"),
            (lambda: parse_ident("f(" + "a" * 100_000 + ")"), "parameter 'aaa"),
            (lambda: WinPredicate.from_token("w" * 100_000), "'www"),
            (lambda: parse_fraction("1/" + "x" * 100_000), "'1/xxx"),
            (lambda: build_strategy("s" * 100_000, Graph.complete(3)), "'sss"),
            (lambda: build_strategy("random(" + "k" * 100_000 + "=1)", Graph.complete(3)),
             "'kkk"),
            (lambda: robust_partition(Graph.complete(3), LONG_DELTA), "got '3999"),
            (lambda: extract_chromatic_core(Graph.complete(3), LONG_DELTA, 1), "got '3999"),
            (lambda: bound_report(3, LONG_DELTA), "got '3999"),
        ],
        ids=["trials", "anchor", "header", "edge-line", "loop-line", "duplicate-line",
             "ident", "ident-parameter", "objective-token", "fraction", "strategy-name",
             "strategy-parameter", "robust-delta", "chromatic-delta", "bound-delta"],
    )
    def test_long_value_is_quoted_short_in_the_library(self, call, named):
        with pytest.raises(DomainError) as info:
            call()
        assert len(str(info.value)) < 1024 and named in str(info.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: robust_partition(Graph.path(3), NEAR_HALF_DELTA),
            lambda: extract_chromatic_core(Graph.path(3), NEAR_HALF_DELTA, 1),
        ],
        ids=["robust", "chromatic"],
    )
    def test_degree_floor_is_quoted_short(self, call):
        with pytest.raises(PreconditionError) as info:
            call()
        assert len(str(info.value)) < 1024 and "below delta*n = '1000" in str(info.value)

    def test_unknown_generator_param_is_refused(self, capsys):
        argv = ("generate", "--family", "gnp", "--param", "n=5", "--param", "p=0.5")
        assert run_cli(*argv, "--param", "bogus=3") == 1
        assert capsys.readouterr().err == "error: generator 'gnp' has unknown key(s) bogus\n"
        assert run_cli(*argv) == 0

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_deeply_nested_generator_params_are_a_domain_error(self, tmp_path, capsys, command):
        # 900 levels decode, under json's own limit, but are too deep to copy
        config = dict(EXPERIMENT_CONFIG, trials=1)
        config["generator"] = dict(config["generator"], params={"sizes": "DEEP"})
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config).replace('"DEEP"', "[" * 900 + "]" * 900))
        extra = ["--b-range", "1:2"] if command == "sweep" else []
        assert run_cli(command, str(path), *extra) == 1
        err = capsys.readouterr().err
        assert err == "error: generator 'complete_multipartite' has params nested too deeply\n"


# -- fuzzing the whole command line ---------------------------------------------------


def good_or_bad(good, bad):
    """Values from ``good`` four times in five, otherwise from ``bad``; the
    bad ones sit mid-list, away from the ends the draws lean to."""
    good, bad = list(good), list(bad)
    return st.sampled_from(good * (2 * len(bad)) + bad * len(good) + good * (2 * len(bad)))


GRAPH_TEXTS = st.one_of(
    *[random_graphs(max_n=8).map(format_graph)] * 4,
    st.sampled_from(
        [
            "",
            "p 0 0\n",
            "p 3 1\n",
            "p x y\n",
            "p -1 0\n",
            "p 3\n",
            "e 0 1\n",
            "p 3 1\ne 0 5\n",
            "p 3 1\ne 1 1\n",
            "p 3 2\ne 0 1\ne 1 0\n",
            "p 3 1\ne 0 x\n",
            "p 3 1\nq 0 1\n",
        ]
    )
)
STRATEGIES = good_or_bad(
    [
        "random",
        "bipartite-guard",
        "cut-attack",
        "connectivity",
        "dense-edge(delta=1/2,force=true)",
        "connected-edge(b=1)",
        "connected-edge(b=1,k=2,seed=3)",
        "dense-vertex(delta=1/2,b=1,force=true)",
        "dense-vertex(delta=2/3,b=2,force=true,seed=1)",
    ],
    [
        "dense-edge(delta=1/2)",
        "dense-edge(delta=nan)",
        "dense-edge(delta=0)",
        "connected-edge(b=0)",
        "dense-vertex(delta=2)",
        "dense-vertex(delta=1/2,b=1",
        "random(x=1)",
        "random(x)",
        "bogus",
        "",
    ],
)
OBJECTIVES = good_or_bad(
    [
        "odd-cycle",
        "spanning-connected",
        "non-2-colorable",
        "1-edge-connected",
        "2-edge-connected",
        "aux-connect 0,1",
    ],
    ["non-0-colorable", "non-x-colorable", "aux-connect 9", "aux-connect", "aux-connect a", "bogus"],
)
BIASES = good_or_bad(["1:1", "1:2", "2:1", "2:2"], ["0:1", "1:0", "1", ":", "a:b", "-1:1"])
DELTAS = good_or_bad(["1/2", "2/3", "6/7", "0.5"], ["0", "1", "-1", "x", "1/0", "nan", "1e9"])
def good_or_bad(good, bad):
    """Values from ``good`` four times in five, otherwise from ``bad``; the
    bad ones sit mid-list, away from the ends the draws lean to."""
    good, bad = list(good), list(bad)
    return st.sampled_from(good * (2 * len(bad)) + bad * len(good) + good * (2 * len(bad)))


GRAPH_TEXTS = st.one_of(
    *[random_graphs(max_n=8).map(format_graph)] * 4,
    st.sampled_from(
        [
            "",
            "p 0 0\n",
            "p 3 1\n",
            "p x y\n",
            "p -1 0\n",
            "p 3\n",
            "e 0 1\n",
            "p 3 1\ne 0 5\n",
            "p 3 1\ne 1 1\n",
            "p 3 2\ne 0 1\ne 1 0\n",
            "p 3 1\ne 0 x\n",
            "p 3 1\nq 0 1\n",
        ]
    )
)
STRATEGIES = good_or_bad(
    [
        "random",
        "bipartite-guard",
        "cut-attack",
        "connectivity",
        "dense-edge(delta=1/2,force=true)",
        "connected-edge(b=1)",
        "connected-edge(b=1,k=2,seed=3)",
        "dense-vertex(delta=1/2,b=1,force=true)",
        "dense-vertex(delta=2/3,b=2,force=true,seed=1)",
    ],
    [
        "dense-edge(delta=1/2)",
        "dense-edge(delta=nan)",
        "dense-edge(delta=0)",
        "connected-edge(b=0)",
        "dense-vertex(delta=2)",
        "dense-vertex(delta=1/2,b=1",
        "random(x=1)",
        "random(x)",
        "bogus",
        "",
    ],
)
OBJECTIVES = good_or_bad(
    [
        "odd-cycle",
        "spanning-connected",
        "non-2-colorable",
        "1-edge-connected",
        "2-edge-connected",
        "aux-connect 0,1",
    ],
    ["non-0-colorable", "non-x-colorable", "aux-connect 9", "aux-connect", "aux-connect a", "bogus"],
)
BIASES = good_or_bad(["1:1", "1:2", "2:1", "2:2"], ["0:1", "1:0", "1", ":", "a:b", "-1:1"])
DELTAS = good_or_bad(["1/2", "2/3", "6/7", "0.5"], ["0", "1", "-1", "x", "1/0", "nan", "1e9"])

# Parameters each generator family needs, and good and bad values to add.
FAMILY_PARAMS = {
    "gnp": {"n": 6, "p": 0.5},
    "complete_multipartite": {"sizes": [2, 3]},
    "odd_cycle_blowup": {"length": 3, "m": 2},
    "random_regular": {"n": 6, "d": 3},
    "union": {"left": {"family": "gnp", "params": {"n": 3, "p": 1}},
              "right": {"family": "complete_multipartite", "params": {"sizes": [1, 2]}}},
    "join": {"left": {"family": "gnp", "params": {"n": 2, "p": 0.5}},
             "right": {"family": "odd_cycle_blowup", "params": {"length": 3, "m": 1}}},
}
EXTRA_PARAMS = st.dictionaries(
    st.sampled_from(["n", "p", "sizes", "length", "m", "d", "left", "right"]),
    good_or_bad(
        [1, 5, 8, 0.5, [1, 1, 1], {"family": "gnp", "params": {"n": 3, "p": 1}}],
        [0, -1, "x", 2.5, None, [], [0], "1x", {}, {"family": "bogus"}],
    ),
    max_size=2,
)


@st.composite
def generator_params(draw):
    """A family and its parameters, with extra ones sometimes added over
    those it needs."""
    family = draw(good_or_bad(FAMILIES, ["bogus"]))
    params = dict(FAMILY_PARAMS.get(family, {}))
    if draw(st.booleans()):
        params.update(draw(EXTRA_PARAMS))
    return family, params


def param_text(value) -> str:
    """A parameter value as ``generate --param`` reads it."""
    if isinstance(value, list) and all(type(v) is int for v in value):
        return "-".join(map(str, value))
    return json.dumps(value) if isinstance(value, (dict, list)) else str(value)


@st.composite
def generator_docs(draw):
    family, params = draw(generator_params())
    doc = {"family": family, "params": draw(good_or_bad([params], [[params], 5, None]))}
    if draw(st.booleans()):
        doc["seed"] = draw(good_or_bad([0, 1], ["x"]))
    return draw(good_or_bad([doc], [{"params": params}, [family], family]))


LONG = 10_000


def stretched(value) -> str:
    """``value``'s text grown to ``LONG`` characters: digits after its first
    character and a letter at the end, so that no number or name in it parses."""
    text = value if isinstance(value, str) else json.dumps(value)
    return text[:1] + "9" * (LONG - 1 - len(text)) + text[1:] + "z"


@st.composite
def config_docs(draw):
    """An experiment config: each key's value good four times in five, a key
    left out one time in ten, an unknown key added one time in ten, one
    value in ten ``stretched``, and one config in ten not an object at all."""
    values = {
        "generator": generator_docs(),
        "board_kind": good_or_bad(["edges", "vertices"], ["faces", 1]),
        "objective": good_or_bad(
            [
                {"kind": "odd-cycle"},
                {"kind": "spanning-connected"},
                {"kind": "non-k-colorable", "k": 2},
                {"kind": "k-edge-connected", "k": 1},
                {"kind": "aux-connect", "anchor": [0, 1]},
            ],
            [
                {"kind": "non-k-colorable", "k": "x"},
                {"kind": "aux-connect", "anchor": 3},
                {"kind": "aux-connect", "anchor": [9]},
                {"kind": "aux-connect", "anchor": ["a"]},
                {"kind": "odd-cycle", "k": 2},
                {},
                [],
                "odd-cycle",
            ],
        ),
        "maker": STRATEGIES,
        "breaker": STRATEGIES,
        "maker_bias": good_or_bad([1, 2], [0, "1", None, 1.5, True]),
        "breaker_bias": good_or_bad([1, 2], [0, "2", None]),
        "first": good_or_bad(["maker", "breaker"], ["nobody", None]),
        "trials": good_or_bad([0, 1, 3], [-1, "2", None]),
        "seed_base": good_or_bad([0, 7], ["x", None]),
    }
    doc = {}
    for key, value in values.items():
        if draw(st.integers(min_value=0, max_value=9)) < 9:
            doc[key] = draw(value)
    if draw(st.integers(min_value=0, max_value=9)) == 9:
        doc["trails"] = 1
    if doc and draw(st.integers(min_value=0, max_value=9)) == 9:
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = stretched(doc[key])
    return draw(good_or_bad([doc], [[doc], 5, "x", None]))


@st.composite
def command_lines(draw):
    """A command line for any subcommand, with its files' contents; "{graph}"
    and "@config" in it stand for the files."""
    command = draw(
        good_or_bad(
            ["generate", "decompose", "play", "solve", "verify", "experiment", "sweep"], ["bogus"]
        )
    )
    argv = [command]
    if command in ("decompose", "play", "solve", "verify"):
        argv.append("{graph}")
    if command in ("experiment", "sweep"):
        argv.append("@config")
    if command in ("play", "solve", "verify"):
        for flag, values in (
            ("--board", good_or_bad(["edges", "vertices"], ["faces"])),
            ("--objective", OBJECTIVES),
            ("--bias", BIASES),
            ("--first", good_or_bad(["maker", "breaker"], ["nobody"])),
        ):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    if command == "generate":
        family, params = draw(generator_params())
        argv += ["--family", family]
        for key, value in params.items():
            argv += ["--param", f"{key}={param_text(value)}"]
        if draw(st.booleans()):
            argv += ["--param", draw(good_or_bad(["n=4"], ["junk", "sizes=a", "left={"]))]
    elif command == "decompose":
        argv += ["--mode", draw(good_or_bad(["bfkm", "core", "robust", "key2"], ["bogus"]))]
        argv += ["--delta", draw(DELTAS), "--b", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv.append("--force")
    elif command == "play":
        argv += ["--maker", draw(STRATEGIES), "--breaker", draw(STRATEGIES)]
    elif command == "verify":
        argv += ["--maker", draw(STRATEGIES), "--budget", str(draw(st.integers(0, 300)))]
    elif command == "experiment":
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    elif command == "sweep":
        argv += ["--b-range", draw(good_or_bad(["1:2", "2", "2:1"], ["a:b", "1:"]))]
    if command in ("generate", "decompose", "play") and draw(st.booleans()):
        argv += ["--seed", draw(good_or_bad(["0", "3"], ["x"]))]
    valued = [i + 1 for i, a in enumerate(argv[:-1]) if a.startswith("--")
              and not argv[i + 1].startswith("--")]
    if valued and draw(st.integers(min_value=0, max_value=9)) == 9:
        i = draw(st.sampled_from(valued))
        argv[i] = stretched(argv[i])
    if draw(st.integers(min_value=0, max_value=19)) == 19:
        argv.append("--no-such-flag")
    return argv, draw(GRAPH_TEXTS), json.dumps(draw(config_docs()))


class TestCommandLineFuzz:
    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_every_command_line_ends_in_an_exit_code(self, case):
        """Any command line ends in exit 0, a clean error (1) or a usage
        error (2, raised by argparse as SystemExit), never another exception.
        A clean error's message stays under 1 KB, even when a flag value or a
        config field is 10,000 characters long; argparse's usage errors are
        its own."""
        argv, graph_text, config_text = case
        with tempfile.TemporaryDirectory() as tmp:
            files = {"{graph}": os.path.join(tmp, "g.graph"),
                     "@config": os.path.join(tmp, "config.json")}
            with open(files["{graph}"], "w") as f:
                f.write(graph_text)
            with open(files["@config"], "w") as f:
                f.write(config_text)
            argv = [files.get(a, a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        if code == 1:
            assert len(err.getvalue().encode()) < 1024
