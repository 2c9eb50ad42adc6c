import json

import pytest

from makerbreaker.cli import main
from makerbreaker.engine import GameSpec, WinPredicate, parse_transcript, replay_transcript
from makerbreaker.graphs import parse_graph


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

    def test_unconvertible_generator_parameter_is_clean(self, capsys):
        assert run_cli("generate", "--family", "gnp", "--param", "n=x", "--param", "p=0.5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'n'" in err

    def test_precondition_failure_is_clean(self, tripartite_file, capsys):
        code = run_cli("decompose", str(tripartite_file), "--mode", "core", "--delta", "2/3")
        assert code == 1
        assert "error:" in capsys.readouterr().err


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
        record = parse_transcript(text)
        g = parse_graph(tripartite_file.read_text())
        spec = GameSpec(
            host=g, board_kind="edges", objective=WinPredicate("odd-cycle"),
            maker_bias=1, breaker_bias=2,
        )
        replayed = replay_transcript(spec, record)
        assert replayed.winner in ("maker", "breaker")
        assert dict(record.header)["host"].split()[0] == g.fingerprint()

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

    def test_solve_cap_error(self, tripartite_file, capsys):
        assert run_cli("solve", str(tripartite_file)) == 1
        assert "exceeds the solve cap" in capsys.readouterr().err

    def test_verify_json(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        run_cli("generate", "--family", "complete_multipartite",
                "--param", "sizes=1x4", "--out", str(path))
        assert run_cli("verify", str(path), "--objective", "spanning-connected",
                       "--maker", "connectivity") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["always_wins"] is True and doc["counter"] is None

    @pytest.mark.parametrize(
        "argv",
        [("solve", "--format", "csv"), ("verify", "--maker", "connectivity", "--seed", "1")],
    )
    def test_flags_of_other_subcommands_are_rejected(self, tripartite_file, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv[0], str(tripartite_file), *argv[1:])
        assert exc.value.code == 2


class TestExperimentAndSweep:
    @pytest.fixture
    def config_file(self, tmp_path):
        cfg = {
            "generator": {"family": "complete_multipartite",
                          "params": {"sizes": [3] * 7}, "seed": 0},
            "board_kind": "vertices",
            "objective": {"kind": "odd-cycle"},
            "maker": "dense-vertex(delta=6/7,b=2,force=true)",
            "breaker": "random",
            "maker_bias": 1, "breaker_bias": 2, "first": "maker",
            "trials": 5, "seed_base": 10,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
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
