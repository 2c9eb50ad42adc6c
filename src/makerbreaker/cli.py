"""Command-line interface.

Subcommands: generate, decompose, play, solve, verify, experiment, sweep.
Graphs cross the process boundary in the `p/e` text format; results are
versioned JSON documents (CSV export for per-trial rows).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .decompose import (
    extract_bipartite_core,
    extract_chromatic_core,
    highly_connected_partition,
    robust_partition,
)
from .engine import GameSpec, WinPredicate, element_token
from .errors import DomainError, ResourceLimitError, parse_int, quoted
from .generators import FAMILIES, generate
from .graphs import MAX_VERTICES, format_graph, frac_ceil, parse_graph
from .harness import (
    DECOMPOSE_VERSION,
    ExperimentConfig,
    atomic_write,
    build_strategy,
    parse_fraction,
    play_to_transcript,
    rows_to_csv,
    run_experiment,
    sweep_bias,
)
from .solver import VERIFY_NODE_BUDGET, solve, verify_maker_strategy


def _read_graph(path: str):
    with open(path) as f:
        return parse_graph(f.read())


def _emit(text: str, out: str | None):
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise DomainError(f"expected key=value, got {quoted(pair)}")
        where = f"--param {quoted(pair)}"
        if value.startswith("{"):
            try:
                params[key] = json.loads(value)
            except (ValueError, RecursionError) as exc:
                raise DomainError(f"{where} is not valid JSON: {exc}") from None
        elif key == "sizes":
            if "x" in value:
                m, _, r = value.partition("x")
                size, count = parse_int(m, where), parse_int(r, where)
                if count > MAX_VERTICES:  # refused before the list is built
                    raise ResourceLimitError(
                        f"{where} asks for {count} parts, over the cap of {MAX_VERTICES}",
                        {"parts": count, "cap": MAX_VERTICES},
                    )
                params[key] = [size] * count
            else:
                params[key] = [parse_int(s, where) for s in value.split("-")]
        else:
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return params


def _parse_bias(text: str) -> tuple[int, int]:
    a, _, b = text.partition(":")
    return parse_int(a, f"--bias {quoted(text)}"), parse_int(b, f"--bias {quoted(text)}")


def _cmd_generate(args):
    g = generate(args.family, _parse_params(args.param), args.seed)
    _emit(format_graph(g), args.out)


# The record fields a decomposition document carries, per mode.
DOCUMENT_FIELDS = {
    "bfkm": ("parts", "certified_connectivity", "guarantees"),
    "core": ("a", "b", "witness_edge", "certified_connectivity", "h_min_degree"),
    "robust": ("parts", "moved", "split_count", "part_stats"),
    "key2": ("a", "b", "chi_floor", "h_min_degree"),
}


def _plain(value):
    """``value`` as JSON data: frozensets become sorted lists, tuples lists,
    Fractions strings, and dataclasses objects of their fields."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return str(value) if isinstance(value, Fraction) else value


def _cmd_decompose(args):
    g = _read_graph(args.graph)
    delta = parse_fraction(args.delta)
    doc = {
        "version": DECOMPOSE_VERSION,
        "mode": args.mode,
        "delta": str(delta),
        "seed": args.seed,
        "force": args.force,
        "host": {"fingerprint": g.fingerprint(), "n": g.n, "m": g.m},
    }
    if args.mode == "bfkm":
        doc["k"] = frac_ceil(delta * g.n)
        record = highly_connected_partition(g, doc["k"])
    elif args.mode == "core":
        record = extract_bipartite_core(g, delta, force=args.force)
    elif args.mode == "robust":
        record = robust_partition(g, delta, seed=args.seed)
    else:  # key2, the last of the modes argparse admits
        record = extract_chromatic_core(g, delta, args.b, force=args.force, seed=args.seed)
    doc.update((name, _plain(getattr(record, name))) for name in DOCUMENT_FIELDS[args.mode])
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def _game_spec(args) -> GameSpec:
    """The game the play, solve and verify subcommands share flags for."""
    g = _read_graph(args.graph)
    a, b = _parse_bias(args.bias)
    return GameSpec(
        host=g,
        board_kind=args.board,
        objective=WinPredicate.from_token(args.objective),
        maker_bias=a,
        breaker_bias=b,
        first=args.first,
    )


def _cmd_play(args):
    spec = _game_spec(args)
    result, text = play_to_transcript(spec, args.maker, args.breaker, seed=args.seed)
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(f"winner={result.winner} rounds={result.rounds}\n")


def _log_tokens(spec: GameSpec, log) -> list:
    """A move log as ``[player, [element token, ...]]`` pairs, for JSON."""
    return [[player, [element_token(spec, el) for el in elements]] for player, elements in log]


def _cmd_solve(args):
    spec = _game_spec(args)
    verdict = solve(spec)
    doc = {
        "winner": verdict.winner,
        "nodes_expanded": verdict.nodes_expanded,
        "principal_line": _log_tokens(spec, verdict.principal_line),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def _cmd_verify(args):
    spec = _game_spec(args)
    maker = build_strategy(args.maker, spec.host)
    res = verify_maker_strategy(spec, maker, node_budget=args.budget)
    doc = {
        "always_wins": res.always_wins,
        "nodes_expanded": res.nodes_expanded,
        "counter": None if res.counter is None else _log_tokens(spec, res.counter),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        try:
            return ExperimentConfig.from_dict(json.load(f))
        except RecursionError:
            raise DomainError(f"config {path!r} nests too deeply to decode") from None


def _cmd_experiment(args):
    config = _load_config(args.config)
    doc = run_experiment(config)
    if args.format == "csv":
        _emit(rows_to_csv(doc), args.out)
    else:
        _emit(doc.canonical_json(include_timestamp=True), args.out)


def _cmd_sweep(args):
    config = _load_config(args.config)
    where = f"--b-range {quoted(args.b_range)}"
    lo, _, hi = args.b_range.partition(":")
    lo = parse_int(lo, where)
    values = range(lo, parse_int(hi, where) + 1) if hi else [lo]
    docs, summary = sweep_bias(config, values, out_dir=args.out_dir)
    text = json.dumps({"summary": summary}, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(prog="makerbreaker")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common, seeded], help="write a graph file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decompose", parents=[common, seeded], help="run a decomposition")
    p.add_argument("graph")
    p.add_argument("--mode", choices=DOCUMENT_FIELDS, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    game_common = argparse.ArgumentParser(add_help=False, parents=[common])
    game_common.add_argument("--board", choices=("edges", "vertices"), default="edges")
    game_common.add_argument("--objective", default="odd-cycle")
    game_common.add_argument("--bias", default="1:1")
    game_common.add_argument("--first", choices=("maker", "breaker"), default="maker")

    p = sub.add_parser("play", parents=[game_common, seeded], help="play one game")
    p.add_argument("graph")
    p.add_argument("--maker", required=True)
    p.add_argument("--breaker", required=True)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("solve", parents=[game_common], help="optimal-play winner")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", parents=[game_common], help="exhaust breaker replies")
    p.add_argument("graph")
    p.add_argument("--maker", required=True)
    p.add_argument("--budget", type=int, default=VERIFY_NODE_BUDGET)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", parents=[common], help="run a config file")
    p.add_argument("config")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", parents=[common], help="sweep breaker bias")
    p.add_argument("config")
    p.add_argument("--b-range", required=True, metavar="LO:HI")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DomainError, ResourceLimitError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
