"""Benchmark driver for the makerbreaker library.

    python3 bench/run.py --workload vertex-game --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --all            # every workload, untraced and traced

One run builds a workload from its seed, then drives it in a closed loop in
this one process (each call is issued when the previous one returns) for
``--seconds`` seconds, checking every output between calls.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from spans recorded around
each library call.  The lines before it give the same numbers for a reader,
with the tail percentile, the layer shares and the ``src/`` line count.

The library is imported from ``src/`` next to this directory and from
nowhere else; without it the run stops with exit code 2 before printing a
result.  The exit code is 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("vertex-game", "edge-game", "certify", "solve")
# Set-up is timed this many times per run, each in a fresh process (the
# harness caches decompositions per process), and the median reported.
SETUP_SAMPLES = 5
TAIL_ABOVE = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
BREAKERS = ("random", "bipartite-guard", "cut-attack")
DECOMPOSITIONS = (
    "highly_connected_partition",
    "robust_partition",
    "extract_bipartite_core",
    "extract_chromatic_core",
)
# name -> (unit, span whose calls/total/self it reads, which of the three)
SPAN_METRICS = {
    "engine.win_check.calls": ("count", "engine.win_check", "calls"),
    "engine.win_check.time_s": ("s", "engine.win_check", "total"),
    "engine.play.self_s": ("s", "engine.play", "self"),
    "strategies.maker_propose.calls": ("count", "strategies.maker_propose", "calls"),
    "strategies.maker_propose.time_s": ("s", "strategies.maker_propose", "total"),
    **{
        f"strategies.breaker_propose.{b}.{field}": (unit, f"strategies.breaker_propose.{b}", kind)
        for b in BREAKERS
        for field, unit, kind in (("calls", "count", "calls"), ("time_s", "s", "total"))
    },
    **{
        f"{span}.{field}": (unit, span, kind)
        for span in (
            *(f"decompose.{d}" for d in DECOMPOSITIONS),
            "connectivity.vertex_connectivity",
            "connectivity.vertex_cut_below",
            "coloring.is_k_colorable",
        )
        for field, unit, kind in (("calls", "count", "calls"), ("time_s", "s", "total"))
    },
    "harness.run_experiment.self_s": ("s", "harness.run_experiment", "self"),
    "harness.build_strategy.time_s": ("s", "harness.build_strategy", "total"),
    "generators.generate.time_s": ("s", "generators.generate", "total"),
}
PER_LAYER_UNITS = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    "engine.win_check.per_game": "count",
    "engine.win_check.induced_subgraph.time_s": "s",
    "engine.win_check.find_odd_cycle.time_s": "s",
    "strategies.forfeits": "count",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.win_checks": "count",
    "solver.win_checks_per_node": "ratio",
    "trace.ops_per_s": "1/s",
}


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "makerbreaker").glob("*.py"))
    )


def import_library():
    """Import the workloads (and with them the library) from this checkout."""
    if not (SRC / "makerbreaker" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'makerbreaker'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    imported = Path(sys.modules["makerbreaker"].__file__).resolve().parent
    if imported != SRC / "makerbreaker":
        print(f"bench: imported makerbreaker from {imported}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def setup_samples(args, first: float) -> list:
    """The main process's own set-up time plus fresh-process repeats."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def check_digest(workload: str, seed: int, digest: str) -> str | None:
    """Compare with the stored reference (default seed) or with the first
    run of this seed in this checkout; returns a problem or None."""
    if seed == DEFAULT_SEED:
        expected = json.loads(REFERENCE.read_text()).get(workload)
        where = str(REFERENCE.relative_to(ROOT))
    else:
        record = OUT / "digests.json"
        seen = json.loads(record.read_text()) if record.exists() else {}
        key = f"{workload}:{seed}"
        expected = seen.setdefault(key, digest)
        OUT.mkdir(exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, record)
        where = str(record.relative_to(ROOT))
    if expected is not None and expected != digest:
        return f"output digest {digest[:16]} differs from {expected[:16]} in {where}"
    return None


def drive(workload, seconds: float, tracer=None):
    """The closed loop.  Returns (op list, seconds inside library calls, failures)."""
    ops, busy, failures = [], 0.0, 0
    deadline = time.perf_counter() + seconds
    k = 0
    with workload.installed(tracer):
        # Run past the deadline only to finish the digest prefix, and only
        # while calls succeed.
        while time.perf_counter() < deadline or (
            len(ops) < workload.prefix_ops and not failures
        ):
            if tracer is not None:
                tracer.op = len(ops)
                tracer.active = True
            try:
                call_s, raw = workload.call(k, len(ops))
            except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
                traceback.print_exc()
                failures += 1
                k += 1
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            k += 1
            busy += call_s
            for op in workload.finish(raw):
                if op.seconds is None:
                    op.seconds = call_s
                if len(ops) >= workload.prefix_ops:
                    op.digest = ""  # only the prefix is digested
                ops.append(op)
    return ops, busy, failures


def tail(values: list):
    """The value with exactly TAIL_ABOVE samples above it, and its percentile."""
    ordered = sorted(values)
    i = max(0, len(ordered) - TAIL_ABOVE - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(ops, busy, setup) -> dict:
    times = [op.seconds for op in ops]
    return {
        "ops_per_s": len(ops) / busy,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail(times)[0] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, ops, busy, prefix: int) -> dict:
    """Span totals include set-up; counts that must repeat exactly (forfeits,
    solver nodes and win checks) are taken over the digest prefix."""
    spans = tracer.totals()
    in_ops = tracer.totals(ops_only=True)
    out = {}
    for name, (_, span, kind) in SPAN_METRICS.items():
        calls, total, self_s = spans.get(span, (0, 0.0, 0.0))
        out[name] = {"calls": calls, "total": total, "self": self_s}[kind]
    out["engine.win_check.per_game"] = in_ops.get("engine.win_check", (0,))[0] / len(ops)
    for kernel in ("induced_subgraph", "find_odd_cycle"):
        _, secs = tracer.child_totals(f"graphs.{kernel}", "engine.win_check")
        out[f"engine.win_check.{kernel}.time_s"] = secs
    out["strategies.forfeits"] = sum(op.forfeit for op in ops[:prefix])
    nodes = sum(op.nodes for op in ops)
    solve_s = spans.get("solver.solve", (0, 0.0))[1]
    checks, _ = tracer.child_totals("engine.win_check", "solver.solve")
    out["solver.nodes"] = sum(op.nodes for op in ops[:prefix])
    out["solver.nodes_per_s"] = nodes / solve_s if solve_s else 0.0
    out["solver.win_checks"] = tracer.child_totals(
        "engine.win_check", "solver.solve", below_op=prefix
    )[0]
    out["solver.win_checks_per_node"] = checks / nodes if nodes else 0.0
    out["trace.ops_per_s"] = len(ops) / busy
    return out


def layer_shares(tracer, busy) -> list:
    """(span, calls, self seconds, self share of the timed calls) by self time."""
    rows = [
        (name, calls, self_s, self_s / busy)
        for name, (calls, _, self_s) in tracer.totals(ops_only=True).items()
    ]
    return sorted(rows, key=lambda r: -r[2])


def run_one(args) -> int:
    with contextlib.ExitStack() as stack:
        return _run_one(args, stack)


def _run_one(args, stack) -> int:
    t0 = time.perf_counter()
    workloads = import_library()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        stack.enter_context(
            tracer.installed(workloads.MODULES, maker_idents=workloads.MAKER_IDENTS)
        )
        tracer.active = True
    workload = workloads.WORKLOADS[args.workload](args.seed)
    first_setup = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if args.setup_only:
        print(f"{first_setup:.9f}")
        return 0

    ops, busy, failures = drive(workload, args.seconds, tracer)
    failed = failures + sum(1 for op in ops if op.errors)
    for op in ops:
        for error in op.errors:
            print(f"check failed: {error}", file=sys.stderr)
    prefix = workload.prefix_ops
    digest = workloads.digest_of(op.digest for op in ops[:prefix])
    problem = check_digest(args.workload, args.seed, digest)
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(ops) + failures

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"src_lines {src_line_count()}")
    print(f"ops {len(ops)} (prefix {prefix}, digest {digest[:16]}), "
          f"library time {busy:.3f} s")
    print(f"error_rate {failed / max(attempted, 1):.6f} ratio ({failed}/{attempted})")
    if tracer is None:
        values = end_to_end(ops, busy, setup_samples(args, first_setup))
        units = dict(END_TO_END)
        _, pct = tail([op.seconds for op in ops])
        notes = {"op_tail_ms": f"p{pct:.2f} of {len(ops)} ops, {TAIL_ABOVE} above"}
    else:
        values = per_layer(tracer, ops, busy, prefix)
        units = PER_LAYER_UNITS
        notes = {}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_file)
        print(f"spans {len(tracer)} written to {trace_file.relative_to(ROOT)}")
        print("self time by span (share of the timed library calls):")
        for name, calls, self_s, share in layer_shares(tracer, busy):
            print(f"  {name:<44} {calls:>9} calls {self_s:>10.4f} s {100 * share:6.2f} %")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    correct = failed == 0 and problem is None
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, untraced then traced."""
    status = 0
    print(f"src_lines {src_line_count()}")
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
        print(f"== {name}")
        for trace, res in results.items():
            if not res["correct"]:
                status = 1
            rate = res["failed"] / res["attempted"]
            print(f"  trace={trace} correct={res['correct']} error_rate {rate:.6f} ratio "
                  f"({res['failed']}/{res['attempted']})")
            for metric, m in res["metrics"].items():
                print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
        if len(results) == 2:
            traced = results[1]["metrics"]["trace.ops_per_s"]["value"]
            plain = results[0]["metrics"]["ops_per_s"]["value"]
            print(f"  tracing overhead: traced/untraced ops_per_s = {traced / plain:.3f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
