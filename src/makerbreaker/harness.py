"""Experiment orchestration: strategy identifiers, reproducible tournaments,
bias sweeps, and versioned result documents.

A result document is plain JSON on the filesystem (schema ``result-v1``),
written atomically, with per-trial rows ordered by trial index and aggregates
recomputable from the rows.  Re-running a config reproduces the document
byte-for-byte except for the timestamp.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import time
from dataclasses import MISSING, asdict, dataclass, fields
from fractions import Fraction

from . import __version__
from .decompose import extract_bipartite_core, extract_chromatic_core
from .engine import (
    MAKER,
    GameSpec,
    WinPredicate,
    format_transcript,
    play,
)
from .errors import DomainError, quoted, refuse_unknown, require
from .graphs import Graph, OddCycleWitness
from .generators import generate
from .strategies import (
    BipartiteGuardBreaker,
    ConnectedEdgeMaker,
    ConnectivityMaker,
    CutAttackBreaker,
    DenseEdgeMaker,
    DenseVertexMaker,
    RandomStrategy,
)

RESULT_VERSION = "result-v1"
DECOMPOSE_VERSION = "decompose-v1"


# -- strategy identifiers -----------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    """``text``, such as ``6/7`` or ``0.5``, as an exact fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a fraction: {quoted(text)}") from None


def _parse_value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        return parse_fraction(text)
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        raise DomainError(f"not a finite number: {quoted(text)}")
    return value


def parse_ident(ident: str) -> tuple[str, dict]:
    """Split ``name(k=v,...)`` into the name and typed keyword arguments."""
    ident = ident.strip()
    if "(" not in ident:
        return ident, {}
    if not ident.endswith(")"):
        raise DomainError(f"malformed strategy identifier {quoted(ident)}")
    name, _, body = ident[:-1].partition("(")
    kwargs = {}
    for piece in filter(None, (p.strip() for p in body.split(","))):
        key, sep, value = piece.partition("=")
        if not sep:
            raise DomainError(f"malformed parameter {quoted(piece)} in {quoted(ident)}")
        kwargs[key.strip()] = _parse_value(value.strip())
    return name, kwargs


@functools.cache
def _cached_core(extract, g: Graph, delta: Fraction, *args, **kwargs):
    """``extract(g, delta, *args, **kwargs)``, once per argument tuple in this
    process; callers pass ``delta`` as a Fraction and ``force`` as a bool."""
    return extract(g, delta, *args, **kwargs)


# The parameters each strategy identifier takes.
STRATEGY_PARAMS = {
    "random": (),
    "bipartite-guard": (),
    "cut-attack": (),
    "connectivity": (),
    "dense-edge": ("delta", "force"),
    "connected-edge": ("b", "k", "seed"),
    "dense-vertex": ("delta", "b", "force", "seed"),
}


def build_strategy(ident: str, g: Graph):
    """Construct the strategy named by a stable identifier string."""
    name, kw = parse_ident(ident)
    if name not in STRATEGY_PARAMS:
        raise DomainError(f"unknown strategy {quoted(name)}")
    refuse_unknown(kw, STRATEGY_PARAMS[name], f"strategy {name!r} takes no parameter(s)")

    def param(key):
        return require(kw, key, f"strategy {name!r}")

    if name == "random":
        return RandomStrategy()
    if name == "bipartite-guard":
        return BipartiteGuardBreaker()
    if name == "cut-attack":
        return CutAttackBreaker()
    if name == "connectivity":
        return ConnectivityMaker(g)
    if name == "dense-edge":
        delta, force = param("delta"), bool(kw.get("force", False))
        core = _cached_core(extract_bipartite_core, g, Fraction(delta), force=force)
        return DenseEdgeMaker(g, core=core)
    if name == "connected-edge":
        return ConnectedEdgeMaker(
            g, int(param("b")), k_prime=kw.get("k"), seed=int(kw.get("seed", 0))
        )
    delta, b = param("delta"), int(param("b"))  # dense-vertex, the last name left
    force, seed = bool(kw.get("force", False)), int(kw.get("seed", 0))
    core = _cached_core(extract_chromatic_core, g, Fraction(delta), b, force=force, seed=seed)
    return DenseVertexMaker(g, delta, b, core=core)


# -- experiment configs and result documents ----------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    generator: dict
    board_kind: str
    objective: dict
    maker: str
    breaker: str
    maker_bias: int = 1
    breaker_bias: int = 1
    first: str = MAKER
    trials: int = 100
    seed_base: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config; a missing, unknown or mistyped key raises DomainError."""
        if not isinstance(data, dict):
            raise DomainError("an experiment config is a JSON object")
        refuse_unknown(data, [f.name for f in fields(cls)], "unknown experiment config key(s):")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise DomainError(f"experiment config needs key(s): {', '.join(missing)}")
        for f in fields(cls):
            value = data.get(f.name, f.default)
            if type(value).__name__ != f.type:  # annotations are type names
                raise DomainError(f"experiment config {f.name!r} must be {f.type}: {quoted(value)}")
        return cls(**data)

    def predicate(self) -> WinPredicate:
        obj = dict(self.objective)
        anchor = obj.get("anchor")
        if anchor is not None:
            if type(anchor) is not list or any(type(v) is not int for v in anchor):
                raise DomainError(f"an objective's anchor is a vertex list, got {quoted(anchor)}")
            anchor = frozenset(anchor)
        return WinPredicate(kind=require(obj, "kind", "objective"), k=obj.get("k"), anchor=anchor)

    def game_spec(self, g: Graph) -> GameSpec:
        return GameSpec(
            host=g,
            board_kind=self.board_kind,
            objective=self.predicate(),
            maker_bias=self.maker_bias,
            breaker_bias=self.breaker_bias,
            first=self.first,
        )


@dataclass
class ResultDocument:
    config: dict
    rows: list
    aggregates: dict
    generated_at: str
    code_version: str = __version__
    version: str = RESULT_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "generated_at": self.generated_at,
            "code_version": self.code_version,
            "config": self.config,
            "trials": self.rows,
            "aggregates": self.aggregates,
        }

    def canonical_json(self, *, include_timestamp: bool = False) -> str:
        payload = self.to_dict()
        if not include_timestamp:
            payload.pop("generated_at")
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _witness_row_fields(witness):
    if witness is None:
        return None, None
    if isinstance(witness, OddCycleWitness):
        return "cycle", len(witness.vertices)
    return witness.property, len(witness.elements)


def _aggregate(rows: list) -> dict:
    finished = [r for r in rows if "error" not in r]
    wins = sum(1 for r in finished if r["winner"] == MAKER)
    histogram: dict = {}
    for r in finished:
        if r["witness_kind"] == "cycle":
            key = str(r["witness_length"])
            histogram[key] = histogram.get(key, 0) + 1
    return {
        "trials": len(rows),
        "errors": len(rows) - len(finished),
        "maker_wins": wins,
        "maker_win_rate": (wins / len(finished)) if finished else 0.0,
        "mean_rounds": (
            sum(r["rounds"] for r in finished) / len(finished) if finished else 0.0
        ),
        "forfeits": sum(1 for r in finished if r["forfeit"]),
        "witness_length_histogram": histogram,
    }


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def run_experiment(config: ExperimentConfig, out: str | None = None) -> ResultDocument:
    """Run all trials with seeds seed_base+i; one trial failing is recorded,
    not fatal.  Strategy identifiers are resolved before any trial runs."""
    gen = config.generator
    g = generate(require(gen, "family", "generator"), gen.get("params", {}), gen.get("seed", 0))
    spec = config.game_spec(g)
    maker = build_strategy(config.maker, g)
    breaker = build_strategy(config.breaker, g)
    rows = []
    for trial in range(config.trials):
        seed = config.seed_base + trial
        row = {"trial": trial, "seed": seed}
        try:
            result = play(spec, maker, breaker, seed=seed)
            kind, length = _witness_row_fields(result.witness)
            row.update(
                winner=result.winner,
                rounds=result.rounds,
                reason=result.reason,
                forfeit=result.forfeit,
                forfeited_by=result.forfeited_by,
                witness_kind=kind,
                witness_length=length,
            )
        except Exception as exc:  # noqa: BLE001 - trial isolation is the contract
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    doc = ResultDocument(
        config=config.to_dict(),
        rows=rows,
        aggregates=_aggregate(rows),
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    if out:
        atomic_write(out, doc.canonical_json(include_timestamp=True))
    return doc


def sweep_bias(config: ExperimentConfig, b_values, out_dir: str | None = None):
    """One experiment per Breaker bias; returns (documents, summary rows)."""
    docs = []
    summary = []
    for b in b_values:
        cfg = ExperimentConfig.from_dict({**vars(config), "breaker_bias": int(b)})
        out = os.path.join(out_dir, f"bias-{b}.json") if out_dir else None
        doc = run_experiment(cfg, out=out)
        docs.append(doc)
        summary.append(
            {
                "breaker_bias": int(b),
                "maker_win_rate": doc.aggregates["maker_win_rate"],
                "mean_rounds": doc.aggregates["mean_rounds"],
                "forfeits": doc.aggregates["forfeits"],
            }
        )
    return docs, summary


CSV_COLUMNS = (
    "trial",
    "seed",
    "winner",
    "rounds",
    "reason",
    "forfeit",
    "forfeited_by",
    "witness_kind",
    "witness_length",
    "error",
)


def rows_to_csv(doc: ResultDocument) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in doc.rows:
        lines.append(
            ",".join("" if row.get(c) is None else str(row.get(c)) for c in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def play_to_transcript(
    spec: GameSpec, maker_ident: str, breaker_ident: str, seed: int = 0
) -> tuple:
    """Build both strategies from identifiers, play once, return (result, text)."""
    maker = build_strategy(maker_ident, spec.host)
    breaker = build_strategy(breaker_ident, spec.host)
    result = play(spec, maker, breaker, seed=seed)
    return result, format_transcript(spec, result, maker_ident, breaker_ident)
