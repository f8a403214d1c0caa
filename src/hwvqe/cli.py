"""Batch experiment harness: config-driven runs with deterministic artifacts.

Subcommands
-----------
``solve``        locate -> staged CVaR optimization -> greedy refinement
``curves``       per-sub-ansatz probability mass / spread over a theta grid
``interpolate``  outer-cell minima, the fitted curve, and the true polyline
``study``        fixed-(alpha, beta) convergence grid over a seed ensemble
``bruteforce``   exact minimum over the full weight-constrained set
``gen-data``     materialize the configured problem instance to disk

Every output embeds the resolved configuration and the library version;
identical config + seed reproduces byte-identical files. Exit codes: 0 done,
1 invalid configuration, 2 finished with a budget/approximation flag raised.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence

import numpy as np

from . import __version__, locate, qsim, vqe
from .ansatz import DickeSpec, build_for, circuit_to_text
from .partition import (
    FragmentPreparer,
    SubAnsatzId,
    child_count,
    child_weight,
    format_id,
    in_subansatz,
    product_states,
)
from .qsim import MAX_PACKED_QUBITS, BasisState
from .problem import (
    PortfolioProblem,
    batch_evaluator,
    ingest_csv,
    lift_bits,
    load_graph,
    load_portfolio,
    reorder,
    save_graph,
    save_portfolio,
    save_prices,
    synth_assets,
    synth_graph,
    synth_price_paths,
)

__all__ = ["main", "RunConfig", "ConfigError", "load_config"]

class ConfigError(ValueError):
    """Configuration failure carrying a file/line-qualified message."""


# a JSON string (an object key when a colon follows), a bracket, a comma, or a newline
_JSON_TOKEN = re.compile(r'(?P<string>"(?:[^"\\]|\\.)*")(?P<colon>\s*:)?|[{}\[\],\n]')


def _line_of(raw: str, path: tuple[str, ...]) -> Optional[int]:
    """Line of the object key at ``path`` (top-level key first) in a JSON text.

    A key missing from the text falls back to its nearest enclosing key.
    """
    lines: dict[tuple, int] = {}
    stack: list[Optional[str]] = []  # the key that opened each enclosing container
    key: Optional[str] = None  # the key whose value comes next
    lineno = 1
    for m in _JSON_TOKEN.finditer(raw):
        token = m.group()
        if m.group("colon"):
            key = json.loads(m.group("string"))
            lines.setdefault((*stack[1:], key), lineno)
            lineno += token.count("\n")
        elif token in ("{", "["):
            stack.append(key)
            key = None
        elif token in ("}", "]"):
            stack.pop()
        elif token == ",":
            key = None
        elif token == "\n":
            lineno += 1
    while path and path not in lines:
        path = path[:-1]
    return lines.get(path)


@dataclass
class RunConfig:
    """Validated run description (see ``configs/`` for complete examples)."""

    problem: dict[str, Any] = field(default_factory=dict)
    mode: str = "soft"
    depth: int = 2
    reorder: str = "auto"
    theta0_pi: Optional[float] = None
    cvar: dict[str, Any] = field(default_factory=dict)
    schedule: dict[str, Any] = field(default_factory=dict)
    curves: dict[str, Any] = field(default_factory=dict)
    study: dict[str, Any] = field(default_factory=dict)
    cap: int = locate.DEFAULT_CAP
    seed: int = 0
    out: Optional[str] = None
    source_path: str = "<config>"
    raw_text: str = ""

    def fail(self, key: str | tuple[str, ...], message: str) -> NoReturn:
        """Raise a ConfigError at the line of a top-level key or of a key path.

        A key the file leaves out, with its section, has no line; the message
        then ends with a note naming that key and the default in effect.
        """
        path = (key,) if isinstance(key, str) else key
        lineno = _line_of(self.raw_text, path)
        if lineno:
            raise ConfigError(f"{self.source_path}:{lineno}: {message}")
        if path not in _CONFIG_KEYS or _CONFIG_KEYS[path].default is None:
            path = path[:1]
        note = f"{'.'.join(path)!r} is not in the file; default {self.setting(*path)!r}"
        raise ConfigError(f"{self.source_path}: {message} ({note})")

    def setting(self, *path: str) -> Any:
        """The value of a top-level key or of a section key, or its default."""
        if len(path) == 1:
            return getattr(self, path[0])
        section, key = path
        return getattr(self, section).get(key, _CONFIG_KEYS[path].default)

    def resolved(self) -> dict[str, Any]:
        """The settings a run's artifacts embed: every config key but ``out``."""
        return {name: getattr(self, name) for name in _KNOWN_KEYS if name != "out"}


# per problem kind: the keys it requires, then the ones it may also take
_PROBLEM_KEYS = {
    "synth-portfolio": (("n", "seed"), ("q", "budget")),
    "csv-portfolio": (("path",), ("q", "budget")),
    "portfolio-file": (("path",), ()),
    "synth-graph": (("n", "p_edge", "seed_graph", "seed_weights"), ("offset", "fixed_top_bit")),
    "graph-file": (("path",), ()),
}
_PROBLEM_KINDS = tuple(_PROBLEM_KEYS)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; bundled names resolve packaged files."""
    p = Path(path)
    if p.exists():
        raw = p.read_text()
        source = str(p)
    else:
        name = p.name if p.name.endswith(".json") else p.name + ".json"
        packaged = resources.files("hwvqe").joinpath("configs", name)
        if not packaged.is_file():
            raise ConfigError(f"{path}: no such config file (and no bundled config named {name!r})")
        raw = packaged.read_text()
        source = f"bundled:{name}"
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: invalid JSON — {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}:1: top level must be an object")

    known = {key: value for key, value in doc.items() if key in _KNOWN_KEYS}
    cfg = RunConfig(**known, source_path=source, raw_text=raw)
    _validate(cfg, doc)
    return cfg


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_positive_int(value: Any) -> bool:
    return _is_int(value) and value >= 1


def _is_fraction(value: Any) -> bool:
    return _is_real(value) and 0.0 < value <= 1.0


def _is_array_of(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, list) and bool(value) and all(test(v) for v in value)


def _over_cap(subject: str, value: int, bound: tuple[int, str]) -> Optional[str]:
    """The error for a count past ``bound`` (the most it may be, and what that many hold), or None."""
    most, held = bound
    cap = f"{held} within the {qsim.MAX_ENGINE_BYTES >> 20} MiB engine cap"
    return f"{subject} at most {most} ({cap}), got {value}" if value > most else None


# One objective evaluation peaks at 65 bytes per shot, in np.unique
# (FragmentPreparer.count) when most draws are distinct: eight shots-long int64
# arrays (the drawn cell indices, and np.unique's copy, sort order, sorted copy,
# distinct cells, first-draw indices, run bounds and counts) and a bool mask.
# Drawing holds at most six and the CVaR in optimize seven. tracemalloc read
# 67.7 bytes per shot at 2**20 shots and 66.0 at 2**21 on D^20_10 x D^20_10
# (98-99% distinct), the excess being the fragments' fixed amplitudes, and 34.0
# at 2**20 on a tabulated 100-state cell, whose distinct-cell arrays are short.
_SHOT_BYTES = 8 * 8 + 1
# An evaluation keeps its TraceRow until trace.csv is written: 249 bytes with its
# floats and list slot (tracemalloc), and a csv line of at most 116 characters
# (four floats of 24, an epoch of 7 digits, two counts and seven separators),
# held at most four times while written (StringIO's buffer and value, the
# header concatenation, the encoding). tracemalloc read 441 bytes per
# evaluation of solve with 73-character lines. Each run of a study holds its
# study.epochs rows the same way until its expectations are taken.
_EVAL_BYTES = 249 + 4 * 116
_MAX_EVALS = qsim.MAX_ENGINE_BYTES // _EVAL_BYTES
# A study row (one epoch of one seed of one (alpha, beta) cell) holds its
# expectation (a float and a list slot, 32 bytes) until study.csv is written,
# and then its line of at most 82 characters (alpha and expectation of 24, a
# 20-digit seed, a 7-digit epoch, a 3-digit beta, four commas): a string (49 +
# 82) in a list (8), then the joined text, its newline-ended copy and its
# encoding. tracemalloc read 188 bytes per row with 35-character lines.
_ROW_BYTES = 32 + (49 + 82 + 8) + 3 * 82
# A curves run peaks at 1673 bytes per grid point, at n = 20 (the widest it
# takes), while curves.csv is written: each row's string (a 49-byte header, 19
# floats of at most 24 characters and 18 commas, an 8-byte list slot), the
# joined text twice (the join, then its newline-ended copy or its encoding),
# and 24 floats (the grid, its copy, and a row of 11 ratios and 11 variances).
# tracemalloc read 893 bytes per point at n = 12, where this count gives 886.
_POINT_BYTES = (49 + 19 * 24 + 18 + 8) + 2 * (19 * 24 + 18 + 1) + 24 * 8

# gen-data holds a generated instance while it writes it. A portfolio peaks at
# 157 bytes per covariance entry, in save_portfolio's indented json.dumps: the
# float64 entry, its Python float in the "A" list (24 bytes and an 8-byte slot),
# its chunk in the encoder's list (a 49-byte str header, a comma, a newline, a
# 4-space indent and at most 24 characters, an 8-byte slot) and those 30
# characters again in the joined text. Its prices.csv, written next, holds at
# most 25 characters per price (a float and a comma) four times (the row
# strings, their join, its newline-ended copy, the encoding) and the float64
# price: 108 bytes per price, 253 prices per asset. A graph holds, per pair of
# nodes, its two float64 weights and at most one edge line of 32 characters
# (two indices of at most 4 digits, a float, two spaces) three times (the line
# string with its 49-byte header and 8-byte slot, the join, its newline-ended
# copy). tracemalloc read 153.6-154.6 bytes per entry and 16-18 KB per asset at
# n = 400-1600, and 152.9 bytes per node pair at n = 400-800 with every edge.
_COV_ENTRY_BYTES = 8 + (24 + 8) + (49 + 30 + 8) + 30
_PRICE_ASSET_BYTES = 253 * (4 * 25 + 8)
_NODE_PAIR_BYTES = 2 * 8 + (49 + 32 + 8) + 2 * 32
# the widest instance of each kind within the engine cap: the largest n with
# 157 n^2 + 27324 n, or 169 n^2 / 2 (every node pair), at most the cap
_MAX_GEN_WIDTH = {
    "synth-portfolio": (
        (math.isqrt(_PRICE_ASSET_BYTES**2 + 4 * _COV_ENTRY_BYTES * qsim.MAX_ENGINE_BYTES)
         - _PRICE_ASSET_BYTES) // (2 * _COV_ENTRY_BYTES),
        f"{_COV_ENTRY_BYTES} bytes per covariance entry and {_PRICE_ASSET_BYTES} per asset",
    ),
    "synth-graph": (
        math.isqrt(2 * qsim.MAX_ENGINE_BYTES // _NODE_PAIR_BYTES),
        f"{_NODE_PAIR_BYTES} bytes per node pair",
    ),
}


@dataclass(frozen=True)
class _Key:
    """A config key: its value's test and what that asks for, its default where the file may leave
    it out (a top-level key's is RunConfig's), and the ``_over_cap`` bound on a count."""

    test: Callable[[Any], bool]
    what: str
    default: Any = None
    most: Optional[tuple[int, str]] = None

    def fault(self, name: str, value: Any) -> Optional[str]:
        """What is wrong with ``value`` as the key called ``name``, or None."""
        if not self.test(value):
            return f"{name} must be {self.what}, got {value!r}"
        return self.most and _over_cap(f"{name} must be {self.what} of", value, self.most)


_SHOTS = _Key(_is_positive_int, "a positive integer", vqe.DEFAULT_SHOTS,
              (qsim.MAX_ENGINE_BYTES // _SHOT_BYTES, f"{_SHOT_BYTES} bytes per shot"))
# every key a config may hold but problem.kind, in the order they are checked;
# each section lists its keys in this order
_CONFIG_KEYS: dict[tuple[str, ...], _Key] = {
    **{("problem", key): _Key(_is_int, "an integer")
       for key in ("n", "seed", "budget", "seed_graph", "seed_weights")},
    ("problem", "q"): _Key(lambda v: _is_real(v) and v > 0, "a positive number", 0.9),
    ("problem", "p_edge"): _Key(_is_fraction, "a number in (0, 1]"),
    ("problem", "offset"): _Key(_is_real, "a number", 0.0),
    ("problem", "path"): _Key(lambda v: isinstance(v, str), "a path string"),
    ("problem", "fixed_top_bit"): _Key(lambda v: isinstance(v, bool), "true or false", False),
    ("mode",): _Key(lambda v: v in ("soft", "hard"), "'soft' or 'hard'"),
    ("depth",): _Key(_is_int, "an integer"),
    ("reorder",): _Key(lambda v: v in ("auto", "none", "by-return", "by-variance"),
                       "'auto', 'none', 'by-return' or 'by-variance'"),
    ("theta0_pi",): _Key(lambda v: v is None or (_is_real(v) and 0.0 < v < 1.0),
                         "a number in (0, 1) — it scales pi"),
    ("cap",): _Key(_is_positive_int, "a positive integer"),
    # a study writes the seeds seed .. seed + study.seeds - 1, and study.seeds is
    # at most the cap over _ROW_BYTES: so each keeps to the 20 digits a row counts
    ("seed",): _Key(lambda v: _is_int(v) and v >= 0, "a non-negative integer",
                    most=(10**20 - qsim.MAX_ENGINE_BYTES // _ROW_BYTES,
                          f"study rows of {_ROW_BYTES} bytes with 20-digit seeds")),
    ("out",): _Key(lambda v: v is None or isinstance(v, str), "a path string"),
    ("cvar", "alpha_start"): _Key(_is_fraction, "a number in (0, 1]", 0.01),
    ("cvar", "alpha_cap"): _Key(_is_fraction, "a number in (0, 1]", 1.0),
    ("cvar", "shots"): _SHOTS,
    # schedule's keys come together, without defaults
    ("schedule", "counts"): _Key(_is_array_of(_is_positive_int), "a non-empty array of positive integers"),
    ("schedule", "epochs"): _Key(_is_array_of(_is_positive_int), "a non-empty array of positive integers"),
    ("schedule", "rho_pi"): _Key(_is_array_of(lambda v: _is_real(v) and v > 0),
                                 "a non-empty array of positive numbers"),
    ("curves", "points"): _Key(_is_positive_int, "a positive integer", 21,
                               (qsim.MAX_ENGINE_BYTES // _POINT_BYTES, f"{_POINT_BYTES} bytes per point")),
    ("study", "alphas"): _Key(_is_array_of(_is_fraction), "a non-empty array of numbers in (0, 1]",
                              (0.01, 0.05, 0.1, 0.2)),
    ("study", "betas"): _Key(_is_array_of(_is_positive_int), "a non-empty array of positive integers",
                             (1, 10, 20, 40)),
    ("study", "seeds"): _Key(_is_positive_int, "a positive integer, a count of consecutive seeds", 20),
    ("study", "epochs"): _Key(_is_positive_int, "a positive integer", 80,
                              (_MAX_EVALS, f"{_EVAL_BYTES} bytes per evaluation")),
    ("study", "shots"): _SHOTS,
}
_KNOWN_KEYS = tuple(dict.fromkeys(path[0] for path in _CONFIG_KEYS))  # the top-level keys and sections


def _validate(cfg: RunConfig, doc: dict[str, Any]) -> None:
    """Check each key the file holds against its ``_CONFIG_KEYS`` row, then the
    rules that span keys, before anything converts a value."""
    for key in doc:
        if key not in _KNOWN_KEYS:
            cfg.fail(key, f"unknown key {key!r}")
    in_sections = [path for path in _CONFIG_KEYS if len(path) == 2]
    reads = {section: [k for s, k in in_sections if s == section] for section, _ in in_sections}
    for section, keys in reads.items():
        if not isinstance(getattr(cfg, section), dict):
            cfg.fail(section, f"{section} section must be an object")
        for key in getattr(cfg, section):
            if key not in keys and section != "problem":  # a problem's keys depend on its kind
                cfg.fail((section, key), f"unknown key {key!r} in {section}; it reads {', '.join(keys)}")

    if "kind" not in cfg.problem:
        cfg.fail("problem", "problem section must be an object with a 'kind'")
    kind = cfg.problem["kind"]
    if kind not in _PROBLEM_KINDS:
        cfg.fail(("problem", "kind"), f"problem kind {kind!r} not one of {_PROBLEM_KINDS}")
    needed, optional = _PROBLEM_KEYS[kind]
    for field_name in needed:
        if field_name not in cfg.problem:
            cfg.fail("problem", f"problem kind {kind!r} requires field {field_name!r}")
    for key in cfg.problem:
        if key not in ("kind", *needed, *optional):
            why = ""
            if (kind, key) == ("portfolio-file", "budget"):
                why = "; a portfolio file sets its own budget as 'xi'"
            cfg.fail(("problem", key), f"problem kind {kind!r} takes no key {key!r}{why}")

    for path, row in _CONFIG_KEYS.items():
        within = doc if len(path) == 1 else getattr(cfg, path[0])
        if path[-1] in within and (fault := row.fault(" ".join(path), within[path[-1]])):
            cfg.fail(path, fault)

    if cfg.mode == "hard" and cfg.depth < 1:
        cfg.fail("depth", f"hard mode requires depth >= 1, got {cfg.depth}")
    sched = cfg.schedule
    if sched:
        for key in reads["schedule"]:
            if key not in sched:
                cfg.fail("schedule", f"schedule requires {key!r}")
        lens = {key: len(sched[key]) for key in reads["schedule"]}
        if len(set(lens.values())) != 1:
            cfg.fail("schedule", f"schedule arrays differ in length: {lens}")
        if any(b > a for a, b in zip(sched["counts"], sched["counts"][1:])):
            cfg.fail(("schedule", "counts"), f"schedule counts must be non-increasing: {sched['counts']}")
        # each evaluation holds its trace row, under the bound study.epochs has
        if fault := _over_cap("schedule epochs must sum to", sum(sched["epochs"]),
                              _CONFIG_KEYS["study", "epochs"].most):
            cfg.fail(("schedule", "epochs"), fault)
    start, cap = (cfg.setting("cvar", k) for k in ("alpha_start", "alpha_cap"))
    if start > cap:  # at the line of the one the file holds, alpha_start if both
        cfg.fail(("cvar", "alpha_start" if "alpha_start" in cfg.cvar else "alpha_cap"),
                 f"alpha_start {start!r} exceeds alpha_cap {cap!r}")
    # a study holds alphas x betas x epochs rows per seed: one seed's must fit
    # (at the epochs line), then every seed's (at the seeds line)
    cells = math.prod(len(cfg.setting("study", key)) for key in ("alphas", "betas"))
    epochs, seeds = (cfg.setting("study", key) for key in ("epochs", "seeds"))
    for key, value, rows in (("epochs", epochs, cells), ("seeds", seeds, cells * epochs)):
        most = qsim.MAX_ENGINE_BYTES // (_ROW_BYTES * rows)
        held = f"{rows} study rows per {key[:-1]} of {_ROW_BYTES} bytes"
        if fault := _over_cap(f"study {key} must be", value, (most, held)):
            cfg.fail(("study", key), fault)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def _check_width(cfg: RunConfig, n: int, packed: bool) -> None:
    if packed and n > MAX_PACKED_QUBITS:
        cfg.fail(("problem", "n"), f"{n} qubits exceed the {MAX_PACKED_QUBITS}-qubit limit of int64 bit packing")


def build_problem(cfg: RunConfig, packed: bool = True):
    """Instantiate the configured problem and apply the reordering policy.

    With ``packed`` (every subcommand but ``gen-data``), a problem wider than
    the int64 bit packing of basis states allows is a config error; without
    it, a generated instance must fit the engine cap (``_MAX_GEN_WIDTH``).
    A generator's width is checked before it runs.
    """
    spec = cfg.problem
    kind = spec["kind"]
    if "n" in spec:  # a generator's width, checked before it allocates anything
        _check_width(cfg, spec["n"], packed)
        fault = _over_cap(f"gen-data writes {kind} instances of width", spec["n"], _MAX_GEN_WIDTH[kind])
        if fault and not packed:
            cfg.fail(("problem", "n"), fault)
    try:
        if kind == "synth-portfolio":
            prob = synth_assets(int(spec["n"]), int(spec["seed"]), q=float(cfg.setting("problem", "q")))
        elif kind == "csv-portfolio":
            prob = ingest_csv(spec["path"], q=float(cfg.setting("problem", "q")))
        elif kind == "portfolio-file":
            prob = load_portfolio(spec["path"])
        elif kind == "synth-graph":
            prob = synth_graph(
                int(spec["n"]),
                float(spec["p_edge"]),
                int(spec["seed_graph"]),
                int(spec["seed_weights"]),
                offset=float(cfg.setting("problem", "offset")),
                fixed_top_bit=cfg.setting("problem", "fixed_top_bit"),
            )
        else:
            prob = load_graph(spec["path"])
    except OSError as exc:
        cfg.fail(("problem", "path"), f"cannot read the instance file: {exc}")
    except ValueError as exc:
        if "path" in spec:
            raise  # the loaders name their own file, and line where it has lines
        cfg.fail(("problem", "n"), str(exc))  # the generators refuse only widths
    _check_width(cfg, prob.n, packed)
    if isinstance(prob, PortfolioProblem):
        # applied once the width is known, so that a bad budget cites its line
        # (a portfolio file's budget is the file's own "xi")
        budget = prob.budget if kind == "portfolio-file" else spec.get("budget", prob.budget)
        if not 1 <= budget < prob.n:
            key = "path" if kind == "portfolio-file" else "budget"
            cfg.fail(("problem", key), f"portfolio budget {budget} outside 1..{prob.n - 1}")
        prob = replace(prob, budget=budget)

    if cfg.reorder == "none":
        return prob
    try:
        prob, _ = reorder(prob, cfg.reorder)
    except ValueError as exc:
        cfg.fail("reorder", str(exc))
    return prob


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _header_lines(cfg: RunConfig) -> str:
    config_line = json.dumps(cfg.resolved(), sort_keys=True, separators=(",", ":"))
    return f"# hwvqe {__version__}\n# config {config_line}\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, doc: dict[str, Any], cfg: RunConfig) -> None:
    doc = dict(doc)
    doc["version"] = __version__
    doc["config"] = cfg.resolved()
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _out_dir(cfg: RunConfig, args) -> Path:
    if args.out:
        return Path(args.out)
    if cfg.out:
        return Path(cfg.out)
    stem = Path(cfg.source_path.removeprefix("bundled:")).stem
    return Path("runs") / stem


def _schedule_from(cfg: RunConfig, slots: int) -> vqe.CorrelationSchedule:
    sched = cfg.schedule
    if not sched:
        return vqe.CorrelationSchedule(
            counts=(min(8, slots), min(4, slots), 1),
            epochs=(20, 20, 40),
            rho=(0.15 * np.pi,) * 3,
        )
    counts = tuple(min(int(c), slots) for c in sched["counts"])
    return vqe.CorrelationSchedule(
        counts=counts,
        epochs=tuple(int(e) for e in sched["epochs"]),
        rho=tuple(float(r) * np.pi for r in sched["rho_pi"]),
    )


def _cvar_from(cfg: RunConfig, iterations: int) -> vqe.CVaRConfig:
    start = float(cfg.setting("cvar", "alpha_start"))
    cap = float(cfg.setting("cvar", "alpha_cap"))
    shots = int(cfg.setting("cvar", "shots"))
    return vqe.CVaRConfig.geometric(start, cap, iterations, shots=shots)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_engine_memory(cfg: RunConfig, key: str | tuple[str, ...], spec: DickeSpec, hint: str = "") -> None:
    """Fail at ``key`` when the engine's memory cap refuses the circuit of ``spec``."""
    if 0 < spec.k < spec.n:
        try:
            qsim.check_engine_memory(build_for(spec))
        except ValueError as exc:
            cfg.fail(key, f"{exc}{hint}")


def _check_full_width(cfg: RunConfig, spec: DickeSpec, curves: bool) -> None:
    """Check, before any work and at the ``problem.n`` line, that soft mode can
    simulate the whole search space and, with ``curves``, compute its exact
    ratio curves."""
    if curves and spec.n > vqe.EXACT_PROBABILITY_LIMIT:
        cfg.fail(
            ("problem", "n"),
            f"theta0 from the exact ratio curves needs at most {vqe.EXACT_PROBABILITY_LIMIT} "
            f"qubits, got {spec.n}; set theta0_pi explicitly",
        )
    _check_engine_memory(cfg, ("problem", "n"), spec)


def _theta0_near(spec: DickeSpec, ordinal: int, notes: list[str]) -> float:
    """The identical angle that concentrates mass on level-1 cell ``ordinal``.

    Falls back to 0.8 pi, with a note, where the exact ratio curves are
    unavailable or the cell lies in the left half of the axis, which
    :func:`vqe.close_to_solution_theta` refuses.
    """
    if spec.n > vqe.EXACT_PROBABILITY_LIMIT:
        why = "exact ratio curves unavailable"
    elif 2 * ordinal < child_count(spec) - 1:
        why = f"predicted cell {ordinal} lies in the left half"
    else:
        return vqe.close_to_solution_theta(spec, child_weight(spec, ordinal))
    notes.append(f"theta0 defaulted to 0.8 pi ({why})")
    return 0.8 * math.pi


def cmd_solve(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    # soft location may swap in a reversed copy of the problem: the reported
    # bits use the index order of the copy it ends with
    prob = build_problem(cfg)
    spec = prob.form.spec
    flags: dict[str, bool] = {}
    notes: list[str] = []

    report = None
    theta0 = None if cfg.theta0_pi is None else float(cfg.theta0_pi) * math.pi

    if cfg.mode == "soft":
        target = SubAnsatzId(spec, ())  # soft mode prepares the whole search space
        _check_full_width(cfg, spec, curves=theta0 is None and spec.n % 2 == 0)
        if spec.n % 2:
            if theta0 is None:
                cfg.fail(
                    "mode",
                    f"soft mode on an odd {spec.n}-qubit search space "
                    "cannot interpolate; set theta0_pi explicitly",
                )
            notes.append(f"location skipped: odd search width {spec.n}, theta0 from config")
            flags["locate_skipped"] = True
        else:
            try:
                report = locate.locate_soft(prob, cap=cfg.cap)
            except locate.CellsOverCap as exc:
                cfg.fail("cap", f"{exc}; raise 'cap'")
            prob = report.problem
    else:
        if cfg.depth >= spec.n.bit_length():  # 2^depth > n, without computing 2^depth
            cfg.fail("depth", f"depth {cfg.depth} exceeds {spec.n.bit_length() - 1}: its 2^depth "
                              f"fragments would outnumber the {spec.n} qubits")
        if spec.n % (1 << cfg.depth):
            cfg.fail("depth", f"depth {cfg.depth} needs n divisible by {1 << cfg.depth}, got {spec.n}")
        try:
            report = locate.locate_hard(prob, p=cfg.depth, cap=cfg.cap)
        except locate.CellsOverCap as exc:
            finer = 1 << (cfg.depth + 1)
            hint = "raise 'cap' or 'depth'" if spec.n % finer == 0 else (
                f"raise 'cap' (depth {cfg.depth + 1} needs n divisible by {finer}, got {spec.n})"
            )
            cfg.fail("cap", f"{exc}; {hint}")
        target = report.predicted  # hard mode prepares only the located cell
    if theta0 is None:  # an odd soft search space has failed above
        theta0 = _theta0_near(spec, report.predicted.levels[0][0], notes)

    if report is not None:
        flags.update(report.flags)
        _write_json(out / "locate.json", report.to_json_dict(), cfg)

    if cfg.mode == "hard":
        for frag in target.fragments():
            _check_engine_memory(cfg, "depth", frag, "; raise depth")
    slots = FragmentPreparer(target).num_params
    best_energy, rows = None, []
    if slots:
        schedule = _schedule_from(cfg, slots)
        best, best_energy, rows = vqe.optimize(
            prob,
            mode=cfg.mode,
            target=target,
            theta0=theta0,
            cvar_cfg=_cvar_from(cfg, len(schedule)),
            schedule=schedule,
            seed=cfg.seed,
        )
        best_bits = best.bits
    else:
        notes.append("located cell is a single basis state; optimization skipped")
        if report is None:  # location skipped: the one-state search space is the answer
            best_bits = int(product_states(target.fragments())[0])
        elif report.candidate_bits is None:
            cfg.fail("cap", f"every probed cell exceeded cap {cfg.cap}; raise 'cap'")
        else:
            best_bits = report.candidate_bits

    cost = batch_evaluator(prob)
    refined, refined_energy, trace = locate.greedy_bitstring(
        cost, BasisState(best_bits, spec.n), restarts=2, seed=cfg.seed
    )
    # the location candidate (energy inf if none) wins only when strictly
    # lower: on a tie the refined optimizer state stands, even if larger
    if report is not None and report.candidate_energy < refined_energy:
        refined = BasisState(report.candidate_bits, spec.n)
        refined_energy = report.candidate_energy
        notes.append("location candidate beat the optimizer; kept the candidate")

    solution_bits = lift_bits(prob, refined.bits)
    if cfg.mode == "hard":
        flags["possible_misestimation"] = not in_subansatz(refined.bits, target)

    _write_text(out / "trace.csv", _header_lines(cfg) + vqe.trace_to_csv(rows))
    _write_json(
        out / "solution.json",
        {
            "problem": _problem_summary(prob),
            "search_spec": {"n": spec.n, "k": spec.k},
            "theta0_pi": theta0 / math.pi,
            "predicted": format_id(report.predicted) if report else None,
            "solution": {
                "bits": format(solution_bits, f"0{prob.n}b"),
                "energy": refined_energy,
                "refinement_steps": max(0, len(trace) - 1),
            },
            "optimizer": {
                "epochs": len(rows),
                "best_sampled_energy": best_energy,
            },
            "flags": {k: bool(v) for k, v in sorted(flags.items())},
            "notes": notes,
        },
        cfg,
    )
    if args.dump_circuit:
        _write_text(out / "circuit.txt", circuit_to_text(build_for(spec)))

    print(f"solution {format(solution_bits, f'0{prob.n}b')} energy {refined_energy!r}")
    print(f"artifacts in {out}")
    approx = flags.get("budget_exhausted") or flags.get("candidate_over_cap")
    return 2 if approx else 0


def _problem_summary(prob) -> dict[str, Any]:
    """The instance's type and its fields but the arrays, for the artifacts."""
    values = {f.name: getattr(prob, f.name) for f in fields(prob)}
    kind = "portfolio" if isinstance(prob, PortfolioProblem) else "bisection"
    return {"type": kind, **{k: v for k, v in values.items() if not isinstance(v, np.ndarray)}}


def cmd_curves(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    prob = build_problem(cfg)
    spec = prob.form.spec
    if spec.n % 2 or spec.n > vqe.EXACT_PROBABILITY_LIMIT:
        cfg.fail(
            ("problem", "n"),
            f"ratio curves need an even width of at most {vqe.EXACT_PROBABILITY_LIMIT} qubits, got {spec.n}",
        )
    points = int(cfg.setting("curves", "points"))
    grid = np.linspace(0.0, math.pi, points)
    metrics = vqe.ratio_variance_curves(spec, grid)
    lo = child_weight(spec, 0)
    interior = [i for i in range(lo, lo + child_count(spec)) if 0 < i < spec.k]
    lines = [_header_lines(cfg).rstrip("\n")]
    lines.append(
        "theta,"
        + ",".join(f"delta_{i}" for i in interior)
        + ","
        + ",".join(f"sigma_{i}" for i in interior)
    )
    for g, theta in enumerate(metrics.thetas):
        row = [repr(float(theta))]
        row += [repr(float(metrics.ratios[g, i - lo])) for i in interior]
        row += [repr(float(metrics.variances[g, i - lo])) for i in interior]
        lines.append(",".join(row))
    _write_text(out / "curves.csv", "\n".join(lines) + "\n")
    print(f"wrote {out / 'curves.csv'} ({points} grid points, {len(interior)} indices)")
    return 0


def cmd_interpolate(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    prob = build_problem(cfg)
    spec = prob.form.spec
    if spec.n % 2:
        cfg.fail(("problem", "n"), f"interpolation needs an even width, got {spec.n}")
    extent = child_count(spec)
    if extent < 3:
        key = next(k for k in ("budget", "n", "path") if k in cfg.problem)
        cfg.fail(
            ("problem", key),
            f"interpolation needs at least 3 cells on the level-1 axis; "
            f"D^{spec.n}_{spec.k} has {extent}",
        )
    cache = locate.CellCache(prob.form, cfg.cap)
    true_line: dict[int, float] = {}
    for t in range(extent):
        bits, energy = cache.minimum(SubAnsatzId(spec, ((t,),)))
        if bits is not None:
            true_line[t] = energy
    capped = len(true_line) < extent
    sampled = {t: true_line[t] for t in locate.outer_indices(extent) if t in true_line}
    if len(sampled) < 3:
        cfg.fail("cap", f"only {len(sampled)} outer cells fit under cap {cfg.cap}; raise 'cap'")
    curve = locate.interpolate_convex(sorted(sampled.items()))

    lines = [_header_lines(cfg).rstrip("\n")]
    lines.append("index,sampled_energy,fit_energy,true_energy")
    for t in range(extent):
        fit = ""
        if curve.fit is not None:
            a, b, c = curve.fit
            fit = repr(a * t * t + b * t + c)
        lines.append(
            f"{t},{repr(sampled[t]) if t in sampled else ''},{fit},"
            f"{repr(true_line[t]) if t in true_line else ''}"
        )
    _write_text(out / "interpolate.csv", "\n".join(lines) + "\n")
    _write_json(
        out / "interpolate.json",
        {
            "argmin": curve.argmin,
            "fit": list(curve.fit) if curve.fit else None,
            "fallback": curve.fallback,
            "degenerate": curve.degenerate,
            "high_residual": curve.high_residual,
            "true_polyline_complete": not capped,
        },
        cfg,
    )
    if capped:
        print("warning: some cells exceed the enumeration cap; true polyline is partial", file=sys.stderr)
    print(f"interpolated argmin {curve.argmin}; wrote {out / 'interpolate.csv'}")
    return 0


def cmd_study(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    prob = build_problem(cfg)
    spec = prob.form.spec
    _check_full_width(cfg, spec, curves=False)
    slots = build_for(spec).num_params
    alphas = [float(a) for a in cfg.setting("study", "alphas")]
    betas = sorted({min(int(b), slots) for b in cfg.setting("study", "betas")})
    seeds = [cfg.seed + i for i in range(int(cfg.setting("study", "seeds")))]
    theta0 = (cfg.theta0_pi if cfg.theta0_pi is not None else 0.8) * math.pi
    study = functools.partial(
        vqe.bounded_cvar_study, prob, seeds=seeds, epochs=int(cfg.setting("study", "epochs")),
        shots=int(cfg.setting("study", "shots")), theta0=theta0,
    )
    # one (alpha, beta) cell per call
    alpha_args, beta_args = zip(*[((a,), (b,)) for a in alphas for b in betas])
    workers = min(args.jobs, len(alpha_args))  # a pool forks all its workers at its first task
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only study needs it; keeps import light

        with ProcessPoolExecutor(max_workers=workers) as pool:
            tables = list(pool.map(study, alpha_args, beta_args))
    else:
        tables = list(map(study, alpha_args, beta_args))
    results = {key: traces for table in tables for key, traces in table.items()}

    lines = [_header_lines(cfg).rstrip("\n"), "alpha,beta,seed,epoch,expectation"]
    for (alpha, beta) in sorted(results):
        for s, trace in enumerate(results[(alpha, beta)]):
            for e, val in enumerate(trace, start=1):
                lines.append(f"{alpha!r},{beta},{seeds[s]},{e},{val!r}")
    _write_text(out / "study.csv", "\n".join(lines) + "\n")

    summary = [_header_lines(cfg).rstrip("\n"), "alpha,beta,plateau_median,epochs_to_plateau_median"]
    for (alpha, beta) in sorted(results):
        plateaus = [vqe.plateau_of(t) for t in results[(alpha, beta)]]
        speeds = [vqe.epochs_to_plateau(t) for t in results[(alpha, beta)]]
        summary.append(
            f"{alpha!r},{beta},{float(np.median(plateaus))!r},{float(np.median(speeds))!r}"
        )
    _write_text(out / "study_summary.csv", "\n".join(summary) + "\n")
    print(f"wrote {out / 'study.csv'} and {out / 'study_summary.csv'}")
    return 0


def cmd_bruteforce(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    prob = build_problem(cfg)
    spec = prob.form.spec
    count = math.comb(spec.n, spec.k)
    if count > cfg.cap:
        cfg.fail("cap", f"brute force over {count} states exceeds cap {cfg.cap}")
    best, energy = locate.subspace_min(SubAnsatzId(spec, ()), prob.form, cfg.cap)
    bits = lift_bits(prob, best.bits)
    _write_json(
        out / "bruteforce.json",
        {
            "problem": _problem_summary(prob),
            "states_evaluated": count,
            "solution": {"bits": format(bits, f"0{prob.n}b"), "energy": energy},
        },
        cfg,
    )
    print(f"minimum {format(bits, f'0{prob.n}b')} energy {energy!r}")
    return 0


def cmd_gen_data(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    prob = build_problem(replace(cfg, reorder="none"), packed=False)
    if isinstance(prob, PortfolioProblem):
        save_portfolio(prob, out / "portfolio.json")
        written = [out / "portfolio.json"]
        if cfg.problem["kind"] == "synth-portfolio":
            prices = synth_price_paths(int(cfg.problem["n"]), int(cfg.problem["seed"]))
            save_prices(prices, out / "prices.csv")
            written.append(out / "prices.csv")
    else:
        save_graph(prob, out / "graph.txt")
        written = [out / "graph.txt"]
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "solve": (cmd_solve, "locate, optimize, refine; write solution artifacts"),
    "curves": (cmd_curves, "per-sub-ansatz ratio/variance curves over a theta grid"),
    "interpolate": (cmd_interpolate, "outer-cell minima, fitted curve, and true polyline"),
    "study": (cmd_study, "fixed-(alpha, beta) convergence grid over seeds"),
    "bruteforce": (cmd_bruteforce, "exact minimum over the full feasible set"),
    "gen-data": (cmd_gen_data, "materialize the configured problem instance"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwvqe",
        description="Weight-constrained VQE experiments: locate, optimize, study.",
    )
    parser.add_argument("--version", action="version", version=f"hwvqe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="config file path or bundled name")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--out", default=None, help="output directory")
        if name == "solve":
            sp.add_argument(
                "--dump-circuit", action="store_true", help="also write the ansatz circuit text"
            )
        if name == "study":
            sp.add_argument(
                "--jobs", type=int, default=1, help="worker processes, one (alpha, beta) cell each"
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is not None and (fault := _CONFIG_KEYS["seed",].fault("--seed", args.seed)):
        print(f"error: {fault}", file=sys.stderr)
        return 1
    if getattr(args, "jobs", 1) < 1:
        print(f"error: --jobs must be a positive integer, got {args.jobs}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return _COMMANDS[args.command][0](cfg, args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
