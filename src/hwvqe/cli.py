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
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence

import numpy as np

from . import __version__, locate, vqe
from .ansatz import build_for, circuit_to_text
from .partition import (
    FragmentPreparer,
    SubAnsatzId,
    bitstrings_of_weight,
    child_count,
    format_id,
    subansatz_basis_count,
)
from .qsim import BasisState
from .problem import (
    PortfolioProblem,
    batch_evaluator,
    dicke_spec_for,
    ingest_csv,
    lift_bits,
    load_graph,
    load_portfolio,
    reorder,
    save_graph,
    save_portfolio,
    synth_assets,
    synth_graph,
    synth_price_paths,
)

__all__ = ["main", "RunConfig", "ConfigError", "load_config"]

MAX_PACKED_QUBITS = 62  # basis states are bit patterns packed into int64


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

    problem: dict[str, Any]
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
        """Raise a ConfigError at the line of a top-level key or of a key path."""
        lineno = _line_of(self.raw_text, (key,) if isinstance(key, str) else key)
        where = f"{self.source_path}:{lineno}" if lineno else self.source_path
        raise ConfigError(f"{where}: {message}")

    def resolved(self) -> dict[str, Any]:
        return {
            "problem": self.problem,
            "mode": self.mode,
            "depth": self.depth,
            "reorder": self.reorder,
            "theta0_pi": self.theta0_pi,
            "cvar": self.cvar,
            "schedule": self.schedule,
            "curves": self.curves,
            "study": self.study,
            "cap": self.cap,
            "seed": self.seed,
        }


_KNOWN_KEYS = {
    "problem",
    "mode",
    "depth",
    "reorder",
    "theta0_pi",
    "cvar",
    "schedule",
    "curves",
    "study",
    "cap",
    "seed",
    "out",
}

_PROBLEM_KINDS = ("synth-portfolio", "csv-portfolio", "portfolio-file", "synth-graph", "graph-file")


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

    cfg = RunConfig(
        problem=doc.get("problem", {}),
        mode=doc.get("mode", "soft"),
        depth=doc.get("depth", 2),
        reorder=doc.get("reorder", "auto"),
        theta0_pi=doc.get("theta0_pi"),
        cvar=doc.get("cvar", {}),
        schedule=doc.get("schedule", {}),
        curves=doc.get("curves", {}),
        study=doc.get("study", {}),
        cap=doc.get("cap", locate.DEFAULT_CAP),
        seed=doc.get("seed", 0),
        out=doc.get("out"),
        source_path=source,
        raw_text=raw,
    )
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


def _validate(cfg: RunConfig, doc: dict[str, Any]) -> None:
    """Check every value's type and range before anything converts it."""
    for key in doc:
        if key not in _KNOWN_KEYS:
            cfg.fail(key, f"unknown key {key!r}")
    for section in ("problem", "cvar", "schedule", "curves", "study"):
        if not isinstance(getattr(cfg, section), dict):
            cfg.fail(section, f"{section} section must be an object")

    def expect(path: tuple[str, ...], test: Callable[[Any], bool], what: str) -> None:
        """Fail at the key unless its value, when present, passes ``test``."""
        within = doc if len(path) == 1 else getattr(cfg, path[0])
        if path[-1] in within and not test(within[path[-1]]):
            cfg.fail(path, f"{' '.join(path)} must be {what}, got {within[path[-1]]!r}")

    if "kind" not in cfg.problem:
        cfg.fail("problem", "problem section must be an object with a 'kind'")
    kind = cfg.problem["kind"]
    if kind not in _PROBLEM_KINDS:
        cfg.fail(("problem", "kind"), f"problem kind {kind!r} not one of {_PROBLEM_KINDS}")
    needed = {
        "synth-portfolio": ["n", "seed"],
        "csv-portfolio": ["path"],
        "portfolio-file": ["path"],
        "synth-graph": ["n", "p_edge", "seed_graph", "seed_weights"],
        "graph-file": ["path"],
    }[kind]
    for field_name in needed:
        if field_name not in cfg.problem:
            cfg.fail("problem", f"problem kind {kind!r} requires field {field_name!r}")
    for name in ("n", "seed", "budget", "seed_graph", "seed_weights"):
        expect(("problem", name), _is_int, "an integer")
    for name in ("q", "p_edge", "offset"):
        expect(("problem", name), _is_real, "a number")
    expect(("problem", "path"), lambda v: isinstance(v, str), "a path string")

    if cfg.mode not in ("soft", "hard"):
        cfg.fail("mode", f"mode {cfg.mode!r} not one of ('soft', 'hard')")
    expect(("depth",), _is_int, "an integer")
    if cfg.mode == "hard" and cfg.depth < 1:
        cfg.fail("depth", f"hard mode requires depth >= 1, got {cfg.depth}")
    if cfg.reorder not in ("auto", "none", "by-return", "by-variance"):
        cfg.fail("reorder", f"reorder {cfg.reorder!r} invalid")
    expect(("theta0_pi",), lambda v: v is None or (_is_real(v) and 0.0 < v < 1.0),
           "a number in (0, 1) — it scales pi")
    expect(("cap",), _is_positive_int, "a positive integer")
    expect(("seed",), lambda v: _is_int(v) and v >= 0, "a non-negative integer")
    expect(("out",), lambda v: v is None or isinstance(v, str), "a path string")

    sched = cfg.schedule
    if sched:
        for k in ("counts", "epochs", "rho_pi"):
            if k not in sched:
                cfg.fail("schedule", f"schedule requires {k!r}")
        expect(("schedule", "counts"), _is_array_of(_is_positive_int), "a non-empty array of positive integers")
        expect(("schedule", "epochs"), _is_array_of(_is_positive_int), "a non-empty array of positive integers")
        expect(("schedule", "rho_pi"), _is_array_of(lambda v: _is_real(v) and v > 0),
               "a non-empty array of positive numbers")
        lens = {k: len(sched[k]) for k in ("counts", "epochs", "rho_pi")}
        if len(set(lens.values())) != 1:
            cfg.fail("schedule", f"schedule arrays differ in length: {lens}")
        if any(b > a for a, b in zip(sched["counts"], sched["counts"][1:])):
            cfg.fail(("schedule", "counts"), f"schedule counts must be non-increasing: {sched['counts']}")

    cv = cfg.cvar
    for k in ("alpha_start", "alpha_cap"):
        expect(("cvar", k), _is_fraction, "a number in (0, 1]")
    if "alpha_start" in cv and "alpha_cap" in cv and cv["alpha_start"] > cv["alpha_cap"]:
        cfg.fail(("cvar", "alpha_start"), "alpha_start exceeds alpha_cap")
    expect(("cvar", "shots"), _is_positive_int, "a positive integer")

    expect(("study", "alphas"), _is_array_of(_is_fraction), "a non-empty array of numbers in (0, 1]")
    expect(("study", "betas"), _is_array_of(_is_positive_int), "a non-empty array of positive integers")
    expect(("study", "seeds"), _is_positive_int, "a positive integer (a count of consecutive seeds, not a list)")
    for path in (("study", "epochs"), ("study", "shots"), ("curves", "points")):
        expect(path, _is_positive_int, "a positive integer")


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def build_problem(cfg: RunConfig, packed: bool = True):
    """Instantiate the configured problem and apply the reordering policy.

    With ``packed`` (every subcommand but ``gen-data``), a problem wider than
    the int64 bit packing of basis states allows is a config error.
    """
    spec = cfg.problem
    kind = spec["kind"]
    if kind == "synth-portfolio":
        prob = synth_assets(int(spec["n"]), int(spec["seed"]), q=float(spec.get("q", 0.9)))
    elif kind == "csv-portfolio":
        prob = ingest_csv(spec["path"], q=float(spec.get("q", 0.9)))
    elif kind == "portfolio-file":
        prob = load_portfolio(spec["path"])
    elif kind == "synth-graph":
        prob = synth_graph(
            int(spec["n"]),
            float(spec["p_edge"]),
            int(spec["seed_graph"]),
            int(spec["seed_weights"]),
            offset=float(spec.get("offset", 0.0)),
            fixed_top_bit=bool(spec.get("fixed_top_bit", False)),
        )
    else:
        prob = load_graph(spec["path"])
    if packed and prob.n > MAX_PACKED_QUBITS:
        cfg.fail(
            ("problem", "n"),
            f"{prob.n} qubits exceed the {MAX_PACKED_QUBITS}-qubit limit of int64 bit packing",
        )
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
    cv = cfg.cvar
    start = float(cv.get("alpha_start", 0.01))
    cap = float(cv.get("alpha_cap", 1.0))
    shots = int(cv.get("shots", 1024))
    return vqe.CVaRConfig.geometric(start, cap, iterations, shots=shots)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    # soft location may swap in a reversed copy of the problem: the reported
    # bits use the index order of the copy it ends with
    prob = build_problem(cfg)
    spec = dicke_spec_for(prob)
    flags: dict[str, bool] = {}
    notes: list[str] = []

    report = None
    target_id: Optional[SubAnsatzId] = None
    theta0 = None if cfg.theta0_pi is None else float(cfg.theta0_pi) * math.pi

    if cfg.mode == "soft":
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
            report = locate.locate_soft(prob, spec, cap=cfg.cap, seed=cfg.seed)
            prob = report.problem
            target = report.predicted.levels[0][0]
            if theta0 is None:
                theta0 = vqe.close_to_solution_theta(spec, target)
    else:
        if spec.n % (1 << cfg.depth):
            cfg.fail("depth", f"depth {cfg.depth} needs n divisible by {1 << cfg.depth}, got {spec.n}")
        report = locate.locate_hard(prob, spec, p=cfg.depth, cap=cfg.cap, seed=cfg.seed)
        target_id = report.predicted
        if theta0 is None:
            if spec.n <= vqe.EXACT_PROBABILITY_LIMIT:
                theta0 = vqe.close_to_solution_theta(spec, target_id.levels[0][0])
            else:
                theta0 = 0.8 * math.pi
                notes.append("theta0 defaulted to 0.8 pi (exact ratio curves unavailable)")

    if report is not None:
        flags.update(report.flags)
        _write_json(out / "locate.json", report.to_json_dict(), cfg)

    prepared = target_id if cfg.mode == "hard" else SubAnsatzId(spec, ())
    slots = FragmentPreparer(prepared).num_params
    if slots == 0:
        notes.append("located cell is a single basis state; optimization skipped")
    schedule = _schedule_from(cfg, max(slots, 1))
    cvar_cfg = _cvar_from(cfg, len(schedule))

    if slots == 0:
        if report.candidate_bits is None:
            cfg.fail("cap", f"every probed cell exceeded cap {cfg.cap}; raise 'cap'")
        best_bits, best_energy = report.candidate_bits, report.candidate_energy
        rows: list[vqe.TraceRow] = []
    else:
        best, best_energy, rows = vqe.optimize(
            prob,
            spec,
            mode=cfg.mode,
            target=target_id,
            theta0=theta0,
            cvar_cfg=cvar_cfg,
            schedule=schedule,
            seed=cfg.seed,
        )
        best_bits = best.bits

    cost = batch_evaluator(prob)
    refined, refined_energy, trace = locate.greedy_bitstring(
        cost, BasisState(best_bits, spec.n), restarts=2, seed=cfg.seed
    )
    if (
        report is not None
        and report.candidate_bits is not None
        and report.candidate_energy < refined_energy
    ):
        refined = BasisState(report.candidate_bits, spec.n)
        refined_energy = report.candidate_energy
        notes.append("location candidate beat the optimizer; kept the candidate")

    solution_bits = lift_bits(prob, refined.bits)
    if cfg.mode == "hard" and report is not None and report.predicted is not None:
        flags["possible_misestimation"] = not locate._in_subansatz(refined.bits, report.predicted)

    _write_text(out / "trace.csv", _header_lines(cfg) + vqe.trace_to_csv(rows))
    _write_json(
        out / "solution.json",
        {
            "problem": _problem_summary(prob),
            "search_spec": {"n": spec.n, "k": spec.k},
            "theta0_pi": theta0 / math.pi,
            "predicted": format_id(report.predicted) if report and report.predicted else None,
            "solution": {
                "bits": format(solution_bits, f"0{prob.n}b"),
                "energy": refined_energy,
                "refinement_steps": max(0, len(trace) - 1),
            },
            "optimizer": {
                "epochs": len(rows),
                "best_sampled_energy": best_energy if slots else None,
            },
            "flags": {k: bool(v) for k, v in sorted(flags.items())},
            "notes": notes,
        },
        cfg,
    )
    if args.dump_circuit:
        _write_text(out / "circuit.txt", circuit_to_text(build_for(spec)) + "\n")

    print(f"solution {format(solution_bits, f'0{prob.n}b')} energy {refined_energy!r}")
    print(f"artifacts in {out}")
    approx = flags.get("budget_exhausted") or flags.get("candidate_over_cap")
    return 2 if approx else 0


def _problem_summary(prob) -> dict[str, Any]:
    if isinstance(prob, PortfolioProblem):
        return {
            "type": "portfolio",
            "n": prob.n,
            "q": prob.q,
            "budget": prob.budget,
            "permutation": list(prob.permutation),
        }
    return {
        "type": "bisection",
        "n": prob.n,
        "offset": prob.offset,
        "fixed_top_bit": prob.fixed_top_bit,
        "permutation": list(prob.permutation),
    }


def cmd_curves(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    prob = build_problem(cfg)
    spec = dicke_spec_for(prob)
    points = int(cfg.curves.get("points", 21))
    grid = np.linspace(0.0, math.pi, points)
    metrics = vqe.ratio_variance_curves(spec, grid)
    lo = max(0, spec.k - spec.n // 2)
    hi = min(spec.k, spec.n // 2)
    interior = [i for i in range(lo, hi + 1) if 0 < i < spec.k]
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
    spec = dicke_spec_for(prob)
    if spec.n % 2:
        cfg.fail(("problem", "n"), f"interpolation needs an even width, got {spec.n}")
    cost = batch_evaluator(prob)
    extent = child_count(spec)
    true_line: dict[int, float] = {}
    for t in range(extent):
        sa = SubAnsatzId(spec, ((t,),))
        if subansatz_basis_count(sa) <= cfg.cap:
            _, true_line[t] = locate.subspace_min(sa, cost, cap=cfg.cap)
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


def _study_cell(payload: tuple) -> tuple[tuple[float, int], list[list[float]]]:
    cfg_doc, alpha, beta, seeds, epochs, shots, theta0 = payload
    cfg = RunConfig(**cfg_doc)
    prob = build_problem(cfg)
    spec = dicke_spec_for(prob)
    traces = []
    for seed in seeds:
        _, _, rows = vqe.optimize(
            prob,
            spec,
            mode="soft",
            theta0=theta0,
            cvar_cfg=vqe.CVaRConfig(alpha=alpha, shots=shots),
            schedule=vqe.CorrelationSchedule(counts=(beta,), epochs=(epochs,), rho=(0.15 * np.pi,)),
            seed=seed,
        )
        traces.append([r.expectation for r in rows])
    return (alpha, beta), traces


def cmd_study(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    prob = build_problem(cfg)
    spec = dicke_spec_for(prob)
    slots = build_for(spec).num_params
    st = cfg.study
    alphas = [float(a) for a in st.get("alphas", (0.01, 0.05, 0.1, 0.2))]
    betas = sorted({min(int(b), slots) for b in st.get("betas", (1, 10, 20, 40))})
    num_seeds = int(st.get("seeds", 20))
    epochs = int(st.get("epochs", 80))
    shots = int(st.get("shots", 1024))
    theta0 = (cfg.theta0_pi if cfg.theta0_pi is not None else 0.8) * math.pi
    seeds = [cfg.seed + i for i in range(num_seeds)]

    cfg_doc = {k: getattr(cfg, k) for k in (
        "problem", "mode", "depth", "reorder", "theta0_pi", "cvar", "schedule",
        "curves", "study", "cap", "seed", "out", "source_path", "raw_text",
    )}
    payloads = [(cfg_doc, a, b, seeds, epochs, shots, theta0) for a in alphas for b in betas]
    results: dict[tuple[float, int], list[list[float]]] = {}
    if args.jobs and args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only study needs it; keeps import light

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for key, traces in pool.map(_study_cell, payloads):
                results[key] = traces
    else:
        for payload in payloads:
            key, traces = _study_cell(payload)
            results[key] = traces

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
    spec = dicke_spec_for(prob)
    count = math.comb(spec.n, spec.k)
    if count > cfg.cap:
        cfg.fail("cap", f"brute force over {count} states exceeds cap {cfg.cap}")
    cost = batch_evaluator(prob)
    states = bitstrings_of_weight(spec.n, spec.k).astype(np.int64)
    energies = cost(states)
    pos = int(np.argmin(energies))
    bits = lift_bits(prob, int(states[pos]))
    energy = float(energies[pos])
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
    prob = build_problem(RunConfig(**{**cfg.__dict__, "reorder": "none"}), packed=False)
    if isinstance(prob, PortfolioProblem):
        save_portfolio(prob, out / "portfolio.json")
        written = [out / "portfolio.json"]
        if cfg.problem["kind"] == "synth-portfolio":
            csv_path = out / "prices.csv"
            _write_prices_csv(cfg, csv_path)
            written.append(csv_path)
    else:
        save_graph(prob, out / "graph.txt")
        written = [out / "graph.txt"]
    for path in written:
        print(f"wrote {path}")
    return 0


def _write_prices_csv(cfg: RunConfig, path: Path) -> None:
    import datetime as dt

    n = int(cfg.problem["n"])
    seed = int(cfg.problem["seed"])
    prices = synth_price_paths(n, seed)
    day = dt.date(2020, 1, 1)
    lines = ["date," + ",".join(f"asset_{i}" for i in range(n))]
    for row in prices:
        lines.append(day.isoformat() + "," + ",".join(repr(float(v)) for v in row))
        day += dt.timedelta(days=1)
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwvqe",
        description="Weight-constrained VQE experiments: locate, optimize, study.",
    )
    parser.add_argument("--version", action="version", version=f"hwvqe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "locate, optimize, refine; write solution artifacts"),
        ("curves", "per-sub-ansatz ratio/variance curves over a theta grid"),
        ("interpolate", "outer-cell minima, fitted curve, and true polyline"),
        ("study", "fixed-(alpha, beta) convergence grid over seeds"),
        ("bruteforce", "exact minimum over the full feasible set"),
        ("gen-data", "materialize the configured problem instance"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="config file path or bundled name")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes for fan-out")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument(
            "--dump-circuit", action="store_true", help="also write the ansatz circuit text"
        )
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "curves": cmd_curves,
    "interpolate": cmd_interpolate,
    "study": cmd_study,
    "bruteforce": cmd_bruteforce,
    "gen-data": cmd_gen_data,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
