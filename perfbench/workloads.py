"""The benchmark's workloads: seeded inputs, the command to run, output checks.

Each workload writes one instance file and one config from its seed, so the
program receives only those files. The checks read the artifacts one
invocation wrote and compare them with :mod:`reference`, computed from the
same instance file, or with properties the method must have. Nothing is
compared with stored output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

# Schedules of the staged CVaR optimization; their sums are the trace lengths.
SOFT16_SCHEDULE = {
    "counts": [8, 8, 8, 4, 2, 1, 1, 1],
    "epochs": [20, 20, 20, 30, 30, 40, 40, 40],
    "rho_pi": [0.15, 0.136, 0.124, 0.113, 0.102, 0.07, 0.07, 0.07],
}
HARD40_SCHEDULE = {
    "counts": [6, 6, 6, 3, 3, 3, 1, 1],
    "epochs": [24, 24, 24, 38, 38, 38, 39, 39],
    "rho_pi": [0.15, 0.15, 0.15, 0.15, 0.15, 0.1, 0.1, 0.1],
}
CVAR = {"alpha_start": 0.01, "alpha_cap": 1.0, "shots": 1024}
ENERGY_TOL = 1e-9


@dataclass
class Case:
    """One workload's generated inputs and what to check its outputs against."""

    argv: Callable[[Path], list[str]]
    check: Callable[[Path], list[str]]
    artifacts: tuple[str, ...]
    max_qubits: Optional[int] = None  # widest qsim.simulate call allowed


def _seed_stream(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) for c in workload)])


def synth_portfolio(rng: np.random.Generator, n: int):
    """Expected daily returns and the covariance of a three-factor model.

    Half the assets earn 0.3-0.5% a day and half 0.05-0.25%, in random
    order, and volatilities are 0.2-0.4%, so the better half is the optimum
    and location lands on the same far-right cell shape on every seed.
    """
    half = n // 2
    mu = np.concatenate([rng.uniform(0.0005, 0.0025, n - half), rng.uniform(0.003, 0.005, half)])
    rng.shuffle(mu)
    vol = rng.uniform(0.002, 0.004, size=n)
    loadings = rng.normal(size=(n, 3))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    correlation = 0.5 * loadings @ loadings.T + 0.5 * np.eye(n)
    return vol[:, None] * correlation * vol[None, :], mu


def synth_edges(rng: np.random.Generator, n: int, p_edge: float) -> list[tuple[int, int, float]]:
    """Bernoulli(p_edge) edges over i < j with weights uniform in (0.05, 1)."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges.append((i, j, float(rng.uniform(0.05, 1.0))))
    return edges


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _data_rows(csv_path: Path) -> list[str]:
    """The rows after the comment lines and the header."""
    lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
    return lines[1:]


def _solve_case(name: str, seed: int, work: Path, n: int, k: int, mode: str, schedule: dict,
                max_qubits: Optional[int] = None) -> Case:
    rng = _seed_stream(name, seed)
    A, mu = synth_portfolio(rng, n)
    q = 0.9
    instance = work / "portfolio.json"
    instance.write_text(json.dumps({
        "n": n, "q": q, "xi": k,
        "A": [float(v) for v in A.ravel()],
        "mu": [float(v) for v in mu],
    }) + "\n")
    doc = {
        "problem": {"kind": "portfolio-file", "path": str(instance)},
        "mode": mode,
        "reorder": "by-return",
        "cvar": CVAR,
        "schedule": schedule,
        "seed": int(rng.integers(0, 2**31)),
    }
    if mode == "hard":
        doc["depth"] = 2
    config = _write_config(work / "config.json", doc)
    # Read back what the program reads, so both sides use the same floats.
    stored = json.loads(instance.read_text())
    A = np.array(stored["A"]).reshape(n, n)
    mu = np.array(stored["mu"])
    minimum = ref.portfolio_minimum(A, mu, q, k) if mode == "soft" else None

    def check(out: Path) -> list[str]:
        problems = []
        sol = json.loads((out / "solution.json").read_text())
        bits = sol["solution"]["bits"]
        energy = float(sol["solution"]["energy"])
        if len(bits) != n or bits.count("1") != k:
            return [f"solution {bits} is not {n} bits of weight {k}"]
        state = ref.to_instance_order(bits, sol["problem"]["permutation"])
        cost = float(ref.portfolio_cost(A, mu, q, np.array([state]))[0])
        if not math.isclose(energy, cost, rel_tol=ENERGY_TOL, abs_tol=1e-12):
            problems.append(f"reported energy {energy!r} != reference cost {cost!r}")
        if mode == "soft":
            if not math.isclose(energy, minimum, rel_tol=ENERGY_TOL, abs_tol=1e-12):
                problems.append(f"reported energy {energy!r} != brute-force minimum {minimum!r}")
        else:
            around = ref.portfolio_cost(A, mu, q, ref.one_swap_neighbours(state, n))
            if len(around) != k * (n - k):
                problems.append(f"{len(around)} one-swap neighbours, expected {k * (n - k)}")
            if around.min() < cost - ENERGY_TOL * abs(cost):
                problems.append(f"a one-swap neighbour costs {around.min()!r} < {cost!r}")
        rows = len(_data_rows(out / "trace.csv"))
        if rows != sum(schedule["epochs"]):
            problems.append(f"trace.csv has {rows} rows, expected {sum(schedule['epochs'])}")
        return problems

    return Case(
        argv=lambda out: ["solve", "--config", str(config), "--out", str(out)],
        check=check,
        artifacts=("solution.json", "trace.csv", "locate.json"),
        max_qubits=max_qubits,
    )


def _interp_case(name: str, seed: int, work: Path, n: int) -> Case:
    rng = _seed_stream(name, seed)
    edges = synth_edges(rng, n, 0.4)
    graph = work / "graph.txt"
    lines = [f"# nodes={n} offset=0.0 fixed_top_bit=0"]
    lines += [f"{i} {j} {w!r}" for i, j, w in edges]
    graph.write_text("\n".join(lines) + "\n")
    config = _write_config(work / "config.json", {
        "problem": {"kind": "graph-file", "path": str(graph)},
        "reorder": "none",
        "seed": int(rng.integers(0, 2**31)),
    })
    minima = ref.halves_cell_minima(edges, 0.0, n)

    def check(out: Path) -> list[str]:
        problems = []
        rows = [r.split(",") for r in _data_rows(out / "interpolate.csv")]
        if [int(r[0]) for r in rows] != list(range(len(minima))):
            return [f"interpolate.csv indices {[r[0] for r in rows]}, expected 0..{len(minima) - 1}"]
        for (t, sampled, _, true), want in zip(rows, minima):
            if true == "" or abs(float(true) - want) > ENERGY_TOL:
                problems.append(f"cell {t}: true_energy {true!r} != reference minimum {want!r}")
            if sampled != "" and true != "" and abs(float(sampled) - float(true)) > ENERGY_TOL:
                problems.append(f"cell {t}: sampled energy {sampled} != true energy {true}")
        if sum(r[1] != "" for r in rows) < 3:
            problems.append("fewer than 3 sampled cells")
        if not json.loads((out / "interpolate.json").read_text())["true_polyline_complete"]:
            problems.append("true polyline reported incomplete")
        return problems

    return Case(
        argv=lambda out: ["interpolate", "--config", str(config), "--out", str(out)],
        check=check,
        artifacts=("interpolate.csv", "interpolate.json"),
    )


WORKLOADS: dict[str, Callable[[int, Path], Case]] = {
    "soft16": lambda seed, work: _solve_case("soft16", seed, work, 16, 8, "soft", SOFT16_SCHEDULE),
    "hard40": lambda seed, work: _solve_case("hard40", seed, work, 40, 20, "hard", HARD40_SCHEDULE, 10),
    "interp26": lambda seed, work: _interp_case("interp26", seed, work, 26),
}
