"""CVaR optimization of weight-constrained ansatze with correlated parameters.

The optimizer runs a staged outer loop: each stage ties the physical rotation
angles into contiguous groups that share one logical value (group size beta),
hands the logical vector to a derivative-free trust-region routine for a fixed
evaluation budget, and carries the resulting angles into the next stage where
the groups shrink. The routine is Powell's COBYLA without constraints, written
here in numpy (:func:`_cobyla`), so results do not depend on an outside
optimizer's version. The per-sample objective is CVaR over measured energies at
a confidence level that grows geometrically across stages.

Initialization is *close to solution*: a single angle, chosen where the
prepared state concentrates its probability mass on the predicted sub-ansatz
(the ratio curves of :func:`ratio_variance_curves`), is broadcast to every
slot.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import qsim
from .ansatz import DickeSpec, build_for
from .locate import subspace_min
from .partition import FragmentPreparer, SubAnsatzId, child_count, child_weight
from .problem import batch_evaluator, min_state
from .qsim import hamming_weight_array

__all__ = [
    "CVaRConfig",
    "CorrelationSchedule",
    "PrincipalComponentMetrics",
    "TraceRow",
    "cvar",
    "ratio_variance_curves",
    "close_to_solution_theta",
    "expand_params",
    "contract_params",
    "optimize",
    "bounded_cvar_study",
    "plateau_of",
    "epochs_to_plateau",
    "trace_to_csv",
    "TRACE_HEADER",
]

EXACT_PROBABILITY_LIMIT = 20  # statevector ground-state probability up to here
COBYLA_RHOEND = 1e-4  # final trust radius of each COBYLA run
DEFAULT_SHOTS = 1024  # samples per objective evaluation unless a config sets them


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CVaRConfig:
    """Confidence-level schedule and sampling budget for the objective."""

    alpha: float
    alpha_schedule: tuple[float, ...] = ()
    shots: int = DEFAULT_SHOTS

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1]")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        sched = tuple(float(a) for a in self.alpha_schedule)
        for a in sched:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"scheduled alpha {a} outside (0, 1]")
        if any(b < a for a, b in zip(sched, sched[1:])):
            raise ValueError(f"alpha schedule must be non-decreasing: {sched}")
        object.__setattr__(self, "alpha_schedule", sched)

    @classmethod
    def geometric(
        cls, start: float, cap: float, iterations: int, shots: int = DEFAULT_SHOTS
    ) -> "CVaRConfig":
        """Grow alpha geometrically from ``start`` to ``cap`` over the stages."""
        if iterations < 1:
            raise ValueError("need at least one iteration")
        sched = tuple(float(a) for a in np.geomspace(start, cap, iterations))
        return cls(alpha=start, alpha_schedule=sched, shots=shots)

    def alpha_at(self, iteration: int) -> float:
        if self.alpha_schedule:
            return self.alpha_schedule[min(iteration, len(self.alpha_schedule) - 1)]
        return self.alpha


@dataclass(frozen=True)
class CorrelationSchedule:
    """Per-stage group size (beta), evaluation budget, and trust radius."""

    counts: tuple[int, ...]
    epochs: tuple[int, ...]
    rho: tuple[float, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        epochs = tuple(int(e) for e in self.epochs)
        rho = tuple(float(r) for r in self.rho)
        if not counts:
            raise ValueError("empty schedule")
        if not len(counts) == len(epochs) == len(rho):
            raise ValueError(
                f"schedule lengths differ: counts {len(counts)}, epochs {len(epochs)}, rho {len(rho)}"
            )
        if any(b > a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"group sizes must be non-increasing: {counts}")
        if any(c < 1 for c in counts) or any(e < 1 for e in epochs) or any(r <= 0 for r in rho):
            raise ValueError("schedule entries must be positive")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "rho", rho)

    def __len__(self) -> int:
        return len(self.counts)


# ---------------------------------------------------------------------------
# CVaR and parameter tying
# ---------------------------------------------------------------------------


def cvar(energies: np.ndarray, alpha: float) -> float:
    """Mean of the ceil(alpha * K) smallest energies.

    The result's last bits depend on the order of ``energies``, because
    ``np.partition`` leaves the kept ones in an order set by the input and the
    mean sums them in that order; the optimizer therefore passes its outcomes
    in first-draw order (:meth:`~hwvqe.partition.FragmentPreparer.count`).
    """
    e = np.asarray(energies, dtype=np.float64).ravel()
    if e.size == 0:
        raise ValueError("empty energy multiset")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    keep = math.ceil(alpha * e.size)
    return float(np.mean(np.partition(e, keep - 1)[:keep]))


def expand_params(logical: np.ndarray, beta: int, total: int) -> np.ndarray:
    """Broadcast logical values to contiguous groups of ``beta`` physical slots."""
    if beta < 1:
        raise ValueError(f"group size must be >= 1, got {beta}")
    if beta > total:
        raise ValueError(f"group size {beta} exceeds {total} slots")
    logical = np.asarray(logical, dtype=np.float64)
    need = -(-total // beta)
    if logical.shape != (need,):
        raise ValueError(f"{total} slots in groups of {beta} need {need} values, got {logical.shape}")
    return np.repeat(logical, beta)[:total]


def contract_params(physical: np.ndarray, beta: int) -> np.ndarray:
    """Group means — the carryover inverse of :func:`expand_params`."""
    physical = np.asarray(physical, dtype=np.float64)
    if beta < 1:
        raise ValueError(f"group size must be >= 1, got {beta}")
    if beta > physical.size:
        raise ValueError(f"group size {beta} exceeds {physical.size} slots")
    edges = np.arange(0, physical.size, beta)
    return np.array([physical[s : s + beta].mean() for s in edges])


# ---------------------------------------------------------------------------
# ratio / variance metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalComponentMetrics:
    """Probability mass (delta) and spread (sigma) per sub-ansatz index.

    ``ratios[g, i]`` is the probability of landing in sub-ansatz i when every
    slot holds ``thetas[g]``; ``variances[g, i]`` is the spread of that mass
    over the cell's N_i basis states around its mean.
    """

    spec: DickeSpec
    thetas: np.ndarray
    ratios: np.ndarray
    variances: np.ndarray
    cell_sizes: np.ndarray


def ratio_variance_curves(spec: DickeSpec, grid: Sequence[float]) -> PrincipalComponentMetrics:
    """Exact per-sub-ansatz mass/spread for identical-angle preparations."""
    n, k = spec.n, spec.k
    if n % 2:
        raise ValueError(f"sub-ansatz metrics need an even qubit count, got {n}")
    if n > EXACT_PROBABILITY_LIMIT:
        raise ValueError(f"exact metrics limited to {EXACT_PROBABILITY_LIMIT} qubits, got {n}")
    circuit = build_for(spec)
    half = n // 2

    lo = child_weight(spec, 0)
    sizes = np.array(
        [math.comb(half, i) * math.comb(half, k - i) for i in range(lo, lo + child_count(spec))],
        dtype=np.int64,
    )

    thetas = np.asarray(list(grid), dtype=np.float64)
    ratios = np.zeros((thetas.size, sizes.size))
    variances = np.zeros_like(ratios)
    for g, theta in enumerate(thetas):
        psi = qsim.simulate(circuit, np.full(circuit.num_params, theta))
        groups = hamming_weight_array(psi.states >> half)  # each sector state's upper-half weight
        p_sup = np.abs(psi.values) ** 2
        mass = np.bincount(groups - lo, weights=p_sup, minlength=sizes.size)
        mass_sq = np.bincount(groups - lo, weights=p_sup**2, minlength=sizes.size)
        ratios[g] = mass
        variances[g] = mass_sq / sizes - (mass / sizes) ** 2
    return PrincipalComponentMetrics(
        spec=spec, thetas=thetas, ratios=ratios, variances=variances, cell_sizes=sizes
    )


DEFAULT_THETA_GRID = tuple(np.linspace(0.0, np.pi, 21))
_UPPER_THETAS = np.array([t for t in DEFAULT_THETA_GRID if np.pi / 2.0 <= t < np.pi])


def close_to_solution_theta(spec: DickeSpec, target: int) -> float:
    """Identical-angle initialization concentrating mass on the target cell.

    Scans the upper half [pi/2, pi) of ``DEFAULT_THETA_GRID``, takes the angle
    maximizing the target's ratio, then backs off one grid point toward pi/2
    when that point keeps at least 0.6 of the peak — trading a little mass for
    a position on the slope where the optimizer retains mobility.
    """
    lo = child_weight(spec, 0)
    hi = lo + child_count(spec) - 1
    if not lo <= target <= hi:
        raise ValueError(f"target index {target} outside {lo}..{hi}")
    if 2 * (target - lo) < hi - lo:
        raise ValueError(f"target {target} lies in the left half; reverse the problem first")
    curve = ratio_variance_curves(spec, _UPPER_THETAS).ratios[:, target - lo]
    peak = int(np.argmax(curve))
    if peak > 0 and curve[peak - 1] >= 0.6 * curve[peak]:
        peak -= 1
    return float(_UPPER_THETAS[peak])


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    epoch: int
    alpha: float
    beta: int
    expectation: float
    ground_state_probability: Optional[float]
    best_energy: float


TRACE_HEADER = "iteration,epoch,alpha,beta,expectation,ground_state_probability,best_energy"


def trace_to_csv(rows: Sequence[TraceRow]) -> str:
    buf = io.StringIO()
    buf.write(TRACE_HEADER + "\n")
    for r in rows:
        gs = "" if r.ground_state_probability is None else repr(r.ground_state_probability)
        buf.write(
            f"{r.iteration},{r.epoch},{r.alpha!r},{r.beta},{r.expectation!r},{gs},{r.best_energy!r}\n"
        )
    return buf.getvalue()


def _exact_ground_state(problem, spec: DickeSpec) -> Optional[int]:
    """Exact ground state over the whole weight-k set when small enough."""
    if spec.n > EXACT_PROBABILITY_LIMIT:
        return None
    return subspace_min(SubAnsatzId(spec, ()), problem.form)[0].bits


def _cobyla(fun, x0: np.ndarray, rho_beg: float, rho_end: float, maxfun: int):
    """Powell's COBYLA without constraints; returns the best point and value.

    A simplex of n+1 evaluated points carries a linear model whose gradient is
    ``simi.T @ (f_j - f_base)``, with ``simi`` the inverse of the matrix of
    vertex offsets from the base, the best point seen. Each pass makes at most
    one evaluation and either evaluates or shrinks a radius:

    - a trust-region step ``-delta * g / |g|``; the ratio of actual to
      predicted reduction halves delta (<= 0.1), keeps it, or doubles it
      (> 0.7), and delta snaps to rho once within 1.5 rho. The new point
      replaces the vertex that Powell's rule picks: the largest |simi @ d|,
      weighted by squared distance. A zero gradient snaps delta to rho;
    - after a poor step, a geometry step of length delta/2 along ``simi[j]``
      when a vertex lies nearer than delta/4 to the opposite face or farther
      than 2.1 delta from the base;
    - otherwise, once delta equals rho, rho shrinks toward ``rho_end``
      (tenfold, then geometrically); a poor step at ``rho_end`` ends the run.

    The run also ends after ``maxfun`` evaluations, so a budget below n+1
    cuts the initial simplex short. Ties keep the earlier point.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    pts = np.empty((n + 1, n))
    vals = np.empty(n + 1)
    pts[0], vals[0] = x0, fun(x0)
    nf, base = 1, 0
    for j in range(n):
        if nf == maxfun:
            return pts[base].copy(), float(vals[base])
        x = pts[base].copy()
        x[j] += rho_beg
        pts[j + 1], vals[j + 1] = x, fun(x)
        nf += 1
        if vals[j + 1] < vals[base]:
            base = j + 1

    rho = delta = rho_beg
    poor = False
    while nf < maxfun:
        others = np.flatnonzero(np.arange(n + 1) != base)
        sim = (pts[others] - pts[base]).T
        simi = np.linalg.inv(sim)
        g = simi.T @ (vals[others] - vals[base])
        if poor:
            poor = False
            veta = np.sqrt((sim * sim).sum(axis=0))
            vsig = 1.0 / np.sqrt((simi * simi).sum(axis=1))
            far = veta.max() > 2.1 * delta
            if far or vsig.min() < 0.25 * delta:
                j = int(np.argmax(veta) if far else np.argmin(vsig))
                d = 0.5 * delta * vsig[j] * simi[j]
                if d @ g > 0:
                    d = -d
                x = pts[base] + d
                f = fun(x)
                nf += 1
                pts[others[j]], vals[others[j]] = x, f
                if f < vals[base]:
                    base = others[j]
                continue
            if delta <= rho:
                if rho <= rho_end:
                    break
                # PRIMA's schedule: tenfold, then geometrically, then rho_end
                shrunk = rho_end
                if rho > 250.0 * rho_end:
                    shrunk = 0.1 * rho
                elif rho > 16.0 * rho_end:
                    shrunk = math.sqrt(rho * rho_end)
                rho, delta = shrunk, max(0.5 * rho, shrunk)

        gnorm = math.sqrt(float(g @ g))
        if not gnorm > 0.0:
            delta, poor = rho, True
            continue
        d = (-delta / gnorm) * g
        x = pts[base] + d
        f = fun(x)
        nf += 1
        ratio = (vals[base] - f) / (delta * gnorm)
        if not ratio > 0.1:
            delta *= 0.5
        elif ratio > 0.7:
            delta *= 2.0
        if delta <= 1.5 * rho:
            delta = rho
        poor = not ratio > 0.1

        lam = simi @ d
        improved = f < vals[base]
        if improved:
            dist2 = np.append(((sim.T - d) ** 2).sum(axis=1), d @ d)
            lam = np.append(lam, 1.0 - lam.sum())
            slots = np.append(others, base)
        else:
            dist2 = (sim * sim).sum(axis=0)
            slots = others
        score = np.maximum(1.0, dist2 / max(rho, 0.1 * delta) ** 2) * np.abs(lam)
        drop = slots[int(np.argmax(score))]
        pts[drop], vals[drop] = x, f
        if improved:
            base = drop
    return pts[base].copy(), float(vals[base])


def optimize(
    problem,
    *,
    cvar_cfg: CVaRConfig,
    schedule: CorrelationSchedule,
    mode: str = "soft",
    target: Optional[SubAnsatzId] = None,
    theta0: float = 0.8 * np.pi,
    seed: Optional[int] = None,
) -> tuple[qsim.BasisState, float, list[TraceRow]]:
    """Staged CVaR minimization; returns the best sampled state and the trace.

    Both modes prepare a product of independently simulated fragments
    (:class:`~hwvqe.partition.FragmentPreparer`): soft mode the depth-0
    sub-ansatz ``SubAnsatzId(problem.form.spec, ())``, i.e. the full-width
    ansatz as one fragment; hard mode the located ``target``, so the only
    statevectors built are fragment-sized. A cell that holds no more states
    than the run draws (``shots * sum(epochs)``) is costed once, whole
    (:meth:`~hwvqe.partition.FragmentPreparer.tabulate`), and each evaluation
    reads its outcomes' energies from that table. Each stage contracts the
    previous physical angles into the new grouping, runs the trust-region loop
    for its epoch budget, and expands its best evaluated point back.

    Every stage makes exactly ``schedule.epochs[stage]`` objective
    evaluations, so the trace has ``sum(schedule.epochs)`` rows:

    - each COBYLA run (:func:`_cobyla`) is handed what is left of the stage's
      budget and returns when it is spent, so a budget below the stage's
      logical-variable count + 1 cuts the initial simplex short;
    - when a run converges (its trust radius reaches ``COBYLA_RHOEND``, or the
      stage's rho if smaller) before the budget is spent, the next run starts
      from the stage's best point at that final radius, as often as the
      budget allows.
    """
    spec = problem.form.spec
    if mode == "soft":
        target = SubAnsatzId(spec, ())
    elif mode != "hard":
        raise ValueError(f"mode {mode!r} not one of ('soft', 'hard')")
    elif target is None:
        raise ValueError("hard mode needs the located sub-ansatz id")
    preparer = FragmentPreparer(target)
    if preparer.num_params == 0:
        raise ValueError("nothing to optimize: the preparation has no parameters")
    if max(schedule.counts) > preparer.num_params:
        raise ValueError(
            f"group size {max(schedule.counts)} exceeds {preparer.num_params} parameter slots"
        )

    cost = batch_evaluator(problem)
    preparer.tabulate(cost, cvar_cfg.shots * sum(schedule.epochs))
    rng = np.random.default_rng(seed)
    gs_bits = _exact_ground_state(problem, spec)

    physical = np.full(preparer.num_params, float(theta0))
    rows: list[TraceRow] = []
    best: tuple[float, Optional[int]] = (math.inf, None)  # (energy, bits) of the best sample
    epoch = 0

    for stage in range(len(schedule)):
        beta = schedule.counts[stage]
        alpha = cvar_cfg.alpha_at(stage)
        stage_end = epoch + schedule.epochs[stage]

        def objective(logical: np.ndarray) -> float:
            nonlocal epoch, best
            params = expand_params(logical, beta, preparer.num_params)
            cells, multiplicity = preparer.count(preparer.draw(params, cvar_cfg.shots, rng))
            states = preparer.states_of(cells)
            energies = cost(states) if preparer.table is None else preparer.table[1][cells]
            best = min(best, min_state(states, energies))
            expectation = float(cvar(np.repeat(energies, multiplicity), alpha))
            epoch += 1
            gs_prob = None if gs_bits is None else preparer.probability_of(gs_bits)
            rows.append(
                TraceRow(
                    iteration=stage + 1,
                    epoch=epoch,
                    alpha=alpha,
                    beta=beta,
                    expectation=expectation,
                    ground_state_probability=gs_prob,
                    best_energy=best[0],
                )
            )
            return expectation

        x = contract_params(physical, beta)
        rho = schedule.rho[stage]
        rho_end = min(rho, COBYLA_RHOEND)
        best_x, best_f = x, math.inf
        while epoch < stage_end:
            run_x, run_f = _cobyla(objective, x, rho, rho_end, stage_end - epoch)
            if run_f < best_f:
                best_x, best_f = run_x, run_f
            # converged before the budget ran out: resume from the best point
            # at the radius the trust region shrank to
            x, rho = best_x, rho_end
        physical = expand_params(best_x, beta, preparer.num_params)

    best_energy, best_bits = best
    if best_bits is None:
        raise RuntimeError("optimization produced no samples")
    return qsim.BasisState(best_bits, spec.n), best_energy, rows


# ---------------------------------------------------------------------------
# bounded-CVaR grid study
# ---------------------------------------------------------------------------


def bounded_cvar_study(
    problem,
    alphas: Sequence[float],
    betas: Sequence[int],
    seeds: Sequence[int],
    epochs: int,
    shots: int = DEFAULT_SHOTS,
    theta0: float = 0.8 * np.pi,
) -> dict[tuple[float, int], list[list[float]]]:
    """Fixed-(alpha, beta) convergence traces over a seed ensemble.

    Each trace is one soft-mode :func:`optimize` of ``epochs`` evaluations at
    trust radius 0.15 pi. Group sizes are clamped to the slot count, so the
    canonical {1,10,20,40} grid adapts to smaller circuits, and group sizes
    that clamp alike run once; each cell holds one expectation-per-epoch list
    per seed. The circuit must fit the engine's memory cap.
    """
    circuit = build_for(problem.form.spec)
    qsim.check_engine_memory(circuit)
    clamped = dict.fromkeys(min(int(b), circuit.num_params) for b in betas)
    table: dict[tuple[float, int], list[list[float]]] = {}
    for alpha in alphas:
        for beta in clamped:
            traces: list[list[float]] = []
            for seed in seeds:
                _, _, rows = optimize(
                    problem,
                    cvar_cfg=CVaRConfig(alpha=float(alpha), shots=shots),
                    schedule=CorrelationSchedule(
                        counts=(beta,), epochs=(epochs,), rho=(0.15 * np.pi,)
                    ),
                    theta0=theta0,
                    seed=seed,
                )
                traces.append([r.expectation for r in rows])
            table[(float(alpha), beta)] = traces
    return table


def plateau_of(trace: Sequence[float], tail: float = 0.25) -> float:
    """Mean of the final ``tail`` fraction of a convergence trace."""
    t = list(trace)
    keep = max(1, int(len(t) * tail))
    return float(np.mean(t[-keep:]))


def epochs_to_plateau(trace: Sequence[float], tail: float = 0.25, closeness: float = 0.1) -> int:
    """First epoch whose expectation has closed 1-closeness of the initial gap."""
    t = list(trace)
    p = plateau_of(t, tail)
    gap = t[0] - p
    if gap <= 0:
        return 1
    for i, e in enumerate(t):
        if e - p <= closeness * gap:
            return i + 1
    return len(t)
