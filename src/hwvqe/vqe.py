"""CVaR optimization of weight-constrained ansatze with correlated parameters.

The optimizer runs a staged outer loop: each stage ties the physical rotation
angles into contiguous groups that share one logical value (group size beta),
hands the logical vector to a derivative-free trust-region routine for a fixed
evaluation budget, and carries the resulting angles into the next stage where
the groups shrink. The per-sample objective is CVaR over measured energies at
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
from scipy.optimize import minimize

from . import qsim
from .ansatz import DickeSpec, build_for
from .partition import FragmentPreparer, SubAnsatzId, bitstrings_of_weight
from .problem import batch_evaluator, dicke_spec_for
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
COBYLA_RHOEND = 1e-4  # final trust radius of each COBYLA run (scipy's default tol)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CVaRConfig:
    """Confidence-level schedule and sampling budget for the objective."""

    alpha: float
    alpha_schedule: tuple[float, ...] = ()
    shots: int = 1024

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
        cls, start: float, cap: float, iterations: int, shots: int = 1024
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
    """Mean of the ceil(alpha * K) smallest energies."""
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
    idx = np.arange(1 << n, dtype=np.int64)
    upper = hamming_weight_array(idx >> half)
    total = hamming_weight_array(idx)
    support = total == k
    groups = upper[support]

    lo = max(0, k - half)
    hi = min(k, half)
    sizes = np.zeros(hi - lo + 1, dtype=np.int64)
    for i in range(lo, hi + 1):
        sizes[i - lo] = math.comb(half, i) * math.comb(half, k - i)

    thetas = np.asarray(list(grid), dtype=np.float64)
    ratios = np.zeros((thetas.size, hi - lo + 1))
    variances = np.zeros_like(ratios)
    for g, theta in enumerate(thetas):
        psi = qsim.simulate(circuit, np.full(circuit.num_params, theta))
        probs = np.abs(psi.amplitudes) ** 2
        p_sup = probs[support]
        mass = np.bincount(groups - lo, weights=p_sup, minlength=sizes.size)
        mass_sq = np.bincount(groups - lo, weights=p_sup**2, minlength=sizes.size)
        ratios[g] = mass
        variances[g] = mass_sq / sizes - (mass / sizes) ** 2
    return PrincipalComponentMetrics(
        spec=spec, thetas=thetas, ratios=ratios, variances=variances, cell_sizes=sizes
    )


DEFAULT_THETA_GRID = tuple(np.linspace(0.0, np.pi, 21))


def close_to_solution_theta(
    spec: DickeSpec,
    target: int,
    grid: Sequence[float] = DEFAULT_THETA_GRID,
    hillside: float = 0.6,
) -> float:
    """Identical-angle initialization concentrating mass on the target cell.

    Scans the grid's upper half [pi/2, pi), takes the angle maximizing the
    target's ratio, then backs off one grid point toward pi/2 when that point
    keeps at least ``hillside`` of the peak — trading a little mass for a
    position on the slope where the optimizer retains mobility.
    """
    half_extent = spec.n // 2
    lo = max(0, spec.k - half_extent)
    hi = min(spec.k, half_extent)
    if not lo <= target <= hi:
        raise ValueError(f"target index {target} outside {lo}..{hi}")
    if 2 * (target - lo) < hi - lo:
        raise ValueError(f"target {target} lies in the left half; reverse the problem first")
    grid = np.asarray(sorted(set(float(t) for t in grid)))
    admissible = grid[(grid >= np.pi / 2.0) & (grid < np.pi)]
    if admissible.size == 0:
        raise ValueError("no grid points in [pi/2, pi)")
    metrics = ratio_variance_curves(spec, admissible)
    curve = metrics.ratios[:, target - lo]
    peak = int(np.argmax(curve))
    if peak > 0 and curve[peak - 1] >= hillside * curve[peak]:
        peak -= 1
    return float(admissible[peak])


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
    """Brute-force ground state over the weight-k set when small enough."""
    if spec.n > EXACT_PROBABILITY_LIMIT:
        return None
    states = bitstrings_of_weight(spec.n, spec.k).astype(np.int64)
    cost = batch_evaluator(problem)
    return int(states[np.argmin(cost(states))])


class _BudgetSpent(Exception):
    """Raised by a stage's objective when COBYLA asks past the stage budget."""


def optimize(
    problem,
    spec: Optional[DickeSpec] = None,
    mode: str = "soft",
    target: Optional[SubAnsatzId] = None,
    theta0: float = 0.8 * np.pi,
    cvar_cfg: Optional[CVaRConfig] = None,
    schedule: Optional[CorrelationSchedule] = None,
    seed: Optional[int] = None,
) -> tuple[qsim.BasisState, float, list[TraceRow]]:
    """Staged CVaR minimization; returns the best sampled state and the trace.

    Both modes prepare a product of independently simulated fragments
    (:class:`~hwvqe.partition.FragmentPreparer`): soft mode the depth-0
    sub-ansatz ``SubAnsatzId(spec, ())``, i.e. the full-width ansatz as one
    fragment; hard mode the located ``target``, so the only statevectors built
    are fragment-sized. Each stage contracts the previous
    physical angles into the new grouping, runs the trust-region loop for its
    epoch budget, and expands its best evaluated point back.

    Every stage makes exactly ``schedule.epochs[stage]`` objective
    evaluations, so the trace has ``sum(schedule.epochs)`` rows whatever the
    COBYLA implementation does on its own:

    - when COBYLA converges (its trust radius reaches ``COBYLA_RHOEND``, or
      the stage's rho if smaller) before the budget is spent, it restarts from
      the stage's best point at that final radius, as often as the budget
      allows;
    - when the budget is spent, the next evaluation COBYLA asks for stops the
      stage. A budget below the stage's logical-variable count + 2 thus cuts
      COBYLA's initial simplex short instead of being raised to its size.
    """
    if spec is None:
        spec = dicke_spec_for(problem)
    if cvar_cfg is None:
        cvar_cfg = CVaRConfig(alpha=0.5)
    if schedule is None:
        schedule = CorrelationSchedule(counts=(1,), epochs=(60,), rho=(0.15 * np.pi,))

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
    rng = np.random.default_rng(seed)
    gs_bits = _exact_ground_state(problem, spec)

    physical = np.full(preparer.num_params, float(theta0))
    rows: list[TraceRow] = []
    best_bits: Optional[int] = None
    best_energy = math.inf
    epoch = 0

    for stage in range(len(schedule)):
        beta = schedule.counts[stage]
        alpha = cvar_cfg.alpha_at(stage)
        stage_end = epoch + schedule.epochs[stage]
        best_x: Optional[np.ndarray] = None
        best_f = math.inf

        def objective(logical: np.ndarray) -> float:
            nonlocal epoch, best_bits, best_energy, best_x, best_f
            if epoch == stage_end:
                raise _BudgetSpent
            params = expand_params(logical, beta, preparer.num_params)
            outcomes = preparer.sample(preparer.split(params), cvar_cfg.shots, rng)
            states = np.fromiter(outcomes.keys(), dtype=np.int64, count=len(outcomes))
            multiplicity = np.fromiter(outcomes.values(), dtype=np.int64, count=len(outcomes))
            energies = cost(states)
            order = np.lexsort((states, energies))
            low = order[0]
            if energies[low] < best_energy or (
                energies[low] == best_energy
                and best_bits is not None
                and int(states[low]) < best_bits
            ):
                best_bits, best_energy = int(states[low]), float(energies[low])
            expectation = float(cvar(np.repeat(energies, multiplicity), alpha))
            epoch += 1
            if expectation < best_f:
                best_x, best_f = np.array(logical, dtype=np.float64), expectation
            gs_prob = None if gs_bits is None else preparer.probability_of(gs_bits)
            rows.append(
                TraceRow(
                    iteration=stage + 1,
                    epoch=epoch,
                    alpha=alpha,
                    beta=beta,
                    expectation=expectation,
                    ground_state_probability=gs_prob,
                    best_energy=float(best_energy),
                )
            )
            return expectation

        x = contract_params(physical, beta)
        rho = schedule.rho[stage]
        rho_end = min(rho, COBYLA_RHOEND)
        while epoch < stage_end:
            try:
                minimize(
                    objective,
                    x,
                    method="COBYLA",
                    options={
                        "rhobeg": rho,
                        "tol": rho_end,
                        "maxiter": max(stage_end - epoch, x.size + 2),
                    },
                )
            except _BudgetSpent:
                break
            # converged before the budget ran out: resume from the best point
            # at the radius the trust region shrank to
            x, rho = best_x, rho_end
        physical = expand_params(best_x, beta, preparer.num_params)

    if best_bits is None:
        raise RuntimeError("optimization produced no samples")
    return qsim.BasisState(best_bits, spec.n), best_energy, rows


# ---------------------------------------------------------------------------
# bounded-CVaR grid study
# ---------------------------------------------------------------------------


def bounded_cvar_study(
    problem,
    spec: Optional[DickeSpec] = None,
    alphas: Sequence[float] = (0.01, 0.05, 0.1, 0.2),
    betas: Sequence[int] = (1, 10, 20, 40),
    seeds: Sequence[int] = tuple(range(20)),
    epochs: int = 80,
    shots: int = 1024,
    theta0: float = 0.8 * np.pi,
    rho: float = 0.15 * np.pi,
) -> dict[tuple[float, int], list[list[float]]]:
    """Fixed-(alpha, beta) convergence traces over a seed ensemble.

    Group sizes are clamped to the slot count, so the canonical {1,10,20,40}
    grid adapts to smaller circuits; each cell holds one expectation-per-epoch
    list per seed.
    """
    if spec is None:
        spec = dicke_spec_for(problem)
    if spec.n > 16:
        raise ValueError(f"the grid study is exact-simulation only (n <= 16), got n={spec.n}")
    slots = build_for(spec).num_params
    table: dict[tuple[float, int], list[list[float]]] = {}
    for alpha in alphas:
        for beta_raw in betas:
            beta = min(int(beta_raw), slots)
            traces: list[list[float]] = []
            for seed in seeds:
                _, _, rows = optimize(
                    problem,
                    spec,
                    mode="soft",
                    theta0=theta0,
                    cvar_cfg=CVaRConfig(alpha=float(alpha), shots=shots),
                    schedule=CorrelationSchedule(counts=(beta,), epochs=(epochs,), rho=(rho,)),
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
