"""Ground-state location by convex interpolation over sub-ansatz minima.

The minimum energies of a few cheap *outer* sub-ansatze trace a roughly convex
curve over the sub-ansatz index; fitting that curve and rounding its argmin
predicts which sub-ansatz holds the ground state without touching the huge
middle cells. Two drivers build on this:

* :func:`locate_soft` — one level of interpolation; when the prediction falls
  into the left quarter, it reverses the index order (portfolios) or mirrors
  the target (unpinned bisections), so a subsequent optimizer can start from
  the right-leaning region it favors.
* :func:`locate_hard` — recursive: interpolate the level-1 curve, then walk
  the child grid of the chosen cell (diagonal interpolation followed by a
  cruciform greedy), recursing until the requested depth; the final cell is
  solved exactly.

Both report every exact evaluation and end with an optional Hamming-distance-2
bitstring descent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .ansatz import DickeSpec
from .partition import (
    SubAnsatzId,
    child_count,
    enumerate_subansatz_arrays,
    format_id,
    subansatz_basis_count,
)
from .problem import BisectionProblem, batch_evaluator, dicke_spec_for, permute
from .qsim import BasisState, hamming_weight

__all__ = [
    "DEFAULT_CAP",
    "EnergyCurve",
    "LocateReport",
    "subspace_min",
    "interpolate_convex",
    "locate_soft",
    "locate_hard",
    "cruciform_greedy",
    "greedy_bitstring",
    "outer_indices",
]

DEFAULT_CAP = 10_000_000

CostBatch = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# exact cell minima
# ---------------------------------------------------------------------------


def subspace_min(
    sa: SubAnsatzId, cost: CostBatch, cap: int = DEFAULT_CAP
) -> tuple[BasisState, float]:
    """Exact minimum of the cost over one sub-ansatz; ties go to smaller bits.

    Enumeration is ascending and chunked, so the first minimum seen is the
    numerically smallest minimizer and memory stays bounded.
    """
    count = subansatz_basis_count(sa)
    if count > cap:
        raise ValueError(f"sub-ansatz {format_id(sa)} holds {count} states, cap is {cap}")
    best_bits = -1
    best_energy = math.inf
    for states in enumerate_subansatz_arrays(sa):
        energies = cost(states)
        pos = int(np.argmin(energies))
        if energies[pos] < best_energy:
            best_energy = float(energies[pos])
            best_bits = int(states[pos])
    return BasisState(best_bits, sa.parent.n), best_energy


# ---------------------------------------------------------------------------
# convex interpolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyCurve:
    """Convex fit through (sub-ansatz index, minimum energy) samples."""

    points: tuple[tuple[int, float], ...]
    fit: Optional[tuple[float, float, float]]  # (a, b, c), a >= 0; None on fallback
    argmin: int
    fallback: bool = False  # lower convex hull used instead of the quadratic
    degenerate: bool = False  # all sampled energies equal
    high_residual: bool = False  # quadratic fit explains the samples poorly

    def __post_init__(self) -> None:
        idx = [i for i, _ in self.points]
        if idx != sorted(idx):
            raise ValueError("curve points must be sorted by index")
        if not idx[0] <= self.argmin <= idx[-1]:
            raise ValueError(f"argmin {self.argmin} outside sampled range {idx[0]}..{idx[-1]}")


def _lower_hull(points: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    hull: list[tuple[int, float]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def interpolate_convex(points: Iterable[tuple[int, float]]) -> EnergyCurve:
    """Least-squares quadratic through the samples, hull fallback when flat.

    The argmin is rounded to the nearest sampled-range integer, half-way ties
    toward the larger index; a non-convex or degenerate quadratic falls back
    to the minimum vertex of the lower convex hull (ties toward the larger
    index as well).
    """
    pts = sorted((int(i), float(e)) for i, e in points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to interpolate, got {len(pts)}")
    idx = [i for i, _ in pts]
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate sub-ansatz indices in {idx}")

    xs = np.array(idx, dtype=np.float64)
    es = np.array([e for _, e in pts], dtype=np.float64)
    spread = float(np.ptp(es))
    if spread <= 1e-12 * max(1.0, float(np.max(np.abs(es)))):
        # flat curve: no information, lean right
        return EnergyCurve(tuple(pts), None, idx[-1], fallback=True, degenerate=True)

    a, b, c = np.polyfit(xs, es, 2)
    if a < 1e-12:
        hull = _lower_hull(pts)
        best = min(hull, key=lambda p: (p[1], -p[0]))
        return EnergyCurve(tuple(pts), None, best[0], fallback=True)

    vertex = float(np.clip(-b / (2.0 * a), xs[0], xs[-1]))
    argmin = int(math.floor(vertex + 0.5))
    resid = float(np.sqrt(np.mean((np.polyval([a, b, c], xs) - es) ** 2)))
    return EnergyCurve(
        tuple(pts),
        (float(a), float(b), float(c)),
        argmin,
        high_residual=resid > 0.25 * spread,
    )


def outer_indices(extent: int) -> list[int]:
    """The up-to-4 cheap indices sampled on a length-``extent`` axis.

    Level-1 axes skip the trivial corner cells, so the pattern is
    ``[1, 2, extent-3, extent-2]``, deduplicated and clipped; tiny axes fall
    back to whatever distinct indices exist.
    """
    if extent < 1:
        raise ValueError("empty axis")
    cand = {min(max(i, 0), extent - 1) for i in (1, 2, extent - 3, extent - 2)}
    if len(cand) < 3:  # widen with the corners so interpolation stays possible
        cand |= {0, extent - 1}
    return sorted(cand)


def diagonal_indices(extent: int) -> list[int]:
    """Outer diagonal cells of a child grid: corners included."""
    if extent < 1:
        raise ValueError("empty diagonal")
    cand = {min(max(i, 0), extent - 1) for i in (0, 1, extent - 2, extent - 1)}
    return sorted(cand)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class LocateReport:
    """Everything a location run learned: prediction, proof work, refinement."""

    spec: DickeSpec
    predicted: Optional[SubAnsatzId]
    candidate_bits: Optional[int]
    candidate_energy: float
    trail: tuple[tuple[SubAnsatzId, float], ...]
    refinements: tuple[tuple[int, float], ...]
    flags: dict[str, bool]
    curves: tuple[EnergyCurve, ...]
    problem: object = None
    evaluations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "spec": {"n": self.spec.n, "k": self.spec.k},
            "predicted": format_id(self.predicted) if self.predicted else None,
            "candidate": None
            if self.candidate_bits is None
            else {
                "bits": format(self.candidate_bits, f"0{self.spec.n}b"),
                "energy": self.candidate_energy,
            },
            "trail": [
                {"id": format_id(sa), "energy": energy} for sa, energy in self.trail
            ],
            "refinements": [
                {"bits": format(bits, f"0{self.spec.n}b"), "energy": energy}
                for bits, energy in self.refinements
            ],
            "flags": {k: bool(v) for k, v in sorted(self.flags.items())},
            "evaluations": self.evaluations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


class _CellCache:
    """Memoized exact minima keyed by sub-ansatz id; over-cap cells pin +inf."""

    def __init__(self, cost: CostBatch, cap: int):
        self.cost = cost
        self.cap = cap
        self.results: dict[SubAnsatzId, tuple[Optional[int], float]] = {}
        self.trail: list[tuple[SubAnsatzId, float]] = []

    def minimum(self, sa: SubAnsatzId) -> tuple[Optional[int], float]:
        if sa in self.results:
            return self.results[sa]
        if subansatz_basis_count(sa) > self.cap:
            out: tuple[Optional[int], float] = (None, math.inf)
        else:
            state, energy = subspace_min(sa, self.cost, self.cap)
            out = (state.bits, energy)
            self.trail.append((sa, energy))
        self.results[sa] = out
        return out

    @property
    def evaluations(self) -> int:
        return len(self.trail)

    def best(self) -> tuple[Optional[int], float]:
        best_bits: Optional[int] = None
        best_energy = math.inf
        for bits, energy in self.results.values():
            if bits is None:
                continue
            if energy < best_energy or (
                energy == best_energy and best_bits is not None and bits < best_bits
            ):
                best_bits, best_energy = bits, energy
        return best_bits, best_energy


def _interpolate_axis(
    cache: _CellCache,
    cell_of: Callable[[int], SubAnsatzId],
    indices: Sequence[int],
) -> tuple[int, Optional[EnergyCurve], dict[str, bool]]:
    """Sample cells along one axis, interpolate (or direct-min), return argmin."""
    points: list[tuple[int, float]] = []
    for i in indices:
        _, energy = cache.minimum(cell_of(i))
        if math.isfinite(energy):
            points.append((i, energy))
    flags: dict[str, bool] = {}
    if len(points) < 3:
        if not points:
            raise ValueError("no evaluable cells on the interpolation axis")
        flags["direct_argmin"] = True
        best = min(points, key=lambda p: (p[1], -p[0]))
        return best[0], None, flags
    curve = interpolate_convex(points)
    flags["degenerate_curve"] = curve.degenerate
    flags["hull_fallback"] = curve.fallback and not curve.degenerate
    flags["high_residual"] = curve.high_residual
    return curve.argmin, curve, flags


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _level_one(
    cache: _CellCache, spec: DickeSpec
) -> tuple[int, Optional[EnergyCurve], dict[str, bool]]:
    """Outer minima along the level-1 axis and the argmin of their convex fit."""
    cell_of = lambda i: SubAnsatzId(spec, ((i,),))
    return _interpolate_axis(cache, cell_of, outer_indices(child_count(spec)))


def _report(
    problem,
    spec: DickeSpec,
    predicted: SubAnsatzId,
    cache: _CellCache,
    flags: dict[str, bool],
    curves: list[EnergyCurve],
    refine: bool,
    seed: Optional[int],
    discarded: int = 0,
) -> LocateReport:
    """The report of a finished location run, refined on request."""
    candidate_bits, candidate_energy = cache.best()
    report = LocateReport(
        spec=spec,
        predicted=predicted,
        candidate_bits=candidate_bits,
        candidate_energy=candidate_energy,
        trail=tuple(cache.trail),
        refinements=(),
        flags=flags,
        curves=tuple(curves),
        problem=problem,
        evaluations=cache.evaluations + discarded,
    )
    if refine and candidate_bits is not None:
        _refine_report(report, cache.cost, seed)
    return report


def locate_soft(
    problem,
    spec: Optional[DickeSpec] = None,
    cap: int = DEFAULT_CAP,
    refine: bool = False,
    seed: Optional[int] = None,
) -> LocateReport:
    """One-level location: outer-4 minima, convex fit, left-quarter reversal.

    When the fitted argmin lands at or below n/4 and no bit is pinned, the
    problem's index order is reversed (mirroring the curve into the right
    half) and the interpolation is redone on the reversed instance; the report
    carries the problem that was actually evaluated last.

    An unpinned bisection costs a split and its complement the same, so its
    cell ``i`` holds the complements of cell ``extent-1-i`` and reversal would
    reproduce the same curve. There the target itself is mirrored instead,
    with no re-evaluation, and ``mirror_applied`` is flagged.
    """
    if spec is None:
        spec = dicke_spec_for(problem)
    if spec.n % 2:
        raise ValueError(f"soft location needs an even qubit count, got {spec.n}")
    cache = _CellCache(batch_evaluator(problem), cap)
    target, curve, flags = _level_one(cache, spec)
    curves = [] if curve is None else [curve]
    discarded = 0

    if target <= spec.n // 4 and dicke_spec_for(problem).n == problem.n:
        if isinstance(problem, BisectionProblem):
            target = child_count(spec) - 1 - target
            flags["mirror_applied"] = True
        else:
            problem, _ = permute(problem, np.arange(problem.n)[::-1])
            discarded = cache.evaluations
            cache = _CellCache(batch_evaluator(problem), cap)  # energies of the reversed instance
            target, curve, flags = _level_one(cache, spec)
            if curve is not None:
                curves.append(curve)
            flags["reversal_applied"] = True

    predicted = SubAnsatzId(spec, ((target,),))
    return _report(problem, spec, predicted, cache, flags, curves, refine, seed, discarded)


def locate_hard(
    problem,
    spec: Optional[DickeSpec] = None,
    p: int = 2,
    iters: Optional[int] = None,
    cap: int = DEFAULT_CAP,
    refine: bool = False,
    seed: Optional[int] = None,
) -> LocateReport:
    """Recursive location: level-1 curve, then per-level diagonal + cruciform.

    Each level splits every fragment of the current cell in half; the child
    grid (one axis per fragment) is probed on its main diagonal, interpolated,
    and walked with a cruciform greedy from the diagonal argmin. The final
    cell is solved exactly and becomes the candidate.
    """
    if spec is None:
        spec = dicke_spec_for(problem)
    if spec.n % (1 << p):
        raise ValueError(f"n={spec.n} does not support {p} recursive splits")
    if iters is None:
        iters = max(1, math.ceil(math.log2(spec.n)))

    cache = _CellCache(batch_evaluator(problem), cap)
    target, curve, flags = _level_one(cache, spec)
    curves = [] if curve is None else [curve]
    current = SubAnsatzId(spec, ((target,),))

    # deeper levels: diagonal interpolation + cruciform walk of the child grid
    for level in range(2, p + 1):
        frags = current.fragments()
        dims = tuple(child_count(f) for f in frags)
        depth = min(dims)

        def diag_cell(d: int) -> SubAnsatzId:
            return current.child((d,) * len(dims))

        diag = diagonal_indices(depth)
        d0, curve, level_flags = _interpolate_axis(cache, diag_cell, diag)
        for key, val in level_flags.items():
            flags[key] = flags.get(key, False) or val
        if curve is not None:
            curves.append(curve)

        def oracle(cell: tuple[int, ...]) -> float:
            return cache.minimum(current.child(cell))[1]

        best_cell, _, exhausted = cruciform_greedy(oracle, (d0,) * len(dims), iters, dims)
        flags["budget_exhausted"] = flags.get("budget_exhausted", False) or exhausted
        current = current.child(best_cell)

    bits, _ = cache.minimum(current)
    if bits is None:
        flags["candidate_over_cap"] = True
    return _report(problem, spec, current, cache, flags, curves, refine, seed)


def _refine_report(report: LocateReport, cost: CostBatch, seed: Optional[int]) -> None:
    """Run the bitstring descent from the candidate and record the trace."""
    start = BasisState(report.candidate_bits, report.spec.n)
    final, energy, trace = greedy_bitstring(cost, start, restarts=2, seed=seed)
    report.refinements = tuple(trace)
    report.candidate_bits = final.bits
    report.candidate_energy = energy
    if report.predicted is not None:
        report.flags["possible_misestimation"] = not _in_subansatz(final.bits, report.predicted)


def _in_subansatz(bits: int, sa: SubAnsatzId) -> bool:
    """Whether the bitstring's per-fragment weights match the sub-ansatz."""
    frags = sa.fragments()
    shift = sum(f.n for f in frags)
    for f in frags:
        shift -= f.n
        if hamming_weight((bits >> shift) & ((1 << f.n) - 1)) != f.k:
            return False
    return True


# ---------------------------------------------------------------------------
# greedy searches
# ---------------------------------------------------------------------------


def cruciform_greedy(
    oracle: Callable[[tuple[int, ...]], float],
    start: tuple[int, ...],
    max_iters: int,
    shape: tuple[int, ...],
) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], float]], bool]:
    """Steepest-descent walk over a grid, probing only untouched L1 neighbors.

    Returns the final cell, the strictly-decreasing visit trace, and whether
    the iteration budget ran out while still improving. Every cell is
    evaluated at most once.
    """
    start = tuple(start)
    if len(start) != len(shape) or any(not 0 <= c < s for c, s in zip(start, shape)):
        raise ValueError(f"start {start} outside grid of shape {shape}")
    cache: dict[tuple[int, ...], float] = {}

    def value(cell: tuple[int, ...]) -> float:
        if cell not in cache:
            cache[cell] = float(oracle(cell))
        return cache[cell]

    def neighbors_of(cell: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = []
        for axis in range(len(shape)):
            for delta in (-1, 1):
                c = cell[axis] + delta
                if 0 <= c < shape[axis]:
                    out.append(cell[:axis] + (c,) + cell[axis + 1 :])
        return out

    current = start
    trace = [(current, value(current))]
    for _ in range(max_iters):
        best_cell, best_val = current, cache[current]
        for cell in neighbors_of(current):
            v = value(cell)
            if v < best_val:
                best_cell, best_val = cell, v
        if best_cell == current:
            return current, trace, False
        current = best_cell
        trace.append((current, best_val))
    # the walk was still moving when the budget ran out
    return current, trace, True


def greedy_bitstring(
    cost: CostBatch,
    start: BasisState,
    restarts: int = 0,
    seed: Optional[int] = None,
) -> tuple[BasisState, float, list[tuple[int, float]]]:
    """Steepest descent over one-swap neighbors (a 1-bit trades places with a 0-bit).

    Ties go to the numerically smaller bitstring. Restarts perturb the start
    by a few seeded random swaps and keep the best endpoint (ties again toward
    the smaller bitstring).
    """
    n = start.num_qubits
    k = start.weight
    rng = np.random.default_rng(seed)

    def neighbors(bits: int) -> np.ndarray:
        ones = [i for i in range(n) if (bits >> i) & 1]
        zeros = [i for i in range(n) if not (bits >> i) & 1]
        return np.array(
            [bits - (1 << i) + (1 << j) for i in ones for j in zeros], dtype=np.int64
        )

    def descend(bits: int) -> list[tuple[int, float]]:
        energy = float(cost(np.array([bits], dtype=np.int64))[0])
        path = [(bits, energy)]
        while True:
            cand = neighbors(bits)
            if len(cand) == 0:
                return path
            energies = cost(cand)
            order = np.lexsort((cand, energies))  # energy first, then smaller bits
            best = order[0]
            if energies[best] >= energy:
                return path
            bits, energy = int(cand[best]), float(energies[best])
            path.append((bits, energy))

    def perturb(bits: int) -> int:
        swaps = int(rng.integers(1, 4))
        for _ in range(swaps):
            ones = [i for i in range(n) if (bits >> i) & 1]
            zeros = [i for i in range(n) if not (bits >> i) & 1]
            if not ones or not zeros:
                return bits
            i = int(rng.choice(ones))
            j = int(rng.choice(zeros))
            bits = bits - (1 << i) + (1 << j)
        return bits

    best_path = descend(start.bits)
    for _ in range(max(0, restarts)):
        path = descend(perturb(start.bits))
        end_bits, end_energy = path[-1]
        cur_bits, cur_energy = best_path[-1]
        if end_energy < cur_energy or (end_energy == cur_energy and end_bits < cur_bits):
            best_path = path

    final_bits, final_energy = best_path[-1]
    return BasisState(final_bits, n), final_energy, best_path
