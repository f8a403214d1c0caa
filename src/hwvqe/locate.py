"""Ground-state location by convex interpolation over sub-ansatz minima.

The minimum energies of a few cheap *outer* sub-ansatze trace a roughly convex
curve over the sub-ansatz index; fitting that curve and rounding its argmin
predicts which sub-ansatz holds the ground state without touching the huge
middle cells. Two drivers build on this:

* :func:`locate_soft` — one level of interpolation; when the prediction falls
  into the left half of the axis, it reverses the index order (portfolios) or
  mirrors the target (unpinned bisections), so a subsequent optimizer can
  start from the right-leaning region it favors.
* :func:`locate_hard` — recursive: interpolate the level-1 curve, then walk
  the child grid of the chosen cell (diagonal interpolation followed by a
  cruciform greedy), recursing until the requested depth; the final cell is
  solved exactly.

Both report every exact evaluation and end with an optional Hamming-distance-2
bitstring descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .ansatz import DickeSpec
from .partition import (
    SubAnsatzId,
    child_count,
    decompose,
    format_id,
    in_subansatz,
    product_states,
    subansatz_basis_count,
)
from .problem import (
    _EVAL_CHUNK,
    BisectionProblem,
    QuadraticCost,
    batch_evaluator,
    min_state,
    permute,
)
from .qsim import BasisState

__all__ = [
    "DEFAULT_CAP",
    "CellCache",
    "CellsOverCap",
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
    sa: SubAnsatzId, cost: QuadraticCost, cap: int = DEFAULT_CAP, mirror: bool = False
):
    """Exact minimum of the cost over one sub-ansatz; ties go to smaller bits.

    The cell is a product of fragments. Each product is split into a head
    and a tail group of fragments with state counts as even as the split
    allows, and :meth:`QuadraticCost.product_min` screens head x tail and
    costs the near-minimal states exactly. A product of one fragment, or one
    whose groups would exceed ``_EVAL_CHUNK`` states, first has its largest
    fragment replaced by the terms of its midpoint :func:`decompose`. The
    results fold to the smallest ``(energy, bits)``, so they are the same as
    costing every state of the cell.

    With ``mirror`` (a form with a ``mirror_window``), the same screens also
    give the minimum over the complements of the cell's states: the mirror
    cell, whose ordinals are ``child_count - 1 - c`` at every level. Its
    products are the complements of this cell's, so their minima fold the
    same way. The result is then a pair: this cell's ``(state, energy)``,
    then the mirror cell's.
    """
    count = subansatz_basis_count(sa)
    if count > cap:
        raise ValueError(f"sub-ansatz {format_id(sa)} holds {count} states, cap is {cap}")
    found = list(_product_minima(cost, sa.fragments(), mirror))
    cells = []
    for side in zip(*found) if mirror else [found]:
        bits, energy = min(side, key=lambda r: (r[1], r[0]))
        cells.append((BasisState(bits, sa.parent.n), energy))
    return tuple(cells) if mirror else cells[0]


def _product_minima(cost: QuadraticCost, frags: list[DickeSpec], mirror: bool) -> Iterator:
    """``product_min`` of each head x tail product the fragments resolve into."""
    sizes = [math.comb(f.n, f.k) for f in frags]
    # head frags[:split] and tail frags[split:], the larger group as small as can be
    group, split = min(
        (max(math.prod(sizes[:s]), math.prod(sizes[s:])), s) for s in range(1, max(len(frags), 2))
    )
    if (len(frags) == 1 or group > _EVAL_CHUNK) and max(sizes) > 1:
        at = sizes.index(max(sizes))
        f = frags[at]
        for _, upper, lower in decompose(f, f.n // 2):
            yield from _product_minima(cost, frags[:at] + [upper, lower] + frags[at + 1 :], mirror)
        return
    tail = frags[split:]
    yield cost.product_min(
        product_states(frags[:split]), product_states(tail), sum(f.n for f in tail), mirror
    )


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
    predicted: SubAnsatzId
    candidate_bits: int
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
            "predicted": format_id(self.predicted),
            "candidate": {
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


class CellsOverCap(ValueError):
    """Every cell probed on an interpolation axis holds more states than the cap."""


class CellCache:
    """Memoized exact minima keyed by sub-ansatz id; an over-cap cell is
    ``(None, inf)``.

    Where the form has a ``mirror_window``, one screen gives a cell's minimum
    and its mirror cell's (:func:`subspace_min` with ``mirror``). The mirror's
    waits in ``screened`` and joins ``results`` and ``trail`` only when that
    cell is asked for, so both record the cells asked for, in that order.
    Location asks only for children of the cell it has reached, and
    ``hwvqe interpolate`` for the level-1 cells, so a cell is screened with
    its mirror only where the two are siblings: every level-1 cell, and
    deeper cells under a cell that is its own mirror.
    """

    def __init__(self, cost: QuadraticCost, cap: int):
        self.cost = cost
        self.cap = cap
        self.results: dict[SubAnsatzId, tuple[Optional[int], float]] = {}
        self.screened: dict[SubAnsatzId, tuple[int, float]] = {}
        self.trail: list[tuple[SubAnsatzId, float]] = []

    def minimum(self, sa: SubAnsatzId) -> tuple[Optional[int], float]:
        if sa in self.results:
            return self.results[sa]
        out: tuple[Optional[int], float]
        mirror = None if self.cost.mirror_window is None else sa.mirror()
        if sa in self.screened:
            out = self.screened.pop(sa)
        elif subansatz_basis_count(sa) > self.cap:
            out = (None, math.inf)
        elif (
            mirror is None
            or mirror == sa
            or mirror in self.results
            or mirror.levels[:-1] != sa.levels[:-1]  # never asked for: see the class
        ):
            state, energy = subspace_min(sa, self.cost, self.cap)
            out = (state.bits, energy)
        else:
            (state, energy), (other, other_energy) = subspace_min(
                sa, self.cost, self.cap, mirror=True
            )
            out = (state.bits, energy)
            self.screened[mirror] = (other.bits, other_energy)
        if out[0] is not None:
            self.trail.append((sa, out[1]))
        self.results[sa] = out
        return out

    @property
    def evaluations(self) -> int:
        return len(self.trail)

    def best(self) -> tuple[int, float]:
        energy, bits = min((e, b) for b, e in self.results.values() if b is not None)
        return bits, energy


def _interpolate_axis(
    cache: CellCache,
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
            smallest = min(subansatz_basis_count(cell_of(i)) for i in indices)
            raise CellsOverCap(
                f"every cell probed on the interpolation axis exceeds cap {cache.cap}; "
                f"the smallest holds {smallest} states"
            )
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
    cache: CellCache, spec: DickeSpec
) -> tuple[int, Optional[EnergyCurve], dict[str, bool]]:
    """Outer minima along the level-1 axis and the argmin of their convex fit."""
    cell_of = lambda i: SubAnsatzId(spec, ((i,),))
    return _interpolate_axis(cache, cell_of, outer_indices(child_count(spec)))


def _report(
    problem,
    spec: DickeSpec,
    predicted: SubAnsatzId,
    cache: CellCache,
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
    if refine:
        _refine_report(report, batch_evaluator(problem), seed)
    return report


def locate_soft(
    problem,
    cap: int = DEFAULT_CAP,
    refine: bool = False,
    seed: Optional[int] = None,
) -> LocateReport:
    """One-level location over ``problem.form.spec``: outer-4 minima, convex
    fit, left-half reversal.

    When the fitted argmin lands at or left of the level-1 axis midpoint and
    no bit is pinned, the problem's index order is reversed (mirroring the
    curve into the right half) and the interpolation is redone on the reversed
    instance; the report carries the problem that was actually evaluated last.

    An unpinned bisection costs a split and its complement the same, so its
    cell ``i`` holds the complements of cell ``extent-1-i`` and reversal would
    reproduce the same curve. There the target itself is mirrored instead,
    with no re-evaluation, and ``mirror_applied`` is flagged.
    """
    spec = problem.form.spec
    if spec.n % 2:
        raise ValueError(f"soft location needs an even qubit count, got {spec.n}")
    cache = CellCache(problem.form, cap)
    target, curve, flags = _level_one(cache, spec)
    curves = [] if curve is None else [curve]
    discarded = 0

    if 2 * target <= child_count(spec) - 1 and spec.n == problem.n:
        if isinstance(problem, BisectionProblem):
            target = child_count(spec) - 1 - target
            flags["mirror_applied"] = True
        else:
            problem, _ = permute(problem, np.arange(problem.n)[::-1])
            discarded = cache.evaluations
            cache = CellCache(problem.form, cap)  # energies of the reversed instance
            target, curve, flags = _level_one(cache, spec)
            if curve is not None:
                curves.append(curve)
            flags["reversal_applied"] = True

    predicted = SubAnsatzId(spec, ((target,),))
    return _report(problem, spec, predicted, cache, flags, curves, refine, seed, discarded)


def locate_hard(
    problem,
    p: int = 2,
    cap: int = DEFAULT_CAP,
    refine: bool = False,
    seed: Optional[int] = None,
) -> LocateReport:
    """Recursive location over ``problem.form.spec``: level-1 curve, then
    per-level diagonal + cruciform.

    Each level splits every fragment of the current cell in half; the child
    grid (one axis per fragment) is probed on its main diagonal, interpolated,
    and walked with a cruciform greedy of at most ``ceil(log2 n)`` steps from
    the diagonal argmin. The final cell is solved exactly and becomes the
    candidate.
    """
    spec = problem.form.spec
    if spec.n % (1 << p):
        raise ValueError(f"n={spec.n} does not support {p} recursive splits")
    iters = max(1, math.ceil(math.log2(spec.n)))

    cache = CellCache(problem.form, cap)
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
    report.flags["possible_misestimation"] = not in_subansatz(final.bits, report.predicted)


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
            low = min_state(cand, cost(cand))
            if low[0] >= energy:
                return path
            energy, bits = low
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
        best_path = min(best_path, path, key=lambda p: (p[-1][1], p[-1][0]))

    final_bits, final_energy = best_path[-1]
    return BasisState(final_bits, n), final_energy, best_path
