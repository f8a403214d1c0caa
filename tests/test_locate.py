"""Location pipeline: cell minima, convex fits, greedy walks, drivers."""

import json
from collections import Counter

import numpy as np
import pytest

from conftest import exact_minimum
from hwvqe import locate
from hwvqe.ansatz import DickeSpec
from hwvqe.locate import (
    EnergyCurve,
    cruciform_greedy,
    diagonal_indices,
    greedy_bitstring,
    interpolate_convex,
    locate_hard,
    locate_soft,
    outer_indices,
    subspace_min,
)
from hwvqe.partition import SubAnsatzId, bitstrings_of_weight, enumerate_subansatz_arrays
from hwvqe.problem import PortfolioProblem, batch_evaluator, reorder, synth_assets, synth_graph
from hwvqe.qsim import BasisState


def _portfolio(seed, n=16):
    p, _ = reorder(synth_assets(n, seed), "by-return")
    return p


# ---------------------------------------------------------------------------
# exact cell minima
# ---------------------------------------------------------------------------


def test_subspace_min_agrees_with_enumeration(rng):
    p = _portfolio(5, n=12)
    cost = batch_evaluator(p)
    sa = SubAnsatzId(DickeSpec(12, 6), ((4,),))
    state, energy = subspace_min(sa, cost)
    states = np.concatenate(list(enumerate_subansatz_arrays(sa)))
    energies = cost(states)
    assert energy == energies.min()
    assert state.bits == int(states[np.lexsort((states, energies))[0]])


def test_subspace_min_tie_goes_to_smaller_bits():
    sa = SubAnsatzId(DickeSpec(8, 4), ((2,),))
    constant = lambda states: np.zeros(len(states))
    state, energy = subspace_min(sa, constant)
    first = min(int(s) for s in np.concatenate(list(enumerate_subansatz_arrays(sa))))
    assert state.bits == first and energy == 0.0


def test_subspace_min_respects_cap():
    sa = SubAnsatzId(DickeSpec(12, 6), ((3,),))
    with pytest.raises(ValueError):
        subspace_min(sa, lambda s: np.zeros(len(s)), cap=10)


# ---------------------------------------------------------------------------
# convex interpolation
# ---------------------------------------------------------------------------


def test_interpolation_recovers_parabola_vertex():
    xs = [1, 2, 8, 9]
    for vertex, expected in [(5.3, 5), (5.7, 6), (2.49, 2), (8.6, 9)]:
        pts = [(x, 2.0 * (x - vertex) ** 2 + 1.0) for x in xs]
        curve = interpolate_convex(pts)
        assert curve.argmin == expected
        assert not curve.fallback and not curve.high_residual
        a, b, c = curve.fit
        assert abs(a - 2.0) < 1e-9 and abs(-b / (2 * a) - vertex) < 1e-9


def test_interpolation_clips_vertex_to_sampled_range():
    pts = [(x, 2.0 * (x - 12.0) ** 2) for x in (1, 2, 8, 9)]
    assert interpolate_convex(pts).argmin == 9
    pts = [(x, 2.0 * (x + 3.0) ** 2) for x in (1, 2, 8, 9)]
    assert interpolate_convex(pts).argmin == 1


def test_interpolation_hull_fallback_on_concave_ties_right():
    curve = interpolate_convex([(0, 0.0), (1, 1.0), (2, 0.0)])
    assert curve.fallback and not curve.degenerate
    assert curve.fit is None
    assert curve.argmin == 2  # both hull endpoints hit 0.0; the larger index wins


def test_interpolation_flat_curve_is_degenerate_and_leans_right():
    curve = interpolate_convex([(1, 2.0), (3, 2.0), (7, 2.0)])
    assert curve.degenerate and curve.fallback
    assert curve.argmin == 7


def test_interpolation_flags_poor_quadratic_fit():
    curve = interpolate_convex([(0, 3.0), (1, 0.0), (2, 2.9), (3, 0.1), (4, 3.0)])
    assert curve.high_residual and not curve.fallback
    assert curve.argmin == 2


def test_interpolation_input_validation():
    with pytest.raises(ValueError):
        interpolate_convex([(0, 1.0), (1, 2.0)])
    with pytest.raises(ValueError):
        interpolate_convex([(0, 1.0), (0, 2.0), (1, 3.0)])
    with pytest.raises(ValueError):
        EnergyCurve(points=((0, 1.0), (2, 2.0)), fit=None, argmin=5)


@pytest.mark.parametrize(
    "extent, expected",
    [
        (7, [1, 2, 4, 5]),
        (21, [1, 2, 18, 19]),
        (9, [1, 2, 6, 7]),
        (5, [1, 2, 3]),
        (4, [0, 1, 2, 3]),
        (3, [0, 1, 2]),
        (2, [0, 1]),
        (1, [0]),
    ],
)
def test_outer_indices_patterns(extent, expected):
    assert outer_indices(extent) == expected


def test_outer_indices_rejects_empty_axis():
    with pytest.raises(ValueError):
        outer_indices(0)


@pytest.mark.parametrize(
    "extent, expected",
    [(5, [0, 1, 3, 4]), (4, [0, 1, 2, 3]), (3, [0, 1, 2]), (2, [0, 1]), (1, [0])],
)
def test_diagonal_indices_patterns(extent, expected):
    assert diagonal_indices(extent) == expected


# ---------------------------------------------------------------------------
# greedy searches
# ---------------------------------------------------------------------------


def test_cruciform_greedy_descends_planted_bowl():
    shape = (9, 9)
    target = (6, 2)
    calls = []

    def oracle(cell):
        calls.append(cell)
        return float(sum((c - t) ** 2 for c, t in zip(cell, target)))

    final, trace, exhausted = cruciform_greedy(oracle, (0, 8), 100, shape)
    assert final == target and not exhausted
    energies = [e for _, e in trace]
    assert energies == sorted(energies, reverse=True)  # strictly improving walk
    assert len(calls) == len(set(calls))  # every cell probed at most once


def test_cruciform_greedy_reports_exhausted_budget():
    oracle = lambda cell: float(sum(cell))
    final, trace, exhausted = cruciform_greedy(oracle, (5, 5), 2, (9, 9))
    assert exhausted
    assert len(trace) == 3  # start plus the two allowed moves
    assert final != (0, 0)


def test_cruciform_greedy_validates_start():
    with pytest.raises(ValueError):
        cruciform_greedy(lambda c: 0.0, (9, 0), 5, (9, 9))
    with pytest.raises(ValueError):
        cruciform_greedy(lambda c: 0.0, (1,), 5, (3, 3))


def test_greedy_bitstring_reaches_one_swap_local_minimum():
    p = _portfolio(3, n=10)
    cost = batch_evaluator(p)
    start = BasisState(0b0000011111, 10)
    final, energy, path = greedy_bitstring(cost, start)
    energies = [e for _, e in path]
    assert energies == sorted(energies, reverse=True) and len(set(energies)) == len(energies)
    neighbors = [
        final.bits - (1 << i) + (1 << j)
        for i in range(10)
        if (final.bits >> i) & 1
        for j in range(10)
        if not (final.bits >> j) & 1
    ]
    assert cost(np.array(neighbors, dtype=np.int64)).min() >= energy


def test_greedy_bitstring_restarts_are_seeded():
    p = _portfolio(9, n=10)
    cost = batch_evaluator(p)
    start = BasisState(0b1111100000, 10)
    a = greedy_bitstring(cost, start, restarts=3, seed=11)
    b = greedy_bitstring(cost, start, restarts=3, seed=11)
    assert a[0].bits == b[0].bits and a[1] == b[1] and a[2] == b[2]
    no_restart = greedy_bitstring(cost, start)
    assert a[1] <= no_restart[1]  # restarts can only improve the endpoint


def test_greedy_bitstring_started_at_the_optimum_takes_no_step():
    # the bundled portfolio12 problem; a restart path ends on the optimum too,
    # costed inside a neighbour batch, and must not read lower than the start
    p = _portfolio(1000, n=12)
    bits, energy = exact_minimum(p)
    final, final_energy, path = greedy_bitstring(
        batch_evaluator(p), BasisState(bits, 12), restarts=2, seed=7
    )
    assert path == [(bits, energy)]
    assert final.bits == bits and final_energy == energy


# ---------------------------------------------------------------------------
# soft driver
# ---------------------------------------------------------------------------


def test_locate_soft_samples_four_outer_cells():
    p = _portfolio(42, n=12)
    report = locate_soft(p)
    assert len(report.trail) == 4 and report.evaluations == 4
    assert [sa.levels[0][0] for sa, _ in report.trail] == [1, 2, 4, 5]
    assert "reversal_applied" not in report.flags
    assert report.problem is p
    assert report.candidate_energy == min(e for _, e in report.trail)


def test_locate_soft_reverses_left_leaning_instance():
    n = 12
    mu = np.zeros(n)
    mu[:6] = 0.05  # all the return sits on the low-index assets
    p = PortfolioProblem(n=n, q=0.5, A=np.eye(n) * 1e-4, mu=mu, budget=6)
    report = locate_soft(p)
    assert report.flags["reversal_applied"]
    assert report.problem is not p
    assert report.problem.permutation == tuple(reversed(range(n)))
    # the optimum of the reversed instance is the corner cell (index 6), which
    # the outer pattern skips; the prediction clips to the rightmost sample
    assert report.predicted.levels == ((5,),)
    # the four discarded pre-reversal minima still count as evaluations
    assert report.evaluations == 8 and len(report.trail) == 4
    best, _ = exact_minimum(report.problem)
    true_index = ((best >> 6) & 0x3F).bit_count()
    assert abs(true_index - report.predicted.levels[0][0]) <= 1


def test_locate_soft_right_leaning_instance_stays_put():
    n = 12
    mu = np.zeros(n)
    mu[6:] = 0.05
    p = PortfolioProblem(n=n, q=0.5, A=np.eye(n) * 1e-4, mu=mu, budget=6)
    report = locate_soft(p)
    assert "reversal_applied" not in report.flags
    assert report.predicted.levels == ((5,),) and report.evaluations == 4


def test_locate_soft_mirrors_left_target_of_unpinned_graph():
    g, _ = reorder(synth_graph(14, 0.5, 8, 9))
    report = locate_soft(g)
    # cell i holds the complements of cell 7 - i: no reversal, no re-evaluation
    assert report.flags["mirror_applied"] and "reversal_applied" not in report.flags
    assert report.problem is g and report.evaluations == 4
    assert report.predicted.levels == ((4,),)
    assert report.curves[0].argmin == 3


def test_locate_soft_rejects_odd_width():
    p = _portfolio(1, n=12)
    with pytest.raises(ValueError):
        locate_soft(p, spec=DickeSpec(11, 5))


def test_locate_soft_refinement_descends():
    p = _portfolio(8, n=12)
    report = locate_soft(p, refine=True, seed=0)
    assert report.refinements
    assert report.refinements[-1][0] == report.candidate_bits
    assert report.refinements[-1][1] == report.candidate_energy
    energies = [e for _, e in report.refinements]
    assert energies == sorted(energies, reverse=True)


def test_interpolation_rate_over_200_seeded_instances():
    """Exact-index hit rate and its +/-1 neighborhood on D^16_8 portfolios.

    The fitted argmin lands on the true best index less often than it lands
    one step away (a right-skewed curve biases the fit low by one); what the
    recursive driver needs is the neighborhood rate, so both are pinned with
    room below the measured values (0.44 exact, 0.97 within one).
    """
    states = bitstrings_of_weight(16, 8).astype(np.int64)
    offsets = Counter()
    for seed in range(200):
        p = _portfolio(seed)
        report = locate_soft(p)
        energies = batch_evaluator(p)(states)
        best = int(states[np.lexsort((states, energies))[0]])
        true_index = ((best >> 8) & 0xFF).bit_count()
        offsets[report.predicted.levels[0][0] - true_index] += 1
    exact = offsets[0] / 200
    near = sum(v for d, v in offsets.items() if abs(d) <= 1) / 200
    print(f"\nexact-index rate {exact:.3f}, within-one rate {near:.3f}, offsets {dict(sorted(offsets.items()))}")
    assert exact >= 0.40
    assert near >= 0.90


# ---------------------------------------------------------------------------
# hard driver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, seed", [(12, 41), (12, 7), (16, 3000)])
def test_locate_hard_recovers_exact_minimum(n, seed):
    p = _portfolio(seed, n=n)
    report = locate_hard(p, p=2, refine=True, seed=0)
    best, energy = exact_minimum(p)
    assert report.candidate_bits == best
    assert abs(report.candidate_energy - energy) < 1e-9
    assert not report.flags["budget_exhausted"]


def test_locate_hard_rejects_indivisible_width():
    p = _portfolio(1, n=12)
    with pytest.raises(ValueError):
        locate_hard(p, p=3)  # 12 % 8 != 0


def test_locate_hard_final_cell_is_exactly_solved():
    p = _portfolio(12, n=16)
    report = locate_hard(p, p=2)
    cell_ids = {sa for sa, _ in report.trail}
    assert report.predicted in cell_ids
    assert len(report.predicted.levels) == 2
    cost = batch_evaluator(p)
    states = np.concatenate(list(enumerate_subansatz_arrays(report.predicted)))
    cell_min = cost(states).min()
    trail_energy = dict(report.trail)[report.predicted]
    assert abs(trail_energy - cell_min) < 1e-12


def test_locate_hard_flags_predicted_cell_over_cap():
    # returns planted so the fit argmin is the largest middle cell (index 4,
    # 4900 states); the outer cells (64 and 784 states) stay under the cap
    n = 16
    mu = np.zeros(n)
    mu[0:4] = 0.05
    mu[8:12] = 0.05
    p = PortfolioProblem(n=n, q=0.5, A=np.eye(n) * 1e-4, mu=mu, budget=8)
    report = locate_hard(p, p=1, cap=800)
    assert report.flags["candidate_over_cap"]
    assert report.predicted.levels == ((4,),)
    # the candidate falls back to the best probed outer cell
    assert report.candidate_bits is not None
    assert report.candidate_energy == min(e for _, e in report.trail)
    assert report.evaluations == 4


def test_locate_hard_errors_when_no_axis_cell_fits():
    p = _portfolio(2, n=16)
    with pytest.raises(ValueError):
        locate_hard(p, p=1, cap=60)  # even the outer cells exceed this cap


def test_locate_report_json_round_trip():
    p = _portfolio(4, n=12)
    report = locate_soft(p, refine=True, seed=1)
    data = json.loads(report.to_json())
    assert data["spec"] == {"n": 12, "k": 6}
    assert data["predicted"].startswith("sa^1_[")
    assert len(data["candidate"]["bits"]) == 12
    assert set(data["candidate"]["bits"]) <= {"0", "1"}
    assert data["evaluations"] == report.evaluations
    assert [t["id"] for t in data["trail"]] == [
        locate.format_id(sa) for sa, _ in report.trail
    ]
    assert all(isinstance(v, bool) for v in data["flags"].values())


def test_in_subansatz_checks_per_fragment_weights():
    sa = SubAnsatzId(DickeSpec(8, 4), ((3,), (1, 0)))
    frags = sa.fragments()
    bits = 0
    for f in frags:
        bits = (bits << f.n) | ((1 << f.k) - 1)
    assert locate._in_subansatz(bits, sa)
    # move one set bit across a fragment boundary: same total weight, wrong cell
    donor = next(i for i, f in enumerate(frags) if f.k > 0)
    taker = next(i for i, f in enumerate(frags) if f.k < f.n and i != donor)
    shifts = np.cumsum([0] + [f.n for f in reversed(frags)])[:-1]
    position_of = dict(zip(reversed(range(len(frags))), shifts))
    moved = bits - (1 << position_of[donor]) + (1 << (position_of[taker] + frags[taker].k))
    assert not locate._in_subansatz(moved, sa)
