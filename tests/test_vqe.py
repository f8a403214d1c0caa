"""Optimizer stack: CVaR scoring, parameter tying, metrics, staged descent."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_minimum, sparse_simulate
from hwvqe import locate, qsim, vqe
from hwvqe.ansatz import DickeSpec, build_for
from hwvqe.partition import FragmentPreparer, SubAnsatzId, enumerate_subansatz_arrays
from hwvqe.problem import BisectionProblem, batch_evaluator, reorder, synth_assets
from hwvqe.vqe import (
    TRACE_HEADER,
    CorrelationSchedule,
    CVaRConfig,
    TraceRow,
    bounded_cvar_study,
    close_to_solution_theta,
    contract_params,
    cvar,
    epochs_to_plateau,
    expand_params,
    optimize,
    plateau_of,
    ratio_variance_curves,
    trace_to_csv,
)


# ---------------------------------------------------------------------------
# CVaR and configuration
# ---------------------------------------------------------------------------


def test_cvar_mean_of_smallest_tail():
    energies = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    assert cvar(energies, 0.4) == 1.5  # ceil(0.4 * 5) = 2 smallest -> (1+2)/2
    assert cvar(energies, 1.0) == 3.0
    assert cvar(energies, 0.01) == 1.0  # ceil rounds up to one sample
    assert cvar(np.array([7.0]), 0.5) == 7.0


def test_cvar_validation():
    with pytest.raises(ValueError):
        cvar(np.array([]), 0.5)
    with pytest.raises(ValueError):
        cvar(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        cvar(np.array([1.0]), 1.1)


def test_cvar_config_geometric_schedule():
    cfg = CVaRConfig.geometric(0.01, 1.0, 8, shots=256)
    assert len(cfg.alpha_schedule) == 8
    assert cfg.alpha_schedule[0] == pytest.approx(0.01)
    assert cfg.alpha_schedule[-1] == pytest.approx(1.0)
    ratios = np.diff(np.log(cfg.alpha_schedule))
    assert np.allclose(ratios, ratios[0])
    assert cfg.alpha_at(0) == pytest.approx(0.01)
    assert cfg.alpha_at(7) == pytest.approx(1.0)
    assert cfg.alpha_at(100) == pytest.approx(1.0)  # clamped past the end
    assert cfg.shots == 256


def test_cvar_config_constant_alpha_and_validation():
    cfg = CVaRConfig(alpha=0.3)
    assert cfg.alpha_at(0) == cfg.alpha_at(99) == 0.3
    with pytest.raises(ValueError):
        CVaRConfig(alpha=0.0)
    with pytest.raises(ValueError):
        CVaRConfig(alpha=0.5, shots=0)
    with pytest.raises(ValueError):
        CVaRConfig(alpha=0.5, alpha_schedule=(0.5, 0.2))
    with pytest.raises(ValueError):
        CVaRConfig.geometric(0.01, 1.0, 0)


def test_correlation_schedule_validation():
    s = CorrelationSchedule(counts=(8, 4, 1), epochs=(10, 10, 20), rho=(0.4, 0.3, 0.2))
    assert len(s) == 3
    with pytest.raises(ValueError):
        CorrelationSchedule(counts=(), epochs=(), rho=())
    with pytest.raises(ValueError):
        CorrelationSchedule(counts=(4, 8), epochs=(10, 10), rho=(0.4, 0.4))
    with pytest.raises(ValueError):
        CorrelationSchedule(counts=(4, 2), epochs=(10,), rho=(0.4, 0.4))
    with pytest.raises(ValueError):
        CorrelationSchedule(counts=(4, 0), epochs=(10, 10), rho=(0.4, 0.4))
    with pytest.raises(ValueError):
        CorrelationSchedule(counts=(4, 2), epochs=(10, 10), rho=(0.4, 0.0))


# ---------------------------------------------------------------------------
# parameter tying
# ---------------------------------------------------------------------------


def test_expand_params_broadcasts_groups():
    out = expand_params(np.array([1.0, 2.0]), 3, 6)
    assert np.array_equal(out, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    # a ragged final group truncates the last broadcast value
    out = expand_params(np.array([1.0, 2.0, 3.0]), 2, 5)
    assert np.array_equal(out, [1.0, 1.0, 2.0, 2.0, 3.0])
    out = expand_params(np.array([4.0]), 1, 1)
    assert np.array_equal(out, [4.0])


def test_expand_params_validation():
    with pytest.raises(ValueError):
        expand_params(np.array([1.0]), 0, 4)
    with pytest.raises(ValueError):
        expand_params(np.array([1.0]), 5, 4)
    with pytest.raises(ValueError):
        expand_params(np.array([1.0, 2.0]), 2, 6)  # needs 3 logical values


def test_contract_params_takes_group_means():
    assert np.array_equal(contract_params(np.array([1.0, 3.0, 5.0, 7.0]), 2), [2.0, 6.0])
    # ragged final group averages whatever remains
    assert np.array_equal(contract_params(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2), [1.5, 3.5, 5.0])
    with pytest.raises(ValueError):
        contract_params(np.array([1.0]), 2)


def test_contract_inverts_expand(rng):
    logical = rng.uniform(0, np.pi, size=5)
    assert np.allclose(contract_params(expand_params(logical, 4, 20), 4), logical)
    ragged = rng.uniform(0, np.pi, size=4)
    assert np.allclose(contract_params(expand_params(ragged, 3, 10), 3), ragged)


# ---------------------------------------------------------------------------
# ratio / variance metrics
# ---------------------------------------------------------------------------


def test_metrics_mass_sums_to_one_and_starts_balanced():
    spec = DickeSpec(12, 6)
    metrics = ratio_variance_curves(spec, [0.0, 0.25 * np.pi, 0.5 * np.pi, 0.9 * np.pi])
    assert np.allclose(metrics.ratios.sum(axis=1), 1.0, atol=1e-10)
    # the initial state splits the six ones evenly across the halves
    assert metrics.ratios[0, 3] == pytest.approx(1.0, abs=1e-12)
    expected_sizes = [math.comb(6, i) * math.comb(6, 6 - i) for i in range(7)]
    assert metrics.cell_sizes.tolist() == expected_sizes


def test_metrics_agree_with_reference_simulator():
    spec = DickeSpec(8, 4)
    theta = 0.3 * np.pi
    metrics = ratio_variance_curves(spec, [theta])
    circuit = build_for(spec)
    state = sparse_simulate(circuit, np.full(circuit.num_params, theta))
    half = spec.n // 2
    sizes = metrics.cell_sizes
    for i in range(sizes.size):
        cell_probs = [
            abs(a) ** 2
            for bits, a in state.items()
            if (bits >> half).bit_count() == i
        ]
        cell_probs += [0.0] * (int(sizes[i]) - len(cell_probs))
        assert metrics.ratios[0, i] == pytest.approx(sum(cell_probs), abs=1e-12)
        assert metrics.variances[0, i] == pytest.approx(np.var(cell_probs), abs=1e-12)


def test_metrics_validation():
    with pytest.raises(ValueError):
        ratio_variance_curves(DickeSpec(11, 5), [0.1])
    with pytest.raises(ValueError):
        ratio_variance_curves(DickeSpec(22, 11), [0.1])


def test_close_to_solution_angles_for_target_cells():
    spec = DickeSpec(12, 6)
    expected = {3: 0.5, 4: 0.5, 5: 0.75, 6: 0.9}
    for target, factor in expected.items():
        assert close_to_solution_theta(spec, target) == pytest.approx(factor * np.pi)


def test_close_to_solution_rejects_left_half_targets():
    spec = DickeSpec(12, 6)
    with pytest.raises(ValueError):
        close_to_solution_theta(spec, 1)
    with pytest.raises(ValueError):
        close_to_solution_theta(spec, 7)  # outside 0..6


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_to_csv_format():
    rows = [
        TraceRow(1, 1, 0.01, 8, -0.5, 0.25, -0.75),
        TraceRow(2, 2, 0.02, 4, -0.625, None, -0.75),
    ]
    text = trace_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[1] == "1,1,0.01,8,-0.5,0.25,-0.75"
    assert lines[2] == "2,2,0.02,4,-0.625,,-0.75"


# ---------------------------------------------------------------------------
# staged optimization
# ---------------------------------------------------------------------------


def _staged_instance():
    p, _ = reorder(synth_assets(12, 1000, q=0.9, budget=6), "by-return")
    return locate.locate_soft(p).problem


def test_optimize_staged_soft_run_recovers_optimum():
    p = _staged_instance()
    schedule = CorrelationSchedule(
        counts=(8, 8, 8, 4, 2, 1, 1, 1),
        epochs=(15, 12, 10, 15, 19, 31, 31, 31),
        rho=tuple(np.pi * r for r in (0.15, 0.136, 0.124, 0.113, 0.102, 0.07, 0.07, 0.07)),
    )
    cfg = CVaRConfig.geometric(0.01, 1.0, 8, shots=1024)
    best, energy, rows = optimize(
        p, mode="soft", theta0=0.65 * np.pi, cvar_cfg=cfg, schedule=schedule, seed=7
    )
    exact_bits, exact_energy = exact_minimum(p)
    assert best.bits == exact_bits
    assert energy == pytest.approx(exact_energy, abs=1e-12)

    # one row per epoch, cumulative numbering, stage-grouped
    assert len(rows) == sum(schedule.epochs)
    assert [r.epoch for r in rows] == list(range(1, len(rows) + 1))
    per_stage = [sum(1 for r in rows if r.iteration == s + 1) for s in range(8)]
    assert per_stage == list(schedule.epochs)
    for r in rows:
        assert r.beta == schedule.counts[r.iteration - 1]
        assert r.alpha == pytest.approx(cfg.alpha_at(r.iteration - 1))

    # the ground-state weight grows from near zero to a dominant share
    gs = [r.ground_state_probability for r in rows]
    assert gs[0] < 0.01
    assert gs[-1] > 0.3
    # best-so-far is monotone non-increasing
    best_col = [r.best_energy for r in rows]
    assert all(b <= a for a, b in zip(best_col, best_col[1:]))


@pytest.mark.filterwarnings("error")
def test_optimize_spends_exactly_each_stage_budget(monkeypatch):
    p, _ = reorder(synth_assets(8, 13), "by-return")
    slots = build_for(p.form.spec).num_params
    runs = []  # (logical variables, evaluation budget, evaluations made) per COBYLA run
    original = vqe._cobyla

    def counting_cobyla(fun, x0, rho_beg, rho_end, maxfun):
        calls = []

        def counted(x):
            calls.append(x)
            return fun(x)

        out = original(counted, x0, rho_beg, rho_end, maxfun)
        runs.append((np.size(x0), maxfun, len(calls)))
        return out

    monkeypatch.setattr(vqe, "_cobyla", counting_cobyla)
    # stage 1: one tied angle converges long before its 60 evaluations;
    # stage 2: 3 evaluations are fewer than the nvars + 1 points of COBYLA's simplex
    schedule = CorrelationSchedule(
        counts=(slots, 1), epochs=(60, 3), rho=(0.15 * np.pi, 0.1 * np.pi)
    )
    _, _, rows = optimize(
        p,
        mode="soft",
        theta0=0.75 * np.pi,
        cvar_cfg=CVaRConfig(alpha=0.25, shots=256),
        schedule=schedule,
        seed=9,
    )
    assert len(rows) == sum(schedule.epochs)
    assert [r.epoch for r in rows] == list(range(1, len(rows) + 1))
    assert [sum(1 for r in rows if r.iteration == s + 1) for s in range(2)] == [60, 3]
    first = [run for run in runs if run[0] == 1]
    assert len(first) > 1  # restarted after converging
    # each run is handed what is left of its stage's budget
    assert [budget for _, budget, _ in first] == [60 - sum(r[2] for r in first[:i]) for i in range(len(first))]
    assert sum(made for _, _, made in first) == 60
    assert runs[len(first):] == [(slots, 3, 3)] and slots + 1 > 3  # simplex cut short


def _quadratic(n, seed):
    """A seeded strictly convex quadratic (Hessian eigenvalues in [1, 4])."""
    rng = np.random.default_rng([n, seed])
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    hessian = basis @ np.diag(rng.uniform(1.0, 4.0, n)) @ basis.T
    xstar = rng.uniform(-1.0, 1.0, n)
    calls = []

    def f(x):
        calls.append(np.array(x))
        d = x - xstar
        return float(d @ hessian @ d)

    return f, xstar, calls


@pytest.mark.parametrize("n", [1, 2, 5, 20, 36])
def test_cobyla_reaches_the_minimiser_of_convex_quadratics(n):
    budget = 60 * (n + 1)
    for seed in range(2):
        f, xstar, calls = _quadratic(n, seed)
        x, fx = vqe._cobyla(f, np.zeros(n), 0.5, 1e-5, budget)
        assert len(calls) < budget  # converged, not cut off
        assert np.abs(x - xstar).max() < 1e-3
        assert fx == f(x) == min(f(c) for c in calls[:-1])


def test_cobyla_returns_on_a_constant_function():
    calls = []

    def flat(x):
        calls.append(x)
        return 1.0

    x0 = np.linspace(0.1, 0.5, 5)
    x, fx = vqe._cobyla(flat, x0, 0.5, 1e-4, 10**6)
    assert fx == 1.0 and np.array_equal(x, x0)  # ties keep the earlier point
    assert len(calls) < 200


def test_cobyla_never_evaluates_past_its_budget():
    for budget in range(1, 12):
        f, _, calls = _quadratic(5, 0)
        x, fx = vqe._cobyla(f, np.zeros(5), 0.5, 1e-4, budget)
        assert len(calls) == budget
        assert fx == min(f(c) for c in calls[:budget])


def test_cobyla_runs_are_bitwise_equal():
    f1, _, calls1 = _quadratic(20, 1)
    f2, _, calls2 = _quadratic(20, 1)
    x1, fx1 = vqe._cobyla(f1, np.zeros(20), 0.5, 1e-4, 400)
    x2, fx2 = vqe._cobyla(f2, np.zeros(20), 0.5, 1e-4, 400)
    assert x1.tobytes() == x2.tobytes() and fx1 == fx2
    assert np.array_equal(np.array(calls1), np.array(calls2))


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(vqe.__file__).resolve().parents[1])
    code = "import sys, hwvqe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_optimize_constant_alpha_expectation_descends():
    p, _ = reorder(synth_assets(12, 5, q=0.9), "by-return")
    _, _, rows = optimize(
        p,
        mode="soft",
        theta0=0.7 * np.pi,
        cvar_cfg=CVaRConfig(alpha=0.2, shots=1024),
        schedule=CorrelationSchedule(counts=(4,), epochs=(60,), rho=(0.15 * np.pi,)),
        seed=1,
    )
    expectations = [r.expectation for r in rows]
    assert len(expectations) == 60
    assert plateau_of(expectations) < expectations[0]


def test_optimize_hard_mode_stays_fragment_sized(monkeypatch):
    p, _ = reorder(synth_assets(12, 41, q=0.9), "by-return")
    report = locate.locate_hard(p, p=2)
    largest_fragment = max(f.n for f in report.predicted.fragments())

    sizes = []
    original = qsim.Stack.run

    def spying_run(stack, params):
        # every simulation runs a Stack: qsim.simulate and each fragment product
        sizes.extend(circuit.num_qubits for circuit in stack.circuits)
        return original(stack, params)

    monkeypatch.setattr(qsim.Stack, "run", spying_run)
    best, energy, rows = optimize(
        p,
        mode="hard",
        target=report.predicted,
        theta0=0.8 * np.pi,
        cvar_cfg=CVaRConfig(alpha=0.1, shots=2048),
        schedule=CorrelationSchedule(counts=(1,), epochs=(80,), rho=(0.15 * np.pi,)),
        seed=0,
    )
    assert sizes and max(sizes) <= largest_fragment < p.n
    # one simulation per parameterized fragment per evaluation: the ground-state
    # probability column reads the sampled fragments' amplitudes
    simulated = [f for f in report.predicted.fragments() if 0 < f.k < f.n]
    assert len(sizes) == len(rows) * len(simulated)

    cost = batch_evaluator(p)
    states = np.concatenate(list(enumerate_subansatz_arrays(report.predicted)))
    energies = cost(states)
    cell_best = int(states[np.lexsort((states, energies))[0]])
    assert best.bits == cell_best
    assert energy == pytest.approx(float(energies.min()), abs=1e-12)


def test_optimize_validation():
    p = synth_assets(8, 2)
    cvar_cfg = CVaRConfig(alpha=0.5)
    schedule = CorrelationSchedule(counts=(1,), epochs=(60,), rho=(0.15 * np.pi,))
    with pytest.raises(ValueError):
        optimize(p, cvar_cfg=cvar_cfg, schedule=schedule, mode="hard")  # no target
    with pytest.raises(ValueError):
        optimize(p, cvar_cfg=cvar_cfg, schedule=schedule, mode="warm")
    # a group larger than the slot count acts as the slot count, in the trace too
    slots = build_for(DickeSpec(8, 4)).num_params
    runs = [
        optimize(p, cvar_cfg=cvar_cfg, seed=1,
                 schedule=CorrelationSchedule(counts=(c, 1), epochs=(5, 5), rho=(0.4, 0.4)))[2]
        for c in (99, slots)
    ]
    assert [r.beta for r in runs[0]] == [slots] * 5 + [1] * 5
    assert runs[0] == runs[1]


def test_optimize_keeps_the_smallest_of_tied_samples(monkeypatch):
    # a graph without edges costs every split the offset: every sample ties
    flat = BisectionProblem(n=8, weights=np.zeros((8, 8)), offset=1.5)
    drawn = []
    original = FragmentPreparer.states_of

    def spying_states_of(preparer, cells):
        states = original(preparer, cells)
        drawn.append(states)
        return states

    monkeypatch.setattr(FragmentPreparer, "states_of", spying_states_of)
    # 40 draws over 70 states: the run never tabulates, nor sees every state
    best, energy, rows = optimize(
        flat,
        cvar_cfg=CVaRConfig(alpha=0.5, shots=4),
        schedule=CorrelationSchedule(counts=(1,), epochs=(10,), rho=(0.3,)),
        seed=5,
    )
    sampled = np.concatenate(drawn)
    assert len(drawn) == len(rows) == 10
    assert best.bits == int(sampled.min()) != int(sampled[0])
    assert best.bits != 0b00001111  # the smallest state of the sector went unsampled
    assert energy == 1.5 and all(row.best_energy == 1.5 for row in rows)


def test_optimize_is_deterministic_per_seed():
    p, _ = reorder(synth_assets(8, 13), "by-return")
    kwargs = dict(
        mode="soft",
        theta0=0.75 * np.pi,
        cvar_cfg=CVaRConfig(alpha=0.25, shots=256),
        schedule=CorrelationSchedule(counts=(2,), epochs=(20,), rho=(0.15 * np.pi,)),
    )
    a = optimize(p, seed=9, **kwargs)
    b = optimize(p, seed=9, **kwargs)
    assert a[0].bits == b[0].bits and a[1] == b[1]
    assert [r.expectation for r in a[2]] == [r.expectation for r in b[2]]
    c = optimize(p, seed=10, **kwargs)
    assert [r.expectation for r in a[2]] != [r.expectation for r in c[2]]


# ---------------------------------------------------------------------------
# grid study and plateau summaries
# ---------------------------------------------------------------------------


def test_bounded_cvar_study_shapes_and_clamping():
    table = bounded_cvar_study(
        synth_assets(8, 3), alphas=(0.5,), betas=(2, 40), seeds=(0, 1), epochs=12, shots=256
    )
    slots = build_for(DickeSpec(8, 4)).num_params
    assert sorted(table.keys()) == [(0.5, 2), (0.5, slots)]  # 40 clamps to the slot count
    for traces in table.values():
        assert len(traces) == 2
        assert all(len(t) == 12 for t in traces)


def test_bounded_cvar_study_runs_group_sizes_that_clamp_alike_once(monkeypatch):
    run = []
    optimize_once = vqe.optimize

    def counted(*args, **kwargs):
        run.append(kwargs["schedule"].counts)
        return optimize_once(*args, **kwargs)

    monkeypatch.setattr(vqe, "optimize", counted)
    table = bounded_cvar_study(
        synth_assets(6, 3), alphas=(0.5,), betas=(40, 2, 60), seeds=(0,), epochs=3, shots=16
    )
    slots = build_for(DickeSpec(6, 3)).num_params
    assert list(table) == [(0.5, slots), (0.5, 2)]
    assert run == [(slots,), (2,)]


def test_bounded_cvar_study_rejects_wide_instances():
    # D^26_13: amplitudes plus partner tables above the engine's memory cap
    with pytest.raises(ValueError, match="weight-13 sector of 26 qubits"):
        bounded_cvar_study(
            synth_assets(26, 1), alphas=(0.01, 0.05, 0.1, 0.2), betas=(1, 10, 20, 40),
            seeds=tuple(range(20)), epochs=80,
        )


def test_plateau_estimators():
    trace = [10.0, 8.0, 6.0, 4.0, 2.0, 2.0, 2.0, 2.0]
    assert plateau_of(trace) == 2.0  # final quarter = last two entries
    assert plateau_of(trace, tail=0.5) == 2.0
    # gap 10 - 2 = 8; the first epoch within 0.1 * 8 of the plateau is epoch 5
    assert epochs_to_plateau(trace) == 5
    assert epochs_to_plateau(trace, closeness=0.75) == 2  # 8 - 2 <= 0.75 * 8
    assert epochs_to_plateau([3.0, 3.0, 3.0]) == 1  # no gap to close
    assert epochs_to_plateau([1.0, 2.0, 3.0, 4.0]) == 1  # rising trace


@pytest.mark.parametrize(
    "mode, shots, epochs",
    [
        ("soft", 64, (12, 12)),  # D^12_6: 924 states <= 1536 draws, tabulated
        ("soft", 8, (12, 12)),  # 192 draws: costed per evaluation
        ("hard", 16, (12, 12)),  # a depth-1 cell of 225 states <= 384 draws
        ("hard", 4, (12, 12)),  # 96 draws
    ],
)
def test_tabulated_and_costed_cells_give_the_same_run(mode, shots, epochs, monkeypatch):
    p, _ = reorder(synth_assets(12, 5, q=0.9), "by-return")
    target = SubAnsatzId(p.form.spec, ((4,),)) if mode == "hard" else None
    kwargs = dict(
        mode=mode,
        target=target,
        cvar_cfg=CVaRConfig(alpha=0.2, shots=shots),
        schedule=CorrelationSchedule(counts=(2, 1), epochs=epochs, rho=(0.15 * np.pi, 0.1 * np.pi)),
        seed=3,
    )
    costed = []
    real_cost = p.form
    monkeypatch.setattr(type(p), "form", property(lambda self: _Counting(real_cost, costed)))
    tabulated = optimize(p, **kwargs)
    tabulate_calls = list(costed)
    size = FragmentPreparer(target or SubAnsatzId(p.form.spec, ())).size
    draws = shots * sum(epochs)
    if size <= draws:
        assert tabulate_calls == [size]  # the whole cell once, nothing per evaluation
    else:
        assert len(tabulate_calls) == sum(epochs)

    costed.clear()
    monkeypatch.setattr(FragmentPreparer, "tabulate", lambda self, cost, draws: False)
    assert optimize(p, **kwargs) == tabulated
    assert len(costed) == sum(epochs)


class _Counting:
    """A cost form that records the size of every batch it costs."""

    def __init__(self, form, log):
        self.form, self.log = form, log

    def __getattr__(self, name):
        return getattr(self.form, name)

    def __call__(self, states):
        self.log.append(len(states))
        return self.form(states)
