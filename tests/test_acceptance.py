"""Acceptance gate: ten end-to-end properties, one test (= one verdict line) each.

Each test is self-contained and asserts the property at its stated tolerance;
the criteria with runtime budgets also assert elapsed wall time.
"""

import json
import math
import time

import numpy as np

from hwvqe import locate, qsim, vqe
from hwvqe.ansatz import DickeSpec, build_for, build_straight, reachability_params
from hwvqe.cli import main
from hwvqe.partition import (
    PartitionTree,
    SubAnsatzId,
    bitstrings_of_weight,
    child_count,
    enumerate_subansatz_arrays,
    loose_bound_closed,
    loose_bound_product,
    subansatz_basis_count,
)
from hwvqe.problem import (
    PortfolioProblem,
    batch_evaluator,
    cost_binary,
    reorder,
    synth_assets,
    to_ising,
)
from hwvqe.qsim import BasisState, hamming_weight_array


def test_criterion_01_support_and_reachability():
    started = time.monotonic()
    rng = np.random.default_rng(7)

    # every weight-k state appears in the prepared superposition
    for n in range(2, 13):
        idx = np.arange(1 << n, dtype=np.int64)
        weights = hamming_weight_array(idx)
        for k in range(1, n):
            circuit = build_for(DickeSpec(n, k))
            psi = qsim.simulate(circuit, rng.uniform(0.05, np.pi - 0.05, circuit.num_params))
            probs = np.abs(psi.amplitudes) ** 2
            populated = probs > 1e-20
            assert np.all(weights[populated] == k), f"support leaked outside weight {k} (n={n})"
            assert populated.sum() == math.comb(n, k), f"incomplete support for D^{n}_{k}"

    # every individual target is reachable with unit probability
    for n in range(2, 9):
        for k in range(1, n):
            spec = DickeSpec(n, k)
            circuit = build_for(spec)
            for target in bitstrings_of_weight(n, k):
                params = reachability_params(spec, int(target))
                psi = qsim.simulate(circuit, params)
                prob = float(np.abs(psi.amplitudes[int(target)]) ** 2)
                assert prob >= 1 - 1e-10, f"D^{n}_{k} target {int(target):0{n}b}: {prob}"

    assert time.monotonic() - started <= 60.0


def _pair_rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]], dtype=np.complex128
    )


def _kron_reference(circuit, params: np.ndarray) -> np.ndarray:
    n = circuit.num_qubits
    U = np.eye(1 << n, dtype=np.complex128)
    X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    for q in circuit.x_placements:
        op = np.kron(np.kron(np.eye(1 << (n - 1 - q)), X), np.eye(1 << q))
        U = op @ U
    for upper, lower, slot in circuit.blocks:
        op = np.kron(
            np.kron(np.eye(1 << (n - 2 - lower)), _pair_rotation(params[slot])),
            np.eye(1 << lower),
        )
        U = op @ U
    for q in circuit.post_x:
        op = np.kron(np.kron(np.eye(1 << (n - 1 - q)), X), np.eye(1 << q))
        U = op @ U
    return U


def _engine_unitary(circuit, params: np.ndarray) -> np.ndarray:
    dim = 1 << circuit.num_qubits
    U = np.zeros((dim, dim), dtype=np.complex128)
    for column in range(dim):
        out = qsim.apply_circuit(qsim.init_basis(circuit.num_qubits, column), circuit, params)
        U[:, column] = out.amplitudes
    return U


def test_criterion_02_four_qubit_matrix_oracle():
    rng = np.random.default_rng(11)
    circuit = build_straight(DickeSpec(4, 2))
    for _ in range(20):
        params = rng.uniform(0.0, np.pi, circuit.num_params)
        diff = np.abs(_engine_unitary(circuit, params) - _kron_reference(circuit, params))
        assert diff.max() <= 1e-12

    # five-term expansion of the prepared state: exact values and signs
    for _ in range(10):
        t1, t2, t3 = rng.uniform(0.1, np.pi - 0.1, 3)
        c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
        c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
        c3, s3 = math.cos(t3 / 2), math.sin(t3 / 2)
        psi = qsim.simulate(circuit, np.array([t1, t2, t3]))
        expected = {
            0b0011: c1 * s2,
            0b0101: c1 * c2 * c3,
            0b0110: -c1 * c2 * s3,
            0b1001: -s1 * c3,
            0b1010: s1 * s3,
        }
        for bits in range(16):
            want = expected.get(bits, 0.0)
            got = psi.amplitudes[bits]
            assert abs(got - want) <= 1e-12
            if want:
                assert math.copysign(1.0, got.real) == math.copysign(1.0, want)
        assert abs(psi.amplitudes[0b1100]) <= 1e-12  # the missing sixth state


def test_criterion_03_partition_structure():
    # one recursion level tiles the balanced weight sector exactly
    for n in range(4, 17, 2):
        spec = DickeSpec(n, n // 2)
        seen = []
        for ordinal in range(child_count(spec)):
            sa = SubAnsatzId(spec, ((ordinal,),))
            seen.append(np.concatenate(list(enumerate_subansatz_arrays(sa))))
        union = np.concatenate(seen)
        assert len(union) == math.comb(n, n // 2)
        assert len(np.unique(union)) == len(union)  # pairwise disjoint
        assert np.array_equal(np.sort(union), bitstrings_of_weight(n, n // 2))

    # full-depth recursion shatters the sector into singleton cells
    for n in (4, 8):
        spec = DickeSpec(n, n // 2)
        tree = PartitionTree(spec, int(math.log2(n)))
        leaves = list(tree.ids())
        assert len(leaves) == math.comb(n, n // 2)
        assert all(subansatz_basis_count(leaf) == 1 for leaf in leaves)
        states = sorted(int(next(iter(enumerate_subansatz_arrays(leaf)))[0]) for leaf in leaves)
        assert states == [int(b) for b in bitstrings_of_weight(n, n // 2)]

    # the recursion-count bound: running product equals its closed form
    for n in (8, 16, 32, 64):
        for p in (1, 2, 3):
            assert loose_bound_product(n, p) == loose_bound_closed(n, p), (n, p)


def test_criterion_04_binary_spin_energy_equivalence():
    checked = 0
    for n in (4, 6, 8, 10, 12):
        states = bitstrings_of_weight(n, n // 2)
        for seed in range(10):
            p = synth_assets(n, 100 * n + seed)
            ising = to_ising(p)
            for bits in states:
                x = np.array([(int(bits) >> i) & 1 for i in range(n)], dtype=np.float64)
                z = 1.0 - 2.0 * x
                spin = ising.energy_spin(z) + ising.constant
                binary = cost_binary(p, int(bits))
                assert abs(spin - binary) <= 1e-9
                checked += 1
    assert checked == sum(10 * math.comb(n, n // 2) for n in (4, 6, 8, 10, 12))


def test_criterion_05_ground_states_lean_right():
    started = time.monotonic()
    states = bitstrings_of_weight(12, 6).astype(np.int64)
    lean_right = 0
    for seed in range(200):
        p, _ = reorder(synth_assets(12, seed), "by-return")  # q = 0.9 <= 1
        energies = batch_evaluator(p)(states)
        best = int(states[np.lexsort((states, energies))[0]])
        index = ((best >> 6) & 0x3F).bit_count()
        lean_right += index > 3  # strictly right of n/4
    rate = lean_right / 200
    print(f"\nright-bias rate {rate:.4f} ({lean_right}/200)")
    assert rate >= 0.90
    assert time.monotonic() - started <= 300.0


def test_criterion_06_locator_end_to_end():
    started = time.monotonic()
    states = bitstrings_of_weight(16, 8).astype(np.int64)
    locate_hits, hybrid_hits = [], []
    for seed in range(3000, 3100):
        p, _ = reorder(synth_assets(16, seed), "by-return")
        cost = batch_evaluator(p)
        energies = cost(states)
        best = int(states[np.lexsort((states, energies))[0]])

        report = locate.locate_hard(p, p=2)
        locate_hits.append(report.candidate_bits == best)
        refined, _, _ = locate.greedy_bitstring(
            cost, BasisState(report.candidate_bits, 16), restarts=2, seed=seed
        )
        hybrid_hits.append(refined.bits == best)

    rate = sum(hybrid_hits) / len(hybrid_hits)
    print(f"\nhybrid exact-recovery rate {rate:.2f} ({sum(hybrid_hits)}/100)")
    assert rate >= 0.80
    for batch in range(0, 100, 20):
        assert sum(hybrid_hits[batch : batch + 20]) >= sum(locate_hits[batch : batch + 20])
    assert time.monotonic() - started <= 600.0


def test_criterion_07_forty_qubit_hard_mode(monkeypatch):
    started = time.monotonic()
    simulated_sizes = []
    original = qsim.Stack.run

    def spying_run(stack, params):
        # every simulation runs a Stack: qsim.simulate and each fragment product
        simulated_sizes.extend(circuit.num_qubits for circuit in stack.circuits)
        return original(stack, params)

    monkeypatch.setattr(qsim.Stack, "run", spying_run)

    def solve_hard(problem, seed):
        report = locate.locate_hard(problem, p=2, refine=True, seed=seed)
        slots = sum(
            build_for(f).num_params for f in report.predicted.fragments() if 0 < f.k < f.n
        )
        best, _, _ = vqe.optimize(
            problem,
            mode="hard",
            target=report.predicted,
            theta0=0.8 * np.pi,
            cvar_cfg=vqe.CVaRConfig(alpha=0.1, shots=1024),
            schedule=vqe.CorrelationSchedule(
                counts=(min(4, slots), 1), epochs=(30, 40), rho=(0.15 * np.pi, 0.1 * np.pi)
            ),
            seed=seed,
        )
        cost = batch_evaluator(problem)
        refined, energy, _ = locate.greedy_bitstring(cost, best, restarts=2, seed=seed)
        if report.candidate_energy < energy:
            refined = BasisState(report.candidate_bits, 40)
            energy = report.candidate_energy
        return refined, energy, cost

    # a generic instance: completes, stays fragment-sized, ends locally optimal
    p, _ = reorder(synth_assets(40, 1000, budget=20), "by-return")
    solution, energy, cost = solve_hard(p, seed=0)
    assert simulated_sizes and max(simulated_sizes) <= 10
    assert solution.weight == 20
    neighbors = np.array(
        [
            solution.bits - (1 << i) + (1 << j)
            for i in range(40)
            if (solution.bits >> i) & 1
            for j in range(40)
            if not (solution.bits >> j) & 1
        ],
        dtype=np.int64,
    )
    assert cost(neighbors).min() >= energy  # one-swap local optimality

    # a planted optimum (dominant returns) is recovered exactly
    ones_at = list(range(30, 39)) + list(range(21, 29)) + [12, 15, 3]
    planted_bits = sum(1 << i for i in ones_at)
    mu = np.zeros(40)
    mu[ones_at] = 0.05
    planted = PortfolioProblem(n=40, q=0.9, A=np.eye(40) * 1e-6, mu=mu, budget=20)
    solution, _, _ = solve_hard(planted, seed=0)
    assert solution.bits == planted_bits
    assert max(simulated_sizes) <= 10
    assert time.monotonic() - started <= 600.0


def test_criterion_08_cvar_grouping_study():
    slots = build_for(DickeSpec(16, 8)).num_params
    table = vqe.bounded_cvar_study(
        reorder(synth_assets(16, 2000, q=3.0), "by-return")[0],
        alphas=(0.01, 0.2),
        betas=(1, 10, slots),
        seeds=tuple(range(20)),
        epochs=160,
    )

    def stats(alpha, beta):
        traces = table[(alpha, beta)]
        plateaus = np.array([vqe.plateau_of(t) for t in traces])
        speeds = np.array([vqe.epochs_to_plateau(t) for t in traces])
        return plateaus, speeds

    # tight tail: grouping makes no resolvable difference (IQRs overlap)
    tight_small, _ = stats(0.01, 1)
    tight_large, _ = stats(0.01, slots)
    lo1, hi1 = np.percentile(tight_small, [25, 75])
    lo2, hi2 = np.percentile(tight_large, [25, 75])
    assert max(lo1, lo2) <= min(hi1, hi2), "alpha=0.01 plateau IQRs should overlap"

    # wide tail: full freedom plateaus at least as low as fully-tied angles
    wide_small, speed_small_wide = stats(0.2, 1)
    wide_large, speed_large_wide = stats(0.2, slots)
    assert np.median(wide_small) <= np.median(wide_large)

    # heavier tying reaches its own plateau sooner, at both tail widths
    _, speed_small_tight = stats(0.01, 1)
    _, speed_large_tight = stats(0.01, slots)
    assert np.median(speed_large_tight) < np.median(speed_small_tight)
    assert np.median(speed_large_wide) < np.median(speed_small_wide)


def test_criterion_09_metrics_oracle():
    spec = DickeSpec(18, 9)
    grid = np.linspace(0.0, np.pi, 21)
    metrics = vqe.ratio_variance_curves(spec, grid)

    assert np.abs(metrics.ratios.sum(axis=1) - 1.0).max() <= 1e-10
    assert abs(metrics.ratios[0, 4] - 1.0) <= 1e-12  # theta=0 mass sits at index 4

    circuit = build_for(spec)
    states = bitstrings_of_weight(18, 9).astype(np.int64)
    upper = hamming_weight_array(states >> 9)
    worst = 0.0
    for g, theta in enumerate(grid):
        psi = qsim.simulate(circuit, np.full(circuit.num_params, theta))
        probs = np.abs(psi.amplitudes[states]) ** 2
        for i in range(10):
            cell = probs[upper == i]
            worst = max(worst, abs(float(cell.sum()) - metrics.ratios[g, i]))
            worst = max(worst, abs(float(np.var(cell)) - metrics.variances[g, i]))
    print(f"\nmetrics statevector-vs-enumeration max deviation {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_10_deterministic_artifacts(tmp_path):
    config = tmp_path / "det.json"
    config.write_text(
        json.dumps(
            {
                "problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "q": 0.9, "budget": 5},
                "mode": "soft",
                "reorder": "by-return",
                "cvar": {"alpha_start": 0.05, "alpha_cap": 1.0, "shots": 512},
                "schedule": {"counts": [4, 1], "epochs": [12, 16], "rho_pi": [0.15, 0.1]},
                "seed": 3,
            }
        )
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    for name in ("solution.json", "trace.csv", "locate.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
