"""Statevector engine: pair-rotation action, sampling, weight bookkeeping."""

import math

import numpy as np
import pytest

from hwvqe import qsim
from hwvqe.ansatz import DickeSpec, build_folded, build_straight
from hwvqe.qsim import (
    BasisState,
    MAX_QUBITS,
    StateVector,
    apply_circuit,
    apply_v_block,
    hamming_weight_array,
    init_basis,
    probability_of,
    sample,
    simulate,
    support,
)


def test_pair_rotation_matrix_action():
    # on the pair subspace: |01> -> c|01> - s|10>, |10> -> s|01> + c|10>
    theta = 1.1
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    out01 = apply_v_block(init_basis(2, 0b01), 1, 0, theta).amplitudes
    assert np.allclose(out01, [0, c, -s, 0], atol=1e-15)
    out10 = apply_v_block(init_basis(2, 0b10), 1, 0, theta).amplitudes
    assert np.allclose(out10, [0, s, c, 0], atol=1e-15)


def test_pair_rotation_fixes_even_weight_pair_states():
    for bits in (0b00, 0b11):
        out = apply_v_block(init_basis(2, bits), 1, 0, 2.3).amplitudes
        expected = np.zeros(4)
        expected[bits] = 1.0
        assert np.allclose(out, expected, atol=1e-15)


def test_pair_rotation_preserves_norm_and_weight(rng):
    n = 5
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    s = StateVector(n, amps.copy())
    for lower in range(n - 1):
        s = apply_v_block(s, lower + 1, lower, rng.uniform(0, 2 * math.pi))
    assert abs(s.norm_sq() - 1.0) < 1e-12
    # weight sectors never mix: total probability per weight is invariant
    idx = np.arange(1 << n, dtype=np.int64)
    w = hamming_weight_array(idx)
    before = np.bincount(w, weights=np.abs(amps) ** 2, minlength=n + 1)
    after = np.bincount(w, weights=np.abs(s.amplitudes) ** 2, minlength=n + 1)
    assert np.allclose(before, after, atol=1e-12)


def test_pair_rotation_rejects_non_adjacent_pairs():
    s = init_basis(3, 0)
    with pytest.raises(ValueError):
        apply_v_block(s, 2, 0, 0.5)
    with pytest.raises(ValueError):
        apply_v_block(s, 3, 2, 0.5)


def test_basis_state_validation_weight_and_text():
    b = BasisState(0b0101, 4)
    assert b.weight == 2
    assert b.to_string() == "0101"
    assert str(b) == "0101"
    assert int(b) == 5  # __index__
    with pytest.raises(ValueError):
        BasisState(16, 4)
    with pytest.raises(ValueError):
        BasisState(-1, 4)


def test_hamming_weight_array_matches_bit_count(rng):
    vals = rng.integers(0, 1 << 52, size=500, dtype=np.int64)
    vals = np.concatenate([vals, [0, 1, (1 << 26) - 1, (1 << 52) - 1]])
    expected = np.array([int(v).bit_count() for v in vals])
    assert np.array_equal(hamming_weight_array(vals), expected)


def test_init_basis_and_range_checks():
    s = init_basis(3, BasisState(0b101, 3))
    assert probability_of(s, 0b101) == 1.0
    with pytest.raises(ValueError):
        init_basis(3, 8)
    with pytest.raises(ValueError):
        init_basis(MAX_QUBITS + 1, 0)
    with pytest.raises(ValueError):
        init_basis(0, 0)


def test_simulate_keeps_support_in_one_weight_sector(rng):
    spec = DickeSpec(6, 2)
    circuit = build_straight(spec)
    psi = simulate(circuit, rng.uniform(0, 2 * math.pi, size=circuit.num_params))
    assert abs(psi.norm_sq() - 1.0) < 1e-12
    for bits in support(psi):
        assert int(bits).bit_count() == 2


def test_apply_circuit_equals_simulate_from_zero(rng):
    spec = DickeSpec(5, 2)
    circuit = build_folded(spec)
    params = rng.uniform(0, 2 * math.pi, size=circuit.num_params)
    via_apply = apply_circuit(init_basis(5, 0), circuit, params)
    via_simulate = simulate(circuit, params)
    assert np.allclose(via_apply.amplitudes, via_simulate.amplitudes, atol=1e-15)


def test_simulate_rejects_wrong_parameter_count():
    circuit = build_straight(DickeSpec(4, 2))
    with pytest.raises(ValueError):
        simulate(circuit, [0.1] * (circuit.num_params + 1))


def test_sample_reproducible_and_postselected(rng):
    spec = DickeSpec(6, 3)
    circuit = build_folded(spec)
    psi = simulate(circuit, rng.uniform(0, 2 * math.pi, size=circuit.num_params))
    a = sample(psi, 200, seed=9)
    b = sample(psi, 200, seed=9)
    assert a == b
    assert sum(a.values()) == 200
    with pytest.raises(ValueError):
        sample(psi, 0)


def test_sample_frequencies_track_born_rule():
    # |+>-like two-state superposition: frequencies near 1/2 each
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b01] = amps[0b10] = 1 / math.sqrt(2)
    counts = sample(StateVector(2, amps), 20_000, seed=0)
    assert set(counts) == {0b01, 0b10}
    assert abs(counts[0b01] / 20_000 - 0.5) < 0.02


def test_kernels_match_dense_matrix_reference(rng):
    # each kernel against the full 2^n x 2^n matrix of its gate, built from the rule
    n = 6
    dim = 1 << n
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    for lower in range(n - 1):
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        matrix = np.eye(dim)
        for b in range(dim):
            pair = (b >> lower) & 0b11  # 2*bit(lower+1) + bit(lower)
            if pair in (0b01, 0b10):
                partner = b ^ (0b11 << lower)
                matrix[b, b] = c
                matrix[partner, b] = -s if pair == 0b01 else s
        out = amps.copy()
        qsim._kernel_v(out, lower, c, s)
        assert np.allclose(out, matrix @ amps, atol=1e-15)
    for q in range(n):
        out = amps.copy()
        qsim._kernel_x(out, q)
        flipped = np.arange(dim) ^ (1 << q)
        assert np.array_equal(out, amps[flipped])
