"""Circuit builders: matrix oracles, support completeness, reachability."""

import math

import numpy as np
import pytest

from conftest import sparse_simulate
from hwvqe.ansatz import (
    Circuit,
    DickeSpec,
    build_folded,
    build_for,
    build_straight,
    circuit_to_text,
    conjugate_form,
    reachability_params,
)
from hwvqe.partition import bitstrings_of_weight
from hwvqe.qsim import apply_circuit, init_basis, probability_of, simulate, support


def _pair_rotation_4x4(theta):
    """Reference 4x4 on |q_hi q_lo>: odd-weight block rotated, even fixed."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, -s, c, 0],
            [0, 0, 0, 1],
        ]
    )


def _reference_unitary(circuit, params):
    """Assemble the full matrix from Kronecker products, blocks in order."""
    n = circuit.num_qubits
    X = np.array([[0, 1], [1, 0]])
    U = np.eye(1 << n)
    for q in circuit.x_placements:
        M = np.kron(np.kron(np.eye(1 << (n - 1 - q)), X), np.eye(1 << q))
        U = M @ U
    for upper, lower, slot in circuit.blocks:
        V = _pair_rotation_4x4(params[slot])
        M = np.kron(np.kron(np.eye(1 << (n - 2 - lower)), V), np.eye(1 << lower))
        U = M @ U
    for q in circuit.post_x:
        M = np.kron(np.kron(np.eye(1 << (n - 1 - q)), X), np.eye(1 << q))
        U = M @ U
    return U


def _assembled_unitary(circuit, params):
    """Columns = engine's image of each basis state (no X layers re-applied)."""
    n = circuit.num_qubits
    U = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for b in range(1 << n):
        U[:, b] = apply_circuit(init_basis(n, b), circuit, params).amplitudes
    return U


def test_straight_four_qubit_unitary_matches_kron_reference(rng):
    circuit = build_straight(DickeSpec(4, 2))
    for _ in range(20):
        params = rng.uniform(0, 2 * math.pi, size=circuit.num_params)
        assembled = _assembled_unitary(circuit, params)
        reference = _reference_unitary(circuit, params)
        assert np.max(np.abs(assembled - reference)) <= 1e-12


def test_straight_d42_five_term_expansion(rng):
    # |0101> through blocks (3,2),(2,1),(1,0) expands to exactly five terms:
    #   c1*s2 |0011> + c1*c2*c3 |0101> - c1*c2*s3 |0110>
    #   - s1*c3 |1001> + s1*s3 |1010>,   |1100> never appears.
    circuit = build_straight(DickeSpec(4, 2))
    assert circuit.x_placements == (2, 0)
    for _ in range(10):
        t1, t2, t3 = rng.uniform(0, 2 * math.pi, size=3)
        c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
        c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
        c3, s3 = math.cos(t3 / 2), math.sin(t3 / 2)
        expected = {
            0b0011: c1 * s2,
            0b0101: c1 * c2 * c3,
            0b0110: -c1 * c2 * s3,
            0b1001: -s1 * c3,
            0b1010: s1 * s3,
        }
        psi = simulate(circuit, [t1, t2, t3])
        assert abs(psi.amplitudes[0b1100]) <= 1e-15
        for bits, amp in expected.items():
            assert abs(psi.amplitudes[bits] - amp) <= 1e-12


def test_folded_d42_six_term_expansion(rng):
    # |0101> through blocks (3,2),(1,0),(2,1) covers all six weight-2 states:
    #   c1*c2*s3 |0011> + c1*c2*c3 |0101> - c1*s2 |0110>
    #   - s1*c2 |1001> + s1*s2*c3 |1010> - s1*s2*s3 |1100>
    circuit = build_folded(DickeSpec(4, 2))
    assert [(u, l) for u, l, _ in circuit.blocks] == [(3, 2), (1, 0), (2, 1)]
    for _ in range(10):
        t1, t2, t3 = rng.uniform(0, 2 * math.pi, size=3)
        c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
        c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
        c3, s3 = math.cos(t3 / 2), math.sin(t3 / 2)
        expected = {
            0b0011: c1 * c2 * s3,
            0b0101: c1 * c2 * c3,
            0b0110: -c1 * s2,
            0b1001: -s1 * c2,
            0b1010: s1 * s2 * c3,
            0b1100: -s1 * s2 * s3,
        }
        psi = simulate(circuit, [t1, t2, t3])
        for bits, amp in expected.items():
            assert abs(psi.amplitudes[bits] - amp) <= 1e-12


def test_dense_engine_matches_sparse_reference(rng):
    for spec in (DickeSpec(6, 3), DickeSpec(5, 2), DickeSpec(5, 4), DickeSpec(7, 5)):
        circuit = build_for(spec)
        params = rng.uniform(0, 2 * math.pi, size=circuit.num_params)
        dense = simulate(circuit, params).amplitudes
        sparse = sparse_simulate(circuit, params)
        for b in range(1 << spec.n):
            assert abs(dense[b] - sparse.get(b, 0.0)) <= 1e-12


def test_folded_block_count_formula():
    for n, k in [(4, 2), (8, 3), (12, 6), (16, 8), (9, 4)]:
        circuit = build_folded(DickeSpec(n, k))
        assert circuit.num_params == sum(min(s, k) for s in range(1, n - k + 1))


def test_folded_support_complete_random_theta(rng):
    for n, k in [(6, 3), (8, 2), (8, 4), (10, 5)]:
        circuit = build_folded(DickeSpec(n, k))
        psi = simulate(circuit, rng.uniform(0.3, 2.8, size=circuit.num_params))
        assert support(psi, eps=1e-14) == set(
            int(b) for b in bitstrings_of_weight(n, k)
        )


def test_straight_support_incomplete_above_weight_one():
    # the single staircase reaches only a 5-of-6 subset at (4, 2)
    circuit = build_straight(DickeSpec(4, 2))
    psi = simulate(circuit, [1.0, 1.1, 1.2])
    assert 0b1100 not in support(psi)
    assert len(support(psi)) == 5


def test_conjugate_form_covers_high_weight(rng):
    spec = DickeSpec(5, 4)
    circuit = conjugate_form(spec)
    assert circuit.post_x == (0, 1, 2, 3, 4)
    psi = simulate(circuit, rng.uniform(0.3, 2.8, size=circuit.num_params))
    assert support(psi, eps=1e-14) == set(int(b) for b in bitstrings_of_weight(5, 4))


def test_build_for_dispatch_and_validation():
    assert build_for(DickeSpec(6, 3)).structure == "folded"
    assert build_for(DickeSpec(6, 4)).structure == "conjugate"
    with pytest.raises(ValueError):
        build_folded(DickeSpec(4, 3))
    with pytest.raises(ValueError):
        build_straight(DickeSpec(4, 0))
    with pytest.raises(ValueError):
        build_straight(DickeSpec(4, 4))
    with pytest.raises(ValueError, match="1 <= k <= n/2"):
        build_straight(DickeSpec(3, 2))  # its flips would be on qubits 1 and -1
    with pytest.raises(ValueError, match="X on qubit -1"):
        Circuit(3, 1, "straight", (-1,), ())
    with pytest.raises(ValueError):
        conjugate_form(DickeSpec(6, 3))
    with pytest.raises(ValueError):
        DickeSpec(4, 5)


def test_conjugate_of_full_weight_is_pure_flip():
    circuit = conjugate_form(DickeSpec(3, 3))
    assert circuit.num_params == 0
    psi = simulate(circuit, [])
    assert probability_of(psi, 0b111) == 1.0


def test_reachability_every_weight_three_state_of_six():
    spec = DickeSpec(6, 3)
    circuit = build_for(spec)
    for bits in bitstrings_of_weight(6, 3):
        params = reachability_params(spec, int(bits))
        assert set(np.unique(params)) <= {0.0, math.pi}
        psi = simulate(circuit, params)
        assert probability_of(psi, int(bits)) >= 1 - 1e-10


def test_reachability_rejects_wrong_weight():
    with pytest.raises(ValueError):
        reachability_params(DickeSpec(6, 3), 0b110011)


def test_circuit_to_text_writes_the_exact_format():
    # header "n k structure", an "x q" line per initial flip, then
    # "upper lower slot" per block; the conjugate's trailing X layer is implied
    folded = (
        "6 2 folded\n"
        "x 4\nx 2\n"
        "5 4 0\n3 2 1\n4 3 2\n2 1 3\n3 2 4\n1 0 5\n2 1 6\n"
    )
    assert circuit_to_text(build_for(DickeSpec(6, 2))) == folded
    conjugate = "5 4 conjugate\nx 3\n4 3 0\n3 2 1\n2 1 2\n1 0 3\n"
    assert circuit_to_text(build_for(DickeSpec(5, 4))) == conjugate


def test_circuit_rejects_bad_blocks():
    with pytest.raises(ValueError):
        Circuit(4, 2, "straight", (), ((3, 1, 0),))
    with pytest.raises(ValueError):
        Circuit(4, 2, "straight", (), ((4, 3, 0),))
