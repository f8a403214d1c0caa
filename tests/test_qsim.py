"""Weight-sector engine: pair-rotation action, sampling, weight bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sparse_simulate

from hwvqe import qsim
from hwvqe.ansatz import Circuit, DickeSpec, build_folded, build_for, build_straight, conjugate_form
from hwvqe.qsim import (
    MAX_ENGINE_BYTES,
    MAX_PACKED_QUBITS,
    BasisState,
    StateVector,
    apply_circuit,
    bitstrings_of_weight,
    check_engine_memory,
    draw,
    hamming_weight_array,
    init_basis,
    probability_of,
    sample,
    simulate,
    support,
)


def _rotate_pair(state, lower, theta):
    """The pair rotation on (lower + 1, lower), as a one-block circuit."""
    block = Circuit(state.num_qubits, 1, "straight", (), ((lower + 1, lower, 0),))
    return apply_circuit(state, block, [theta])


def test_pair_rotation_matrix_action():
    # on the pair subspace: |01> -> c|01> - s|10>, |10> -> s|01> + c|10>
    theta = 1.1
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    out01 = _rotate_pair(init_basis(2, 0b01), 0, theta).amplitudes
    assert np.allclose(out01, [0, c, -s, 0], atol=1e-15)
    out10 = _rotate_pair(init_basis(2, 0b10), 0, theta).amplitudes
    assert np.allclose(out10, [0, s, c, 0], atol=1e-15)


def test_pair_rotation_fixes_even_weight_pair_states():
    for bits in (0b00, 0b11):
        out = _rotate_pair(init_basis(2, bits), 0, 2.3).amplitudes
        expected = np.zeros(4)
        expected[bits] = 1.0
        assert np.allclose(out, expected, atol=1e-15)


def test_pair_rotation_preserves_norm_and_weight(rng):
    n = 5
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    s = StateVector(n, np.arange(1 << n), amps.copy())
    for lower in range(n - 1):
        s = _rotate_pair(s, lower, rng.uniform(0, 2 * math.pi))
    assert abs(s.norm_sq() - 1.0) < 1e-12
    # weight sectors never mix: total probability per weight is invariant
    idx = np.arange(1 << n, dtype=np.int64)
    w = hamming_weight_array(idx)
    before = np.bincount(w, weights=np.abs(amps) ** 2, minlength=n + 1)
    after = np.bincount(w, weights=np.abs(s.amplitudes) ** 2, minlength=n + 1)
    assert np.allclose(before, after, atol=1e-12)


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
        init_basis(MAX_PACKED_QUBITS + 1, 0)
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
    # D^40_1: 40 states, whose dense view (2^40 amplitudes) is never built
    for circuit in (build_folded(DickeSpec(5, 2)), build_for(DickeSpec(40, 1))):
        params = rng.uniform(0, 2 * math.pi, size=circuit.num_params)
        via_apply = apply_circuit(init_basis(circuit.num_qubits, 0), circuit, params)
        via_simulate = simulate(circuit, params)
        assert np.array_equal(via_apply.states, via_simulate.states)
        assert np.allclose(via_apply.values, via_simulate.values, atol=1e-15)


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
    counts = sample(StateVector(2, np.arange(4), amps), 20_000, seed=0)
    assert set(counts) == {0b01, 0b10}
    assert abs(counts[0b01] / 20_000 - 0.5) < 0.02


def test_draw_equals_generator_choice(rng):
    # the inverse-CDF draw consumes the stream and picks exactly as numpy's choice does
    circuit = build_folded(DickeSpec(10, 4))
    psi = simulate(circuit, rng.uniform(0, 2 * math.pi, size=circuit.num_params))
    p = np.abs(psi.values) ** 2
    p /= p.sum()
    for seed in range(50):
        picks = np.random.default_rng(seed).choice(len(p), size=1000, p=p)
        assert np.array_equal(draw(psi, 1000, np.random.default_rng(seed)), psi.states[picks])


def test_draw_never_picks_a_zero_probability_state():
    values = np.array([0.0, 0.0, 0.6, 0.0, -0.0, 0.8, 1e-300, 0.0, 0.0])
    states = np.arange(len(values), dtype=np.int64) * 3
    picks = draw(StateVector(5, states=states, values=values), 20_000, np.random.default_rng(3))
    assert set(picks.tolist()) == {6, 15}


def test_kernels_match_dense_matrix_reference(rng):
    # one-block circuits and the X layers of apply_circuit against the full 2^n x 2^n
    # matrix of each gate, built from the rule, on a state spanning every weight
    n = 6
    dim = 1 << n
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    state = StateVector(n, np.arange(dim), amps.copy())
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
        out = _rotate_pair(state, lower, theta).amplitudes
        assert np.allclose(out, matrix @ amps, atol=1e-15)
    assert np.array_equal(state.amplitudes, amps)  # the input is left as it was
    for q in range(n):
        matrix = np.eye(dim)[np.arange(dim) ^ (1 << q)]
        for flip in (Circuit(n, 1, "straight", (q,), ()), Circuit(n, 1, "straight", (), (), post_x=(q,))):
            assert np.array_equal(apply_circuit(state, flip, []).amplitudes, matrix @ amps)


def test_simulate_tracks_only_the_weight_sector():
    # D^28_1: 28 states, far below the engine cap; the dense view keeps its own 2^n limit
    circuit = build_for(DickeSpec(28, 1))
    psi = simulate(circuit, np.full(circuit.num_params, 1.1))
    assert psi.states.tolist() == [1 << q for q in range(28)]
    assert abs(psi.norm_sq() - 1.0) < 1e-12
    assert sum(probability_of(psi, 1 << q) for q in range(28)) == pytest.approx(1.0, abs=1e-12)
    assert probability_of(psi, 0b11) == 0.0
    with pytest.raises(ValueError, match=r"2\^28 amplitudes"):
        psi.amplitudes


def test_engine_memory_cap_refuses_large_sectors_before_allocating():
    # D^28_14: 40,116,600 states, whose amplitudes and partner tables need about 4.8 GB
    circuit = build_for(DickeSpec(28, 14))
    assert 8 * math.comb(28, 14) < MAX_ENGINE_BYTES  # the amplitudes alone would fit
    with pytest.raises(ValueError, match=r"weight-14 sector of 28 qubits has 40116600 states"):
        check_engine_memory(circuit)
    with pytest.raises(ValueError, match=r"40116600 states and needs \d+ MiB"):
        simulate(circuit, np.zeros(circuit.num_params))
    # apply_circuit rotates the same sector, under the same cap
    with pytest.raises(ValueError, match=r"40116600 states and needs \d+ MiB"):
        apply_circuit(init_basis(28, 0), circuit, np.zeros(circuit.num_params))


@st.composite
def _circuit_params_start(draw):
    n = draw(st.integers(2, 12))
    structure = draw(st.sampled_from(["straight", "folded", "conjugate"]))
    if structure == "straight":
        circuit = build_straight(DickeSpec(n, draw(st.integers(1, n // 2))))
    elif structure == "folded":
        circuit = build_folded(DickeSpec(n, draw(st.integers(1, n // 2))))
    else:
        circuit = conjugate_form(DickeSpec(n, draw(st.integers(n // 2 + 1, n))))
    angle = st.floats(0.0, 2 * math.pi, allow_nan=False)
    params = draw(st.lists(angle, min_size=circuit.num_params, max_size=circuit.num_params))
    return circuit, np.array(params, dtype=np.float64), draw(st.integers(0, (1 << n) - 1))


def _assert_matches_reference(amps, reference, weight):
    n = amps.size.bit_length() - 1
    nonzero = {b for b, a in reference.items() if abs(a) ** 2 > 1e-24}
    assert support(StateVector(n, np.arange(1 << n), amps), eps=1e-24) == nonzero
    for b, a in reference.items():
        assert abs(amps[b] - a) <= 1e-12
    outside = hamming_weight_array(np.arange(1 << n)) != weight
    assert np.all(amps[outside] == 0.0)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(case=_circuit_params_start())
def test_engine_matches_sparse_reference(case):
    circuit, params, start = case
    n = circuit.num_qubits
    psi = simulate(circuit, params)
    assert np.all(hamming_weight_array(psi.states) == circuit.k)
    assert np.all(np.diff(psi.states) > 0)  # ascending, which probability_of's search relies on
    reference = sparse_simulate(circuit, params)
    _assert_matches_reference(psi.amplitudes, reference, circuit.k)
    for b, a in reference.items():
        assert abs(probability_of(psi, b) - abs(a) ** 2) <= 1e-12

    # apply_circuit from any basis state stays in that state's weight sector
    out = apply_circuit(init_basis(n, start), circuit, params)
    pre, post = (sum(1 << q for q in layer) for layer in (circuit.x_placements, circuit.post_x))
    weight = (start ^ pre ^ post).bit_count()
    _assert_matches_reference(out.amplitudes, sparse_simulate(circuit, params, start), weight)


@pytest.mark.parametrize("spec, rotated", [(DickeSpec(16, 8), 65_087), (DickeSpec(10, 5), 551)])
def test_compiled_blocks_rotate_only_reachable_pairs(spec, rotated):
    circuit = build_for(spec)
    _, blocks, _, _ = qsim._compile(circuit)
    assert sum(len(i01) for i01, _, _ in blocks) == rotated
    pairs = math.comb(spec.n - 2, spec.k - 1)
    assert len(blocks) * pairs > rotated  # the whole tables would rotate more


def _full_table_rotation(circuit, params):
    """The circuit on its weight sector, every block rotating all of its pairs."""
    start = sum(1 << q for q in circuit.x_placements)
    sector = bitstrings_of_weight(circuit.num_qubits, start.bit_count())
    a = np.zeros(len(sector))
    a[np.searchsorted(sector, start)] = 1.0
    for _, lower, slot in circuit.blocks:
        i01 = np.flatnonzero(((sector >> lower) & 3) == 1)
        i10 = np.searchsorted(sector, sector[i01] ^ (3 << lower))
        c, s = math.cos(params[slot] / 2.0), math.sin(params[slot] / 2.0)
        a01, a10 = a[i01], a[i10]
        a[i01] = c * a01 + s * a10
        a[i10] = -s * a01 + c * a10
    return sector, a


@settings(derandomize=True, deadline=None, max_examples=120)
@given(case=_circuit_params_start())
def test_block_prefixes_cover_exactly_the_reachable_states(case):
    circuit, params, _ = case
    begin, blocks, _, _ = qsim._compile(circuit)
    sector, full = _full_table_rotation(circuit, params)
    covered = {int(sector[begin])}
    for i01, i10, _ in blocks:
        covered.update(sector[i01].tolist(), sector[i10].tolist())
    post = sum(1 << q for q in circuit.post_x)
    assert {b ^ post for b in covered} == set(sparse_simulate(circuit, params))

    psi = simulate(circuit, params)
    order = np.argsort(sector ^ post)
    assert np.array_equal(psi.states, (sector ^ post)[order])
    assert np.array_equal(np.abs(psi.values), np.abs(full[order]))  # skipped pairs hold only zeros


def test_popcount_table_matches_int_bit_count():
    table = qsim._POPCOUNT16
    assert table.dtype == np.uint8 and len(table) == 1 << 16
    assert table.tolist() == [i.bit_count() for i in range(1 << 16)]


def _stacked_fragments(n, k, levels):
    """The circuits of a cell's parameterized fragments (weight 0 and full weight are fixed)."""
    from hwvqe.partition import SubAnsatzId

    frags = SubAnsatzId(DickeSpec(n, k), levels).fragments()
    return [build_for(f) for f in frags if 0 < f.k < f.n]


@pytest.mark.parametrize(
    "n, k, levels",
    [
        (12, 7, ()),  # depth 0: one conjugate circuit
        (12, 6, ((2,),)),  # D^6_2 x D^6_4: a folded and a conjugate circuit, unequal blocks
        (16, 8, ((3,), (1, 3))),  # depth 2: D^4_1 x D^4_2 x D^4_4 x D^4_1, one fixed
        (40, 20, ((10,), (9, 0))),  # D^10_10 x D^10_9 x D^10_1 x D^10_0: two fixed fragments
        (20, 10, ((5,),)),  # D^10_5 x D^10_5: steps of up to 252 pairs, all merged
        (32, 16, ((8,),)),  # D^16_8 x D^16_8: steps past the merge cap rotate in turn
    ],
)
def test_stack_equals_each_circuit_simulated_alone(n, k, levels, rng):
    circuits = _stacked_fragments(n, k, levels)
    stack = qsim.Stack(circuits)
    params = [rng.uniform(0.0, 2.0 * math.pi, c.num_params) for c in circuits]
    values = stack.run(np.concatenate(params))
    assert len(values) == stack.size == sum(len(s) for s in stack.states)
    for circuit, p, (lo, hi), states in zip(circuits, params, stack.bounds, stack.states):
        alone = simulate(circuit, p)
        assert np.array_equal(states, alone.states)
        assert np.array_equal(values[lo:hi], alone.values)  # bitwise
        if circuit.num_qubits <= 12:
            sparse = sparse_simulate(circuit, p)
            got = dict(zip(states.tolist(), values[lo:hi].tolist()))
            for b in set(sparse) | set(got):
                assert abs(sparse.get(b, 0.0) - got.get(b, 0.0)) < 1e-12


def test_stack_merges_small_steps_only():
    small = qsim.Stack(_stacked_fragments(20, 10, ((5,),)))
    assert all(part is None for part, *_ in small._steps)
    large = qsim.Stack(_stacked_fragments(32, 16, ((8,),)))
    merged = [len(i01) for part, i01, _, _ in large._steps if part is None]
    alone = [len(i01) for part, i01, _, _ in large._steps if part is not None]
    assert merged and max(merged) <= qsim._MERGED_PAIRS < max(alone)
    one = qsim.Stack([build_for(DickeSpec(16, 8))])
    assert one._pair_slots is None  # one circuit: scalar angles at every step


def test_stack_refuses_the_wrong_parameter_count():
    stack = qsim.Stack(_stacked_fragments(12, 6, ((2,),)))
    assert stack.num_params == sum(c.num_params for c in stack.circuits)
    for wrong in (stack.circuits[0].num_params, stack.num_params + 1):
        with pytest.raises(ValueError, match="parameters for"):
            stack.run(np.zeros(wrong))


def test_a_lone_circuit_stack_shares_its_compiled_order():
    circuit = build_for(DickeSpec(12, 7))  # conjugate: its output is reordered
    order = qsim._compile(circuit)[3]
    assert order is not None and qsim.Stack([circuit])._order is order
    pair = qsim.Stack(_stacked_fragments(12, 6, ((2,),)))  # one of the two reorders
    assert np.array_equal(np.sort(pair._order), np.arange(pair.size))
