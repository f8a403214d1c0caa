"""Product decomposition: identifiers, counting, enumeration, sampling."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hwvqe.ansatz import DickeSpec, build_for
from hwvqe.partition import (
    FragmentPreparer,
    PartitionTree,
    SubAnsatzId,
    bitstrings_of_weight,
    child_count,
    child_weight,
    decompose,
    entanglement_entropy,
    enumerate_subansatz_arrays,
    format_id,
    loose_bound_closed,
    loose_bound_product,
    product_states,
    run_subansatz,
    subansatz_basis_count,
)
from hwvqe.qsim import probability_of, simulate


def test_decompose_d42_manual_oracle():
    cells = decompose(DickeSpec(4, 2), 2)
    # upper weight i runs 0..2: (D^2_0 x D^2_2), (D^2_1 x D^2_1), (D^2_2 x D^2_0)
    assert cells == [
        (0, DickeSpec(2, 0), DickeSpec(2, 2)),
        (1, DickeSpec(2, 1), DickeSpec(2, 1)),
        (2, DickeSpec(2, 2), DickeSpec(2, 0)),
    ]


def test_decompose_respects_fragment_capacity():
    # j=2 of (6,3): i >= k-(n-j) = -1 -> 0, i <= min(j,k) = 2
    cells = decompose(DickeSpec(6, 3), 2)
    assert [i for i, _, _ in cells] == [0, 1, 2]
    assert all(
        up.n == 2 and lo.n == 4 and up.k == i and up.k + lo.k == 3
        for i, up, lo in cells
    )
    # oversubscribed lower half shifts the window: j=2 of (6,5) -> i in 1..2
    assert [i for i, _, _ in decompose(DickeSpec(6, 5), 2)] == [1, 2]


def test_child_count_and_weight_bounds():
    assert child_count(DickeSpec(4, 2)) == 3
    assert child_count(DickeSpec(40, 20)) == 21
    assert child_count(DickeSpec(8, 1)) == 2  # upper weight 0 or 1
    spec = DickeSpec(12, 5)  # t in max(0, 5-6)..min(6, 5) -> 0..5
    assert child_count(spec) == 6
    assert [child_weight(spec, c) for c in range(6)] == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        child_weight(spec, 6)
    with pytest.raises(ValueError):
        child_count(DickeSpec(5, 2))


def test_subansatz_cells_disjointly_cover_weight_set():
    for n in (4, 6, 8, 10, 12, 14, 16):
        spec = DickeSpec(n, n // 2)
        seen = set()
        for t in range(child_count(spec)):
            cell = set(product_states(SubAnsatzId(spec, ((t,),)).fragments()).tolist())
            assert not (cell & seen)
            seen |= cell
        assert seen == set(int(b) for b in bitstrings_of_weight(n, n // 2))


def test_complete_partition_yields_singletons():
    for n in (4, 8):
        spec = DickeSpec(n, n // 2)
        depth = math.ceil(math.log2(n))
        tree = PartitionTree(spec, depth)
        ids = list(tree.ids())
        assert len(ids) == tree.count() == math.comb(n, n // 2)
        assert all(subansatz_basis_count(sa) == 1 for sa in ids)
        states = {int(product_states(sa.fragments())[0]) for sa in ids}
        assert len(states) == math.comb(n, n // 2)


def test_partition_tree_ids_lexicographic_and_counted():
    tree = PartitionTree(DickeSpec(8, 4), 2)
    ids = list(tree.ids())
    assert len(ids) == tree.count()
    keys = [sa.levels for sa in ids]
    assert keys == sorted(keys)


def test_loose_bounds_product_equals_closed_form():
    for n in (8, 16, 32, 64):
        for p in (1, 2, 3):
            assert loose_bound_product(n, p) == loose_bound_closed(n, p)


def test_loose_bound_small_value_oracle():
    # one split of 40 qubits: (40/2)^(2^0)... product over level 1 only = 20? no:
    # levels l=1..p contribute (n/2^l)^(2^(l-1)); n=40, p=1 -> 20^1 = 20
    assert loose_bound_product(40, 1) == 20
    assert loose_bound_product(40, 2) == 20 * 10**2


def test_format_identifiers():
    sa = SubAnsatzId(DickeSpec(8, 4), ((3,), (1, 0)))
    text = format_id(sa)
    assert text == "sa^1_[3]-sa^2_[1,0]"
    assert str(sa) == text


def test_subansatz_id_validates_ordinals():
    spec = DickeSpec(8, 4)
    with pytest.raises(ValueError):
        SubAnsatzId(spec, ((5,),))  # child_count(D^8_4) == 5 -> max ordinal 4
    with pytest.raises(ValueError):
        SubAnsatzId(spec, ((2,), (1,)))  # level 2 needs one ordinal per fragment


def test_fragments_and_child_weights():
    spec = DickeSpec(8, 4)
    sa = SubAnsatzId(spec, ((3,),))
    frags = sa.fragments()
    assert frags == [DickeSpec(4, 3), DickeSpec(4, 1)]
    deeper = sa.child((1, 1))
    assert deeper.fragments() == [
        DickeSpec(2, 2),
        DickeSpec(2, 1),
        DickeSpec(2, 1),
        DickeSpec(2, 0),
    ]


def test_equilibrium_partition_counts():
    tree = PartitionTree(DickeSpec(8, 4), 1)
    assert tree.count() == child_count(DickeSpec(8, 4)) == 5
    # depth bounded by divisibility
    with pytest.raises(ValueError):
        PartitionTree(DickeSpec(12, 6), 3)
    with pytest.raises(ValueError):
        PartitionTree(DickeSpec(8, 4), 0)


def test_bitstrings_of_weight_ascending_and_complete():
    arr = bitstrings_of_weight(6, 3)
    assert len(arr) == 20
    assert np.all(np.diff(arr) > 0)
    assert all(int(b).bit_count() == 3 for b in arr)
    assert not arr.flags.writeable
    assert list(bitstrings_of_weight(4, 0)) == [0]
    assert list(bitstrings_of_weight(4, 4)) == [0b1111]
    with pytest.raises(ValueError):
        bitstrings_of_weight(4, 5)


def test_bitstrings_of_weight_equals_combinations():
    for m in range(15):
        for w in range(m + 1):
            expected = sorted(sum(1 << q for q in ones) for ones in itertools.combinations(range(m), w))
            got = bitstrings_of_weight(m, w)
            assert got.dtype == np.int64 and got.tolist() == expected


def test_bitstrings_of_weight_equals_combinations_across_the_popcount_table():
    """Widths 15-16 scan the 16-bit popcount table and 17 builds bit by bit;
    every weight of each gives the sorted combinations, read-only int64."""
    for m in (15, 16, 17):
        for w in range(m + 1):
            expected = sorted(sum(1 << q for q in ones) for ones in itertools.combinations(range(m), w))
            got = bitstrings_of_weight(m, w)
            assert got.dtype == np.int64 and not got.flags.writeable and got.tolist() == expected


def test_enumeration_matches_fragment_product():
    spec = DickeSpec(8, 4)
    sa = SubAnsatzId(spec, ((3,), (1, 0)))
    expected = set()
    f = sa.fragments()  # widths 2,2,2,2 with weights 2,1,0,1
    for combo in itertools.product(
        *[[int(b) for b in bitstrings_of_weight(fr.n, fr.k)] for fr in f]
    ):
        bits = 0
        for fr, frag_bits in zip(f, combo):
            bits = (bits << fr.n) | frag_bits
        expected.add(bits)
    assert product_states(f).tolist() == sorted(expected)
    assert subansatz_basis_count(sa) == len(expected)


def test_chunked_enumeration_equals_lazy():
    spec = DickeSpec(12, 6)
    for levels in (((4,),), ((4,), (1, 1))):
        sa = SubAnsatzId(spec, levels)
        whole = product_states(sa.fragments())
        chunks = list(enumerate_subansatz_arrays(sa, chunk=64))
        assert all(len(c) > 0 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), whole)
    # a grid much larger than the chunk is actually split
    wide = SubAnsatzId(spec, ((4,),))  # 225 states
    assert len(list(enumerate_subansatz_arrays(wide, chunk=64))) == 3


def test_one_fragment_wider_than_a_chunk_is_sliced():
    # the depth-0 sub-ansatz: 184,756 states, cut into views of at most chunk states
    chunks = list(enumerate_subansatz_arrays(SubAnsatzId(DickeSpec(20, 10), ()), chunk=1 << 15))
    assert len(chunks) == 6 and all(len(c) <= 1 << 15 for c in chunks)
    assert np.array_equal(np.concatenate(chunks), bitstrings_of_weight(20, 10))
    # behind another fragment: each of the 15 heads' 15 tail states in slices of at most 7
    sa = SubAnsatzId(DickeSpec(12, 6), ((2,),))
    chunks = list(enumerate_subansatz_arrays(sa, chunk=7))
    assert len(chunks) == 45 and all(len(c) <= 7 for c in chunks)
    assert np.array_equal(np.concatenate(chunks), product_states(sa.fragments()))


def test_hundred_qubit_outer_cells_countable():
    spec = DickeSpec(100, 50)
    outer = [1, 2, 48, 49]
    total = sum(subansatz_basis_count(SubAnsatzId(spec, ((t,),))) for t in outer)
    assert total == 3_006_250


def test_run_subansatz_marginals_match_born(rng):
    spec = DickeSpec(8, 4)
    sa = SubAnsatzId(spec, ((3,),))  # fragments D^4_3, D^4_1
    frags = sa.fragments()
    params = []
    for f in frags:
        circuit = build_for(f)
        params.append(rng.uniform(0.4, 2.7, size=circuit.num_params))
    counts = run_subansatz(sa, np.concatenate(params), shots=40_000, seed=5)
    assert sum(counts.values()) == 40_000
    # each composed draw concatenates per-fragment draws (fragment 0 high bits)
    exact = {}
    for combo_bits, prob in _product_distribution(frags, params).items():
        exact[combo_bits] = prob
    for bits, c in counts.items():
        assert bits in exact
        assert abs(c / 40_000 - exact[bits]) < 0.02


def _per_fragment(frags, params):
    """A flat parameter vector cut per fragment, fragment 0 first; fixed fragments take none."""
    out, at = [], 0
    for f in frags:
        width = build_for(f).num_params if 0 < f.k < f.n else 0
        out.append(params[at : at + width])
        at += width
    return out


def _product_distribution(frags, params):
    dists = []
    for f, p in zip(frags, params):
        psi = simulate(build_for(f), p)
        dists.append(
            {int(b): probability_of(psi, int(b)) for b in bitstrings_of_weight(f.n, f.k)}
        )
    out = {}
    for combo in itertools.product(*[d.items() for d in dists]):
        bits, prob = 0, 1.0
        for f, (frag_bits, frag_prob) in zip(frags, combo):
            bits = (bits << f.n) | frag_bits
            prob *= frag_prob
        out[bits] = prob
    return out


def test_run_subansatz_fixed_fragments_need_no_params(rng):
    spec = DickeSpec(8, 4)
    sa = SubAnsatzId(spec, ((4,),))  # fragments D^4_4 (fixed) and D^4_0 (fixed)
    counts = run_subansatz(sa, [], shots=50, seed=1)
    assert counts == {0b11110000: 50}
    with pytest.raises(ValueError):
        run_subansatz(sa, [0.3], shots=10, seed=1)


@pytest.mark.parametrize("levels", [(), ((2,),)], ids=["soft-one-fragment", "hard-two-fragments"])
def test_sample_keeps_counter_first_draw_order(rng, levels):
    # cvar's partition and mean see the batch in this order, so it is part of the contract
    sa = SubAnsatzId(DickeSpec(8, 4), levels)
    preparer = FragmentPreparer(sa)
    params = rng.uniform(0.4, 2.7, size=preparer.num_params)
    cells, counts = preparer.count(preparer.draw(params, 300, np.random.default_rng(17)))
    states = preparer.states_of(cells)

    stream = np.random.default_rng(17)
    draws = np.zeros(300, dtype=np.int64)
    for f, p in zip(sa.fragments(), _per_fragment(sa.fragments(), params)):
        psi = simulate(build_for(f), p)
        probs = np.abs(psi.values) ** 2
        draws = (draws << f.n) | psi.states[stream.choice(len(probs), size=300, p=probs / probs.sum())]
    expected = Counter(int(b) for b in draws)
    assert list(zip(states.tolist(), counts.tolist())) == list(expected.items())
    assert states.tolist() != sorted(states.tolist())  # first-draw order, not np.unique's sorted order


@pytest.mark.parametrize(
    "n, k, levels",
    [
        (16, 8, ((0,), (0, 0))),  # D^4_0 x D^4_0 x D^4_4 x D^4_4: every fragment fixed
        (40, 20, ((10,), (9, 0))),  # D^10_10 x D^10_9 x D^10_1 x D^10_0: two fixed
    ],
)
def test_probability_of_is_the_product_of_fragment_probabilities(n, k, levels, rng):
    sa = SubAnsatzId(DickeSpec(n, k), levels)
    frags = sa.fragments()
    preparer = FragmentPreparer(sa)
    params = rng.uniform(0.4, 2.7, size=preparer.num_params)
    preparer.draw(params, 64, np.random.default_rng(3))
    alone = [
        simulate(build_for(f), p) if 0 < f.k < f.n else None
        for f, p in zip(frags, _per_fragment(frags, params))
    ]
    shifts = [n - sum(f.n for f in frags[: i + 1]) for i in range(len(frags))]

    def product(bits):
        prob = 1.0
        for f, psi, shift in zip(frags, alone, shifts):
            if psi is not None:
                prob *= probability_of(psi, (bits >> shift) & ((1 << f.n) - 1))
        return prob

    states = preparer.states_of(np.arange(min(preparer.size, 50))).tolist()
    for bits in states:
        assert preparer.probability_of(bits) == pytest.approx(product(bits), rel=1e-12, abs=0.0)
    if preparer.num_params == 0:
        assert states == [0b0000000011111111] and preparer.probability_of(states[0]) == 1.0
    # a state whose fixed bits differ, and one with a parameterized fragment of the wrong weight
    fixed = next(i for i, f in enumerate(frags) if f.k in (0, f.n))
    assert preparer.probability_of(states[0] ^ (1 << shifts[fixed])) == 0.0
    for f, shift in zip(frags, shifts):
        if 0 < f.k < f.n:
            assert preparer.probability_of(states[0] ^ (1 << shift)) == 0.0


def test_entanglement_entropy_binary_values():
    assert entanglement_entropy(1.0, 0.0) == 0.0
    assert abs(entanglement_entropy(1 / math.sqrt(2), 1 / math.sqrt(2)) - 1.0) < 1e-12
    a = math.sqrt(0.9)
    b = math.sqrt(0.1)
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert abs(entanglement_entropy(a, b) - expected) < 1e-12
    with pytest.raises(ValueError):
        entanglement_entropy(1.0, 1.0)


class _TabulatedPreparer(FragmentPreparer):
    """A preparer whose whole cell is tabulated, so it reads states from the table."""

    def __init__(self, sa):
        super().__init__(sa)
        assert self.tabulate(lambda states: states.astype(np.float64), self.size)


@pytest.mark.parametrize("levels", [(), ((2,),)], ids=["soft-one-fragment", "hard-two-fragments"])
def test_tabulated_sample_keeps_counter_first_draw_order(rng, levels, monkeypatch):
    monkeypatch.setitem(globals(), "FragmentPreparer", _TabulatedPreparer)
    test_sample_keeps_counter_first_draw_order(rng, levels)


@pytest.mark.parametrize(
    "n, k, levels", [(8, 4, ()), (12, 6, ((2,),)), (16, 8, ((3,), (1, 3))), (16, 8, ((0,), (0, 0)))]
)
def test_cell_indices_decode_to_product_states(n, k, levels, rng):
    sa = SubAnsatzId(DickeSpec(n, k), levels)
    preparer = FragmentPreparer(sa)
    every = product_states(sa.fragments())
    assert preparer.size == len(every)
    assert np.array_equal(preparer.states_of(np.arange(preparer.size)), every)
    picks = rng.integers(0, preparer.size, 50)
    assert preparer.tabulate(lambda states: states.astype(np.float64), preparer.size)
    assert np.array_equal(preparer.states_of(picks), every[picks])


def test_tabulate_only_a_cell_no_larger_than_the_draws():
    sa = SubAnsatzId(DickeSpec(12, 6), ((2,),))  # D^6_2 x D^6_4: 225 states
    costed = []

    def cost(states):
        costed.append(len(states))
        return states.astype(np.float64)

    preparer = FragmentPreparer(sa)
    assert not preparer.tabulate(cost, 224) and preparer.table is None and not costed
    assert preparer.tabulate(cost, 225) and costed == [225]
    states, energies = preparer.table
    assert np.array_equal(states, product_states(sa.fragments()))
    assert np.array_equal(energies, states.astype(np.float64))
