"""The reference code against exhaustive enumeration on tiny instances.

Run with ``python -m pytest perfbench``.
"""

import itertools

import numpy as np
import pytest

import reference as ref


def popcount(x: int) -> int:
    return bin(x).count("1")


def random_portfolio(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T / n, rng.normal(size=n), 0.9


def random_edges(rng, n):
    return [(i, j, float(rng.uniform(0.1, 1.0)))
            for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6]


def explicit_portfolio(A, mu, q, x):
    bits = [x >> i & 1 for i in range(len(mu))]
    quad = sum(A[i, j] * bits[i] * bits[j] for i in range(len(mu)) for j in range(len(mu)))
    return q * quad - sum(m * b for m, b in zip(mu, bits))


def explicit_cut(edges, x):
    return sum(w for i, j, w in edges if (x >> i & 1) != (x >> j & 1))


@pytest.mark.parametrize("n,k", [(1, 0), (4, 2), (6, 3), (7, 2)])
def test_states_of_weight_lists_every_state_once_ascending(n, k):
    want = [x for x in range(1 << n) if popcount(x) == k]
    assert ref.states_of_weight(n, k).tolist() == want


def test_portfolio_cost_and_minimum_match_enumeration():
    rng = np.random.default_rng(1)
    for n, k in [(4, 2), (6, 3), (7, 4)]:
        A, mu, q = random_portfolio(rng, n)
        states = [x for x in range(1 << n) if popcount(x) == k]
        got = ref.portfolio_cost(A, mu, q, np.array(states))
        want = [explicit_portfolio(A, mu, q, x) for x in states]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert ref.portfolio_minimum(A, mu, q, k) == pytest.approx(min(want), abs=1e-12)


def test_reported_bits_map_back_through_the_permutation():
    rng = np.random.default_rng(2)
    n = 6
    A, mu, q = random_portfolio(rng, n)
    perm = [int(p) for p in rng.permutation(n)]  # reordered index i = instance index perm[i]
    A_re, mu_re = A[np.ix_(perm, perm)], mu[perm]
    for x in range(1 << n):
        bits = format(x, f"0{n}b")
        state = ref.to_instance_order(bits, perm)
        assert popcount(state) == popcount(x)
        assert explicit_portfolio(A, mu, q, state) == pytest.approx(
            explicit_portfolio(A_re, mu_re, q, x), abs=1e-12)
    with pytest.raises(ValueError):
        ref.to_instance_order("0101", [0, 1, 1, 2])


@pytest.mark.parametrize("n,x", [(5, 0b10110), (6, 0b000111), (4, 0b0001)])
def test_one_swap_neighbours_are_the_weight_preserving_distance_two_states(n, x):
    want = [y for y in range(1 << n) if popcount(y) == popcount(x) and popcount(x ^ y) == 2]
    assert sorted(ref.one_swap_neighbours(x, n).tolist()) == want


def test_cut_weight_sums_crossing_edges():
    rng = np.random.default_rng(3)
    n = 7
    edges = random_edges(rng, n)
    got = ref.cut_weight(edges, 1.5, np.arange(1 << n))
    want = [explicit_cut(edges, x) + 1.5 for x in range(1 << n)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_halves_cell_minima_match_enumeration(n):
    rng = np.random.default_rng(n)
    edges = random_edges(rng, n)
    h = n // 2
    want = [min(explicit_cut(edges, x) - 2.0
                for x in range(1 << n) if popcount(x) == h and popcount(x >> h) == t)
            for t in range(h + 1)]
    np.testing.assert_allclose(ref.halves_cell_minima(edges, -2.0, n), want, rtol=0, atol=1e-12)
