"""Cost models: quadratic forms, spin mapping, reordering, file formats."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_minimum
from hwvqe.ansatz import DickeSpec
from hwvqe.partition import bitstrings_of_weight
from hwvqe.problem import (
    BisectionProblem,
    PortfolioProblem,
    QuadraticCost,
    batch_evaluator,
    cost_binary,
    ingest_csv,
    lift_bits,
    load_graph,
    load_portfolio,
    permute,
    reorder,
    save_graph,
    save_portfolio,
    synth_assets,
    synth_graph,
    synth_price_paths,
    to_ising,
)


def _random_portfolio(rng, n=8, q=0.7, budget=None):
    M = rng.normal(size=(n, n))
    A = M @ M.T / n + np.eye(n) * 0.1
    mu = rng.normal(0.01, 0.005, size=n)
    return PortfolioProblem(n=n, q=q, A=A, mu=mu, budget=budget or n // 2)


def _bits_vector(x, n):
    return np.array([(x >> i) & 1 for i in range(n)], dtype=float)


def _cut(W, x, n):
    """Total weight of the edges whose ends x puts on different sides."""
    side = _bits_vector(x, n)
    return sum(W[i, j] for i in range(n) for j in range(i + 1, n) if side[i] != side[j])


def test_cost_binary_matches_quadratic_form(rng):
    p = _random_portfolio(rng)
    for bits in bitstrings_of_weight(p.n, p.budget)[:40]:
        x = _bits_vector(int(bits), p.n)
        expected = p.q * x @ p.A @ x - p.mu @ x
        assert abs(cost_binary(p, int(bits)) - expected) < 1e-12


def test_cost_binary_rejects_wrong_weight(rng):
    p = _random_portfolio(rng)
    with pytest.raises(ValueError):
        cost_binary(p, 0b1)  # weight 1 != budget 4


def test_batch_evaluator_equals_loop(rng):
    p = _random_portfolio(rng)
    states = bitstrings_of_weight(p.n, p.budget).astype(np.int64)
    batch = batch_evaluator(p)(states)
    loop = np.array([cost_binary(p, int(b)) for b in states])
    assert np.allclose(batch, loop, atol=1e-12)


def test_spin_mapping_matches_binary_cost(rng):
    # checked over every feasible state for several seeded instances
    for seed in range(50):
        local = np.random.default_rng(seed)
        p = _random_portfolio(local, n=8)
        ising = to_ising(p)
        for bits in bitstrings_of_weight(p.n, p.budget):
            x = _bits_vector(int(bits), p.n)
            z = 1.0 - 2.0 * x  # x_i = (1 - z_i) / 2
            spin_value = ising.energy_spin(z) + ising.constant
            assert abs(spin_value - cost_binary(p, int(bits))) < 1e-9


def test_portfolio_validation():
    A = np.eye(4)
    mu = np.zeros(4)
    with pytest.raises(ValueError):
        PortfolioProblem(n=4, q=-1.0, A=A, mu=mu, budget=2)
    with pytest.raises(ValueError):
        PortfolioProblem(n=4, q=0.5, A=A, mu=mu, budget=5)
    bad = A.copy()
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        PortfolioProblem(n=4, q=0.5, A=bad, mu=mu, budget=2)


def test_reorder_by_return_sorts_mu_ascending(rng):
    p = _random_portfolio(rng, n=10)
    q, sigma = reorder(p, "by-return")
    assert np.all(np.diff(q.mu) >= 0)
    assert sorted(sigma) == list(range(10))
    # cost is invariant under the permutation of both problem and state
    bits = int(bitstrings_of_weight(10, 5)[123])
    permuted = 0
    for new_pos, old_pos in enumerate(sigma):
        if (bits >> old_pos) & 1:
            permuted |= 1 << new_pos
    assert abs(cost_binary(q, permuted) - cost_binary(p, bits)) < 1e-12


def test_reorder_by_variance_sorts_diagonal(rng):
    p = _random_portfolio(rng, n=10)
    q, _ = reorder(p, "by-variance")
    assert np.all(np.diff(np.diag(q.A)) >= 0)
    with pytest.raises(ValueError):
        reorder(p, "by-magic")


def test_reverse_assets_mirrors_cost(rng):
    p = _random_portfolio(rng, n=8)
    r, _ = permute(p, np.arange(8)[::-1])
    for bits in bitstrings_of_weight(8, 4)[:30]:
        mirrored = int(format(int(bits), "08b")[::-1], 2)
        assert abs(cost_binary(r, mirrored) - cost_binary(p, int(bits))) < 1e-12


def test_bisection_cost_tiny_graph_oracle():
    # path graph 0-1-2-3 with weights 1, 2, 3; cut of b = sum of crossing edges
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 2.0
    W[2, 3] = W[3, 2] = 3.0
    b = BisectionProblem(n=4, weights=W, offset=0.0)
    states = bitstrings_of_weight(4, 2)
    cuts = {bits: _cut(W, bits, 4) for bits in states.tolist()}
    assert np.allclose(b.form(states), list(cuts.values()), rtol=0, atol=1e-12)
    # balanced min-cut of the path splits the lightest edge
    assert min(cuts, key=cuts.get) == 0b0011  # nodes {0,1} vs {2,3}: cut = 2


def test_bisection_batch_and_offset(rng):
    g = synth_graph(8, 0.6, seed_graph=4, seed_weights=5, offset=-3.0)
    states = bitstrings_of_weight(8, 4).astype(np.int64)
    batch = batch_evaluator(g)(states)
    loop = np.array([g.form(states[i : i + 1])[0] for i in range(len(states))])
    assert np.allclose(batch, loop, atol=1e-12)
    g0 = synth_graph(8, 0.6, seed_graph=4, seed_weights=5, offset=0.0)
    assert np.allclose(batch, batch_evaluator(g0)(states) - 3.0, atol=1e-12)


def test_bisection_validation():
    with pytest.raises(ValueError):
        BisectionProblem(n=5, weights=np.zeros((5, 5)), offset=0.0)
    W = np.zeros((4, 4))
    W[0, 0] = 1.0
    with pytest.raises(ValueError):
        BisectionProblem(n=4, weights=W, offset=0.0)


def test_reorder_bisection_sorts_weighted_degree():
    g = synth_graph(10, 0.5, seed_graph=1, seed_weights=2)
    r, sigma = reorder(g)
    assert np.all(np.diff(r.weighted_degree) >= 0)
    assert sorted(sigma) == list(range(10))
    with pytest.raises(ValueError, match="portfolios only"):
        reorder(g, "by-return")


def test_reverse_nodes_mirrors_cost():
    g = synth_graph(6, 0.7, seed_graph=9, seed_weights=9)
    r, _ = permute(g, np.arange(6)[::-1])
    states = bitstrings_of_weight(6, 3)
    mirrored = np.array([int(format(int(bits), "06b")[::-1], 2) for bits in states])
    assert np.allclose(r.form(mirrored), g.form(states), rtol=0, atol=1e-12)


def test_reduced_bisection_equals_pinned_full_cost():
    g = synth_graph(8, 0.6, seed_graph=11, seed_weights=12, fixed_top_bit=True)
    assert g.form.spec == DickeSpec(7, 3)
    states = bitstrings_of_weight(7, 3).astype(np.int64)
    reduced_costs = batch_evaluator(g)(states)
    for bits, value in zip(states, reduced_costs):
        full_bits = lift_bits(g, int(bits))
        assert full_bits >> 7 == 1
        assert abs(value - (_cut(g.weights, full_bits, 8) + g.offset)) < 1e-12


def test_dicke_spec_for_all_problem_shapes():
    p = synth_assets(8, 1, budget=3)
    assert p.form.spec == DickeSpec(8, 3)
    g = synth_graph(8, 0.5, 1, 2)
    assert g.form.spec == DickeSpec(8, 4)
    gf = synth_graph(8, 0.5, 1, 2, fixed_top_bit=True)
    assert gf.form.spec == DickeSpec(7, 3)
    assert lift_bits(g, 0b101) == 0b101 and lift_bits(gf, 0b101) == 0b10000101


def test_permute_keeps_the_problem_family(rng):
    p = _random_portfolio(rng)
    assert isinstance(permute(p, np.arange(p.n)[::-1])[0], PortfolioProblem)
    g = synth_graph(6, 0.5, 1, 2, fixed_top_bit=True)
    r, _ = permute(g, np.arange(6)[::-1])
    assert isinstance(r, BisectionProblem) and r.fixed_top_bit
    # permutations compose back to the construction order
    sigma = rng.permutation(6)
    s, _ = permute(r, sigma)
    assert s.permutation == tuple(5 - int(i) for i in sigma)


_U = Fraction(1, 2**53)


def _family_problem(family, n, seed, q, offset):
    """A problem of ``family`` on ``n`` bits, with weights spread over decades.

    Portfolio covariances carry an asymmetry below the constructor's tolerance.
    """
    local = np.random.default_rng(seed)
    M = local.standard_normal((n, n)) * 10.0 ** local.integers(-3, 4, size=(n, n))
    M *= local.random((n, n)) < 0.7
    if family == "portfolio":
        A = (M + M.T) * (1.0 + 1e-9 * local.standard_normal((n, n)))
        mu = local.standard_normal(n) * 10.0 ** float(local.integers(-3, 3))
        return PortfolioProblem(n=n, q=q, A=A, mu=mu, budget=int(local.integers(0, n + 1)))
    W = np.abs(np.triu(M, 1))
    return BisectionProblem(n=n, weights=W + W.T, offset=offset, fixed_top_bit=family == "pinned")


def _weight_k_states(n, k, count, seed):
    """Every weight-k state of n bits when few, else ``count`` random ones."""
    if math.comb(n, k) <= count:
        return bitstrings_of_weight(n, k).astype(np.int64)
    ones = np.argsort(np.random.default_rng(seed).random((count, n)), axis=1)[:, :k]
    return (np.int64(1) << ones.astype(np.int64)).sum(axis=1)


def _in_min_units(x):
    """``x * 2**1074`` as an exact integer: every finite double is a multiple of 2**-1074."""
    num, den = float(x).as_integer_ratio()
    return num * ((1 << 1074) // den)


def _exact_energies_and_sizes(problem, states):
    """The family's energy of each problem-width state in exact rationals, and
    ``S = |scale| sum |Q_ij| + sum |h_i| + |c|`` over its set bits."""
    if isinstance(problem, PortfolioProblem):
        scale, Q, h, c = problem.q, problem.A, -problem.mu, 0.0
    else:
        scale, Q, h, c = -1.0, problem.weights, problem.weighted_degree, problem.offset
    Q = [[_in_min_units(v) for v in row] for row in Q]
    h = [_in_min_units(v) for v in h]
    scale, c = _in_min_units(scale), _in_min_units(c)
    out = []
    for bits in states:
        on = [i for i in range(problem.n) if (int(bits) >> i) & 1]
        quad = [Q[i][j] for i in on for j in on]
        linear = [h[i] for i in on]
        energy = Fraction(scale * sum(quad), 1 << 2148) + Fraction(sum(linear) + c, 1 << 1074)
        size = Fraction(abs(scale) * sum(map(abs, quad)), 1 << 2148) + Fraction(
            sum(map(abs, linear)) + abs(c), 1 << 1074
        )
        out.append((energy, size))
    return out


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    family=st.sampled_from(["portfolio", "bisection", "pinned"]),
    n=st.integers(1, 62),
    seed=st.integers(0, 2**32 - 1),
    q=st.floats(0.01, 10.0),
    offset=st.floats(-50.0, 50.0),
)
@example(family="portfolio", n=62, seed=1, q=0.9, offset=0.0)  # the widest: 8 blocks, 36 tables
@example(family="portfolio", n=61, seed=2, q=3.0, offset=0.0)
@example(family="pinned", n=62, seed=3, q=0.9, offset=-7.5)
def test_batch_evaluator_matches_the_per_family_formulas(family, n, seed, q, offset):
    """Every energy is within ``K u / (1 - K u) * S`` of the exact rational one.

    ``u = 2**-53``, ``K = B(B+1)/2 + 17`` for ``B = ceil(n/8)`` byte blocks,
    and ``S`` is the absolute size of the energy's terms; bisections use the
    even width at or below ``n``. A pinned graph's search-width states must
    cost bitwise what their lifted problem-width states cost.
    """
    if family != "portfolio":
        n = max(2, n - n % 2)
    problem = _family_problem(family, n, seed, q, offset)
    spec = problem.form.spec
    states = _weight_k_states(spec.n, spec.k, 64, seed)
    full = np.array([lift_bits(problem, int(s)) for s in states], dtype=np.int64)
    cost = batch_evaluator(problem)
    energies = cost(states)
    # search-width and problem-width states cost the same
    assert np.array_equal(energies, cost(full))
    blocks = -(-n // 8)
    K = blocks * (blocks + 1) // 2 + 17
    gamma = K * _U / (1 - K * _U)
    for bits, value, (exact, size) in zip(full, energies, _exact_energies_and_sizes(problem, full)):
        assert abs(Fraction(float(value)) - exact) <= gamma * size, (int(bits), float(value), float(exact))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    family=st.sampled_from(["portfolio", "bisection", "pinned"]),
    n=st.integers(2, 62),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3000),
    cut=st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
)
@example(family="portfolio", n=40, seed=5, count=70_000, cut=(40_000, 20_000))  # spans chunks
def test_energy_is_a_function_of_the_state_alone(family, n, seed, count, cut):
    """Bitwise the same energy in a batch, alone, in any slice and any order."""
    if family != "portfolio":
        n -= n % 2
    problem = _family_problem(family, n, seed, 0.9, -3.0)
    spec = problem.form.spec
    states = _weight_k_states(spec.n, spec.k, count, seed)
    cost = batch_evaluator(problem)
    energies = cost(states)
    i = cut[0] % len(states)
    j = i + cut[1] % (len(states) - i + 1)
    assert cost(states[i : i + 1])[0] == energies[i]
    assert np.array_equal(cost(states[i:j]), energies[i:j])
    order = np.random.default_rng(seed).permutation(len(states))
    assert np.array_equal(cost(states[order]), energies[order])


def _padded_byte_energies(form, states):
    """The energies from 8-bit blocks with the last one padded by zero
    coefficients, each diagonal table read off a full 256 x 256 block table."""
    blocks = -(-form.n // 8)
    Q = np.zeros((8 * blocks, 8 * blocks))
    Q[: form.n, : form.n] = (form.Q + form.Q.T) / 2.0
    h = np.zeros(8 * blocks)
    h[: form.n] = form.h
    span = [slice(8 * a, 8 * a + 8) for a in range(blocks)]

    def subset_sums(rows):
        sums = np.zeros((256,) + rows.shape[1:])
        for i in range(8):
            sums[1 << i : 2 << i] = sums[: 1 << i] + rows[i]
        return sums

    def quadratic(a, b):
        return subset_sums(subset_sums(Q[span[a], span[b]].T).T)

    states = np.asarray(states, dtype=np.int64) | form.pinned
    byte = [(states >> (8 * a)) & 0xFF for a in range(blocks)]
    energies = np.full(states.shape, float(form.c))
    for a in range(blocks):
        energies += (form.scale * np.diagonal(quadratic(a, a)) + subset_sums(h[span[a]]))[byte[a]]
    for a in range(blocks):
        for b in range(a + 1, blocks):
            energies += ((2.0 * form.scale) * quadratic(a, b))[byte[a], byte[b]]
    return energies


@pytest.mark.parametrize("n", [2, 9, 16, 26, 33, 40, 62])
@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("scale", [0.9, -1.0])
def test_tables_at_their_widths_cost_bitwise_what_padded_blocks_do(n, pinned, integer, scale):
    """A narrow last block and diagonals summed on their own give the same
    energies, bit for bit, as 8-bit blocks padded with zero coefficients."""
    local = np.random.default_rng(n)
    Q = local.standard_normal((n, n)) * 10.0 ** local.integers(-3, 4, size=(n, n))
    h = local.standard_normal(n) * 10.0
    c = float(local.standard_normal() * 100.0)
    if integer:
        Q, h, c = np.round(Q), np.round(h), float(round(c))
    form = QuadraticCost(n, n // 2, scale, Q, h, c, 1 << (n - 1) if pinned else 0)
    states = local.integers(0, 1 << n, size=5000, dtype=np.int64)
    assert np.array_equal(form(states), _padded_byte_energies(form, states))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    family=st.sampled_from(["portfolio", "bisection", "pinned"]),
    n=st.integers(2, 62),
    seed=st.integers(0, 2**32 - 1),
    counts=st.tuples(st.integers(1, 1000), st.integers(1, 300)),
    tie=st.booleans(),
)
def test_product_min_equals_costing_the_product(family, n, seed, counts, tie):
    """The head x tail screen returns the smallest ``(energy, bits)`` of the
    product, whatever order the heads and tails come in; ``tie`` keeps only
    the coefficients' signs, so many states tie exactly, in different blocks."""
    if family != "portfolio":
        n = max(2, n - n % 2)
    problem = _family_problem(family, n, seed, 0.9, -3.0)
    if tie and family == "portfolio":
        A = np.sign(np.triu(problem.A))
        problem = PortfolioProblem(n, 1.0, A + np.triu(A, 1).T, np.sign(problem.mu), problem.budget)
    elif tie:
        problem = BisectionProblem(n, np.sign(problem.weights), -3.0, family == "pinned")
    spec = problem.form.spec
    if spec.n < 2:
        return
    local = np.random.default_rng(seed)
    width = int(local.integers(1, spec.n))
    upper = int(local.integers(max(0, spec.k - width), min(spec.k, spec.n - width) + 1))
    heads = local.permutation(_weight_k_states(spec.n - width, upper, counts[0], seed))
    tails = local.permutation(_weight_k_states(width, spec.k - upper, counts[1], seed + 1))
    bits, energy = problem.form.product_min(heads, tails, width)
    states = ((heads[:, None] << width) | tails[None, :]).ravel()
    energies = batch_evaluator(problem)(states)
    pos = np.lexsort((states, energies))[0]
    assert (bits, energy) == (int(states[pos]), float(energies[pos]))
    # every state ties: the smallest wins from whichever block holds it
    flat = QuadraticCost(spec.n, spec.k, 1.0, np.zeros((spec.n, spec.n)), np.zeros(spec.n), 2.5)
    assert flat.product_min(heads, tails, width) == (int(states.min()), 2.5)


def _random_product(spec, seed, counts):
    """Shuffled heads and tails of a product of weight-``spec.k`` states, and its width."""
    local = np.random.default_rng(seed)
    width = int(local.integers(1, spec.n))
    upper = int(local.integers(max(0, spec.k - width), min(spec.k, spec.n - width) + 1))
    heads = local.permutation(_weight_k_states(spec.n - width, upper, counts[0], seed))
    tails = local.permutation(_weight_k_states(width, spec.k - upper, counts[1], seed + 1))
    return heads, tails, width


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    half=st.integers(1, 31),
    seed=st.integers(0, 2**32 - 1),
    counts=st.tuples(st.integers(1, 1000), st.integers(1, 300)),
    spread=st.sampled_from([0.0, 0.05, 0.15]),
)
def test_product_min_with_mirror_equals_costing_the_product_and_its_complements(
    half, seed, counts, spread
):
    """One screen gives the minima over a bisection product and over its
    complements. ``h`` moves off the row sums of ``W`` by up to ``spread *
    screen_slack / n`` per bit, so ``delta`` is nonzero but within the rule."""
    n = 2 * half
    form = _family_problem("bisection", n, seed, 0.9, -3.0).form
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, n) * spread * form.screen_slack / n
    form = replace(form, h=form.h + noise)
    assert form.screen_slack < form.mirror_window <= 2 * form.screen_slack
    heads, tails, width = _random_product(form.spec, seed, counts)
    states = ((heads[:, None] << width) | tails[None, :]).ravel()
    pair = form.product_min(heads, tails, width, mirror=True)
    for got, group in zip(pair, (states, states ^ ((1 << n) - 1))):
        energies = form(group)
        pos = np.lexsort((group, energies))[0]
        assert got == (int(group[pos]), float(energies[pos]))
    assert pair[0] == form.product_min(heads, tails, width)


def test_mirror_window_needs_an_unpinned_half_weight_form_and_a_narrow_delta():
    graph = synth_graph(12, 0.5, 3, 4)
    assert graph.form.mirror_window is not None
    assert synth_graph(12, 0.5, 3, 4, fixed_top_bit=True).form.mirror_window is None
    assert synth_assets(12, 3).form.mirror_window is None  # budget 6 of 12, v spreads with mu
    assert synth_assets(12, 3, budget=5).form.mirror_window is None
    form = graph.form
    past = replace(form, h=form.h + form.screen_slack * (-1.0) ** np.arange(12))
    assert past.mirror_window is None
    heads, tails, width = _random_product(form.spec, 3, (50, 50))
    with pytest.raises(ValueError, match="cannot share a screen"):
        past.product_min(heads, tails, width, mirror=True)


def _costed_minimum(form, states):
    energies = form(states)
    pos = np.lexsort((states, energies))[0]
    return int(states[pos]), float(energies[pos])


@pytest.mark.parametrize("n", [16, 62])
@pytest.mark.parametrize("edges", ["unit", "sums", "half"])
def test_product_min_where_float32_cannot_tell_states_apart(n, edges, monkeypatch):
    """Edge weights ``base * (1 + 1e-9 * noise)``. Where every equal split
    cuts the same base weight (``unit``: base 1 on every pair; ``sums``: base
    ``u_i + u_j``, which cuts ``k * sum(u)``, in float32 terms that round),
    the cuts tie closer than float32 resolves, yet wider than the float64
    slack. With and without ``mirror``, and with an offset of 1e6 or a pinned
    top bit, the screen returns what costing every state does. The offset
    changes no float32 term, so it confirms no further state: a spy on the
    costing sees the same batches, which on the half-dense graph hold fewer
    states than the product."""
    local = np.random.default_rng(n)
    u = local.random(n)
    base = {"unit": np.ones((n, n)), "sums": u[:, None] + u, "half": local.random((n, n)) < 0.5}
    W = np.triu(base[edges] * (1.0 + 1e-9 * local.random((n, n))), 1)
    batches = []
    cost = QuadraticCost.__call__

    def spy(form, states):
        batches.append(np.array(states))
        return cost(form, states)

    monkeypatch.setattr(QuadraticCost, "__call__", spy)
    for pinned in (False, True):
        seen = {}
        for offset in (0.0, 1e6):
            form = BisectionProblem(n, W + W.T, offset, pinned).form
            heads, tails, width = _random_product(form.spec, n, (1000, 300))
            states = ((heads[:, None] << width) | tails[None, :]).ravel()
            want = _costed_minimum(form, states)
            if edges != "half" and offset == 0.0:
                energies = cost(form, states)
                assert form.screen_slack < np.ptp(energies) < np.spacing(np.float32(energies.min()))
            batches.clear()
            assert form.product_min(heads, tails, width) == want
            seen[offset, False] = list(batches)
            if not pinned:
                mirrored = _costed_minimum(form, states ^ ((1 << n) - 1))
                batches.clear()
                assert form.product_min(heads, tails, width, mirror=True) == (want, mirrored)
                seen[offset, True] = list(batches)
        for mirror in (False, True) if not pinned else (False,):
            plain, shifted = seen[0.0, mirror], seen[1e6, mirror]
            assert len(plain) == len(shifted) > 3
            assert all(np.array_equal(x, y) for x, y in zip(plain, shifted))
            if edges == "half":
                assert sum(map(len, plain)) < len(states)


def test_product_min_screens_in_float64_where_float32_would_overflow():
    """Cut weights near ``2**125`` put the screen's terms past float32's
    range; the screen keeps float64 there and still equals costing."""
    graph = synth_graph(16, 0.5, 3, 4)
    form = BisectionProblem(16, graph.weights * 2.0**125).form
    heads, tails, width = _random_product(form.spec, 3, (300, 300))
    states = ((heads[:, None] << width) | tails[None, :]).ravel()
    assert form.product_min(heads, tails, width) == _costed_minimum(form, states)


def test_synth_assets_deterministic_and_valid():
    a = synth_assets(10, 77)
    b = synth_assets(10, 77)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.mu, b.mu)
    assert a.budget == 5 and a.q == 0.9
    eigenvalues = np.linalg.eigvalsh(a.A)
    assert eigenvalues.min() > 0  # sample covariance of rich paths is PD
    c = synth_assets(10, 78)
    assert not np.array_equal(a.mu, c.mu)


def test_synth_price_paths_feed_the_same_statistics():
    prices = synth_price_paths(6, 31)
    assert prices.shape == (253, 6)
    assert np.array_equal(prices[0], np.ones(6))
    returns = prices[1:] / prices[:-1] - 1.0
    p = synth_assets(6, 31)
    assert np.allclose(p.mu, returns.mean(axis=0), atol=1e-15)
    assert np.allclose(p.A, np.cov(returns, rowvar=False, ddof=1), atol=1e-15)


def test_synth_graph_shape_and_density():
    g = synth_graph(20, 0.3, seed_graph=5, seed_weights=6)
    W = g.weights
    assert np.allclose(W, W.T)
    assert np.all(np.diag(W) == 0)
    edges = np.count_nonzero(np.triu(W, 1))
    assert 30 <= edges <= 85  # Binomial(190, 0.3), generous window
    assert np.array_equal(W, synth_graph(20, 0.3, 5, 6).weights)


@pytest.mark.parametrize("n", [2, 4, 10, 16, 64, 200])
@pytest.mark.parametrize("p_edge", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("seeds", [(1, 2), (7, 7), (123, 1000)])
def test_synth_graph_draws_one_number_per_pair_and_one_weight_per_edge(n, p_edge, seeds):
    """The row-at-a-time draw gives the weights of a draw per node pair."""
    rng_edges, rng_weights = (np.random.default_rng(s) for s in seeds)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng_edges.random() < p_edge:
                W[i, j] = W[j, i] = rng_weights.random()
    assert np.array_equal(synth_graph(n, p_edge, *seeds).weights, W)


def test_ingest_csv_happy_path(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text(
        "date,asset_0,asset_1\n"
        "2024-01-01,1.0,2.0\n"
        "2024-01-02,1.1,1.9\n"
        "2024-01-03,1.2,2.1\n"
        "2024-01-04,1.15,2.2\n"
    )
    p = ingest_csv(f, q=0.5, budget=1)
    assert p.n == 2 and p.budget == 1 and p.q == 0.5
    prices = np.array([[1.0, 2.0], [1.1, 1.9], [1.2, 2.1], [1.15, 2.2]])
    returns = prices[1:] / prices[:-1] - 1.0
    assert np.allclose(p.mu, returns.mean(axis=0), atol=1e-15)


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ("time,a,b\n2024-01-01,1,2\n", "header"),
        ("date,a\n2024-01-01,1\n2024-01-02,2\n", "at least 3"),
        ("date,a\n2024-01-01,1\nbad-date,2\n2024-01-03,3\n", ":3"),
        ("date,a\n2024-01-02,1\n2024-01-01,2\n2024-01-03,3\n", ":3"),
        ("date,a\n2024-01-01,1\n2024-01-02,\n2024-01-03,3\n", ":3"),
        ("date,a\n2024-01-01,1\n2024-01-02,oops\n2024-01-03,3\n", ":3"),
        ("date,a\n2024-01-01,1\n2024-01-02,2,9\n2024-01-03,3\n", ":3"),
        ("date,a\n2024-01-01,1\n2024-01-02,inf\n2024-01-03,3\n", ":3: non-finite cell 'inf'"),
        ("", "bad.csv: empty file"),
    ],
)
def test_ingest_csv_line_precise_errors(tmp_path, rows, fragment):
    f = tmp_path / "bad.csv"
    f.write_text(rows)
    with pytest.raises(ValueError) as err:
        ingest_csv(f)
    assert fragment in str(err.value)


def test_portfolio_save_load_round_trip(tmp_path, rng):
    p = _random_portfolio(rng, n=6)
    p, _ = reorder(p, "by-return")
    path = tmp_path / "p.json"
    save_portfolio(p, path)
    q = load_portfolio(path)
    assert q.n == p.n and q.q == p.q and q.budget == p.budget
    assert np.array_equal(q.A, p.A) and np.array_equal(q.mu, p.mu)
    assert q.permutation == p.permutation


def test_portfolio_file_without_a_permutation_is_in_index_order(tmp_path, rng):
    p = _random_portfolio(rng, n=6)
    doc = {"n": p.n, "q": p.q, "A": p.A.ravel().tolist(), "mu": p.mu.tolist(), "xi": p.budget}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    q = load_portfolio(path)
    assert q.permutation == tuple(range(6))
    assert np.array_equal(q.A, p.A) and np.array_equal(q.mu, p.mu)


def test_graph_save_load_round_trip(tmp_path):
    g = synth_graph(8, 0.5, 3, 4, offset=-1.25, fixed_top_bit=False)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    h = load_graph(path)
    assert h.n == g.n and h.offset == g.offset and h.fixed_top_bit == g.fixed_top_bit
    assert np.array_equal(h.weights, g.weights)


def test_exact_minimum_helper_agrees_with_argmin(rng):
    p = _random_portfolio(rng, n=8)
    bits, energy = exact_minimum(p)
    states = bitstrings_of_weight(8, 4).astype(np.int64)
    energies = batch_evaluator(p)(states)
    assert energy == energies.min()
    assert bits in states[energies == energy]
    assert abs(cost_binary(p, bits) - energy) < 1e-12
