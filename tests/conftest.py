"""Shared helpers: brute-force minima and a sparse reference simulator."""

import math

import numpy as np
import pytest

from hwvqe.partition import bitstrings_of_weight, enumerate_subansatz_arrays
from hwvqe.problem import batch_evaluator
from hwvqe.qsim import BasisState


def exact_minimum(problem, n=None, k=None):
    """Brute-force (bits, energy) over the full weight-constrained set."""
    n = problem.n if n is None else n
    k = problem.budget if k is None else k
    states = bitstrings_of_weight(n, k).astype(np.int64)
    energies = batch_evaluator(problem)(states)
    order = np.lexsort((states, energies))
    pos = int(order[0])
    return int(states[pos]), float(energies[pos])


def reference_subspace_min(sa, cost):
    """Exact cell minimum by costing every state: ``subspace_min``'s reference.

    Enumeration is ascending and chunked, so the first minimum seen is the
    numerically smallest minimizer.
    """
    best_bits = -1
    best_energy = math.inf
    for states in enumerate_subansatz_arrays(sa):
        energies = cost(states)
        pos = int(np.argmin(energies))
        if energies[pos] < best_energy:
            best_energy = float(energies[pos])
            best_bits = int(states[pos])
    return BasisState(best_bits, sa.parent.n), best_energy


def sparse_simulate(circuit, params, start=0):
    """Dict-based reference simulator applying the pair-rotation rule directly.

    Independent of the engine: tracks {basis int: amplitude} from basis state
    ``start`` and applies |01> -> c|01> - s|10>, |10> -> s|01> + c|10> per
    block, X flips as XORs.
    """
    state = {start: 1.0 + 0.0j}

    def flip(q):
        return {b ^ (1 << q): a for b, a in state.items()}

    for q in circuit.x_placements:
        state = flip(q)
    for upper, lower, slot in circuit.blocks:
        theta = float(params[slot])
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        nxt = {}
        for b, a in state.items():
            bu, bl = (b >> upper) & 1, (b >> lower) & 1
            if bu == bl:
                nxt[b] = nxt.get(b, 0.0) + a
            else:
                swapped = b ^ ((1 << upper) | (1 << lower))
                if bu == 0:  # |01>
                    nxt[b] = nxt.get(b, 0.0) + c * a
                    nxt[swapped] = nxt.get(swapped, 0.0) - s * a
                else:  # |10>
                    nxt[b] = nxt.get(b, 0.0) + c * a
                    nxt[swapped] = nxt.get(swapped, 0.0) + s * a
        state = nxt
    for q in circuit.post_x:
        state = flip(q)
    return state


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
