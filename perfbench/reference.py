"""Reference computations the benchmark checks the program's outputs against.

Everything here works from the generated instance alone and shares no code
with ``hwvqe``: a portfolio cost is ``q * x^T A x - mu . x`` in the instance's
own asset order, a cut weight is a sum over the edges whose ends fall on
different sides, and minima come from plain enumeration. ``test_reference.py``
checks each function against exhaustive enumeration on tiny instances.

Bit ``i`` of a state (counting from the least significant bit) is item ``i``
of the instance, as in the program's artifacts before a reordering.
"""

from __future__ import annotations

import itertools

import numpy as np


def states_of_weight(n: int, k: int) -> np.ndarray:
    """All n-bit integers with k ones, ascending, as int64."""
    out = [sum(1 << i for i in ones) for ones in itertools.combinations(range(n), k)]
    return np.array(sorted(out), dtype=np.int64)


def bit_rows(states: np.ndarray, n: int) -> np.ndarray:
    """Row per state, column i = bit i, as float64."""
    states = np.asarray(states, dtype=np.int64)
    return ((states[:, None] >> np.arange(n)) & 1).astype(np.float64)


def portfolio_cost(A: np.ndarray, mu: np.ndarray, q: float, states: np.ndarray) -> np.ndarray:
    """``q * x^T A x - mu . x`` for each state."""
    X = bit_rows(states, len(mu))
    return q * np.sum((X @ A) * X, axis=1) - X @ mu


def to_instance_order(bits: str, permutation: list[int]) -> int:
    """Map a reported bitstring (qubit n-1 leftmost) back to instance order.

    Reported bit ``i`` is the item at original index ``permutation[i]``.
    """
    n = len(bits)
    if sorted(permutation) != list(range(n)):
        raise ValueError(f"reported permutation {permutation} is not one of 0..{n - 1}")
    out = 0
    for i, ch in enumerate(reversed(bits)):
        if ch == "1":
            out |= 1 << permutation[i]
    return out


def portfolio_minimum(A: np.ndarray, mu: np.ndarray, q: float, k: int) -> float:
    """Brute-force minimum over every selection of k assets."""
    return float(portfolio_cost(A, mu, q, states_of_weight(len(mu), k)).min())


def one_swap_neighbours(state: int, n: int) -> np.ndarray:
    """Every state made by moving one 1-bit of ``state`` onto one of its 0-bits."""
    ones = [i for i in range(n) if state >> i & 1]
    zeros = [i for i in range(n) if not state >> i & 1]
    return np.array([state ^ (1 << i) ^ (1 << j) for i in ones for j in zeros], dtype=np.int64)


def cut_weight(edges: list[tuple[int, int, float]], offset: float, states: np.ndarray) -> np.ndarray:
    """Sum of the weights of the edges that cross each split, plus the offset."""
    states = np.asarray(states, dtype=np.int64)
    total = np.full(states.shape, float(offset))
    for i, j, w in edges:
        total += w * (((states >> i) ^ (states >> j)) & 1)
    return total


def halves_cell_minima(
    edges: list[tuple[int, int, float]], offset: float, n: int
) -> list[float]:
    """Minimum cut of a balanced split in each cell of the top-level partition.

    Cell t holds the splits with t ones among the upper n/2 bits and n/2 - t
    among the lower n/2 bits. The cut of a state is split into the edges
    inside each half, summed edge by edge over the 2^(n/2) half-states, and
    the edges between the halves: ``[a != b] = a + b - 2ab``, so their part is
    ``r . u + c . l - 2 u^T W l`` with ``W`` the between-halves weights and
    ``r``, ``c`` its row and column sums. Each cell is one block of that
    bilinear form over all its upper and lower half-states.
    """
    if n % 2:
        raise ValueError(f"balanced split needs an even node count, got {n}")
    h = n // 2
    inner_u = [(i - h, j - h, w) for i, j, w in edges if i >= h and j >= h]
    inner_l = [(i, j, w) for i, j, w in edges if i < h and j < h]
    W = np.zeros((h, h))  # W[upper node - h, lower node]
    for i, j, w in edges:
        if (i >= h) != (j >= h):
            u, lo = (i, j) if i >= h else (j, i)
            W[u - h, lo] += w
    minima = []
    for t in range(h + 1):
        up = states_of_weight(h, t)
        low = states_of_weight(h, h - t)
        U, L = bit_rows(up, h), bit_rows(low, h)
        eu = cut_weight(inner_u, 0.0, up) + U @ W.sum(axis=1)
        el = cut_weight(inner_l, 0.0, low) + L @ W.sum(axis=0)
        block = eu[:, None] + el[None, :] - 2.0 * (U @ W) @ L.T
        minima.append(float(block.min()) + offset)
    return minima
