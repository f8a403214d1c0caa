"""Cost models and data plumbing for weight-constrained optimization.

Two problem families share the qubit layout of :mod:`hwvqe.qsim` (asset/node i
lives on bit i, so the reordered "rightmost" assets occupy the most significant
bits):

* **Portfolio selection** — minimize ``q * x^T A x - mu^T x`` over bitstrings
  of Hamming weight equal to the budget (unit prices, so the budget constrains
  the number of selected assets). A spin form obtained by ``x = (1 - z)/2`` is
  kept alongside for cross-checking.
* **Graph bisection** — minimize the cut weight of an equal split, plus a
  constant offset; the symmetric solution pair may be broken by pinning the
  top node into the 1-side.

Both are one :class:`QuadraticCost`, ``scale * x^T Q x + h.x + c`` over the
problem's Hamming-weight sector, which each problem instance builds once as its
``form``; :func:`permute` reindexes either family.

Data enters either from a closing-price CSV, or from seeded generators
(factor-model price paths for assets, Bernoulli edges with uniform weights for
graphs), both deterministic under their seeds.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .ansatz import DickeSpec
from .qsim import BasisLike, hamming_weight

__all__ = [
    "PortfolioProblem",
    "IsingModel",
    "BisectionProblem",
    "QuadraticCost",
    "cost_binary",
    "to_ising",
    "permute",
    "reorder",
    "ingest_csv",
    "save_prices",
    "synth_assets",
    "synth_price_paths",
    "synth_graph",
    "save_portfolio",
    "load_portfolio",
    "save_graph",
    "load_graph",
    "batch_evaluator",
    "lift_bits",
    "min_state",
]


def min_state(states: np.ndarray, energies: np.ndarray) -> tuple[float, int]:
    """``(energy, bits)`` of a batch's lowest energy, ties to the smaller state.

    Every minimum in the package keeps this order, so a running best folds
    in a batch as ``min(best, min_state(states, energies))``.
    """
    pos = np.lexsort((states, energies))[0]
    return float(energies[pos]), int(states[pos])


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortfolioProblem:
    """Budget-constrained mean-variance selection: choose ``budget`` of ``n`` assets."""

    n: int
    q: float
    A: np.ndarray
    mu: np.ndarray
    budget: int
    permutation: tuple[int, ...] = ()  # current index -> index at construction

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        if A.shape != (self.n, self.n):
            raise ValueError(f"covariance shape {A.shape} != ({self.n}, {self.n})")
        if mu.shape != (self.n,):
            raise ValueError(f"return vector shape {mu.shape} != ({self.n},)")
        if not np.allclose(A, A.T, atol=1e-9):
            raise ValueError("covariance matrix is not symmetric")
        if self.q <= 0:
            raise ValueError(f"risk level must be positive, got {self.q}")
        if not 0 <= self.budget <= self.n:
            raise ValueError(f"budget {self.budget} outside 0..{self.n}")
        A.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "mu", mu)
        perm = tuple(self.permutation) if self.permutation else tuple(range(self.n))
        if sorted(perm) != list(range(self.n)):
            raise ValueError("permutation is not a permutation of 0..n-1")
        object.__setattr__(self, "permutation", perm)

    @cached_property
    def form(self) -> "QuadraticCost":
        """The cost as a :class:`QuadraticCost`, built once per instance, so its
        tables serve every evaluation (a :func:`permute` copy builds its own).

        ``q`` stays outside ``Q``: folding it in changes the rounding of the
        energies.
        """
        return QuadraticCost(self.n, self.budget, self.q, self.A, -self.mu)


@dataclass(frozen=True)
class IsingModel:
    """Spin form of a portfolio cost under ``x_i = (1 - z_i)/2``.

    The constant is carried for reconstructing binary energies but plays no
    role in optimization.
    """

    q_prime: float
    mu_prime: np.ndarray
    constant: float
    A: np.ndarray

    def energy_spin(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=np.float64)
        return float(self.q_prime * z @ self.A @ z - self.mu_prime @ z)


def cost_binary(p: PortfolioProblem, x: BasisLike) -> float:
    """``q x^T A x - mu^T x`` of one bitstring of the budget's weight."""
    bits = int(x)
    if hamming_weight(bits) != p.budget:
        raise ValueError(
            f"bitstring {bits:0{p.n}b} has weight {hamming_weight(bits)}, budget is {p.budget}"
        )
    return float(p.form(np.array([bits], dtype=np.int64))[0])


def to_ising(p: PortfolioProblem) -> IsingModel:
    ones = np.ones(p.n)
    mu_prime = 0.5 * (p.q * (p.A @ ones) - p.mu)
    constant = float((p.q / 4.0 * (ones @ p.A) - 0.5 * p.mu) @ ones)
    return IsingModel(q_prime=p.q / 4.0, mu_prime=mu_prime, constant=constant, A=p.A)


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BisectionProblem:
    """Equal-split graph cut minimization with an additive offset."""

    n: int
    weights: np.ndarray
    offset: float = 0.0
    fixed_top_bit: bool = False
    permutation: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        W = np.asarray(self.weights, dtype=np.float64)
        if W.shape != (self.n, self.n):
            raise ValueError(f"weight matrix shape {W.shape} != ({self.n}, {self.n})")
        if not np.allclose(W, W.T, atol=1e-12):
            raise ValueError("weight matrix is not symmetric")
        if np.any(np.diag(W) != 0.0):
            raise ValueError("weight matrix has nonzero diagonal")
        if self.n % 2:
            raise ValueError(f"bisection needs an even node count, got {self.n}")
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)
        perm = tuple(self.permutation) if self.permutation else tuple(range(self.n))
        if sorted(perm) != list(range(self.n)):
            raise ValueError("permutation is not a permutation of 0..n-1")
        object.__setattr__(self, "permutation", perm)

    @property
    def weighted_degree(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @cached_property
    def form(self) -> "QuadraticCost":
        """The cost as a :class:`QuadraticCost`, built once per instance, so its
        tables serve every evaluation (a :func:`permute` copy builds its own).

        The pinned bit stays out of ``h`` and ``c``: folding it in changes the
        rounding of the energies.
        """
        pinned = 1 << (self.n - 1) if self.fixed_top_bit else 0
        return QuadraticCost(self.n, self.n // 2, -1.0, self.weights,
                             self.weighted_degree, self.offset, pinned)


# ---------------------------------------------------------------------------
# one cost form and one reindexing (used by the search and optimization layers)
# ---------------------------------------------------------------------------

Problem = Union[PortfolioProblem, BisectionProblem]

# States per pass of QuadraticCost's table gathers. At 2**15 the temporaries
# stay in cache: on a 2-core Xeon with numpy 2.4, 1M states at n = 26 / 40 /
# 62 cost 0.027 / 0.059 / 0.24 s, against 0.10 / 0.17 / 0.45 s in one pass.
# Every pass adds the same tables in the same order, so the chunking never
# changes an energy. It also sizes product_min's screen blocks, and
# locate.subspace_min keeps each head or tail group within it.
_EVAL_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """``scale * x^T Q x + h.x + c`` over the weight-``k`` states of ``n`` bits.

    The bits of ``pinned`` are fixed to 1 and are the most significant ones,
    so the search runs over the low ``spec.n`` bits and a search state lifts to
    a problem state by OR-ing the mask in. Evaluation ORs it in too, which is
    idempotent: search-width and problem-width states cost the same.

    Evaluation reads precomputed tables. The bits split into ``B = ceil(n/8)``
    blocks of 8 bits, the last holding what is left; block ``a`` of width
    ``w_a`` has a ``2**w_a``-entry table ``scale * x^T Q_aa x + h_a.x`` of its
    byte ``x``, and each block pair ``a < b`` a ``2**w_a x 2**w_b`` table ``2 *
    scale * x^T Q_ab y``, read at ``x << w_b | y``. A state's energy is ``c``
    plus the diagonal tables plus the cross tables, added in that fixed order,
    so it is a function of the state alone: the same in every batch, of any
    size. A table's sums add each bit after the lower ones, so its entries are
    bitwise those of a block padded to 8 bits with zero coefficients. ``Q``
    enters the tables as ``(Q + Q^T)/2``, which is ``Q`` bitwise when ``Q`` is
    symmetric.

    Error bound: with ``u = 2**-53``, ``m = B(B+1)/2`` tables and ``K = m +
    17``, every energy is within ``K u / (1 - K u) * S`` of the exact value of
    the form over its float coefficients, where ``S = |scale| * sum |Q_ij| +
    sum |h_i| + |c|`` over the set bits ``i, j`` (barring overflow and
    underflow). A ``Q_ij`` passes through at most K roundings: the
    symmetrisation ``(Q + Q^T)/2``, 7 + 7 additions in a table's two sums of
    at most 8 terms, the scaling, the addition of ``h`` in a diagonal table,
    and ``m`` additions across tables; ``h_i`` and ``c`` pass through fewer.

    Exact minima over a product ``head << w | tail`` (:meth:`product_min`)
    screen every state as ``a[head] + b[tail] + sum_{i in head} r_i[tail]``,
    a sum in float32 of terms computed in float64: ``a = E(head << w) - E(0)``
    and ``b = E(tail) - E(0)``, the tables' energies of the two parts less
    that of the empty state, and one row ``r_i = C_i x_tail`` per head bit
    ``i`` of ``C = 2 * scale * Q_sym[head bits, tail bits]``, the cross terms
    between the parts. The states whose screen value lies within ``screen_slack + 2 *
    e32`` of the screen's running minimum are costed exactly, where
    ``screen_slack = 2 * (e_form + e_screen)``.

    The float64 terms: ``e_form = K u / (1 - K u) * S`` is the bound above,
    and ``e_screen = 3 * g * S`` with ``g = R u / (1 - R u)`` and ``R = K + n
    + 4``, both over the all-bits ``S``. Let ``y(x)`` be the exact sum of the
    float64 terms of state ``x``. A contribution reaches ``y`` through at most
    ``K + 1`` roundings: ``K`` in a table energy and one in taking ``E(0)``
    off; or two in ``C``, then at most ``n - 1`` in the sum over tail bits.
    ``E(0)`` is one computed number that every ``y`` takes off twice, so its
    own error shifts every ``y`` by the same ``D`` and drops out of every
    comparison; the differences it is taken from hold no ``c`` and no pinned
    bit's own terms. Apart from it, ``c`` and the pinned bits enter twice
    (``E(head << w)`` and ``E(tail)``), so the contributions add up to at
    most ``2 S`` and ``|y(x) - D - E(x)| <= e_screen``, with room to spare.
    The spare covers the float64 sum that forms the threshold, as the
    screen's minimum is at most about ``S`` in magnitude.

    The float32 sum: each term is rounded once to float32, and a block of
    head rows is one float32 product ``[head bits, 1, a] @ [r; b; 1]``. One
    factor of every product is 0 or 1, so the products are exact and only the
    additions round, in whatever order and with whatever fused multiply-adds
    sgemm takes. A state's ``K32 = (head bits) + 2`` terms ``y_j`` have ``sum
    |y_j| <= M = max |a| + max |b| + sum_i max |r_i|``, maxima over the
    product's heads and tails. With ``u32 = 2**-24``, rounding to float32
    moves ``y_j`` by at most ``u32 |y_j| + 2**-150`` (the second term is
    underflow; a float32 sum that underflows is exact), and a sum of ``K32``
    terms ``z_j`` in any order errs by at most ``(K32 - 1) u32 / (1 - (K32 -
    1) u32) * sum |z_j|``. So the screen value ``s(x)`` lies within ``e32 =
    g32 * M + K32 * 2**-149`` of ``y(x)``, with ``g32 = (K32 + 1) u32 / (1 -
    (K32 + 1) u32)``: the one rounding more than the sum needs covers the
    float64 roundings of ``M``, of ``e32`` and of the widened window. As
    ``c`` and the pinned bits' own terms are not among the float32 terms, an
    offset or a pinned bit cannot widen ``e32``. The threshold is the float64
    sum of the running minimum and the window, rounded up to float32, and the
    float32 comparison with it is exact. Where ``M`` plus the window reaches
    ``2**126``, a float32 term, partial sum or threshold could overflow, so
    the screen stays in float64, with float64's ``u`` and ``2**-1074`` in
    ``e32``.

    A minimiser ``x*`` of the computed energies ``E^`` then screens within
    the window of every state's screen value: ``s(x*) - D <= E(x*) + e_screen
    + e32 <= E^(x*) + e_form + e_screen + e32 <= E^(x) + e_form + e_screen +
    e32 <= E(x) + 2 * e_form + e_screen + e32 <= s(x) - D + 2 * (e_form +
    e_screen + e32)``. So every exact minimiser is costed, and the smallest
    ``(energy, bits)`` among the costed states is the product's own.

    The same screen also gives the exact minimum over the product's
    complements (every bit flipped, ``x' = 1 - x``), where the form is
    unpinned and ``2k = n``. With ``v = scale * Q_sym 1 + h``, expanding the
    form gives ``E(x') - E(x) = sum_{i not in x} v_i - sum_{i in x} v_i``:
    ``c`` cancels, and so does any ``lambda`` taken off every ``v_i``, since
    both sums have ``k`` terms. So ``|E(x') - E(x)| <= delta = sum_i |v_i -
    lambda|``. The computed ``v`` passes each ``Q_ij`` through at most ``n +
    2`` roundings (the symmetrisation, ``n - 1`` additions in a row sum, the
    scaling and the addition of ``h``), so over all ``i`` it lies within
    ``g_v * S`` of the exact ``v``, ``g_v = (n + 2) u / (1 - (n + 2) u)``.
    Hence ``delta = F + g_v * S``, where ``F`` sums the computed ``|v_i -
    lambda|`` with ``lambda`` their median. The screen confirms every state
    within ``mirror_window = screen_slack + 2 * delta`` of its running
    minimum, and costs each such state and its complement. That covers the
    complement's minimiser ``y* = x_c'``: for every ``x`` of the product,
    with ``E^`` the computed energy, ``s(x_c) <= E(x_c) + e_screen <= E(y*) +
    delta + e_screen <= E^(y*) + e_form + delta + e_screen <= E^(x') + e_form
    + delta + e_screen <= E(x) + 2 * (delta + e_form) + e_screen <= s(x) + 2
    * delta + screen_slack``, with ``s - D`` for ``s``; the float32 sum adds
    ``e32`` at both ends, so :meth:`product_min` widens the window by ``2 *
    e32`` as it does the slack. It covers the product's own minimiser too, as
    the window holds the own one. The rounding of computing ``delta`` (two
    in ``F``, about seven in ``g_v * S``, one in their sum) and the window's
    own sum take less than ``16 u * screen_slack`` off the window. That is far
    below the more than ``2 (K + 3 n) u S`` that ``e_screen``'s spare adds to
    ``screen_slack``, less the ``u S`` or so the threshold's own sum takes.
    The complements are screened this way only where ``2 * delta <=
    screen_slack``, so the window stays at most twice the slack. On a
    bisection ``h`` is the float row sums of ``W``, so ``v`` holds their
    rounding residues and ``delta`` is about ``g_v * S``. A portfolio's ``v``
    spreads with its returns and fails the test.
    """

    n: int
    k: int
    scale: float
    Q: np.ndarray
    h: np.ndarray
    c: float = 0.0
    pinned: int = 0

    @property
    def spec(self) -> DickeSpec:
        """The weight sector the search runs over (pinned bits excluded)."""
        fixed = hamming_weight(self.pinned)
        return DickeSpec(self.n - fixed, self.k - fixed)

    @cached_property
    def _tables(self) -> tuple[list[np.ndarray], list[tuple[int, int, int, np.ndarray]]]:
        """The diagonal table of each block, and per pair ``(a, b, width of b,
        cross table)``; the cross table of ``a < b`` is read at ``byte[a] <<
        width[b] | byte[b]``.

        Built on the first evaluation, once per form: forms made only to read
        the spec or the mask never pay for them.
        """
        Q, h = self._symmetric, np.asarray(self.h, dtype=np.float64)
        span = [slice(lo, min(lo + 8, self.n)) for lo in range(0, self.n, 8)]
        diagonal = []
        for s in span:
            # [v, i]: Q_i's sum over the bits of v where v holds bit i, else 0;
            # the columns added in ascending order give x^T Q_aa x of byte v
            rows = _subset_sums(Q[s, s].T)
            rows[(np.arange(len(rows))[:, None] >> np.arange(rows.shape[1])) & 1 == 0] = 0.0
            quadratic = np.zeros(len(rows))
            for column in rows.T:
                quadratic += column
            diagonal.append(self.scale * quadratic + _subset_sums(h[s]))
        cross = []
        for a, r in enumerate(span):
            for b, s in enumerate(span[a + 1 :], start=a + 1):
                # [v, w]: x^T Q_ab y for the bits x of byte v and y of byte w
                quadratic = _subset_sums(_subset_sums(Q[r, s].T).T)
                quadratic *= 2.0 * self.scale
                cross.append((a, b, s.stop - s.start, quadratic.ravel()))
        return diagonal, cross

    @cached_property
    def _symmetric(self) -> np.ndarray:
        return (self.Q + self.Q.T) / 2.0  # bitwise Q when Q is symmetric

    @cached_property
    def _magnitude(self) -> float:
        """``S = |scale| * sum |Q_ij| + sum |h_i| + |c|`` over all bits."""
        return (
            abs(self.scale) * math.fsum(np.abs(self.Q).ravel())
            + math.fsum(np.abs(self.h))
            + abs(self.c)
        )

    @cached_property
    def screen_slack(self) -> float:
        """How far above the screen's running minimum :meth:`product_min`
        costs states exactly: ``2 * (e_form + e_screen)``, derived in the
        class docstring."""
        u = 2.0 ** -53
        blocks = -(-self.n // 8)
        K = blocks * (blocks + 1) // 2 + 17
        R = K + self.n + 4
        e_form = K * u / (1.0 - K * u) * self._magnitude
        e_screen = 3.0 * R * u / (1.0 - R * u) * self._magnitude
        return 2.0 * (e_form + e_screen)

    @cached_property
    def mirror_window(self) -> float | None:
        """``screen_slack + 2 * delta``, within which :meth:`product_min` with
        ``mirror`` confirms states for the complementary product (class
        docstring); None unless the form is unpinned, ``2k = n`` and ``2 *
        delta <= screen_slack``."""
        if self.pinned or 2 * self.k != self.n:
            return None
        u = 2.0 ** -53
        v = (self.scale * self._symmetric.sum(axis=1) + self.h).tolist()
        middle = sorted(v)[len(v) // 2]  # not np.median: its first call imports for 15-20 ms
        g_v = (self.n + 2) * u / (1.0 - (self.n + 2) * u)
        delta = math.fsum(abs(x - middle) for x in v) + g_v * self._magnitude
        if 2.0 * delta > self.screen_slack:
            return None
        return self.screen_slack + 2.0 * delta

    def product_min(
        self, heads: np.ndarray, tails: np.ndarray, tail_width: int, mirror: bool = False
    ):
        """Exact ``(bits, energy)`` minimum over the states ``head << tail_width |
        tail`` of every head and tail; ties go to the smaller state.

        The head x tail screen (class docstring) sums in float32, in blocks of
        head rows of about ``_EVAL_CHUNK`` entries, so memory holds a block,
        the two groups, each head's bits and one row per head bit of cross
        terms against every tail. Energies come from :meth:`__call__` on the
        states the screen confirms, so they are the ones any batch would give.

        With ``mirror`` every product state must have weight ``k``, and the
        form must have a :attr:`mirror_window`. The one screen then confirms
        states within that window, and the result is a pair: the product's
        ``(bits, energy)``, then that of its complements ``x ^ (2**n - 1)``.
        """
        window = self.mirror_window if mirror else self.screen_slack
        if window is None:
            raise ValueError(
                f"complements of D^{self.n}_{self.k} (pinned {self.pinned:#x}) "
                "cannot share a screen; screen each product on its own"
            )
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        zero = self(np.zeros(1, dtype=np.int64))[0]
        head_bits = _set_bits(np.bitwise_or.reduce(heads))
        tail_bits = _set_bits(np.bitwise_or.reduce(tails))
        cross = (2.0 * self.scale) * self._symmetric[np.ix_(head_bits + tail_width, tail_bits)]
        # the screen's terms, in float64: one row per head bit, then the tail
        # energies and ones, against each head's bits, a one and its energy a
        terms = len(head_bits) + 2
        field = np.empty((terms, len(tails)))
        field[:-2] = cross @ ((tails >> tail_bits[:, None]) & 1).astype(np.float64)
        field[-2] = self(tails) - zero
        field[-1] = 1.0
        a = self(heads << tail_width) - zero
        # M and e32 of the class docstring; float64 where float32 could overflow
        magnitude = math.fsum(np.abs(field[:-1]).max(axis=1)) + float(np.abs(a).max())
        dtype = np.float32 if magnitude + window < 2.0**126 else np.float64
        u = float(np.finfo(dtype).eps) / 2.0
        g = (terms + 1) * u / (1.0 - (terms + 1) * u)
        window += 2.0 * (g * magnitude + terms * float(np.finfo(dtype).smallest_subnormal))
        field = field.astype(dtype)
        x = np.empty((len(heads), terms), dtype=dtype)
        x[:, :-2] = (heads[:, None] >> head_bits) & 1
        x[:, -2] = 1.0
        x[:, -1] = a
        rows = max(1, _EVAL_CHUNK // len(tails))
        lowest, threshold = math.inf, dtype(math.inf)
        flip = (1 << self.n) - 1
        best = [(math.inf, -1), (math.inf, -1)]  # (energy, bits): product, complements
        for lo in range(0, len(heads), rows):
            part = heads[lo : lo + rows]
            screen = x[lo : lo + rows] @ field
            low = float(screen.min())
            if low < lowest:
                # the threshold in the screen's precision, rounded up
                lowest, bound = low, low + window
                threshold = dtype(bound)
                if float(threshold) < bound:
                    threshold = np.nextafter(threshold, dtype(math.inf))
            elif low > float(threshold):
                continue
            near = np.flatnonzero(screen <= threshold)
            row, col = np.divmod(near, len(tails))
            states = (part[row] << tail_width) | tails[col]
            if mirror:
                states = np.concatenate([states, states ^ flip])
            energies = self(states)
            for side in range(1 + mirror):
                half = slice(side * len(near), (side + 1) * len(near))
                best[side] = min(best[side], min_state(states[half], energies[half]))
        if mirror:
            return tuple((bits, energy) for energy, bits in best)
        return best[0][1], best[0][0]

    def __call__(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        if self.pinned:
            states = states | self.pinned
        diagonal, cross = self._tables
        energies = np.full(states.shape, float(self.c))
        for lo in range(0, len(states), _EVAL_CHUNK):
            part, out = states[lo : lo + _EVAL_CHUNK], energies[lo : lo + _EVAL_CHUNK]
            byte = [(part >> (8 * a)) & (len(table) - 1) for a, table in enumerate(diagonal)]
            for table, x in zip(diagonal, byte):
                out += table[x]
            for a, b, width, table in cross:
                out += table[(byte[a] << width) | byte[b]]
        return energies


def _set_bits(mask: int) -> np.ndarray:
    """Positions of the set bits of ``mask``, ascending."""
    mask = int(mask)
    return np.array([i for i in range(mask.bit_length()) if mask >> i & 1], dtype=np.int64)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Entry v, for each ``0 <= v < 2**len(rows)``: the sum of ``rows[i]`` over its set bits i.

    Built by doubling, with elementwise adds only, so the sums round the same
    on any BLAS and any number of threads; each bit is added after the lower
    ones.
    """
    sums = np.zeros((1 << len(rows),) + rows.shape[1:])
    for i in range(len(rows)):
        np.add(sums[: 1 << i], rows[i], out=sums[1 << i : 2 << i])
    return sums


def lift_bits(problem: Problem, bits: int) -> int:
    """A search-width bitstring as a problem-width one (pinned bits set)."""
    return bits | problem.form.pinned


def batch_evaluator(problem: Problem) -> Callable[[np.ndarray], np.ndarray]:
    """The problem's cost as a pure function from int64 basis states to energies.

    Use the result only as that function: read the spec and the lift through
    ``problem.form.spec`` and :func:`lift_bits`.
    """
    return problem.form


def permute(problem: Problem, sigma: Sequence[int]) -> tuple[Problem, tuple[int, ...]]:
    """Reindex so new index i is old index sigma[i]; returns the copy and sigma.

    Every n x n array field is permuted on both axes, every length-n one along
    its axis, and ``permutation`` keeps mapping back to construction order.
    """
    sigma = np.asarray(sigma, dtype=np.int64)
    changes = {"permutation": tuple(problem.permutation[int(s)] for s in sigma)}
    for f in fields(problem):
        value = getattr(problem, f.name)
        if isinstance(value, np.ndarray):
            changes[f.name] = value[np.ix_(sigma, sigma)] if value.ndim == 2 else value[sigma]
    return replace(problem, **changes), tuple(int(s) for s in sigma)


def reorder(problem: Problem, mode: str = "auto") -> tuple[Problem, tuple[int, ...]]:
    """Sort indices ascending by a per-index key and :func:`permute` by it.

    Portfolios sort by expected return ("auto" or "by-return") or by variance
    ("by-variance"), graphs by weighted degree ("auto"). Ascending order parks
    the dominant indices on the most significant bits, which biases
    weight-feasible minima toward high top-half weight.
    """
    if isinstance(problem, BisectionProblem):
        if mode != "auto":
            raise ValueError(f"reorder {mode!r} applies to portfolios only")
        key = problem.weighted_degree
    elif mode in ("auto", "by-return"):
        key = problem.mu
    elif mode == "by-variance":
        key = np.diag(problem.A)
    else:
        raise ValueError(f"reorder mode {mode!r} not one of ('by-variance', 'by-return')")
    return permute(problem, np.argsort(key, kind="stable"))


# ---------------------------------------------------------------------------
# ingestion and generation
# ---------------------------------------------------------------------------


def _stats_from_prices(prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simple daily returns -> (mean vector, sample covariance with T-1)."""
    returns = prices[1:] / prices[:-1] - 1.0
    mu = returns.mean(axis=0)
    A = np.cov(returns, rowvar=False, ddof=1)
    return mu, np.atleast_2d(A)


def ingest_csv(path: str | Path, q: float = 0.9, budget: int | None = None) -> PortfolioProblem:
    """Build a portfolio instance from a closing-price table.

    Expects a header ``date,asset_0,...``, at least 3 rows, strictly
    increasing ISO dates, and fully numeric price cells.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[0] != "date":
        raise ValueError(f"{path}:1: header must be 'date,asset_0,...', got {rows[0]!r}")
    n = len(header) - 1
    if len(rows) - 1 < 3:
        raise ValueError(f"{path}:{len(rows)}: needs at least 3 price rows, found {len(rows) - 1}")

    dates: list[_dt.date] = []
    prices = np.empty((len(rows) - 1, n))
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ValueError(f"{path}:{lineno}: expected {n + 1} cells, found {len(row)}")
        try:
            day = _dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from None
        if dates and day <= dates[-1]:
            raise ValueError(f"{path}:{lineno}: dates must be strictly increasing")
        dates.append(day)
        for col, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "":
                raise ValueError(f"{path}:{lineno}: missing value in column {header[col + 1]!r}")
            try:
                prices[lineno - 2, col] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric cell {cell!r} in column {header[col + 1]!r}"
                ) from None

    mu, A = _stats_from_prices(prices)
    if budget is None:
        budget = n // 2
    return PortfolioProblem(n=n, q=q, A=A, mu=mu, budget=budget)


def save_prices(prices: np.ndarray, path: str | Path) -> None:
    """Write closing prices, one row per day from 2020-01-01, as the
    ``date,asset_0,...`` table that :func:`ingest_csv` reads."""
    day = _dt.date(2020, 1, 1)
    lines = ["date," + ",".join(f"asset_{i}" for i in range(prices.shape[1]))]
    for row in prices:
        lines.append(day.isoformat() + "," + ",".join(repr(float(v)) for v in row))
        day += _dt.timedelta(days=1)
    Path(path).write_text("\n".join(lines) + "\n")


def synth_price_paths(n: int, seed: int) -> np.ndarray:
    """Seeded factor-model closing prices, shape (253, n), row 0 all ones.

    Per-asset drifts and volatilities are drawn once; daily shocks over 252
    periods mix 3 common factors with idiosyncratic noise; prices compound
    multiplicatively.
    """
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    periods, num_factors = 252, 3
    rng = np.random.default_rng(seed)
    drift = rng.uniform(0.0008, 0.0045, size=n)
    vol = rng.uniform(0.005, 0.025, size=n)
    loadings = rng.normal(size=(n, num_factors))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    factor_share = 0.5
    factors = rng.normal(size=(periods, num_factors))
    idio = rng.normal(size=(periods, n))
    shocks = math.sqrt(factor_share) * factors @ loadings.T + math.sqrt(1.0 - factor_share) * idio
    daily = drift[None, :] + vol[None, :] * shocks
    return np.vstack([np.ones(n), np.cumprod(1.0 + daily, axis=0)])


def synth_assets(
    n: int,
    seed: int,
    q: float = 0.9,
    budget: int | None = None,
) -> PortfolioProblem:
    """Seeded price paths pushed through the same pipeline as CSV ingestion."""
    prices = synth_price_paths(n, seed)
    mu, A = _stats_from_prices(prices)
    if budget is None:
        budget = n // 2
    return PortfolioProblem(n=n, q=q, A=A, mu=mu, budget=budget)


def synth_graph(
    n: int,
    p_edge: float,
    seed_graph: int,
    seed_weights: int,
    offset: float = 0.0,
    fixed_top_bit: bool = False,
) -> BisectionProblem:
    """Bernoulli(p_edge) edges over i<j in row-major order, uniform (0,1) weights.

    Each stream is drawn a row at a time, in the order of one draw per node
    pair and one weight per edge.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0.0 < p_edge <= 1.0:
        raise ValueError(f"edge probability {p_edge} outside (0, 1]")
    rng_edges = np.random.default_rng(seed_graph)
    rng_weights = np.random.default_rng(seed_weights)
    W = np.zeros((n, n))
    for i in range(n - 1):
        j = i + 1 + np.flatnonzero(rng_edges.random(n - 1 - i) < p_edge)
        W[i, j] = W[j, i] = rng_weights.random(len(j))
    return BisectionProblem(n=n, weights=W, offset=offset, fixed_top_bit=fixed_top_bit)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_portfolio(p: PortfolioProblem, path: str | Path) -> None:
    doc = {
        "n": p.n,
        "q": p.q,
        "A": [float(v) for v in p.A.ravel()],
        "mu": [float(v) for v in p.mu],
        "xi": p.budget,
        "permutation": list(p.permutation),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_portfolio(path: str | Path) -> PortfolioProblem:
    """Read a :func:`save_portfolio` file; a malformed one raises ValueError
    naming ``path`` and, where one is at fault, the key."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a portfolio file holds a JSON object, got a {type(doc).__name__}")

    def read(key: str, convert: Callable, default=None):
        if key not in doc:
            if default is not None:
                return default
            raise ValueError(f"{path}: missing key {key!r}")
        try:
            return convert(doc[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: key {key!r}: {exc}") from None

    def floats(values) -> np.ndarray:
        return np.array(values, dtype=np.float64)

    n = read("n", int)
    if n < 1:
        raise ValueError(f"{path}: key 'n' must be a positive integer, got {n}")
    A, mu, xi = read("A", floats), read("mu", floats), read("xi", int)
    if A.shape not in ((n * n,), (n, n)):
        raise ValueError(f"{path}: key 'A' has shape {A.shape}; n = {n} needs {n * n} values")
    if mu.shape != (n,):
        raise ValueError(f"{path}: key 'mu' has shape {mu.shape}; n = {n} needs {n} values")
    if not 0 <= xi <= n:
        raise ValueError(f"{path}: key 'xi' = {xi} outside 0..{n}")
    q, perm = read("q", float), read("permutation", lambda v: tuple(int(i) for i in v), ())
    try:
        return PortfolioProblem(n=n, q=q, A=A.reshape(n, n), mu=mu, budget=xi, permutation=perm)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_graph(b: BisectionProblem, path: str | Path) -> None:
    lines = [f"# nodes={b.n} offset={float(b.offset)!r} fixed_top_bit={int(b.fixed_top_bit)}"]
    for i in range(b.n):
        for j in range(i + 1, b.n):
            if b.weights[i, j] != 0.0:
                lines.append(f"{i} {j} {float(b.weights[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path) -> BisectionProblem:
    """Read a :func:`save_graph` file: the header ``# nodes=N offset=F
    fixed_top_bit=0|1``, then one ``u v weight`` line per edge. A malformed
    file raises ValueError naming ``path:line``."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}:1: missing header line '# nodes=N offset=F fixed_top_bit=0|1'")
    header = {"nodes": None, "offset": "0.0", "fixed_top_bit": "0"}
    for tok in lines[0].lstrip("# ").split():
        key, eq, value = tok.partition("=")
        if not eq or key not in header:
            raise ValueError(
                f"{path}:1: malformed header token {tok!r}; expected nodes=, offset= or fixed_top_bit="
            )
        header[key] = value
    try:
        n = int(header["nodes"])
        offset = float(header["offset"])
        pinned = {"0": False, "1": True}[header["fixed_top_bit"]]
    except (TypeError, ValueError, KeyError):
        raise ValueError(
            f"{path}:1: header needs nodes=<positive integer>, offset=<number> and "
            f"fixed_top_bit=0|1, got {lines[0]!r}"
        ) from None
    if n < 1:
        raise ValueError(f"{path}:1: nodes must be a positive integer, got {n}")
    W = np.zeros((n, n))
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: an edge line is 'u v weight', got {len(parts)} fields")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: edge {line.strip()!r} is not 'u v weight'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{path}:{lineno}: node index outside 0..{n - 1} in edge {line.strip()!r}")
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-loop on node {u}")
        if not math.isfinite(w):
            raise ValueError(f"{path}:{lineno}: edge weight {parts[2]!r} is not finite")
        W[u, v] = W[v, u] = w
    try:
        return BisectionProblem(n=n, weights=W, offset=offset, fixed_top_bit=pinned)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
