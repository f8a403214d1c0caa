"""Product decomposition of the weight-constrained basis and its bookkeeping.

A Dicke state ``|D^n_k>`` splits at qubit boundary j into a sum of product
terms ``|D^j_i> (x) |D^{n-j}_{k-i}>`` over the feasible upper weights i. The
*equilibrium* partition always splits at the midpoint and may recurse: after p
recursions each term — a **sub-ansatz** — is a product of 2^p fragments, each
a Dicke spec on n/2^p qubits.

A sub-ansatz is identified by the per-level choices of its fragments. At level
l there are 2^{l-1} parent fragments; for each, the chosen child is recorded as
an **ordinal** counted from the fragment's smallest feasible upper weight, so
ordinal c of fragment (m, w) selects upper weight ``t = max(0, w - m/2) + c``.
At the top level of a half-weight parent the ordinal equals the upper weight
itself. Text form (:func:`format_id`): ``sa^1_[18]-sa^2_[2,3]``.

Basis-state layout: fragment 0 occupies the *most significant* bits, so the
top-level index i counts the 1s among the upper half of the bitstring, and the
largest index corresponds to ``|1...10...0>``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import qsim
from .ansatz import Circuit, DickeSpec, build_for
from .qsim import bitstrings_of_weight, hamming_weight

__all__ = [
    "SubAnsatzId",
    "PartitionTree",
    "decompose",
    "child_count",
    "child_weight",
    "subansatz_basis_count",
    "product_states",
    "enumerate_subansatz_arrays",
    "in_subansatz",
    "FragmentPreparer",
    "run_subansatz",
    "entanglement_entropy",
    "loose_bound_product",
    "loose_bound_closed",
    "bitstrings_of_weight",
    "format_id",
]


def decompose(spec: DickeSpec, j: int) -> list[tuple[int, DickeSpec, DickeSpec]]:
    """All product terms (i, upper (j, i), lower (n-j, k-i)) with feasible weights."""
    n, k = spec.n, spec.k
    if not 1 <= j <= n - 1:
        raise ValueError(f"split point j={j} outside 1..{n - 1}")
    lo = max(0, k - (n - j))
    hi = min(j, k)
    return [(i, DickeSpec(j, i), DickeSpec(n - j, k - i)) for i in range(lo, hi + 1)]


def child_count(frag: DickeSpec) -> int:
    """Number of feasible midpoint splits of a fragment (its child-grid extent)."""
    if frag.n % 2:
        raise ValueError(f"fragment size {frag.n} is odd; cannot split at midpoint")
    half = frag.n // 2
    return min(half, frag.k) - max(0, frag.k - half) + 1


def child_weight(frag: DickeSpec, ordinal: int) -> int:
    """Upper weight selected by a 0-based child ordinal of a midpoint split."""
    if not 0 <= ordinal < child_count(frag):
        raise ValueError(f"child ordinal {ordinal} outside 0..{child_count(frag) - 1} for D^{frag.n}_{frag.k}")
    return max(0, frag.k - frag.n // 2) + ordinal


@dataclass(frozen=True)
class SubAnsatzId:
    """Identifier of one sub-ansatz: the parent spec plus per-level child ordinals.

    ``levels[l]`` holds 2^l ordinals, one per fragment existing before level
    l+1 splits it.
    """

    parent: DickeSpec
    levels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self.fragments()  # validates every ordinal and split

    @property
    def depth(self) -> int:
        return len(self.levels)

    def fragments(self) -> list[DickeSpec]:
        """Leaf fragments in bit order (fragment 0 = most significant bits)."""
        frags = [self.parent]
        for depth, level in enumerate(self.levels, start=1):
            if len(level) != len(frags):
                raise ValueError(
                    f"level {depth} carries {len(level)} ordinals for {len(frags)} fragments"
                )
            split: list[DickeSpec] = []
            for frag, ordinal in zip(frags, level):
                t = child_weight(frag, ordinal)
                half = frag.n // 2
                split.append(DickeSpec(half, t))
                split.append(DickeSpec(half, frag.k - t))
            frags = split
        return frags

    def child(self, ordinals: Sequence[int]) -> "SubAnsatzId":
        return SubAnsatzId(self.parent, self.levels + (tuple(ordinals),))

    def mirror(self) -> "SubAnsatzId":
        """The cell of the complements of this cell's states, for a half-weight
        parent: ordinal ``c`` becomes ``child_count - 1 - c`` at every level."""
        levels = []
        for depth, level in enumerate(self.levels):
            frags = SubAnsatzId(self.parent, self.levels[:depth]).fragments()
            levels.append(tuple(child_count(f) - 1 - c for f, c in zip(frags, level)))
        return SubAnsatzId(self.parent, tuple(levels))

    def __str__(self) -> str:
        return format_id(self)


def format_id(sa: SubAnsatzId) -> str:
    parts = [
        f"sa^{lvl}_[{','.join(str(i) for i in ordinals)}]"
        for lvl, ordinals in enumerate(sa.levels, start=1)
    ]
    return "-".join(parts)


@dataclass(frozen=True)
class PartitionTree:
    """All sub-ansatze of an equilibrium (midpoint) partition at a fixed depth."""

    root: DickeSpec
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("partition depth must be >= 1")
        if self.root.n % (1 << self.depth):
            raise ValueError(f"n={self.root.n} not divisible by 2^{self.depth}")

    def ids(self) -> Iterator[SubAnsatzId]:
        """Lazily yield every sub-ansatz id, lexicographic in the level ordinals."""

        def grow(sa: SubAnsatzId, remaining: int) -> Iterator[SubAnsatzId]:
            if remaining == 0:
                yield sa
                return
            for ordinals in itertools.product(*(range(child_count(f)) for f in sa.fragments())):
                yield from grow(sa.child(ordinals), remaining - 1)

        yield from grow(SubAnsatzId(self.root, ()), self.depth)

    def count(self) -> int:
        return sum(1 for _ in self.ids())


def loose_bound_product(n: int, p: int) -> int:
    """prod_{l=1..p} (n/2^l)^(2^(l-1)) — sub-ansatz count bound of the recursion."""
    total = 1
    for level in range(1, p + 1):
        total *= (n // (1 << level)) ** (1 << (level - 1))
    return total


def loose_bound_closed(n: int, p: int) -> int:
    """Closed form n^(2^p - 1) / 2^((p-1)*2^p + 1) of the same bound."""
    num = n ** ((1 << p) - 1)
    den = 1 << ((p - 1) * (1 << p) + 1)
    return num // den


def subansatz_basis_count(sa: SubAnsatzId) -> int:
    return math.prod(math.comb(f.n, f.k) for f in sa.fragments())


def product_states(frags: list[DickeSpec]) -> np.ndarray:
    """Every state of a fragment product, fragment 0 most significant, ascending."""
    states = np.zeros(1, dtype=np.int64)
    for f in frags:
        states = ((states[:, None] << f.n) | bitstrings_of_weight(f.n, f.k)).ravel()
    return states


def enumerate_subansatz_arrays(sa: SubAnsatzId, chunk: int = 1 << 20) -> Iterator[np.ndarray]:
    """The sub-ansatz basis states in ascending order, in chunks of about ``chunk``.

    The tail is the deepest fragments whose product fits in a chunk, or the
    last fragment alone when even that does not. A chunk joins whole tails to
    the fewest heads (states of the other fragments) that bring it to
    ``chunk`` states; a tail wider than a chunk comes in slices of ``chunk``.
    """
    frags = sa.fragments()
    split = len(frags) - 1
    while split > 0 and math.prod(math.comb(f.n, f.k) for f in frags[split - 1 :]) <= chunk:
        split -= 1
    tail = product_states(frags[split:])
    heads = product_states(frags[:split]) << sum(f.n for f in frags[split:])
    rows = -(-chunk // len(tail))
    width = chunk if len(tail) > chunk else rows * len(tail)
    for at in range(0, len(heads), rows):
        block = (heads[at : at + rows, None] | tail).ravel()
        for cut in range(0, len(block), width):
            yield block[cut : cut + width]


def in_subansatz(bits: int, sa: SubAnsatzId) -> bool:
    """Whether the bitstring's per-fragment weights match the sub-ansatz."""
    frags = sa.fragments()
    shift = sum(f.n for f in frags)
    for f in frags:
        shift -= f.n
        if hamming_weight((bits >> shift) & ((1 << f.n) - 1)) != f.k:
            return False
    return True


# A tabulated cell holds, per state, its int64 state and float64 energy.
# tracemalloc read 16 bytes per state held, at 184,756 and 853,776 states, and
# 24.5 at the peak of building the table; four int64 per state cover that peak.
TABLE_BYTES = 4 * 8


class FragmentPreparer:
    """One sub-ansatz prepared as a product of independently simulated fragments.

    Fragments of weight 0 or full weight are fixed bit blocks and take no
    parameters: together they are one ``fixed = (mask, bits)`` pair. Each
    other fragment is a ``(shift, width, circuit)`` in ``parameterized``, its
    circuit built once; they are compiled side by side into one
    :class:`~hwvqe.qsim.Stack` on first use, so an evaluation simulates them
    all in one pass and takes their parameters as one flat vector, fragment 0
    first. The full-width ansatz is the depth-0 case ``SubAnsatzId(spec,
    ())``: a single fragment, the spec itself.

    Outcomes are drawn as cell indices, positions in
    ``product_states(fragments)``: each fragment's pick in its ascending
    sector is one digit of a mixed-radix number, fragment 0 the most
    significant. After :meth:`tabulate`, the cell's states and energies are
    read from a table of the whole cell.
    """

    def __init__(self, sa: SubAnsatzId):
        self.fragments = sa.fragments()
        self.parameterized: list[tuple[int, int, Circuit]] = []
        mask = bits = 0
        shift = sum(f.n for f in self.fragments)
        for f in self.fragments:
            shift -= f.n
            block = ((1 << f.n) - 1) << shift
            if f.k in (0, f.n):
                mask |= block
                bits |= block if f.k else 0
            else:
                self.parameterized.append((shift, f.n, build_for(f)))
        self.fixed = (mask, bits)
        self.num_params = sum(c.num_params for _, _, c in self.parameterized)
        self.size = subansatz_basis_count(sa)
        self.table: tuple[np.ndarray, np.ndarray] | None = None  # (states, energies)
        self._values: np.ndarray | None = None  # the last draw's stacked amplitudes

    @cached_property
    def _stack(self) -> qsim.Stack:
        return qsim.Stack([c for _, _, c in self.parameterized])

    def tabulate(self, cost: Callable[[np.ndarray], np.ndarray], draws: int) -> bool:
        """Cost the whole cell once, if it holds no more states than ``draws``
        and its table fits ``qsim.MAX_ENGINE_BYTES``; returns whether it did.

        Past that size a run never sees most of the cell, and costing the
        distinct states of each evaluation is cheaper.
        """
        if self.size > draws or self.size * TABLE_BYTES > qsim.MAX_ENGINE_BYTES:
            return False
        states = product_states(self.fragments)
        self.table = (states, cost(states))
        return True

    def draw(self, params: Sequence[float], shots: int, rng: np.random.Generator) -> np.ndarray:
        """Simulate the parameterized fragments once, from their ``num_params``
        parameters back to back, and draw ``shots`` outcomes.

        Each fragment in turn takes ``shots`` uniforms from ``rng`` and picks
        by :func:`~hwvqe.qsim.inverse_cdf`, as :func:`~hwvqe.qsim.draw` does.
        Returns the cell indices, in draw order. The amplitudes are kept for
        :meth:`probability_of`.
        """
        self._values = values = self._stack.run(params)
        cells = None
        for lo, hi in self._stack.bounds:
            picks = qsim.inverse_cdf(values[lo:hi], rng.random(shots))
            cells = picks if cells is None else cells * (hi - lo) + picks
        return np.zeros(shots, dtype=np.int64) if cells is None else cells

    def count(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct cell indices and their counts, in first-draw order."""
        seen, first, counts = np.unique(cells, return_index=True, return_counts=True)
        order = np.argsort(first)
        return seen[order], counts[order]

    def states_of(self, cells: np.ndarray) -> np.ndarray:
        """The full-width basis states at the given cell indices."""
        if self.table is not None:
            return self.table[0][cells]
        states = np.full(len(cells), self.fixed[1], dtype=np.int64)
        for (shift, _, _), sector in zip(reversed(self.parameterized), reversed(self._stack.states)):
            cells, digit = np.divmod(cells, len(sector))
            states |= sector[digit] << shift
        return states

    def sample(
        self, params: Sequence[float], shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``shots`` product outcomes (:meth:`draw`).

        Returns the distinct full-width basis states and their counts, in
        first-draw order (the order of ``Counter(draws)``).
        """
        cells, counts = self.count(self.draw(params, shots, rng))
        return self.states_of(cells), counts

    def probability_of(self, bits: int) -> float:
        """Born probability of a full-width basis state in the last drawn product."""
        mask, fixed = self.fixed
        if bits & mask != fixed:
            return 0.0
        prob = 1.0
        stack = self._stack
        for (shift, width, _), (lo, _), sector in zip(self.parameterized, stack.bounds, stack.states):
            frag_bits = (bits >> shift) & ((1 << width) - 1)
            i = int(np.searchsorted(sector, frag_bits))
            if i == len(sector) or sector[i] != frag_bits:
                return 0.0
            # a scalar ** 2 can round unlike a * a; trace.csv records this form
            prob *= float(np.abs(self._values[lo + i]) ** 2)
        return prob


def run_subansatz(
    sa: SubAnsatzId,
    params: Sequence[float],
    shots: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Counter:
    """Sample the product state once: each fragment simulated alone, outcomes concatenated.

    ``params`` holds the parameterized fragments' parameters back to back,
    fragment 0 first; fragments of weight 0 or full weight contribute fixed
    bits and take none. Returns a Counter over full-width basis states.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    states, counts = FragmentPreparer(sa).sample(params, shots, rng)
    return Counter(dict(zip(states.tolist(), counts.tolist())))


def entanglement_entropy(a: complex, b: complex) -> float:
    """Binary entropy (bits) of a two-term Schmidt decomposition."""
    pa = abs(a) ** 2
    pb = abs(b) ** 2
    if abs(pa + pb - 1.0) > 1e-9:
        raise ValueError(f"|a|^2 + |b|^2 = {pa + pb} != 1")
    ent = 0.0
    for p in (pa, pb):
        if p > 0.0:
            ent -= p * math.log2(p)
    return ent
