"""Weight-sector simulation of parameterized pair-rotation circuits.

Conventions
-----------
A basis state of ``n`` qubits is the integer whose bit ``p`` holds the state of
qubit ``q_p``; qubit ``q_{n-1}`` is the most significant bit.

The elementary parameterized operation acts on an adjacent qubit pair
``(upper, lower)`` with ``upper = lower + 1`` and rotates only the odd-weight
subspace of the pair::

    |01> -> cos(theta/2)|01> - sin(theta/2)|10>
    |10> -> sin(theta/2)|01> + cos(theta/2)|10>

``|00>`` and ``|11>`` are fixed, so the total Hamming weight of every basis
state is conserved. A circuit started from a basis state therefore only
reaches the ``C(n, w)`` states of its weight sector, and with real rotations
from a real start every amplitude is real.

The engine simulates exactly that: the sector's states in ascending order and
one float64 amplitude each. A circuit is compiled once (cached by circuit)
into its sector, the index of its start state, one pair of partner tables
``(i01, i10)`` per lower qubit it uses (the positions of the states whose pair
reads ``01`` and of their ``10`` partners), and the reordering its trailing X
layer induces. The tables are ordered by the first block at which a pair can
hold an amplitude, so each block gathers and scatters only a prefix of them:
the pairs no earlier block can have reached hold zeros for any parameters.

A :class:`Stack` lays the sectors of several circuits back to back in one
amplitude vector and rotates block ``b`` of all of them in one step, so a
product of small circuits costs one pass, not one per circuit.
:func:`simulate` is its one-circuit case. :func:`apply_circuit` takes any
state: it runs the same rotation over whole partner tables on each weight
sector the state populates, under the same memory cap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAX_PACKED_QUBITS",
    "MAX_DENSE_QUBITS",
    "MAX_ENGINE_BYTES",
    "BasisState",
    "StateVector",
    "init_basis",
    "apply_circuit",
    "bitstrings_of_weight",
    "check_engine_memory",
    "Stack",
    "simulate",
    "probability_of",
    "support",
    "inverse_cdf",
    "draw",
    "sample",
    "hamming_weight",
    "hamming_weight_array",
]

MAX_PACKED_QUBITS = 62  # basis states are bit patterns packed into int64
MAX_DENSE_QUBITS = 26  # 2**26 complex128 amplitudes = 1 GiB
MAX_ENGINE_BYTES = 1 << 30  # one sector's amplitudes plus its partner tables

BasisLike = Union[int, "BasisState"]


def hamming_weight(bits: int) -> int:
    return int(bits).bit_count()


_POPCOUNT16 = np.bitwise_count(np.arange(1 << 16, dtype=np.uint16))  # uint8 Hamming weights


def hamming_weight_array(states: np.ndarray) -> np.ndarray:
    """Hamming weights of non-negative int64 states, as int64 (callers subtract from them)."""
    return np.bitwise_count(np.asarray(states, dtype=np.int64)).astype(np.int64)


@dataclass(frozen=True)
class BasisState:
    """An n-bit computational basis state with cached Hamming weight."""

    bits: int
    num_qubits: int
    weight: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.num_qubits):
            raise ValueError(f"basis state {self.bits} out of range for {self.num_qubits} qubits")
        object.__setattr__(self, "weight", hamming_weight(self.bits))

    def __index__(self) -> int:
        return self.bits

    def to_string(self) -> str:
        """Bitstring with qubit n-1 leftmost, e.g. |0101> -> '0101'."""
        return format(self.bits, f"0{self.num_qubits}b")

    def __str__(self) -> str:
        return self.to_string()


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_PACKED_QUBITS:
        raise ValueError(f"qubit count {n} outside supported range 1..{MAX_PACKED_QUBITS}")


class StateVector:
    """Amplitudes of an n-qubit state.

    ``values[i]`` is the amplitude of basis state ``states[i]`` (ascending);
    every other basis state has amplitude exactly 0.0. :attr:`amplitudes` is
    the dense complex128 view over all 2**n states, built on first read.
    """

    def __init__(self, num_qubits: int, states: np.ndarray, values: np.ndarray):
        self.num_qubits = num_qubits
        self.states = states
        self.values = values

    @cached_property
    def amplitudes(self) -> np.ndarray:
        if self.num_qubits > MAX_DENSE_QUBITS:
            raise ValueError(
                f"dense view of {self.num_qubits} qubits needs 2^{self.num_qubits} amplitudes, "
                f"limit 2^{MAX_DENSE_QUBITS}"
            )
        dense = np.zeros(1 << self.num_qubits, dtype=np.complex128)
        dense[self.states] = self.values
        return dense

    def index_of(self, bits: int) -> Optional[int]:
        """Position of basis state ``bits`` in :attr:`values`, or None if not tracked."""
        i = int(np.searchsorted(self.states, bits))
        return i if i < len(self.states) and self.states[i] == bits else None

    def norm_sq(self) -> float:
        return float(np.vdot(self.values, self.values).real)


# ---------------------------------------------------------------------------
# the kernel and its tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bitstrings_of_weight(m: int, w: int) -> np.ndarray:
    """All m-bit integers of Hamming weight w, ascending (read-only array).

    Up to 16 bits every weight reads the one 16-bit popcount table: a call
    scans its first 2^m entries with a mask of 2^m bytes (at most 64 KiB).
    Wider, a whole cube would take 2^m bytes of mask and 8 * 2^m of states
    (2 GiB at m = 28, where C(28, 14) takes 306 MiB), so the sector is built
    bit by bit from S(j, v) = S(j-1, v) followed by 2^(j-1) | S(j-1, v-1),
    keeping only the weights v that can still reach w in the remaining bits.
    """
    if not 0 <= w <= m:
        raise ValueError(f"weight {w} outside 0..{m}")
    if m <= 16:
        out = np.flatnonzero(_POPCOUNT16[: 1 << m] == w).astype(np.int64, copy=False)
    else:
        empty = np.empty(0, dtype=np.int64)
        rows = {0: np.zeros(1, dtype=np.int64)}
        for j in range(1, m + 1):
            top = np.int64(1) << (j - 1)
            rows = {
                v: np.concatenate((rows.get(v, empty), top | rows.get(v - 1, empty)))
                for v in range(max(0, w - (m - j)), min(w, j) + 1)
            }
        out = rows[w]
    out.setflags(write=False)
    return out


def _rotate(a: np.ndarray, i01: np.ndarray, i10: np.ndarray, c, s) -> None:
    """Rotate the |01>/|10> pairs listed by the partner tables, in place.

    ``c`` and ``s`` are the half-angle cosine and sine (:func:`_half_angle`):
    scalars, or one per pair.
    """
    a01 = a[i01]
    a10 = a[i10]
    a[i01] = c * a01 + s * a10
    a[i10] = -s * a01 + c * a10


def _half_angle(theta: float) -> tuple[float, float]:
    # libm's, not numpy's vector cos/sin, which need not round alike on every CPU
    return math.cos(theta / 2.0), math.sin(theta / 2.0)


def _check_sector(n: int, w: int, lowers: Sequence[int]) -> None:
    """Refuse a sector whose float64 amplitudes plus int64 partner tables exceed the cap.

    Each lower qubit's two tables list the C(n-2, w-1) states whose pair reads
    01 and their partners.
    """
    _check_n(n)
    pairs = math.comb(n - 2, w - 1) if n >= 2 and w >= 1 else 0
    need = 8 * math.comb(n, w) + 16 * pairs * len(lowers)
    if need > MAX_ENGINE_BYTES:
        raise ValueError(
            f"the weight-{w} sector of {n} qubits has {math.comb(n, w)} states and needs "
            f"{need / 2**20:.0f} MiB with its partner tables, above the "
            f"{MAX_ENGINE_BYTES >> 20} MiB engine cap"
        )


def check_engine_memory(circuit) -> None:
    """Refuse, before allocating anything, a circuit whose sector exceeds ``MAX_ENGINE_BYTES``."""
    _check_sector(circuit.num_qubits, hamming_weight(_mask(circuit.x_placements)), _lowers(circuit))


def _partners(states: np.ndarray, lower: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the states whose pair at ``lower`` reads 01, and of their 10 partners."""
    i01 = np.flatnonzero(((states >> lower) & 3) == 1)
    return i01, np.searchsorted(states, states[i01] ^ (3 << lower))


def _mask(qubits: Sequence[int]) -> int:
    m = 0
    for q in qubits:
        m ^= 1 << q
    return m


def _lowers(circuit) -> tuple[int, ...]:
    return tuple(sorted({lower for _, lower, _ in circuit.blocks}))


@lru_cache(maxsize=16)
def _compile(circuit) -> tuple[int, tuple, np.ndarray, Optional[np.ndarray]]:
    """A circuit on its weight sector: the start state's index, one ``(i01, i10,
    slot)`` per block, the output states (ascending), and the output-to-sector
    positions when ``post_x`` reorders them (flipping every qubit reverses the
    order; any other mask permutes it).

    Each lower qubit's pairs are ordered by the first block, in circuit order, at
    which either state of the pair is reachable from the start state, so each
    block rotates a prefix of its lower qubit's tables (views, not copies). The
    pairs it skips hold only zeros for any parameters.
    """
    start = _mask(circuit.x_placements)
    n, w, lowers = circuit.num_qubits, hamming_weight(start), _lowers(circuit)
    _check_sector(n, w, lowers)
    sector = bitstrings_of_weight(n, w)
    begin = int(np.searchsorted(sector, start))
    partners = {lower: _partners(sector, lower) for lower in lowers}

    # first[lower][j]: the first block on `lower` at which pair j can hold an amplitude
    never = len(circuit.blocks)
    narrow = np.min_scalar_type(never)
    first = {lower: np.full(len(i01), never, narrow) for lower, (i01, _) in partners.items()}
    reached = np.zeros(len(sector), dtype=bool)
    reached[begin] = True
    for b, (_, lower, _) in enumerate(circuit.blocks):
        i01, i10 = partners[lower]
        fresh = np.flatnonzero((first[lower] == never) & (reached[i01] | reached[i10]))
        first[lower][fresh] = b
        reached[i01[fresh]] = True
        reached[i10[fresh]] = True
    del reached

    for lower in lowers:
        order = np.argsort(first[lower], kind="stable")
        first[lower] = first[lower][order]
        partners[lower] = tuple(table[order] for table in partners[lower])
        del order
    blocks = []
    for b, (_, lower, slot) in enumerate(circuit.blocks):
        m = int(np.searchsorted(first[lower], b, side="right"))
        i01, i10 = partners[lower]
        blocks.append((i01[:m], i10[:m], slot))

    flip = _mask(circuit.post_x)
    order = None
    states = sector
    if flip:
        flipped = sector ^ flip
        order = np.argsort(flipped, kind="stable")
        states = flipped[order]
        states.setflags(write=False)
    return begin, tuple(blocks), states, order


# A step merges the blocks of several circuits only while they rotate at most
# this many pairs together. A merged step saves the numpy calls of one rotation
# per extra circuit, about 8 us whatever its size, but copies its tables and
# slots (24 bytes per pair) and spreads its angles over every pair (16 bytes
# per pair per run). The cap keeps that within 40 KiB per step, so stacking
# large circuits copies none of their tables.
_MERGED_PAIRS = 1024


class Stack:
    """Circuits compiled side by side into one amplitude vector.

    Circuit ``j`` holds ``bounds[j]`` of the vector: its output states
    (``states[j]``, ascending) and their amplitudes. :meth:`run` takes the
    circuits' ``num_params`` parameters back to back. Step ``b`` rotates block
    ``b`` of every circuit whose block has pairs to rotate. A step over one
    circuit rotates its slice of the vector with scalar angles, so a
    one-circuit stack runs exactly the one-circuit kernel. Where several
    circuits rotate at most ``_MERGED_PAIRS`` pairs together, their tables are
    offset into the stacked vector and joined, and one rotation takes an angle
    per pair; larger steps rotate each circuit's slice in turn. One final
    permutation applies every conjugate circuit's reordering, and none is made
    when no circuit reorders.
    """

    def __init__(self, circuits: Sequence):
        self.circuits = tuple(circuits)
        compiled = [_compile(c) for c in self.circuits]
        bounds, starts = [], []
        end = 0
        for begin, _, states, _ in compiled:
            bounds.append((end, end + len(states)))
            starts.append(end + begin)
            end += len(states)
        self.bounds = tuple(bounds)
        self.states = tuple(states for _, _, states, _ in compiled)
        self.size = end
        self._starts = np.array(starts, dtype=np.int64)
        self._order = None
        if len(compiled) == 1:
            self._order = compiled[0][3]  # _compile's cached order, not a copy
        elif any(order is not None for _, _, _, order in compiled):
            self._order = np.concatenate([
                np.arange(lo, hi) if order is None else order + lo
                for (lo, hi), (_, _, _, order) in zip(bounds, compiled)
            ])

        # a step is (part, i01, i10, slot): with `part` a slice of the vector, the
        # tables index that slice and `slot` is a slot of the joined parameter
        # vector; with `part` None, they index the vector and `slot` is a slice
        # of the per-pair slots
        steps: list[tuple[Optional[slice], np.ndarray, np.ndarray, Union[int, slice]]] = []
        pair_slots: list[np.ndarray] = []
        bases = np.cumsum([0] + [c.num_params for c in self.circuits]).tolist()
        self.num_params = bases[-1]
        for b in range(max((len(blocks) for _, blocks, _, _ in compiled), default=0)):
            parts = [
                (slice(lo, hi), i01, i10, slot + base)
                for (lo, hi), base, (_, blocks, _, _) in zip(bounds, bases, compiled)
                if b < len(blocks)
                for i01, i10, slot in [blocks[b]]
                if len(i01)
            ]
            width = sum(len(i01) for _, i01, _, _ in parts)
            if len(parts) < 2 or width > _MERGED_PAIRS:
                steps += parts
                continue
            at = sum(len(slots) for slots in pair_slots)
            steps.append((
                None,
                np.concatenate([i01 + part.start for part, i01, _, _ in parts]),
                np.concatenate([i10 + part.start for part, _, i10, _ in parts]),
                slice(at, at + width),
            ))
            pair_slots += [np.full(len(i01), slot) for _, i01, _, slot in parts]
        self._steps = steps
        self._pair_slots = np.concatenate(pair_slots) if pair_slots else None

    def run(self, params: Sequence[float]) -> np.ndarray:
        """The stacked output amplitudes, for the circuits' parameters back to back."""
        if len(params) != self.num_params:
            raise ValueError(f"{len(params)} parameters for {self.num_params} blocks")
        cos, sin = [], []
        for theta in params:
            c, s = _half_angle(float(theta))
            cos.append(c)
            sin.append(s)
        if self._pair_slots is not None:
            pair_cos = np.array(cos)[self._pair_slots]
            pair_sin = np.array(sin)[self._pair_slots]
        a = np.zeros(self.size, dtype=np.float64)
        a[self._starts] = 1.0
        for part, i01, i10, slot in self._steps:
            if part is None:
                _rotate(a, i01, i10, pair_cos[slot], pair_sin[slot])
            else:
                _rotate(a[part], i01, i10, cos[slot], sin[slot])
        return a if self._order is None else a[self._order]


@lru_cache(maxsize=16)
def _single(circuit) -> Stack:
    return Stack((circuit,))


def simulate(circuit, params: Sequence[float]) -> StateVector:
    """Run ``circuit`` from |0...0> on its weight sector."""
    stack = _single(circuit)
    return StateVector(circuit.num_qubits, stack.states[0], stack.run(params))


# ---------------------------------------------------------------------------
# rotating any state
# ---------------------------------------------------------------------------


def init_basis(n: int, b: BasisLike) -> StateVector:
    """State with amplitude 1 on basis state ``b``."""
    _check_n(n)
    bits = int(b)
    if not 0 <= bits < (1 << n):
        raise ValueError(f"basis state {bits} out of range for {n} qubits")
    return StateVector(n, np.array([bits], dtype=np.int64), np.ones(1))


def apply_circuit(s: StateVector, circuit, params: Sequence[float]) -> StateVector:
    """Apply X placements, blocks in order, then any trailing X layer; returns a new state.

    The result lists every state of the weight sectors ``s`` populates, ascending.
    """
    n = s.num_qubits
    if circuit.num_qubits != n:
        raise ValueError(f"circuit acts on {circuit.num_qubits} qubits, state has {n}")
    if len(params) != circuit.num_params:
        raise ValueError(f"{len(params)} parameters for {circuit.num_params} blocks")
    lowers, post = _lowers(circuit), _mask(circuit.post_x)
    flipped = s.states ^ _mask(circuit.x_placements)
    weights = hamming_weight_array(flipped)
    states, values = [], []
    for w in np.unique(weights).tolist():
        _check_sector(n, w, lowers)
        sector = bitstrings_of_weight(n, w)
        partners = {lower: _partners(sector, lower) for lower in lowers}
        vec = np.zeros(len(sector), dtype=np.result_type(s.values, np.float64))
        mine = weights == w
        vec[np.searchsorted(sector, flipped[mine])] = s.values[mine]
        for _, lower, slot in circuit.blocks:
            _rotate(vec, *partners[lower], *_half_angle(float(params[slot])))
        states.append(sector ^ post)
        values.append(vec)
    states = np.concatenate(states)
    order = np.argsort(states)
    return StateVector(n, states[order], np.concatenate(values)[order])


# ---------------------------------------------------------------------------
# reading a state
# ---------------------------------------------------------------------------


def probability_of(s: StateVector, b: BasisLike) -> float:
    i = s.index_of(int(b))
    if i is None:
        return 0.0
    a = s.values[i]
    return float((a * a.conjugate()).real)


def support(s: StateVector, eps: float = 1e-12) -> set[int]:
    """All basis states with probability above ``eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return set(s.states[np.abs(s.values) ** 2 > eps].tolist())


def inverse_cdf(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Positions in ``values`` that the uniforms ``u`` pick from the Born distribution.

    The same picks, for the same uniforms, as ``rng.choice(len(probs),
    size=len(u), p=probs)``. Where the values outnumber the uniforms, these
    are searched in sorted order, which is cheaper there, and the picks
    scattered back to draw order.
    """
    probs = np.abs(values) ** 2
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    if len(cdf) <= len(u):
        return cdf.searchsorted(u, side="right")
    order = np.argsort(u)
    picks = np.empty(len(u), dtype=np.int64)
    picks[order] = cdf.searchsorted(u[order], side="right")
    return picks


def draw(s: StateVector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``shots`` i.i.d. basis states from the Born distribution, in draw order.

    Takes ``shots`` uniforms from ``rng`` and picks by :func:`inverse_cdf`, as
    ``rng.choice`` would.
    """
    return s.states[inverse_cdf(s.values, rng.random(shots))]


def sample(
    s: StateVector,
    shots: int,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Counter:
    """Draw ``shots`` i.i.d. basis states from the Born distribution.

    Pass an explicit ``rng`` to sample from a shared stream (``seed`` is
    ignored then).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    return Counter(int(b) for b in draw(s, shots, rng))
