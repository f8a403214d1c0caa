"""Dense statevector simulation of parameterized pair-rotation circuits.

Conventions
-----------
A basis state of ``n`` qubits is the integer whose bit ``p`` holds the state of
qubit ``q_p``; qubit ``q_{n-1}`` is the most significant bit. Amplitudes live
in a dense complex array of length ``2**n`` indexed by that integer.

The elementary parameterized operation acts on an adjacent qubit pair
``(upper, lower)`` with ``upper = lower + 1`` and rotates only the odd-weight
subspace of the pair::

    |01> -> cos(theta/2)|01> - sin(theta/2)|10>
    |10> -> sin(theta/2)|01> + cos(theta/2)|10>

``|00>`` and ``|11>`` are fixed, so the total Hamming weight of every basis
state in the support is conserved: amplitudes outside the starting weight
sector stay exactly 0.0, and sampling never draws a state of another weight.
The two in-place numpy kernels below are the whole engine.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "BasisState",
    "StateVector",
    "init_basis",
    "apply_v_block",
    "apply_circuit",
    "simulate",
    "probability_of",
    "support",
    "sample",
    "hamming_weight",
    "hamming_weight_array",
]

MAX_QUBITS = 26  # 2**26 complex128 amplitudes = 1 GiB

BasisLike = Union[int, "BasisState"]


def hamming_weight(bits: int) -> int:
    return int(bits).bit_count()


_POPCOUNT16 = sum((np.arange(1 << 16) >> i) & 1 for i in range(16)).astype(np.uint8)


def hamming_weight_array(states: np.ndarray) -> np.ndarray:
    """Hamming weights of an int64 array, via a 16-bit lookup table."""
    s = np.asarray(states, dtype=np.int64)
    w = _POPCOUNT16[s & 0xFFFF].astype(np.int64)
    for shift in (16, 32, 48):
        w += _POPCOUNT16[(s >> shift) & 0xFFFF]
    return w


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


def _bits_of(b: BasisLike) -> int:
    return b.bits if isinstance(b, BasisState) else int(b)


@dataclass
class StateVector:
    """Dense amplitude vector over the 2**n computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside supported range 1..{MAX_QUBITS}")


def init_basis(n: int, b: BasisLike) -> StateVector:
    """Statevector with amplitude 1 on basis state ``b``."""
    _check_n(n)
    bits = _bits_of(b)
    if not 0 <= bits < (1 << n):
        raise ValueError(f"basis state {bits} out of range for {n} qubits")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[bits] = 1.0
    return StateVector(n, amps)


def _kernel_v(amps: np.ndarray, lower: int, c: float, s: float) -> None:
    """Rotate the |01>/|10> subspace of the adjacent pair (lower+1, lower)."""
    n_low = 1 << lower
    view = amps.reshape(-1, 4, n_low)  # middle axis index = 2*bit(lower+1) + bit(lower)
    a01 = view[:, 1, :].copy()
    a10 = view[:, 2, :]
    view[:, 1, :] = c * a01 + s * a10
    view[:, 2, :] = -s * a01 + c * a10


def _kernel_x(amps: np.ndarray, qubit: int) -> None:
    """Flip one qubit: swap amplitudes of every index pair differing in it."""
    n_low = 1 << qubit
    view = amps.reshape(-1, 2, n_low)
    view[:, :, :] = view[:, ::-1, :].copy()


def _apply_v_inplace(amps: np.ndarray, lower: int, theta: float) -> None:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    _kernel_v(amps, lower, c, s)


def apply_v_block(s: StateVector, upper: int, lower: int, theta: float) -> StateVector:
    """Apply one pair rotation on the adjacent pair (upper, lower); returns a new vector."""
    if upper != lower + 1:
        raise ValueError(f"pair ({upper},{lower}) is not adjacent with upper = lower+1")
    if not 0 <= lower < upper <= s.num_qubits - 1:
        raise ValueError(f"pair ({upper},{lower}) out of range for {s.num_qubits} qubits")
    out = s.copy()
    _apply_v_inplace(out.amplitudes, lower, theta)
    return out


def _apply_circuit_inplace(amps: np.ndarray, n: int, circuit, params: Sequence[float]) -> None:
    if circuit.num_qubits != n:
        raise ValueError(f"circuit acts on {circuit.num_qubits} qubits, state has {n}")
    nslots = len(circuit.blocks)
    if len(params) != nslots:
        raise ValueError(f"{len(params)} parameters for {nslots} blocks")
    for q in circuit.x_placements:
        _kernel_x(amps, q)
    for upper, lower, slot in circuit.blocks:
        _apply_v_inplace(amps, lower, float(params[slot]))
    for q in circuit.post_x:
        _kernel_x(amps, q)


def apply_circuit(s: StateVector, circuit, params: Sequence[float]) -> StateVector:
    """Apply X placements, blocks in order, then any trailing X layer; returns a new vector."""
    out = s.copy()
    _apply_circuit_inplace(out.amplitudes, out.num_qubits, circuit, params)
    return out


def simulate(circuit, params: Sequence[float]) -> StateVector:
    """Run ``circuit`` from |0...0>."""
    _check_n(circuit.num_qubits)
    amps = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    _apply_circuit_inplace(amps, circuit.num_qubits, circuit, params)
    return StateVector(circuit.num_qubits, amps)


def probability_of(s: StateVector, b: BasisLike) -> float:
    a = s.amplitudes[_bits_of(b)]
    return float((a * a.conjugate()).real)


def support(s: StateVector, eps: float = 1e-12) -> set[int]:
    """All basis states with probability above ``eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    probs = np.abs(s.amplitudes) ** 2
    return set(int(b) for b in np.flatnonzero(probs > eps))


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
    probs = np.abs(s.amplitudes) ** 2
    probs /= probs.sum()
    draws = rng.choice(s.dim, size=shots, p=probs)
    return Counter(int(b) for b in draws)
