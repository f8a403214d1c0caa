"""Construction of Hamming-weight-preserving staircase circuits for Dicke states.

Two layouts prepare ``|D^n_k>`` (the uniform-support superposition of all
weight-k basis states) from ``|0...0>``:

* **straight**: one descending staircase of n-1 pair rotations — cheap but its
  support misses basis states for some (n, k) (e.g. the (4, 2) staircase never
  produces |1100>);
* **folded**: a triangular schedule of ``sum_{s=1..n-k} min(s, k)`` pair
  rotations whose support covers all C(n, k) weight-k states; for k > n/2 the
  circuit for weight n-k is built instead and every qubit is flipped at the end
  (``conjugate`` structure).

Both start by flipping qubits n-2, n-4, ..., n-2k. Parameter slots are numbered
in application order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import BasisLike, hamming_weight

__all__ = [
    "DickeSpec",
    "Circuit",
    "ParameterVector",
    "build_straight",
    "build_folded",
    "conjugate_form",
    "build_for",
    "reachability_params",
    "circuit_to_text",
]

#: Parameter vectors are plain float arrays, one radian value per slot.
ParameterVector = np.ndarray


@dataclass(frozen=True)
class DickeSpec:
    """Qubit count and target Hamming weight."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"weight k={self.k} outside 0..{self.n}")


@dataclass(frozen=True)
class Circuit:
    """An ordered pair-rotation circuit with leading and trailing X layers.

    ``blocks`` are (upper, lower, slot) triples applied in sequence order;
    ``x_placements`` are flipped before the blocks, ``post_x`` after them
    (non-empty only for the conjugate structure).
    """

    num_qubits: int
    k: int
    structure: str  # "straight" | "folded" | "conjugate"
    x_placements: tuple[int, ...]
    blocks: tuple[tuple[int, int, int], ...]
    post_x: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for q in self.x_placements + self.post_x:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"X on qubit {q} invalid for {self.num_qubits} qubits")
        for upper, lower, _ in self.blocks:
            if upper != lower + 1 or not 0 <= lower < upper <= self.num_qubits - 1:
                raise ValueError(f"block pair ({upper},{lower}) invalid for {self.num_qubits} qubits")

    @property
    def num_params(self) -> int:
        return len(self.blocks)


def _x_placements(n: int, k: int) -> tuple[int, ...]:
    """Initial flips on qubits n-2, n-4, ..., n-2k."""
    return tuple(n - 2 * i for i in range(1, k + 1))


def build_straight(spec: DickeSpec) -> Circuit:
    """Single descending staircase: blocks (n-1,n-2), (n-2,n-3), ..., (1,0)."""
    n, k = spec.n, spec.k
    if k < 1 or 2 * k > n:  # the initial flips n-2, ..., n-2k must stay on the register
        raise ValueError(f"straight circuit needs 1 <= k <= n/2, got ({n},{k})")
    blocks = tuple((q, q - 1, slot) for slot, q in enumerate(range(n - 1, 0, -1)))
    return Circuit(n, k, "straight", _x_placements(n, k), blocks)


def build_folded(spec: DickeSpec) -> Circuit:
    """Triangular staircase schedule covering all C(n, k) weight-k states.

    The first layer places blocks above the flipped qubits (lower qubits
    n-2, n-4, ..., n-2k, top-down); each following layer shifts every lower
    qubit down by one and keeps the top min(s, k) of them, where s counts
    layers remaining; the last layer is the single block at lower qubit k-1.
    """
    n, k = spec.n, spec.k
    if k < 1 or 2 * k > n:
        raise ValueError(f"folded circuit needs 1 <= k <= n/2, got ({n},{k})")
    blocks: list[tuple[int, int, int]] = []
    lowers = [n - 2 * i for i in range(1, k + 1)]
    slot = 0
    for s in range(n - k, 0, -1):
        for lower in lowers[: min(s, k)]:
            blocks.append((lower + 1, lower, slot))
            slot += 1
        lowers = [q - 1 for q in lowers]
    return Circuit(n, k, "folded", _x_placements(n, k), tuple(blocks))


def conjugate_form(spec: DickeSpec) -> Circuit:
    """Weight-(n-k) folded circuit followed by X on every qubit (for k > n/2)."""
    n, k = spec.n, spec.k
    if 2 * k <= n:
        raise ValueError(f"conjugate form needs k > n/2, got ({n},{k}); build the folded circuit directly")
    if k == n:  # degenerate: |1...1> needs no blocks
        return Circuit(n, k, "conjugate", (), (), post_x=tuple(range(n)))
    inner = build_folded(DickeSpec(n, n - k))
    return Circuit(n, k, "conjugate", inner.x_placements, inner.blocks, post_x=tuple(range(n)))


def build_for(spec: DickeSpec) -> Circuit:
    """Folded circuit for k <= n/2, conjugate form otherwise."""
    return build_folded(spec) if 2 * spec.k <= spec.n else conjugate_form(spec)


def reachability_params(spec: DickeSpec, target: BasisLike) -> ParameterVector:
    """Parameters in {0, pi} that prepare basis state ``target`` with probability 1.

    At theta=0 a block is the identity on basis states; at theta=pi it swaps the
    pair's bits. The circuit therefore acts as a chain of conditional swaps, and
    a depth-first search over the {0, pi} choices finds a routing of the flipped
    qubits onto the target. Zero is preferred at every slot, so the returned
    vector is the lexicographically smallest one that works.
    """
    bits = int(target)
    if hamming_weight(bits) != spec.k:
        raise ValueError(f"target weight {hamming_weight(bits)} != k={spec.k}")
    if spec.k == 0 or spec.k == spec.n:
        return np.zeros(0)

    circuit = build_for(spec)
    state = 0
    for q in circuit.x_placements:
        state |= 1 << q
    goal = bits
    for q in circuit.post_x:
        goal ^= 1 << q  # undo the trailing flips once instead of applying them each leaf

    blocks = circuit.blocks
    choices = np.zeros(circuit.num_params)
    dead: set[tuple[int, int]] = set()

    def search(idx: int, current: int) -> bool:
        if idx == len(blocks):
            return current == goal
        if (idx, current) in dead:
            return False
        upper, lower, slot = blocks[idx]
        bu = (current >> upper) & 1
        bl = (current >> lower) & 1
        if bu == bl:
            # both parameter values act identically; keep the smaller one
            if search(idx + 1, current):
                return True
        else:
            choices[slot] = 0.0
            if search(idx + 1, current):
                return True
            choices[slot] = math.pi
            if search(idx + 1, current ^ ((1 << upper) | (1 << lower))):
                return True
            choices[slot] = 0.0
        dead.add((idx, current))
        return False

    if not search(0, state):
        raise RuntimeError(f"no {{0, pi}} routing found for target {bits:0{spec.n}b} in D^{spec.n}_{spec.k}")
    return choices


def circuit_to_text(circuit: Circuit) -> str:
    """Line format: header ``n k structure``, then ``x <q>`` per initial flip,
    then ``<upper> <lower> <slot>`` per block. The conjugate structure implies
    the trailing all-qubit X layer."""
    lines = [f"{circuit.num_qubits} {circuit.k} {circuit.structure}"]
    lines.extend(f"x {q}" for q in circuit.x_placements)
    lines.extend(f"{u} {l} {s}" for u, l, s in circuit.blocks)
    return "\n".join(lines) + "\n"
