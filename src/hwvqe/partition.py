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
itself. Text form: ``sa^1_[18]-sa^2_[2,3]``.

Basis-state layout: fragment 0 occupies the *most significant* bits, so the
top-level index i counts the 1s among the upper half of the bitstring, and the
largest index corresponds to ``|1...10...0>``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import qsim
from .ansatz import DickeSpec, build_for

__all__ = [
    "PartitionSpec",
    "SubAnsatzId",
    "PartitionTree",
    "decompose",
    "equilibrium_partition",
    "child_count",
    "child_weight",
    "subansatz_basis_count",
    "enumerate_subansatz",
    "enumerate_subansatz_arrays",
    "FragmentPreparer",
    "run_subansatz",
    "entanglement_entropy",
    "loose_bound_product",
    "loose_bound_closed",
    "bitstrings_of_weight",
    "format_id",
    "parse_id",
]


@dataclass(frozen=True)
class PartitionSpec:
    """A single (possibly off-center) split of a parent Dicke spec."""

    parent: DickeSpec
    j: int  # upper-fragment qubit count

    def __post_init__(self) -> None:
        if not 1 <= self.j <= self.parent.n - 1:
            raise ValueError(f"split point j={self.j} outside 1..{self.parent.n - 1}")


def decompose(spec: DickeSpec, j: int) -> list[tuple[int, DickeSpec, DickeSpec]]:
    """All product terms (i, upper (j, i), lower (n-j, k-i)) with feasible weights."""
    PartitionSpec(spec, j)  # validates j
    n, k = spec.n, spec.k
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

    def __str__(self) -> str:
        return format_id(self)


def format_id(sa: SubAnsatzId) -> str:
    parts = [
        f"sa^{lvl}_[{','.join(str(i) for i in ordinals)}]"
        for lvl, ordinals in enumerate(sa.levels, start=1)
    ]
    return "-".join(parts)


_LEVEL_RE = re.compile(r"^sa\^(\d+)_(?:\[([\d,\s]*)\]|(\d+))$")


def parse_id(text: str, parent: DickeSpec) -> SubAnsatzId:
    """Parse ``sa^1_[18]-sa^2_[2,3]`` (single indices may omit brackets)."""
    levels: list[tuple[int, ...]] = []
    for part in text.strip().split("-"):
        m = _LEVEL_RE.match(part.strip())
        if not m:
            raise ValueError(f"cannot parse sub-ansatz level {part!r}")
        lvl = int(m.group(1))
        if lvl != len(levels) + 1:
            raise ValueError(f"levels out of order in {text!r}: expected sa^{len(levels) + 1}, got sa^{lvl}")
        body = m.group(2) if m.group(2) is not None else m.group(3)
        ordinals = tuple(int(tok) for tok in body.replace(" ", "").split(",") if tok != "")
        levels.append(ordinals)
    return SubAnsatzId(parent, tuple(levels))


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
            frags = sa.fragments()
            counts = [child_count(f) for f in frags]

            def combos(pos: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
                if pos == len(counts):
                    yield tuple(acc)
                    return
                for c in range(counts[pos]):
                    acc.append(c)
                    yield from combos(pos + 1, acc)
                    acc.pop()

            for ordinals in combos(0, []):
                yield from grow(sa.child(ordinals), remaining - 1)

        yield from grow(SubAnsatzId(self.root, ()), self.depth)

    def count(self) -> int:
        return sum(1 for _ in self.ids())


def equilibrium_partition(spec: DickeSpec, p: int) -> PartitionTree:
    return PartitionTree(spec, p)


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


@lru_cache(maxsize=None)
def bitstrings_of_weight(m: int, w: int) -> np.ndarray:
    """All m-bit integers of Hamming weight w, ascending (read-only array)."""
    if not 0 <= w <= m:
        raise ValueError(f"weight {w} outside 0..{m}")
    count = math.comb(m, w)
    out = np.empty(count, dtype=np.int64)
    if w == 0:
        out[0] = 0
    else:
        x = (1 << w) - 1
        for idx in range(count):
            out[idx] = x
            u = x & -x
            v = x + u
            x = v + (((v ^ x) // u) >> 2) if v ^ x else v  # Gosper's hack
    out.setflags(write=False)
    return out


def subansatz_basis_count(sa: SubAnsatzId) -> int:
    return math.prod(math.comb(f.n, f.k) for f in sa.fragments())


def enumerate_subansatz(sa: SubAnsatzId) -> Iterator[int]:
    """Lazily yield the sub-ansatz basis states in ascending integer order."""
    frags = sa.fragments()

    def rec(pos: int, acc: int) -> Iterator[int]:
        if pos == len(frags):
            yield acc
            return
        f = frags[pos]
        for bits in bitstrings_of_weight(f.n, f.k):
            yield from rec(pos + 1, (acc << f.n) | int(bits))

    yield from rec(0, 0)


def enumerate_subansatz_arrays(sa: SubAnsatzId, chunk: int = 1 << 20) -> Iterator[np.ndarray]:
    """Vectorized enumeration in the same order, yielded in bounded chunks.

    The deepest suffix of fragments whose full product fits in one chunk is
    materialized with broadcasting; the remaining (more significant) fragments
    are walked with an odometer, so chunks stay near ``chunk`` entries without
    ever concatenating the full product.
    """
    frags = sa.fragments()
    parts = [bitstrings_of_weight(f.n, f.k) for f in frags]
    widths = [f.n for f in frags]

    # find the deepest suffix whose full product fits in one chunk
    pos = len(parts)
    size = 1
    while pos > 0 and size * len(parts[pos - 1]) <= max(chunk, len(parts[pos - 1])):
        size *= len(parts[pos - 1])
        pos -= 1

    suffix = np.zeros(1, dtype=np.int64)
    for p in range(pos, len(parts)):
        suffix = ((suffix[:, None] << widths[p]) | parts[p][None, :]).ravel()
    if pos == 0:
        yield suffix
        return

    prefix_width = sum(widths[pos:])

    def heads(p: int, acc: int) -> Iterator[int]:
        if p == pos:
            yield acc
            return
        for bits in parts[p]:
            yield from heads(p + 1, (acc << widths[p]) | int(bits))

    buf: list[np.ndarray] = []
    buffered = 0
    for head in heads(0, 0):
        buf.append((head << prefix_width) | suffix)
        buffered += len(suffix)
        if buffered >= chunk:
            yield np.concatenate(buf)
            buf, buffered = [], 0
    if buf:
        yield np.concatenate(buf)


class FragmentPreparer:
    """One sub-ansatz prepared as a product of independently simulated fragments.

    Each fragment's circuit is built once. Fragments of weight 0 or full weight
    are fixed bit blocks and take no parameters. The full-width ansatz is the
    depth-0 case ``SubAnsatzId(spec, ())``: a single fragment, the spec itself.
    """

    def __init__(self, sa: SubAnsatzId):
        self.fragments = sa.fragments()
        self.circuits = [None if f.k in (0, f.n) else build_for(f) for f in self.fragments]
        self.num_params = sum(c.num_params for c in self.circuits if c is not None)
        self._amplitudes: list[np.ndarray | None] = []

    def split(self, params: Sequence[float]) -> list[np.ndarray]:
        """Cut a flat parameter vector into per-fragment vectors, fragment 0 first."""
        out, at = [], 0
        for c in self.circuits:
            width = 0 if c is None else c.num_params
            out.append(np.asarray(params[at : at + width], dtype=np.float64))
            at += width
        return out

    def sample(
        self, params_per_fragment: Sequence[Sequence[float]], shots: int, rng: np.random.Generator
    ) -> Counter:
        """Simulate each parameterized fragment once and draw ``shots`` product outcomes.

        The fragments' amplitudes are kept for :meth:`probability_of`. Returns
        a Counter over full-width basis states.
        """
        if len(params_per_fragment) != len(self.fragments):
            raise ValueError(
                f"{len(params_per_fragment)} parameter vectors for {len(self.fragments)} fragments"
            )
        self._amplitudes = []
        draws = np.zeros(shots, dtype=np.int64)
        for f, circuit, params in zip(self.fragments, self.circuits, params_per_fragment):
            if circuit is None:
                if len(params) != 0:
                    raise ValueError(f"fragment D^{f.n}_{f.k} takes no parameters")
                amps = None
                frag_draws = np.full(shots, (1 << f.n) - 1 if f.k == f.n else 0, dtype=np.int64)
            else:
                if len(params) != circuit.num_params:
                    raise ValueError(
                        f"fragment D^{f.n}_{f.k} needs {circuit.num_params} parameters, got {len(params)}"
                    )
                psi = qsim.simulate(circuit, params)
                amps = psi.amplitudes
                probs = np.abs(amps) ** 2
                probs /= probs.sum()
                frag_draws = rng.choice(psi.dim, size=shots, p=probs)
            self._amplitudes.append(amps)
            draws = (draws << f.n) | frag_draws
        return Counter(int(b) for b in draws)

    def probability_of(self, bits: int) -> float:
        """Born probability of a full-width basis state in the last sampled product."""
        prob = 1.0
        shift = sum(f.n for f in self.fragments)
        for f, amps in zip(self.fragments, self._amplitudes):
            shift -= f.n
            frag_bits = (bits >> shift) & ((1 << f.n) - 1)
            if amps is None:
                if frag_bits != ((1 << f.n) - 1 if f.k == f.n else 0):
                    return 0.0
                continue
            prob *= float(np.abs(amps[frag_bits]) ** 2)
        return prob


def run_subansatz(
    sa: SubAnsatzId,
    params_per_fragment: Sequence[Sequence[float]],
    shots: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Counter:
    """Sample the product state once: each fragment simulated alone, outcomes concatenated.

    Fragments of weight 0 or full weight contribute fixed bits and expect an
    empty parameter vector. Returns a Counter over full-width basis states.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    return FragmentPreparer(sa).sample(params_per_fragment, shots, rng)


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
