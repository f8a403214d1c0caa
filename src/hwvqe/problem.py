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
problem's Hamming-weight sector, and :func:`permute` reindexes either family.

Data enters either from a closing-price CSV, or from seeded generators
(factor-model price paths for assets, Bernoulli edges with uniform weights for
graphs), both deterministic under their seeds.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .ansatz import DickeSpec
from .qsim import BasisState, hamming_weight

__all__ = [
    "PortfolioProblem",
    "IsingModel",
    "BisectionProblem",
    "QuadraticCost",
    "cost_binary",
    "to_ising",
    "cost_bisection",
    "permute",
    "reorder",
    "ingest_csv",
    "synth_assets",
    "synth_price_paths",
    "synth_graph",
    "save_portfolio",
    "load_portfolio",
    "save_graph",
    "load_graph",
    "dicke_spec_for",
    "batch_evaluator",
    "lift_bits",
]

BasisLike = Union[int, BasisState]


def _as_bits(x: BasisLike) -> int:
    return x.bits if isinstance(x, BasisState) else int(x)


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortfolioProblem:
    """Budget-constrained mean-variance selection with unit asset prices."""

    n: int
    q: float
    A: np.ndarray
    mu: np.ndarray
    budget: int
    permutation: tuple[int, ...] = ()  # current index -> index at construction
    prices: np.ndarray = field(default=None)  # type: ignore[assignment]

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
        prices = np.ones(self.n) if self.prices is None else np.asarray(self.prices, dtype=np.float64)
        if prices.shape != (self.n,) or not np.all(prices == 1.0):
            raise ValueError("asset prices are fixed to the all-ones vector")
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)


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
    bits = _as_bits(x)
    if hamming_weight(bits) != p.budget:
        raise ValueError(
            f"bitstring {bits:0{p.n}b} has weight {hamming_weight(bits)}, budget is {p.budget}"
        )
    return float(QuadraticCost.of(p)(np.array([bits], dtype=np.int64))[0])


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


def cost_bisection(b: BisectionProblem, x: BasisLike) -> float:
    """Cut weight of the split indicated by x, plus the offset."""
    bits = _as_bits(x)
    if hamming_weight(bits) != b.n // 2:
        raise ValueError(
            f"bitstring {bits:0{b.n}b} has weight {hamming_weight(bits)}, bisection needs {b.n // 2}"
        )
    if b.fixed_top_bit and not (bits >> (b.n - 1)) & 1:
        raise ValueError("top bit is pinned to 1 for this instance")
    return float(QuadraticCost.of(b)(np.array([bits], dtype=np.int64))[0])


# ---------------------------------------------------------------------------
# one cost form and one reindexing (used by the search and optimization layers)
# ---------------------------------------------------------------------------

Problem = Union[PortfolioProblem, BisectionProblem]

# States per pass of QuadraticCost's table gathers. At 2**15 the temporaries
# stay in cache: on a 2-core Xeon with numpy 2.4, 1M states at n = 26 / 40 /
# 62 cost 0.027 / 0.059 / 0.24 s, against 0.10 / 0.17 / 0.45 s in one pass.
# Every pass adds the same tables in the same order, so the chunking never
# changes an energy.
_EVAL_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """``scale * x^T Q x + h.x + c`` over the weight-``k`` states of ``n`` bits.

    The bits of ``pinned`` are fixed to 1 and are the most significant ones,
    so the search runs over the low ``spec.n`` bits and a search state lifts to
    a problem state by OR-ing the mask in. Evaluation ORs it in too, which is
    idempotent: search-width and problem-width states cost the same.

    Evaluation reads precomputed tables. The bits split into ``B = ceil(n/8)``
    byte blocks; block ``a`` has a 256-entry table ``scale * x^T Q_aa x +
    h_a.x`` of its byte ``x``, and each block pair ``a < b`` a 256 x 256 table
    ``2 * scale * x^T Q_ab y``. A state's energy is ``c`` plus the diagonal
    tables plus the cross tables, added in that fixed order, so it is a
    function of the state alone: the same in every batch, of any size. ``Q``
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
    """

    n: int
    k: int
    scale: float
    Q: np.ndarray
    h: np.ndarray
    c: float = 0.0
    pinned: int = 0

    @classmethod
    def of(cls, problem: Problem) -> "QuadraticCost":
        """The form of a portfolio or bisection problem.

        ``q`` stays outside ``Q`` and the pinned bit stays out of ``h`` and
        ``c``: folding either in changes the rounding of the energies.
        """
        if isinstance(problem, PortfolioProblem):
            return cls(problem.n, problem.budget, problem.q, problem.A, -problem.mu)
        if isinstance(problem, BisectionProblem):
            pinned = 1 << (problem.n - 1) if problem.fixed_top_bit else 0
            return cls(problem.n, problem.n // 2, -1.0, problem.weights,
                       problem.weighted_degree, problem.offset, pinned)
        raise TypeError(f"unsupported problem type {type(problem).__name__}")

    @property
    def spec(self) -> DickeSpec:
        fixed = hamming_weight(self.pinned)
        return DickeSpec(self.n - fixed, self.k - fixed)

    @cached_property
    def _tables(self) -> tuple[list[np.ndarray], list[tuple[int, int, np.ndarray]]]:
        """The diagonal table of each block and the cross table of each pair.

        Built on the first evaluation, once per form: forms made only to read
        the spec or the mask never pay for them.
        """
        blocks = -(-self.n // 8)
        Q = np.zeros((8 * blocks, 8 * blocks))
        Q[: self.n, : self.n] = (self.Q + self.Q.T) / 2.0  # bitwise Q when symmetric
        h = np.zeros(8 * blocks)
        h[: self.n] = self.h
        span = [slice(8 * a, 8 * a + 8) for a in range(blocks)]

        def quadratic(a: int, b: int) -> np.ndarray:
            # [v, w]: x^T Q_ab y for the bits x of byte v and y of byte w
            return _subset_sums(_subset_sums(Q[span[a], span[b]].T).T)

        diagonal = [
            self.scale * np.diagonal(quadratic(a, a)) + _subset_sums(h[span[a]])
            for a in range(blocks)
        ]
        cross = [
            (a, b, ((2.0 * self.scale) * quadratic(a, b)).ravel())
            for a in range(blocks)
            for b in range(a + 1, blocks)
        ]
        return diagonal, cross

    def __call__(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        if self.pinned:
            states = states | self.pinned
        diagonal, cross = self._tables
        energies = np.full(states.shape, float(self.c))
        for lo in range(0, len(states), _EVAL_CHUNK):
            part, out = states[lo : lo + _EVAL_CHUNK], energies[lo : lo + _EVAL_CHUNK]
            byte = [(part >> (8 * a)) & 0xFF for a in range(len(diagonal))]
            for table, x in zip(diagonal, byte):
                out += table[x]
            for a, b, table in cross:
                out += table[(byte[a] << 8) | byte[b]]
        return energies


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Entry v, for each byte 0 <= v < 256: the sum of ``rows[i]`` over its set bits i.

    Built by doubling, with elementwise adds only, so the sums round the same
    on any BLAS and any number of threads.
    """
    sums = np.zeros((256,) + rows.shape[1:])
    for i in range(8):
        sums[1 << i : 2 << i] = sums[: 1 << i] + rows[i]
    return sums


def dicke_spec_for(problem: Problem) -> DickeSpec:
    """The weight sector the search runs over (pinned bits excluded)."""
    return QuadraticCost.of(problem).spec


def lift_bits(problem: Problem, bits: int) -> int:
    """A search-width bitstring as a problem-width one (pinned bits set)."""
    return bits | QuadraticCost.of(problem).pinned


def batch_evaluator(problem: Problem) -> Callable[[np.ndarray], np.ndarray]:
    """The problem's cost as a pure function from int64 basis states to energies.

    Use the result only as that function: read the spec and the lift through
    :func:`dicke_spec_for` and :func:`lift_bits`.
    """
    return QuadraticCost.of(problem)


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
        raise ValueError(f"{path}: header must be 'date,asset_0,...', got {rows[0]!r}")
    n = len(header) - 1
    if len(rows) - 1 < 3:
        raise ValueError(f"{path}: needs at least 3 price rows, found {len(rows) - 1}")

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


def synth_price_paths(
    n: int, seed: int, periods: int = 252, num_factors: int = 3
) -> np.ndarray:
    """Seeded factor-model closing prices, shape (periods + 1, n), row 0 all ones.

    Per-asset drifts and volatilities are drawn once; daily shocks mix a few
    common factors with idiosyncratic noise; prices compound multiplicatively.
    """
    if n < 2:
        raise ValueError(f"need at least 2 assets, got {n}")
    if periods < 3:
        raise ValueError(f"need at least 3 periods, got {periods}")
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
    periods: int = 252,
    num_factors: int = 3,
) -> PortfolioProblem:
    """Seeded price paths pushed through the same pipeline as CSV ingestion."""
    prices = synth_price_paths(n, seed, periods=periods, num_factors=num_factors)
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
    """Bernoulli(p_edge) edges over i<j in row-major order, uniform (0,1) weights."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0.0 < p_edge <= 1.0:
        raise ValueError(f"edge probability {p_edge} outside (0, 1]")
    rng_edges = np.random.default_rng(seed_graph)
    rng_weights = np.random.default_rng(seed_weights)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng_edges.random() < p_edge:
                w = rng_weights.random()
                W[i, j] = W[j, i] = w
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
    doc = json.loads(Path(path).read_text())
    n = int(doc["n"])
    return PortfolioProblem(
        n=n,
        q=float(doc["q"]),
        A=np.array(doc["A"], dtype=np.float64).reshape(n, n),
        mu=np.array(doc["mu"], dtype=np.float64),
        budget=int(doc["xi"]),
        permutation=tuple(int(i) for i in doc.get("permutation", [])),
    )


def save_graph(b: BisectionProblem, path: str | Path) -> None:
    lines = [f"# nodes={b.n} offset={float(b.offset)!r} fixed_top_bit={int(b.fixed_top_bit)}"]
    for i in range(b.n):
        for j in range(i + 1, b.n):
            if b.weights[i, j] != 0.0:
                lines.append(f"{i} {j} {float(b.weights[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path) -> BisectionProblem:
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("#"):
        raise ValueError(f"{path}: missing header line")
    fields = dict(tok.split("=", 1) for tok in text[0].lstrip("# ").split())
    n = int(fields["nodes"])
    W = np.zeros((n, n))
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        u_s, v_s, w_s = line.split()
        u, v, w = int(u_s), int(v_s), float(w_s)
        W[u, v] = W[v, u] = w
    return BisectionProblem(
        n=n,
        weights=W,
        offset=float(fields.get("offset", 0.0)),
        fixed_top_bit=bool(int(fields.get("fixed_top_bit", 0))),
    )
