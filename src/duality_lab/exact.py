"""Ground-truth engine: matrix exponentials and exact duality checks.

Everything here is deterministic.  Expectations over finite chains go
through the action of the matrix exponential on the given columns, by one
of two scipy routines chosen from the input (see
:func:`matrix_exponential_apply`): dense scaling-and-squaring with Pade
approximants (``expm``), or the truncated-Taylor action of Al-Mohy and
Higham (``expm_multiply``) on the sparse generator, called Krylov here.
Both work to the double-precision unit roundoff.  Generator dualities are
checked as matrix identities; diffusion generators enter either through an
exact polynomial-coefficient representation or through pointwise
evaluation with analytic derivatives of the duality function (central
finite differences as a fallback).

The worked-example reproductions compare a quoted closed form against the
matrix-exponential value and report both without asserting agreement; two
of the four closed forms are known not to match the generator-level ground
truth (see the package README).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, lgamma
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from . import algebra, processes
from .algebra import ResidualReport, check_intertwiner
from .processes import GeneratorMatrix, ProcessSpec

__all__ = [
    "ExactExpectation",
    "ExampleRecord",
    "matrix_exponential_apply",
    "exact_expectation",
    "check_generator_duality",
    "check_pointwise_duality",
    "Operator1D",
    "monomial_duality",
    "mirror_monomial_duality",
    "exp_xy_duality",
    "moran_generator_exact",
    "kingman_generator_exact",
    "moran_kingman_residual_exact",
    "moran_ladder_product_exact",
    "wf_monomial_matrix",
    "wf_moran_duality_matrix",
    "sip_self_duality_matrix",
    "reproduce_example",
    "EXAMPLE_IDS",
]


@dataclass(frozen=True)
class ExactExpectation:
    """An exactly computed expectation, with provenance."""

    value: float
    method: str
    state_space_size: int


@dataclass(frozen=True)
class ExampleRecord:
    """Side-by-side quoted closed form vs matrix-exponential oracle."""

    id: str
    closed_form_value: float
    oracle_value: float

    @property
    def abs_diff(self) -> float:
        return abs(self.closed_form_value - self.oracle_value)


def _as_matrix(Q: GeneratorMatrix | np.ndarray) -> np.ndarray | sparse.csr_array:
    if isinstance(Q, GeneratorMatrix):
        return Q.Q
    return np.asarray(Q, dtype=float)


# Krylov is never chosen below this many states: its fixed cost of 1-5 ms
# (norm estimates, set-up) is outside the flop model and loses to dense
# there, e.g. 4.2 ms against 1.2 ms on the 91-state d = 3 Moran chain,
# which the flop ratio alone would send to Krylov
_KRYLOV_MIN_STATES = 256
# peak n x n float64 arrays of the dense branch: the dense copy, tQ and
# expm's own work arrays (traced at 1,000 states)
_DENSE_EXPM_ARRAYS = 10


def _prefers_krylov(M: np.ndarray | sparse.sparray, t: float, cols: int, transpose: bool = False) -> bool:
    """True when ``expm_multiply`` should beat dense ``expm`` on ``exp(tA) B``.

    ``A`` is ``M``, or ``M^T`` with ``transpose``; ``cols`` counts the
    columns of ``B``.

    Dense ``expm`` costs about n^3 flops whatever the entries.  The Krylov
    action costs about ``||tA||_1 * nnz * cols`` flops: its number of
    matrix-vector products grows with the norm.  So size alone is not the
    rule: stiff chains such as block counting with rates n(n-1) stay dense
    at a few hundred states, while the sparse inclusion-process sectors go
    to Krylov.
    """
    n = M.shape[0]
    if n < _KRYLOV_MIN_STATES:
        return False
    nnz = M.nnz if sparse.issparse(M) else np.count_nonzero(M)
    norm1 = t * float(abs(M).sum(axis=1 if transpose else 0).max())
    return norm1 * nnz * cols < n**3 / 8


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def matrix_exponential_apply(
    Q: GeneratorMatrix | np.ndarray,
    v: np.ndarray,
    t: float,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """Return ``expm(t Q) v`` (or ``expm(t Q^T) v`` with ``transpose``).

    The method follows a cost rule on the input.  With n states, nnz
    stored entries and ``cols`` columns in ``v``, ``expm_multiply`` runs on
    the sparse matrix when n >= 256 and ``||tQ||_1 * nnz * cols < n^3 / 8``;
    otherwise dense ``expm`` runs on ``Q.toarray()``.  The first is the
    flop count of the Krylov action, the second that of dense scaling and
    squaring.  Size alone would be the wrong rule: a 401-state block
    counting chain runs some 50x slower under Krylov because its norm is
    large, while a 1,771-state inclusion sector runs 25x faster.  Before
    a dense exponential whose working set (about ten n x n float64
    arrays) exceeds physical memory, a ``ValueError`` is raised instead of
    allocating.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    M = _as_matrix(Q)
    v = np.asarray(v, dtype=float)
    if M.shape[0] != M.shape[1] or M.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    if t == 0:
        return v.copy()
    if _prefers_krylov(M, t, 1 if v.ndim == 1 else v.shape[1], transpose):
        # imported here: scipy.sparse.linalg adds ~13 ms to every start-up,
        # and most runs never pick Krylov
        from scipy.sparse.linalg import expm_multiply

        return expm_multiply(t * (M.T if transpose else M), v)
    n = M.shape[0]
    need = _DENSE_EXPM_ARRAYS * 8 * n * n
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"dense matrix exponential of {n} states needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    if sparse.issparse(M):
        M = M.toarray()
    return expm(t * (M.T if transpose else M)) @ v


def exact_expectation(
    gen: GeneratorMatrix,
    f: np.ndarray,
    k0: Sequence[int],
    t: float,
) -> ExactExpectation:
    """E_{k0} f(X_t) for the chain with generator ``gen``.

    ``method`` names the branch :func:`matrix_exponential_apply` takes:
    ``"matrix-exponential"`` (dense ``expm``) or ``"expm-multiply"``.
    """
    state = tuple(int(v) for v in k0)
    try:
        i = gen.index.pos[state]
    except KeyError:
        raise ValueError(f"state {state} is outside the enumerated space") from None
    w = matrix_exponential_apply(gen, np.asarray(f, dtype=float), t)
    method = "expm-multiply" if _prefers_krylov(gen.Q, t, 1) else "matrix-exponential"
    return ExactExpectation(value=float(w[i]), method=method, state_space_size=len(gen.index))


def check_generator_duality(
    K: GeneratorMatrix | np.ndarray,
    K_hat: GeneratorMatrix | np.ndarray,
    D: np.ndarray,
    *,
    name: str = "K vs K_hat",
    rows: slice = slice(None),
    cols: slice = slice(None),
) -> ResidualReport:
    """Matrix duality check ``K D = D K_hat^T`` with a process-pair label."""
    return check_intertwiner(
        _as_matrix(K), _as_matrix(K_hat), D, rows=rows, cols=cols, identity=name
    )


# ---------------------------------------------------------------------------
# exact rational certification of the finite-population duality
# ---------------------------------------------------------------------------


def moran_generator_exact(N: int) -> list[list[Fraction]]:
    """Two-type Moran generator, rate k(N-k) to each neighbour, exact.

    This is the population-size-squared time normalization under which the
    chain equals the ladder product raise (1 - raise) lower^2 and is dual to
    the block-counting chain at rate n(n-1); the d-type definition runs at
    half this speed.
    """
    Q = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
    for k in range(N + 1):
        r = Fraction(k * (N - k))
        if r:
            Q[k][k + 1] += r
            Q[k][k - 1] += r
            Q[k][k] -= 2 * r
    return Q


def kingman_generator_exact(n_max: int, theta: Fraction = Fraction(0)) -> list[list[Fraction]]:
    """Block-counting generator on 0..n_max, rate n(n-1) + theta n down."""
    Q = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        r = Fraction(n * (n - 1)) + theta * n
        if r:
            Q[n][n - 1] += r
            Q[n][n] -= r
    return Q


def moran_ladder_product_exact(N: int) -> list[list[Fraction]]:
    """The Moran generator assembled as raise (1 - raise) lower^2, exact."""
    low = algebra._finite_lowering_exact(N)
    rai = algebra._finite_raising_exact(N)
    eye = [[Fraction(int(i == j)) for j in range(N + 1)] for i in range(N + 1)]
    low2 = algebra._mat_mul(low, low)
    return algebra._mat_mul(algebra._mat_mul(rai, algebra._mat_sub(eye, rai)), low2)


def moran_kingman_residual_exact(N: int) -> Fraction:
    """Max |K D - D K_hat^T| of the Moran / block-counting pair, exact.

    All three matrices have rational entries, so a zero here certifies the
    identity outright rather than bounding floating-point error.
    """
    K = moran_generator_exact(N)
    Khat = kingman_generator_exact(N)
    D = algebra.falling_factorial_matrix_exact(N)
    KhatT = [[Khat[j][i] for j in range(N + 1)] for i in range(N + 1)]
    resid = algebra._mat_sub(algebra._mat_mul(K, D), algebra._mat_mul(D, KhatT))
    return max(abs(v) for row in resid for v in row)


# ---------------------------------------------------------------------------
# pointwise duality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operator1D:
    """Second-order operator ``alpha(u) f'' + beta(u) f' + gamma(u) f``."""

    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    gamma: Callable[[float], float] | None = None


@dataclass(frozen=True)
class PointwiseDuality:
    """Duality function with optional analytic partial derivatives.

    ``value(u, w)`` takes the left-slot variable ``u`` and the right-slot
    variable ``w`` (a real or an integer index).  Missing derivatives fall
    back to central finite differences.
    """

    value: Callable
    du: Callable | None = None
    duu: Callable | None = None
    dw: Callable | None = None
    dww: Callable | None = None


def monomial_duality() -> PointwiseDuality:
    return PointwiseDuality(
        value=lambda x, n: x**n,
        du=lambda x, n: n * x ** (n - 1) if n >= 1 else 0.0,
        duu=lambda x, n: n * (n - 1) * x ** (n - 2) if n >= 2 else 0.0,
    )


def mirror_monomial_duality() -> PointwiseDuality:
    """(1-x)^n, the duality function of the positive-selection diffusion."""
    return PointwiseDuality(
        value=lambda x, n: (1.0 - x) ** n,
        du=lambda x, n: -n * (1.0 - x) ** (n - 1) if n >= 1 else 0.0,
        duu=lambda x, n: n * (n - 1) * (1.0 - x) ** (n - 2) if n >= 2 else 0.0,
    )


def exp_xy_duality() -> PointwiseDuality:
    e = lambda x, y: exp(x * y)
    return PointwiseDuality(
        value=e,
        du=lambda x, y: y * e(x, y),
        duu=lambda x, y: y * y * e(x, y),
        dw=lambda x, y: x * e(x, y),
        dww=lambda x, y: x * x * e(x, y),
    )


def _partials(D: PointwiseDuality, u: float, w, h: float, slot: str) -> tuple[float, float]:
    if slot == "left":
        d1, d2 = D.du, D.duu
        f = lambda uu: D.value(uu, w)
        at = u
    else:
        d1, d2 = D.dw, D.dww
        f = lambda ww: D.value(u, ww)
        at = w
    if d1 is not None and d2 is not None:
        return (d1(u, w), d2(u, w))
    lo, mid, hi = f(at - h), f(at), f(at + h)
    return ((hi - lo) / (2 * h), (hi - 2 * mid + lo) / (h * h))


def _apply_side(side, D: PointwiseDuality, u: float, w, h: float, slot: str) -> float:
    """Apply one side's operator to the duality function at a grid point."""
    if isinstance(side, Operator1D):
        at = u if slot == "left" else w
        d1, d2 = _partials(D, u, w, h, slot)
        out = side.alpha(at) * d2 + side.beta(at) * d1
        if side.gamma is not None:
            out += side.gamma(at) * D.value(u, w)
        return out
    if isinstance(side, GeneratorMatrix):
        if slot != "right":
            raise ValueError("jump generators act on the right slot here")
        i = side.index.pos[tuple(int(v) for v in np.atleast_1d(w))]
        Q = side.Q
        lo, hi = Q.indptr[i], Q.indptr[i + 1]
        states = side.index.states
        return float(
            sum(
                rate * D.value(u, states[j][0] if side.index.d == 1 else states[j])
                for j, rate in zip(Q.indices[lo:hi], Q.data[lo:hi])
                if rate
            )
        )
    if isinstance(side, ProcessSpec):
        if not side.is_diffusion:
            raise ValueError("pass jump processes as a GeneratorMatrix")
        at = u if slot == "left" else w
        b, a = processes.drift_diffusion(side, at)
        if a.shape != (1, 1):
            raise ValueError("pointwise checks support one-dimensional diffusions")
        d1, d2 = _partials(D, u, w, h, slot)
        return 0.5 * float(a[0, 0]) * d2 + float(b[0]) * d1
    raise TypeError(f"unsupported operator description {type(side)!r}")


def check_pointwise_duality(
    left,
    right,
    duality: PointwiseDuality,
    left_grid: Sequence[float],
    right_grid: Sequence,
    *,
    h: float = 1e-5,
    identity: str = "pointwise duality",
) -> ResidualReport:
    """Max over a grid of |(K_l D)(u, w) - (K_r D)(u, w)|.

    ``left`` acts on the first slot (a 1-d diffusion spec or
    :class:`Operator1D`); ``right`` acts on the second slot (a jump
    :class:`GeneratorMatrix`, 1-d diffusion spec, or :class:`Operator1D`).
    """
    worst = 0.0
    for u in left_grid:
        for w in right_grid:
            lhs = _apply_side(left, duality, float(u), w, h, "left")
            rhs = _apply_side(right, duality, float(u), w, h, "right")
            worst = max(worst, abs(lhs - rhs))
    return ResidualReport(identity, worst, f"{len(left_grid)} x {len(right_grid)} grid")


def _mono(x: Sequence[float], n: Sequence[int]) -> float:
    out = 1.0
    for xi, ni in zip(x, n):
        out *= xi**ni
    return out


def stepping_stone_pointwise_residual(
    kernel: Sequence[Sequence[float]],
    x_points: Sequence[Sequence[float]],
    n_points: Sequence[Sequence[int]],
) -> float:
    """Pointwise duality residual of the stepping-stone pair.

    Left side: the forward diffusion generator applied to the product-power
    duality function analytically.  Right side: the migration/coalescence
    dual chain acting on the occupation argument.
    """
    spec = processes.stepping_stone_forward(kernel)
    dual = processes.stepping_stone_dual(kernel)
    P = np.asarray(kernel, dtype=float)
    d = P.shape[0]

    def d1(x, n, i):
        if n[i] < 1:
            return 0.0
        shifted = list(n)
        shifted[i] -= 1
        return n[i] * _mono(x, shifted)

    def d2(x, n, i):
        if n[i] < 2:
            return 0.0
        shifted = list(n)
        shifted[i] -= 2
        return n[i] * (n[i] - 1) * _mono(x, shifted)

    assert spec.kernel is not None
    worst = 0.0
    for x in x_points:
        for n in n_points:
            lhs = 0.0
            for i in range(d):
                for j in range(d):
                    if i == j:
                        continue
                    lhs += P[i, j] * (x[j] - x[i]) * (d1(x, n, i) - d1(x, n, j))
                lhs += x[i] * (1.0 - x[i]) * d2(x, n, i)
            base = _mono(x, n)
            rhs = 0.0
            for target, rate in processes._rates_from_state(dual, tuple(n)):
                rhs += rate * (_mono(x, target) - base)
            worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# exact polynomial-coefficient checks for the two-type diffusion dualities
# ---------------------------------------------------------------------------


def wf_monomial_matrix(theta: float, M: int) -> np.ndarray:
    """Two-type Wright-Fisher generator on monomial coefficients.

    Generator (1/2) x(1-x) f'' + theta (1-2x) f' acting on polynomials of
    degree <= M.  It does not raise the degree, so the representation is
    exact (no truncation edge).
    """
    size = M + 1
    A = algebra._monomial_derivative(size)
    X = algebra._monomial_multiply(size)
    eye = np.eye(size)
    return 0.5 * (X - X @ X) @ A @ A + theta * (eye - 2.0 * X) @ A


def wf_moran_duality_matrix(N: int, theta: float) -> np.ndarray:
    """Columns: coefficients of x^k (1-x)^(N-k) / (Gamma(a+k) Gamma(a+N-k)).

    ``a = 2 theta`` for two types.  This is the product-gamma duality
    function of the two-type Wright-Fisher / Moran pair, expanded in
    monomials (degree N polynomials, so square of size N+1).
    """
    a = 2.0 * theta
    D = np.zeros((N + 1, N + 1))
    for k in range(N + 1):
        norm = exp(-lgamma(a + k) - lgamma(a + N - k))
        for j in range(N - k + 1):
            D[k + j, k] += comb(N - k, j) * (-1.0) ** j * norm
    return D


def sip_self_duality_matrix(
    index_rows: processes.StateIndex,
    index_cols: processes.StateIndex,
    m: float,
) -> np.ndarray:
    """Self-duality matrix of the inclusion process between two sectors.

    Entry (k, xi) = prod_i k_i!/(k_i - xi_i)! * Gamma(m/2)/Gamma(m/2 + xi_i),
    zero unless xi <= k componentwise.  With equal sectors this collapses to
    the diagonal duality attached to the reversible product measure.
    """
    a = m / 2.0
    out = np.zeros((len(index_rows), len(index_cols)))
    K = np.array(index_rows.states, dtype=float)
    if K.shape[1] != len(index_cols.states[0]):
        raise ValueError("sector dimensions differ")
    # one column at a time, over all rows at once: the falling factorials
    # multiply in the same order as the scalar product per entry
    for j, xi in enumerate(index_cols.states):
        val = np.ones(len(K))
        for i, xii in enumerate(xi):
            for step in range(xii):
                val *= K[:, i] - step
            val *= exp(lgamma(a) - lgamma(a + xii))
        out[:, j] = np.where((K >= xi).all(axis=1), val, 0.0)
    return out


# ---------------------------------------------------------------------------
# worked-example reproductions
# ---------------------------------------------------------------------------

EXAMPLE_IDS = ("heterozygosity", "x2y-two-type", "d-type-product", "x2-product-d-type")


def _sip0_distribution(d: int, start: tuple[int, ...], t: float) -> tuple[processes.StateIndex, np.ndarray]:
    spec = processes.sip(d=d, m=0.0)
    gen = processes.generator_matrix(spec, truncation=sum(start))
    i = gen.index.pos[start]
    row = np.zeros(len(gen.index))
    row[i] = 1.0
    probs = matrix_exponential_apply(gen, row, t, transpose=True)
    return gen.index, probs


def reproduce_example(
    example_id: str,
    *,
    x: float = 0.3,
    y: float = 0.7,
    t: float = 0.5,
    d: int = 3,
    xs: Sequence[float] | None = None,
) -> ExampleRecord:
    """Recompute one worked example: quoted closed form vs exact oracle.

    The oracle side is always a matrix exponential of the inclusion-process
    generator on the relevant sector; the record carries both values and
    their absolute difference without asserting agreement.
    """
    if example_id == "heterozygosity":
        closed = x * y * exp(-t)
        index, probs = _sip0_distribution(2, (1, 1), t)
        oracle = x * y * probs[index.pos[(1, 1)]]
        return ExampleRecord(example_id, closed, float(oracle))
    if example_id == "x2y-two-type":
        closed = 0.5 * exp(-2 * t) * (x * x * y * (1 + exp(-2 * t)) + x * y * y * (1 - exp(-2 * t)))
        index, probs = _sip0_distribution(2, (2, 1), t)
        oracle = x * x * y * probs[index.pos[(2, 1)]] + x * y * y * probs[index.pos[(1, 2)]]
        return ExampleRecord(example_id, closed, float(oracle))
    if xs is None:
        xs = tuple(1.0 / d for _ in range(d))
    xs = tuple(float(v) for v in xs)
    if len(xs) != d:
        raise ValueError("xs must list d coordinates")
    if example_id == "d-type-product":
        closed = float(np.prod(xs)) * exp(-(d - 1) * t)
        index, probs = _sip0_distribution(d, (1,) * d, t)
        oracle = float(np.prod(xs)) * probs[index.pos[(1,) * d]]
        return ExampleRecord(example_id, closed, float(oracle))
    if example_id == "x2-product-d-type":
        # quoted walker distribution: stay weight exp(-2dt) at the start
        # site plus a uniform (1 - exp(-2dt))/d share everywhere
        decay = exp(-d * (d - 1) * t)
        uniform = (1.0 - exp(-2 * d * t)) / d
        closed = 0.0
        for i in range(d):
            weight = exp(-2 * d * t) + uniform if i == 0 else uniform
            closed += xs[i] ** 2 * np.prod([xs[j] for j in range(d) if j != i]) * weight
        closed *= decay
        start = (2,) + (1,) * (d - 1)
        index, probs = _sip0_distribution(d, start, t)
        oracle = 0.0
        for i in range(d):
            state = tuple(2 if j == i else 1 for j in range(d))
            oracle += xs[i] ** 2 * np.prod([xs[j] for j in range(d) if j != i]) * probs[index.pos[state]]
        return ExampleRecord(example_id, float(closed), float(oracle))
    raise ValueError(f"unknown example id {example_id!r}")
