"""Ground-truth engine: matrix exponentials and exact duality checks.

Everything here is deterministic.  Expectations over finite chains go
through the action of the matrix exponential on the given columns, by one
of three methods chosen from the input (see
:func:`matrix_exponential_apply`).  Columns that span a subspace the
generator leaves invariant, as a duality matrix's do, are exponentiated
on that span, the "happy breakdown" of a Krylov method (Saad 1992), once
an error estimate confirms it.  Other columns go to scipy's dense
scaling-and-squaring with Pade approximants (``expm``), or to
uniformization of the sparse generator (Jensen 1953), a Poisson-weighted
sum of powers of the nonnegative matrix P = I + Q / Lambda.  The last two
work to the double-precision unit roundoff; uniformization runs about 100
times faster than ``expm`` on a 1,771-state inclusion sector, and the
invariant-subspace route about 20 times faster again on its duality block.
Generator dualities are checked as matrix identities, or for diffusions
through an exact polynomial-coefficient representation.  Pointwise identities
``L_x D(x, n) = K_n D(x, n)`` go through one engine,
:func:`check_pointwise_duality`: a second-order side acts through its
drift, covariance and potential on analytic partial derivatives of the
duality function, and a jump side through its own moves, so no state
space is enumerated or truncated; the duality functions are the catalog
objects of :mod:`~duality_lab.dualities`.  The rational certification
takes the models' generators (their moves run with ``num=Fraction``) and
the algebra's exact builders in one format, ``(ints, den)``: Python-int
arrays over one common denominator, multiplied as they are and compared by
cross-multiplying.

The worked-example reproductions compare a quoted closed form against the
matrix-exponential value and report both without asserting agreement; three
of the four closed forms are known not to match the generator-level ground
truth (see the package README).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, lgamma, log, sqrt
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm, qr

from . import algebra, dualities, processes
from .algebra import ResidualReport, check_intertwiner
from .processes import DiffusionModel, GeneratorMatrix, JumpModel

__all__ = [
    "ExactExpectation",
    "ExampleRecord",
    "matrix_exponential_apply",
    "exact_expectation",
    "check_generator_duality",
    "check_pointwise_duality",
    "Operator1D",
    "moran_block_counting",
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
    """An exactly computed expectation, with provenance.

    ``method`` is the branch of :func:`matrix_exponential_apply` that
    computed it: ``"invariant-subspace"``, ``"uniformization"`` or
    ``"matrix-exponential"`` (dense ``expm``).
    """

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


# neither uniformization nor the invariant-subspace route runs below this
# many states: below this size uniformization and dense expm tie at best
# (0.95 against 0.97 ms on the 91-state d = 3 Moran chain)
_SPARSE_MIN_STATES = 128
# the invariant-subspace route is tried on blocks with at most one column
# per this many states
_STATES_PER_SUBSPACE_COLUMN = 16
# the route's error estimate must stay within this share of each column's
# norm, the bar the tests hold uniformization to
_SUBSPACE_TOL = 1e-12
# the estimate samples s = t j / _SUBSPACE_STEPS, j = 0, ..., _SUBSPACE_STEPS
_SUBSPACE_STEPS = 4
# the fixed cost of one sparse product (about 6 us of scipy call overhead),
# in flops of the cost rule; the measured crossover table is in CHANGES.md
_PRODUCT_FLOPS = 10_000
# peak n x n float64 arrays of the dense branch: the dense copy, tQ and
# expm's own work arrays (traced at 1,000 states)
_DENSE_EXPM_ARRAYS = 10
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _max_exit_rate(M: np.ndarray | sparse.csr_array) -> float:
    return float(-M.diagonal().min(initial=0.0))


def _is_sub_generator(M: np.ndarray | sparse.csr_array) -> bool:
    """Off-diagonal entries >= 0 and rows summing to <= 0.

    A generator matrix is one by construction; an array is checked.  Then
    exp(tM) is nonnegative with rows summing to <= 1, so it does not grow
    the infinity norm, nor exp(tM^T) the 1-norm.
    """
    if sparse.issparse(M):
        return True
    off = M - np.diag(M.diagonal())
    return not ((off < 0).any() or (M.sum(axis=1) > 1e-12 * max(1.0, float(np.abs(M).max()))).any())


def _prefers_uniformization(M: np.ndarray | sparse.csr_array, t: float, cols: int) -> bool:
    """True when uniformization should beat dense ``expm`` on ``exp(tM) B``.

    ``cols`` counts the columns of ``B``.  Uniformization needs a
    sub-generator (:func:`_is_sub_generator`), so that P = I + M / Lambda
    is nonnegative, no power of P grows and the truncated Poisson tail
    bounds the error.

    Dense ``expm`` costs about n^3 flops whatever the entries.
    Uniformization takes about ``x + 9 sqrt(x)`` products of P, with
    ``x = Lambda t``, each of ``nnz * cols`` flops plus a fixed cost of
    about 10^4 flops' time.  So size alone is not the rule: stiff chains
    such as block counting with rates n(n-1) stay dense at a few hundred
    states, while the sparse inclusion-process sectors are uniformized.
    """
    n = M.shape[0]
    if n < _SPARSE_MIN_STATES or not _is_sub_generator(M):
        return False
    x = _max_exit_rate(M) * t
    nnz = M.nnz if sparse.issparse(M) else np.count_nonzero(M)
    return (x + 9.0 * sqrt(x)) * (nnz * cols + _PRODUCT_FLOPS) < n**3


def _poisson_weights(x: float) -> np.ndarray:
    """Poisson(x) probabilities w_0, ..., w_{K-1} of the kept terms.

    The weight at the mode m = floor(x) is taken in log space,
    ``exp(m ln x - x - lgamma(m + 1))``, so it does not underflow when
    exp(-x) does (x > 745).  The others follow from it by the ratios
    ``w_k / w_{k-1} = x / k``, so each is within about |k - m| roundoffs;
    a log-space exponent per weight, of size x ln x, would lose 1e-12 of a
    weight at x = 1,000.  K is the first k > x whose tail bound
    ``w_k (k + 1) / (k + 1 - x)``, at least the mass of every term from k
    on, is below the unit roundoff.  As that mass is left out, dividing the
    kept weights by their sum only removes the rounding of the mode weight.
    """
    mode = int(x)
    weights = [exp(mode * log(x) - x - lgamma(mode + 1))]
    for k in range(mode, 0, -1):
        weights.append(weights[-1] * k / x)
    weights.reverse()
    k = mode
    while True:
        k += 1
        w = weights[-1] * x / k
        if k > x and w * (k + 1) / (k + 1 - x) < _UNIT_ROUNDOFF:
            break
        weights.append(w)
    out = np.array(weights)
    return out / out.sum()


def _uniformized(M: np.ndarray | sparse.csr_array, v: np.ndarray, t: float, transpose: bool) -> np.ndarray:
    """``exp(tM) v`` as ``sum_k w_k P^k v`` (Jensen 1953), w the Poisson(Lambda t) weights.

    Lambda is the largest exit rate and P = I + M / Lambda.  Every term is
    nonnegative for nonnegative ``v``, so nothing cancels and no norm is
    estimated.  With ``transpose`` the powers are those of P^T.
    """
    lam = _max_exit_rate(M)
    if lam * t == 0.0:
        return v.copy()
    # sparse.identity, not eye_array: the latter is newer than scipy 1.10
    P = sparse.csr_array(M / lam) + sparse.csr_array(sparse.identity(M.shape[0], format="csr"))
    if transpose:
        P = P.T
    weights = _poisson_weights(lam * t)
    out = weights[0] * v
    term = v
    for w in weights[1:]:
        term = P @ term
        out += w * term
    return out


def _orthonormal_rows(B: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal rows spanning ``B``'s rows, by Householder QR with column pivoting.

    At step k LAPACK's xGEQP3 (Quintana-Orti, Sun & Bischof 1998) on ``B^T``
    takes the column farthest from the span of those before it, at 2-norm
    distance ``|R_kk|``.  The basis keeps the leading run of steps with
    ``|R_kk| > cutoff``, so a row that another row or combination nearly
    equals adds no direction of rounding noise; a NaN cutoff keeps none.
    """
    Q, R, _ = qr(B.T, mode="economic", pivoting=True, check_finite=False)
    rank = int(np.logical_and.accumulate(np.abs(np.diag(R)) > cutoff).sum())
    return Q[:, :rank].T


def _invariant_subspace(
    M: np.ndarray | sparse.csr_array, v: np.ndarray, t: float, transpose: bool
) -> np.ndarray | None:
    """``exp(tM) v`` on the span of ``v``'s columns, or None where that span is not invariant enough.

    With W an orthonormal basis of the span, H = W^T M W and E = M W - W H,
    the result is W exp(tH) W^T v.  Its error is
    ``exp(tM) (v - W W^T v) + int_0^t exp((t-s)M) E exp(sH) W^T v ds``,
    and exp(tM) of a sub-generator does not grow the infinity norm, so
    ``|v - W W^T v| + t max_s |E exp(sH) W^T v|`` estimates it column by
    column, the max taken over a few nodes s in [0, t].  With
    ``transpose`` M^T stands for M and the norm is the 1-norm, which
    exp(tM^T) does not grow.  The result is returned when every column's
    estimate is within ``_SUBSPACE_TOL`` times that column's norm: as for
    a duality block D, whose columns span an invariant subspace since
    K D = D K_hat^T, together with the constants.

    The blocks are held transposed, one vector per contiguous row, as each
    norm reduces along a vector: numpy reduces an n x 4 array along its
    rows some ten times slower.
    """

    def norm(Xt):
        return np.abs(Xt).sum(axis=1) if transpose else np.abs(Xt).max(axis=1)

    Bt = np.ascontiguousarray(v.reshape(v.shape[0], -1).T)
    tol = _SUBSPACE_TOL * norm(Bt)
    # a direction dropped here counts in the estimate below
    Wt = _orthonormal_rows(Bt, 0.5 * float(tol.max()))
    if len(Wt) == 0:
        return None
    MW = (M.T if transpose else M) @ Wt.T
    H = Wt @ MW
    Et = MW.T - H.T @ Wt
    yt = Bt @ Wt.T
    err = norm(Bt - yt @ Wt)
    # s = 0 comes first, so a span that is not invariant costs no expm
    if not (err + t * norm(yt @ Et) <= tol).all():
        return None
    step = expm((t / _SUBSPACE_STEPS) * H).T
    for _ in range(_SUBSPACE_STEPS):
        yt = yt @ step
        if not (err + t * norm(yt @ Et) <= tol).all():
            return None
    return (Wt.T @ yt.T).reshape(v.shape)


def _exponential_action(
    Q: GeneratorMatrix | np.ndarray, v: np.ndarray, t: float, transpose: bool
) -> tuple[np.ndarray, str]:
    """:func:`matrix_exponential_apply`'s result and the name of the branch that computed it."""
    if t < 0:
        raise ValueError("time must be non-negative")
    M = _as_matrix(Q)
    v = np.asarray(v, dtype=float)
    if M.shape[0] != M.shape[1] or M.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    n = M.shape[0]
    cols = 1 if v.ndim == 1 else v.shape[1]
    if (
        n >= _SPARSE_MIN_STATES
        and 0 < cols * _STATES_PER_SUBSPACE_COLUMN <= n
        and _max_exit_rate(M) * t > 0
        and _is_sub_generator(M)
    ):
        out = _invariant_subspace(M, v, t, transpose)
        if out is not None:
            return out, "invariant-subspace"
    if _prefers_uniformization(M, t, cols):
        return _uniformized(M, v, t, transpose), "uniformization"
    if t == 0:
        return v.copy(), "matrix-exponential"
    need = _DENSE_EXPM_ARRAYS * 8 * n * n
    memory = processes._physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"dense matrix exponential of {n} states needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    if sparse.issparse(M):
        M = M.toarray()
    return expm(t * (M.T if transpose else M)) @ v, "matrix-exponential"


def matrix_exponential_apply(
    Q: GeneratorMatrix | np.ndarray,
    v: np.ndarray,
    t: float,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """Return ``expm(t Q) v`` (or ``expm(t Q^T) v`` with ``transpose``).

    On a sub-generator with n >= 128 states, ``Lambda t > 0`` and at most
    one column of ``v`` per 16 states, the invariant-subspace route is
    tried first: with W an orthonormal basis of the span of ``v``'s
    columns, H = W^T Q W and E = Q W - W H, it returns
    ``W expm(tH) W^T v`` when the error estimate
    ``|v - W W^T v| + t max_s |E expm(sH) W^T v|``, over five nodes s in
    [0, t], is within 1e-12 of each column's infinity norm (its 1-norm
    with ``transpose``).  That holds when the columns span an invariant
    subspace, as a duality block does.  Every other call, and every call
    below 128 states, takes one of the two branches below.

    The method follows a cost rule on the input.  With n states, nnz
    stored entries, ``cols`` columns in ``v`` and ``x = Lambda t``, Lambda
    the largest exit rate, ``Q`` is uniformized when it is a sub-generator
    (a generator matrix, or an array with off-diagonal entries >= 0 and
    rows summing to <= 0), n >= 128 and ``(x + 9 sqrt(x)) * (nnz * cols +
    10^4) < n^3``; otherwise dense ``expm`` runs on ``Q.toarray()``.  The
    first is the cost of uniformization in flops, each sparse product
    counted with its fixed overhead, the second that of dense scaling and
    squaring.  Size alone would be the wrong rule: a 401-state block
    counting chain runs some 18x slower uniformized because its rates are
    large, while a 1,771-state inclusion sector runs 100x faster.  These
    two branches work to the double-precision unit roundoff.  Before a dense
    exponential whose working set (about ten n x n float64 arrays) exceeds
    physical memory, a ``ValueError`` is raised instead of allocating.
    """
    return _exponential_action(Q, v, t, transpose)[0]


def exact_expectation(
    gen: GeneratorMatrix,
    f: np.ndarray,
    k0: Sequence[int],
    t: float,
) -> ExactExpectation:
    """E_{k0} f(X_t) for the chain with generator ``gen``.

    ``method`` names the branch of :func:`matrix_exponential_apply` that
    computed the value: ``"invariant-subspace"`` (``f`` spans a subspace
    the generator leaves invariant, such as the constants, on a chain of
    at least 128 states), ``"uniformization"`` or ``"matrix-exponential"``
    (dense ``expm``).
    """
    state = tuple(int(v) for v in k0)
    try:
        i = gen.index.pos[state]
    except KeyError:
        raise ValueError(f"state {state} is outside the enumerated space") from None
    w, method = _exponential_action(gen, f, t, False)
    return ExactExpectation(value=float(w[i]), method=method, state_space_size=len(gen.index))


def check_generator_duality(
    K: GeneratorMatrix | np.ndarray,
    K_hat: GeneratorMatrix | np.ndarray,
    D: np.ndarray,
    *,
    name: str = "K vs K_hat",
) -> ResidualReport:
    """Matrix duality check ``K D = D K_hat^T`` with a process-pair label."""
    return check_intertwiner(_as_matrix(K), _as_matrix(K_hat), D, identity=name)


# ---------------------------------------------------------------------------
# exact rational certification of the finite-population duality
# ---------------------------------------------------------------------------


def moran_ladder_product_exact(N: int) -> tuple[np.ndarray, int]:
    """The Moran generator assembled as raise (1 - raise) lower^2, exact, as ``(ints, den)``."""
    low, l = algebra._finite_lowering(N)
    rai, r = algebra._finite_raising(N)
    # with raise = rai / r and lower = low / l, over the denominator (r l)^2
    eye = np.identity(N + 1, dtype=object)
    return rai @ (r * eye - rai) @ low @ low, (r * l) ** 2


def moran_block_counting(N: int) -> tuple[processes.MoranMultitype, processes.KingmanBlock]:
    """The two-type Moran model of size ``N`` and its block-counting dual.

    Block counting coalesces at rate n(n-1), so its exact dual under the
    falling-factorial matrix is the Moran chain at twice the d-type rate.
    """
    return processes.moran_multitype(N, 2, 0.0, rate_scale=2.0), processes.kingman_block(n_max=N)


def moran_kingman_residual_exact(N: int, moran: tuple[np.ndarray, int] | None = None) -> Fraction:
    """Max |K D - D K_hat^T| of the Moran / block-counting pair, exact.

    All three matrices have rational entries, so a zero here certifies the
    identity outright rather than bounding floating-point error.  The
    generators are the models' own moves, evaluated in ``Fraction``; pass
    the Moran chain's ``rational_generator`` as ``moran`` where it is built
    already.
    """
    model, dual = moran_block_counting(N)
    K, k = processes.rational_generator(model) if moran is None else moran
    Khat, kh = processes.rational_generator(dual)
    D, dd = algebra._falling_factorial(N)
    # K D / (k dd) - D Khat^T / (dd kh), over the denominator k kh dd
    return Fraction(abs(kh * (K @ D) - k * (D @ Khat.T)).max(), k * kh * dd)


# ---------------------------------------------------------------------------
# pointwise duality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operator1D:
    """Second-order operator ``alpha(u) f'' + beta(u) f' + gamma(u) f``."""

    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    gamma: Callable[[float], float] | None = None


def _side_at(side, grid: Sequence, slot: str, D) -> tuple[list[tuple], list]:
    """The grid as tuples of coordinates, and the side at each point: a jump
    model's transitions (a list), or a second-order side's ``(b, a, gamma)``
    with the nonzero covariance entries listed as ``(i, j, a_ij)``."""
    if isinstance(side, GeneratorMatrix):
        raise TypeError("pass the JumpModel itself, not its generator_matrix: a jump side is read through its rates")
    jumps = isinstance(side, JumpModel) and not isinstance(side, DiffusionModel)
    num = int if jumps else float
    points = [tuple(num(v) for v in p) if np.ndim(p) else (num(p),) for p in grid]
    if jumps:
        if slot != "right":
            raise ValueError(f"{side.kind} is a jump model: jump models act on the right slot, so pass it as right")
        return points, side.transitions(points)
    if getattr(D, "u_partial" if slot == "left" else "w_partial", None) is None:
        raise ValueError(f"the duality function lacks the {slot}-slot derivatives")
    if isinstance(side, Operator1D):
        b = [[side.beta(x)] for (x,) in points]
        a = [[[2.0 * side.alpha(x)]] for (x,) in points]
        gamma = [None if side.gamma is None else side.gamma(x) for (x,) in points]
    elif isinstance(side, DiffusionModel):
        # one call for the whole grid: a matrix drift such as the stepping
        # stone's can differ in the last bit between one-row and many-row products
        b, a = processes._checked_coefficients(side, np.array(points, dtype=float))
        b, a, gamma = b.tolist(), a.tolist(), [None] * len(points)
    else:
        raise TypeError(f"unsupported operator description {type(side)!r}")
    return points, [
        (bx, [(i, j, aij) for i, row in enumerate(ax) for j, aij in enumerate(row) if aij], g)
        for bx, ax, g in zip(b, a, gamma)
    ]


def _apply_side(op, D, u: tuple, w: tuple, slot: str) -> float:
    """Apply one side's operator, prepared at this grid point, to the duality function at (u, w)."""
    if isinstance(op, list):
        base = D.value(u, w)
        out = 0.0
        for target, rate in op:
            out += rate * (D.value(u, target) - base)
        return out
    b, a, gamma = op
    partial = D.u_partial if slot == "left" else D.w_partial
    out = sum(bi * partial(u, w, i) for i, bi in enumerate(b))
    out += 0.5 * sum(aij * partial(u, w, i, j) for i, j, aij in a)
    return out if gamma is None else out + gamma * D.value(u, w)


def check_pointwise_duality(
    left,
    right,
    duality,
    left_grid: Sequence[float],
    right_grid: Sequence,
    *,
    identity: str = "pointwise duality",
) -> ResidualReport:
    """Max over a grid of |(K_l D)(u, w) - (K_r D)(u, w)|.

    ``duality`` has ``value(u, w)`` and, for a slot a second-order side
    acts on, ``u_partial(u, w, *coords)`` or ``w_partial``, the derivative
    in the listed coordinates.  ``left`` acts on the first slot: an
    :class:`Operator1D` or a diffusion model of any dimension.  ``right``
    acts on the second slot: either of those, or a
    :class:`~duality_lab.processes.JumpModel`.  A grid point is
    a number or a sequence of coordinates; a jump side's grid lists states.

    Each side is read once per grid point.  A second-order side becomes its
    drift ``b``, covariance ``a`` (a diffusion model's checked positive
    semidefinite) and optional potential ``gamma``, and acts as
    ``sum b_i d_i D + (1/2) sum a_ij d_ij D (+ gamma D)`` through the
    duality's partials.  A jump model acts through its own rates, read by
    one ``moves`` call over the grid, as ``sum rate (D(u, target) - D(u,
    w))``, so no state space is enumerated or truncated; pass the model,
    not its ``generator_matrix``.
    """
    left_points, left_ops = _side_at(left, left_grid, "left", duality)
    right_points, right_ops = _side_at(right, right_grid, "right", duality)
    worst = 0.0
    for u, lop in zip(left_points, left_ops):
        for w, rop in zip(right_points, right_ops):
            lhs = _apply_side(lop, duality, u, w, "left")
            rhs = _apply_side(rop, duality, u, w, "right")
            worst = max(worst, abs(lhs - rhs))
    return ResidualReport(identity, worst, f"{len(left_grid)} x {len(right_grid)} grid")


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
    """Self-duality matrix of the inclusion process between two sectors, ``InclusionSelfDuality`` at ``a = m/2``."""
    return dualities.InclusionSelfDuality(a=m / 2.0).matrix(index_rows, index_cols)


# ---------------------------------------------------------------------------
# worked-example reproductions
# ---------------------------------------------------------------------------

EXAMPLE_IDS = ("heterozygosity", "x2y-two-type", "d-type-product", "x2-product-d-type")


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

    Each example is E_x D(xi, X_t) for the Wright-Fisher diffusion without
    mutation, at coordinates ``(x, y)`` or ``xs`` (by default uniform over
    ``d`` types) and a start ``xi``.  The oracle is the dual side,
    E_xi D(xi_t, x): the law of the inclusion process at m = 0 from ``xi``
    at time ``t``, a matrix exponential on its sector, against the killed
    ``limiting-sip`` function at each state.  The record carries both values
    and their absolute difference without asserting agreement.
    """
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"unknown example id {example_id!r}")
    if example_id in ("heterozygosity", "x2y-two-type"):
        xs = (x, y)
    elif xs is None:
        xs = tuple(1.0 / d for _ in range(d))
    elif len(xs) != d:
        raise ValueError("xs must list d coordinates")
    xs = tuple(float(v) for v in xs)
    if example_id == "heterozygosity":
        closed = x * y * exp(-t)
        start = (1, 1)
    elif example_id == "x2y-two-type":
        closed = 0.5 * exp(-2 * t) * (x * x * y * (1 + exp(-2 * t)) + x * y * y * (1 - exp(-2 * t)))
        start = (2, 1)
    elif example_id == "d-type-product":
        closed = float(np.prod(xs)) * exp(-(d - 1) * t)
        start = (1,) * d
    else:
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
    gen = processes.generator_matrix(processes.sip(d=len(start), m=0.0), truncation=sum(start))
    row = np.zeros(len(gen.index))
    row[gen.index.pos[start]] = 1.0
    probs = matrix_exponential_apply(gen, row, t, transpose=True)
    family = dualities.LimitingSip()
    oracle = probs @ [dualities.evaluate(family, dualities.EvalPoint(xs, s)) for s in gen.index.states]
    return ExampleRecord(example_id, float(closed), float(oracle))
