"""Matrix representations of ladder-operator algebras on truncated bases.

Two algebras are covered:

* the Heisenberg algebra, generated by a lowering and a raising operator
  with ``[lower, raise] = I`` (canonical commutation relations), in three
  guises: differential operators on monomials, shift operators on occupation
  numbers, and an exact finite-dimensional pair acting on functions of a
  population count ``k`` in ``{0, ..., N}``;
* the su(1,1) algebra, generated by ``raise``, ``lower`` and a diagonal
  ``number`` operator with ``[number, raise] = raise``, ``[number, lower] =
  -lower`` and ``[lower, raise] = 2 number``, again in a differential and a
  discrete guise (the discrete one satisfies the sign-flipped relations).

Everything is a dense real matrix acting on coefficient (or function-value)
vectors indexed ``0..M``.  Raising operators on the monomial basis overflow
the top degree; the overflow row is dropped, so identity checks must exclude
the truncation edge.  The finite-population builders take ``num``: float
arrays, or exact ``Fraction`` nested lists.  All builders are pure and the
returned arrays are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular

__all__ = [
    "Basis",
    "OperatorSet",
    "ResidualReport",
    "build_representation",
    "commutator",
    "check_commutation_relations",
    "duality_matrix",
    "check_intertwiner",
    "binomial_transform",
    "falling_factorial_matrix",
    "hermite_coefficient_matrix",
    "HEISENBERG_FAMILIES",
    "SU11_FAMILIES",
    "FAMILIES",
]

HEISENBERG_FAMILIES = (
    "heisenberg-continuous",
    "heisenberg-discrete",
    "heisenberg-finite-N",
)
SU11_FAMILIES = ("su11-continuous", "su11-discrete")
FAMILIES = HEISENBERG_FAMILIES + SU11_FAMILIES

#: basis kinds: coefficients of x^n, function values at n, and function
#: values at k expanded against the normalized falling-factorial polynomials
BASIS_KINDS = ("monomial", "occupation", "falling-factorial")


@dataclass(frozen=True)
class Basis:
    """Index set a matrix acts on.

    ``size`` is the dimension (truncation order plus one).  For the
    ``falling-factorial`` kind the basis is tied to a population size ``N``
    and ``size == N + 1``.
    """

    kind: str
    size: int
    N: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.size < 2:
            raise ValueError("basis needs size >= 2")
        if self.kind == "falling-factorial":
            if self.N is None or self.size != self.N + 1:
                raise ValueError("falling-factorial basis requires size == N + 1")


@dataclass(frozen=True)
class OperatorSet:
    """Named matrices realizing one algebra representation.

    ``ops`` maps role names to square ``(M+1, M+1)`` arrays.  Heisenberg
    families expose ``lower`` and ``raise``; su(1,1) families additionally
    expose ``number``.
    """

    family: str
    basis: Basis
    ops: dict[str, np.ndarray]
    m: float | None = None
    N: int | None = None

    def __post_init__(self) -> None:
        n = self.basis.size
        for name, mat in self.ops.items():
            if mat.shape != (n, n):
                raise ValueError(f"operator {name!r} is not square on the basis")


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check: its label, residual and checked block."""

    identity: str
    max_abs_residual: float
    checked_block: str

    def __post_init__(self) -> None:
        if self.max_abs_residual < 0:
            raise ValueError("residual must be non-negative")
        if not self.checked_block:
            raise ValueError("checked block must be non-empty")


# ---------------------------------------------------------------------------
# representation builders
# ---------------------------------------------------------------------------


def _monomial_derivative(size: int) -> np.ndarray:
    return np.diag(np.arange(1.0, size), 1)


def _monomial_multiply(size: int) -> np.ndarray:
    # multiplication by the variable; the coefficient of x^(M+1) is dropped
    return np.eye(size, k=-1)


def _discrete_lowering(size: int) -> np.ndarray:
    # f(n) -> n f(n-1)
    return np.diag(np.arange(1.0, size), -1)


def _discrete_raising(size: int) -> np.ndarray:
    # f(n) -> f(n+1); the value beyond the truncation is taken as zero
    return np.eye(size, k=1)


def _ratio(a: int, b: int, num: type):
    # int / int is correctly rounded, where float(a) / float(b) can round twice
    return Fraction(a, b) if num is Fraction else a / b


def _matrix(rows: list[list], num: type):
    """Square nested rows as a float array, or as they are for exact numbers."""
    return np.array(rows) if num is float else rows


def _finite_lowering(N: int, num: type = float):
    # tridiagonal (N-k) f(k+1) + (2k-N) f(k) - k f(k-1), with the
    # conventions f(-1) = f(N+1) = 0 absorbed by the matrix bounds
    rows = [[num(0)] * (N + 1) for _ in range(N + 1)]
    for k in range(N + 1):
        if k + 1 <= N:
            rows[k][k + 1] = num(N - k)
        rows[k][k] = num(2 * k - N)
        if k - 1 >= 0:
            rows[k][k - 1] = num(-k)
    return _matrix(rows, num)


def _finite_raising(N: int, num: type = float):
    # strictly lower triangular alternating sums of binomial ratios,
    # entry (k, r) = (-1)^(k-1-r) C(N,r)/C(N,k), each ratio formed from the
    # exact integers
    rows = [[num(0)] * (N + 1) for _ in range(N + 1)]
    for k in range(1, N + 1):
        for r in range(k):
            val = _ratio(comb(N, r), comb(N, k), num)
            rows[k][r] = val if (k - 1 - r) % 2 == 0 else -val
    return _matrix(rows, num)


def build_representation(
    family: str,
    M: int,
    *,
    m: float | None = None,
    N: int | None = None,
) -> OperatorSet:
    """Build the dense matrices of one ladder-operator family.

    Args:
        family: one of :data:`FAMILIES`.
        M: truncation order; matrices are ``(M+1, M+1)``.  For
            ``heisenberg-finite-N`` it must equal ``N``.
        m: su(1,1) representation label, required positive for those families.
        N: population size, required for ``heisenberg-finite-N``.

    Continuous operators are represented exactly on monomials, with the
    top-degree overflow row truncated.  The finite-N pair implements the
    population-count lowering/raising operators verbatim, including the
    boundary conventions.
    """
    if M < 1:
        raise ValueError("truncation order M must be >= 1")
    size = M + 1
    if family == "heisenberg-continuous":
        if m is not None or N is not None:
            raise ValueError("heisenberg-continuous takes no parameters")
        basis = Basis("monomial", size)
        ops = {"lower": _monomial_derivative(size), "raise": _monomial_multiply(size)}
        return OperatorSet(family, basis, ops)
    if family == "heisenberg-discrete":
        if m is not None or N is not None:
            raise ValueError("heisenberg-discrete takes no parameters")
        basis = Basis("occupation", size)
        ops = {"lower": _discrete_lowering(size), "raise": _discrete_raising(size)}
        return OperatorSet(family, basis, ops)
    if family == "heisenberg-finite-N":
        if N is None or m is not None:
            raise ValueError("heisenberg-finite-N requires N and no m")
        if M != N:
            raise ValueError("heisenberg-finite-N requires M == N")
        basis = Basis("falling-factorial", size, N=N)
        ops = {"lower": _finite_lowering(N), "raise": _finite_raising(N)}
        return OperatorSet(family, basis, ops, N=N)
    if family in SU11_FAMILIES:
        if m is None or m <= 0:
            raise ValueError("su11 families require m > 0")
        if N is not None:
            raise ValueError("su11 families take no N")
        if family == "su11-continuous":
            basis = Basis("monomial", size)
            # z d^2/dz^2 + (m/2) d/dz maps z^(i+1) to (i+1)(i + m/2) z^i
            lower = np.diag([(i + 1) * (i + m / 2.0) for i in range(size - 1)], 1)
            number = np.diag([i + m / 4.0 for i in range(size)])
            ops = {"lower": lower, "raise": _monomial_multiply(size), "number": number}
        else:
            basis = Basis("occupation", size)
            raise_ = np.diag([m / 2.0 + n for n in range(size - 1)], 1)
            number = np.diag([m / 4.0 + n for n in range(size)])
            ops = {"lower": _discrete_lowering(size), "raise": raise_, "number": number}
        return OperatorSet(family, basis, ops, m=m)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def commutator(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Return ``PQ - QP`` for square matrices of equal size."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("commutator needs two square matrices of equal size")
    return P @ Q - Q @ P


def _block_residual(resid: np.ndarray, stop: int) -> float:
    return float(np.abs(resid[:stop, :stop]).max())


def check_commutation_relations(opset: OperatorSet) -> list[ResidualReport]:
    """Check every defining relation of the family, away from the edge.

    Ladder families are checked on the sub-block ``0..M-2`` where truncation
    cannot leak.  For ``heisenberg-finite-N`` the relation ``[lower, raise] =
    I`` holds on the span of the falling-factorial polynomials whose degree
    can still be raised (degrees ``0..N-1``); that check is performed in
    exact rational arithmetic because the alternating binomial sums in the
    raising operator make the double-precision product ill-conditioned for
    N around 25 and beyond.
    """
    fam = opset.family
    size = opset.basis.size
    # rows/cols 0..M-2: the top two indices carry the truncation overflow
    stop = max(size - 2, 1)
    out: list[ResidualReport] = []
    block = f"indices 0..{stop - 1}"
    if fam == "heisenberg-continuous":
        resid = commutator(opset.ops["lower"], opset.ops["raise"]) - np.eye(size)
        out.append(ResidualReport("[lower,raise] - I", _block_residual(resid, stop), block))
    elif fam == "heisenberg-discrete":
        resid = commutator(opset.ops["lower"], opset.ops["raise"]) + np.eye(size)
        out.append(ResidualReport("[lower,raise] + I", _block_residual(resid, stop), block))
    elif fam == "heisenberg-finite-N":
        N = opset.N
        assert N is not None
        low = _finite_lowering(N, Fraction)
        rai = _finite_raising(N, Fraction)
        D = falling_factorial_matrix(N, Fraction)
        comm = _mat_sub(_mat_mul(low, rai), _mat_mul(rai, low))
        # ([lower, raise] - I) annihilates the degree <= N-1 columns
        resid = _mat_sub(_mat_mul(comm, D), D)
        worst = max(
            abs(resid[k][n]) for k in range(N + 1) for n in range(N)
        )
        out.append(
            ResidualReport(
                "([lower,raise] - I) on falling-factorial degrees 0..N-1",
                float(worst),
                f"all k, degrees 0..{N - 1} (exact rational)",
            )
        )
    elif fam in SU11_FAMILIES:
        sign = 1.0 if fam == "su11-continuous" else -1.0
        low, rai, num = opset.ops["lower"], opset.ops["raise"], opset.ops["number"]
        checks = [
            (f"[number,raise] {'-' if sign > 0 else '+'} raise", commutator(num, rai) - sign * rai),
            (f"[number,lower] {'+' if sign > 0 else '-'} lower", commutator(num, low) + sign * low),
            (f"[lower,raise] {'-' if sign > 0 else '+'} 2*number", commutator(low, rai) - sign * 2.0 * num),
        ]
        for label, resid in checks:
            out.append(ResidualReport(label, _block_residual(resid, stop), block))
    else:  # pragma: no cover - unreachable for valid OperatorSet
        raise ValueError(f"unknown family {fam!r}")
    return out


# ---------------------------------------------------------------------------
# duality matrices and intertwiner checks
# ---------------------------------------------------------------------------


def falling_factorial_matrix(N: int, num: type = float):
    """Matrix ``[C(k,n)/C(N,n)]`` for k, n in 0..N (lower triangular).

    With ``num=Fraction`` the exact entries, as nested lists.
    """
    return _matrix(
        [[_ratio(comb(k, n), comb(N, n), num) if n <= k else num(0) for n in range(N + 1)] for k in range(N + 1)],
        num,
    )


def hermite_coefficient_matrix(M: int) -> np.ndarray:
    """Columns hold the monomial coefficients of the Hermite polynomials.

    Physicists' convention, via H_{n+1} = 2 x H_n - 2 n H_{n-1} with H_0 = 1.
    These are the polynomials produced by repeated application of the
    gauged raising operator ``x - d/dx`` to the Gaussian weight.
    """
    out = np.zeros((M + 1, M + 1))
    out[0, 0] = 1.0
    if M >= 1:
        out[1, 1] = 2.0
    for n in range(1, M):
        out[1:, n + 1] = 2.0 * out[:-1, n]
        out[:, n + 1] -= 2.0 * n * out[:, n - 1]
    return out


def duality_matrix(family, rows: Basis, cols: Basis) -> np.ndarray:
    """Expand a duality function as a matrix over two bases.

    Entry ``(i, n)`` is the coefficient (or value) of the column function
    ``D(., n)`` in the row basis.  Raises ``ValueError`` when the duality
    function is not exactly expressible in the requested row basis.

    ``family`` is a :class:`~duality_lab.dualities.DualityFamily`; only the
    kinds with a polynomial (or diagonal) expansion are supported here.
    """
    from . import dualities  # local import, avoids a cycle

    if not isinstance(family, dualities.DualityFamily):
        raise TypeError("family must be a DualityFamily")
    kind = family.kind
    if kind == "monomial":
        if rows.kind != "monomial" or rows.size != cols.size:
            raise ValueError("monomial duality needs equal-size monomial rows")
        return np.eye(rows.size)
    if kind == "hypergeometric-finite":
        N = family.N
        assert N is not None
        if rows.size != N + 1 or cols.size != N + 1:
            raise ValueError("hypergeometric-finite duality needs bases of size N+1")
        return falling_factorial_matrix(N)
    if kind == "gamma-weighted":
        if rows.kind != "monomial" or rows.size != cols.size:
            raise ValueError("gamma-weighted duality needs equal-size monomial rows")
        from scipy.special import gammaln

        a = family.m / 2.0
        n = np.arange(rows.size)
        return np.diag(np.exp(gammaln(a) - gammaln(a + n)))
    if kind == "hermite-weighted":
        if rows.kind != "monomial" or rows.size != cols.size:
            raise ValueError("hermite-weighted duality needs equal-size monomial rows")
        # coefficients are relative to the Gaussian-gauged monomial basis
        return hermite_coefficient_matrix(rows.size - 1)
    raise ValueError(f"duality kind {kind!r} has no exact expansion in the requested basis")


def check_intertwiner(
    K: np.ndarray | sparse.sparray,
    K_hat: np.ndarray | sparse.sparray,
    D: np.ndarray,
    *,
    rows: slice = slice(None),
    cols: slice = slice(None),
    identity: str = "K D - D K_hat^T",
) -> ResidualReport:
    """Residual of the intertwining identity ``K D = D K_hat^T``.

    ``rows``/``cols`` select the truncation-safe block of the residual
    matrix; callers exclude edges polluted by basis truncation.  ``K`` and
    ``K_hat`` may be sparse (a generator's CSR ``Q``); both products are
    then formed without a dense copy of them.
    """
    K = K if sparse.issparse(K) else np.asarray(K, dtype=float)
    K_hat = K_hat if sparse.issparse(K_hat) else np.asarray(K_hat, dtype=float)
    D = np.asarray(D, dtype=float)
    if K.shape[1] != D.shape[0] or D.shape[1] != K_hat.shape[1]:
        raise ValueError("dimension mismatch: need K @ D and D @ K_hat^T conformable")
    # ndarray @ sparse.T goes through a transposed copy and the reflected
    # product, ten times slower on small chains than the sparse product
    DKt = (K_hat @ D.T).T if sparse.issparse(K_hat) else D @ K_hat.T
    resid = K @ D - DKt
    block = resid[rows, cols]
    if block.size == 0:
        raise ValueError("selected block is empty")
    return ResidualReport(identity, float(np.abs(block).max()), f"rows {rows}, cols {cols}")


# ---------------------------------------------------------------------------
# binomial transform
# ---------------------------------------------------------------------------


def binomial_transform(f: np.ndarray, N: int) -> np.ndarray:
    """Coefficients c with ``sum_k f(k) Binom(N, rho)(k) = sum_r c_r rho^r``.

    The function is expanded against the falling-factorial polynomials by a
    triangular solve; mixing those polynomials against the binomial
    distribution yields plain powers of the success probability, so the two
    expansions share their coefficients.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (N + 1,):
        raise ValueError("f must have length N + 1")
    D = falling_factorial_matrix(N)
    return solve_triangular(D, f, lower=True)


# ---------------------------------------------------------------------------
# small exact-rational matrix helpers (shared with the exact engine)
# ---------------------------------------------------------------------------


def _mat_mul(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for j in range(k):
            a = Ai[j]
            if a:
                Bj = B[j]
                row = out[i]
                for l in range(m):
                    if Bj[l]:
                        row[l] += a * Bj[l]
    return out


def _mat_sub(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
