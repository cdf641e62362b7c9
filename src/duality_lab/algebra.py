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
the truncation edge.  The finite-population builders are exact: each
returns ``(ints, den)``, an object array of Python ints over one common
denominator, so numpy's products on it stay exact at any size.  Their float
matrices are ``ints / den`` entry by entry, one correctly rounded division
each.  All builders are pure and the returned arrays are treated as
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, lcm

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
    "check_intertwiner",
    "binomial_transform",
    "falling_factorial_matrix",
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


def _as_float(ints: np.ndarray, den: int) -> np.ndarray:
    # int / int is correctly rounded, where float(a) / float(b) can round twice
    return (ints / den).astype(float)


def _finite_lowering(N: int) -> tuple[np.ndarray, int]:
    # tridiagonal (N-k) f(k+1) + (2k-N) f(k) - k f(k-1), with the
    # conventions f(-1) = f(N+1) = 0 absorbed by the matrix bounds; integer
    # entries, so over the denominator 1
    k = np.arange(N + 1)
    ints = np.diag(2 * k - N) + np.diag(N - k[:-1], 1) + np.diag(-k[1:], -1)
    return ints.astype(object), 1


def _finite_raising(N: int) -> tuple[np.ndarray, int]:
    # strictly lower triangular alternating sums of binomial ratios,
    # entry (k, r) = (-1)^(k-1-r) C(N,r)/C(N,k), over the lcm of the C(N,k)
    binom = [comb(N, k) for k in range(N + 1)]
    den = lcm(*binom)
    rows = [[(-1) ** (k - 1 - r) * binom[r] * (den // binom[k]) if r < k else 0 for r in range(N + 1)] for k in range(N + 1)]
    return np.array(rows, dtype=object), den


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
        ops = {"lower": _as_float(*_finite_lowering(N)), "raise": _as_float(*_finite_raising(N))}
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
    N around 25 and beyond.  It certifies the set's own ``lower`` and
    ``raise`` only where they are, bit for bit, the floats of that exact
    pair; a set that holds any other matrices reports an infinite residual.
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
        (low, l), (rai, r), (D, dd) = _finite_lowering(N), _finite_raising(N), _falling_factorial(N)
        pairs = {"lower": (low, l), "raise": (rai, r)}
        held = {name: np.asarray(opset.ops[name], dtype=float).tobytes() for name in pairs}
        if any(held[name] != _as_float(*pair).tobytes() for name, pair in pairs.items()):
            worst, block = inf, "lower/raise are not the exact pair's floats"
        else:
            # ([lower, raise] - I) D over the denominator l r dd; it
            # annihilates the degree <= N-1 columns
            resid = (low @ rai - rai @ low) @ D - l * r * D
            worst = float(Fraction(abs(resid[:, :N]).max(), l * r * dd))
            block = f"all k, degrees 0..{N - 1} (exact rational)"
        out.append(ResidualReport("([lower,raise] - I) on falling-factorial degrees 0..N-1", worst, block))
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
# the falling-factorial matrix and intertwiner checks
# ---------------------------------------------------------------------------


def _falling_factorial(N: int) -> tuple[np.ndarray, int]:
    """``[C(k,n)/C(N,n)]`` for k, n in 0..N as ``(ints, den)``, over the lcm of the C(N,n)."""
    binom = [comb(N, n) for n in range(N + 1)]
    den = lcm(*binom)
    # comb(k, n) is 0 for n > k
    return np.array([[comb(k, n) * (den // binom[n]) for n in range(N + 1)] for k in range(N + 1)], dtype=object), den


def falling_factorial_matrix(N: int) -> np.ndarray:
    """Matrix ``[C(k,n)/C(N,n)]`` for k, n in 0..N (lower triangular), each entry correctly rounded."""
    return _as_float(*_falling_factorial(N))


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
# exact rational matrices as integers over one denominator
# ---------------------------------------------------------------------------


def _scaled(rows: np.ndarray | list[list[Fraction]]) -> tuple[np.ndarray, int]:
    """Exact rational rows as ``(ints, den)`` with ``rows == ints / den``.

    ``den`` is the least common multiple of the entries' denominators and
    ``ints`` an object array of Python ints, so numpy's ``@``, ``-`` and
    ``abs().max()`` on such arrays are exact at any size: no ``Fraction`` is
    formed, and no gcd taken, per multiply-add.
    """
    flat = [x for row in rows for x in row]
    dens = {x.denominator for x in flat}
    den = lcm(*dens)
    scale = {q: den // q for q in dens}
    ints = np.array([x.numerator * scale[x.denominator] for x in flat], dtype=object)
    return ints.reshape(len(rows), -1), den
