"""Catalog of duality functions with numerically stable evaluation.

Each function is one frozen dataclass with its checked parameters and its
formula, built by kind with ``DualityFamily(kind, N=, m=, theta=, d=)``.
``factors(point)`` gives ``(base, exponent)`` pairs that ``evaluate``
multiplies directly or, once one leaves the safe double range, in log space
with sign tracking (the two agree to relative 1e-12).  Matrix forms are
``matrix(rows, cols)``; the pointwise engine reads ``value(u, w)``,
``u_partial`` and ``w_partial``; the estimator reads ``slots`` (each slot's
type; both of one size) and ``lifted`` (reads the d-type state with its last
type).

Slots (first argument, second argument) and formulas:

=====================  ======================================================
monomial               continuous x, discrete n: prod x_i^n_i
mirror-monomial        continuous x, discrete n: prod (1 - x_i)^n_i
exponential            continuous x, continuous y: exp(x . y)
hermite-weighted       continuous x, discrete n (1 each): exp(-x^2/2) H_n(x)
hypergeometric-finite  discrete k, discrete n (1 each): C(k,n)/C(N,n)
gamma-weighted         continuous z, discrete n (1 each):
                       z^n Gamma(m/2) / Gamma(m/2 + n)
product-gamma          continuous simplex x, discrete k (d each):
                       prod x_i^k_i / Gamma(2 theta/(d-1) + k_i)
moran-self-dual        discrete k, discrete xi: zero unless xi <= k, else
                       prod k_i!/(k_i-xi_i)! Gamma(a)/Gamma(a + xi_i); a is
                       m/2, or 2 theta/(d-1) with k summing to N (Moran)
limiting-sip           discrete xi, continuous x: zero unless every site is
                       occupied, else prod x_i^xi_i / (xi_i - 1)!
=====================  ======================================================
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from math import exp, frexp, isfinite, ldexp, lgamma, log, prod
from numbers import Integral, Real
from typing import ClassVar, Sequence

import numpy as np

from .algebra import Basis, falling_factorial_matrix

__all__ = [
    "DualityFamily",
    "EvalPoint",
    "evaluate",
    "evaluate_at",
    "cheap_self_duality",
    "transform_by_symmetry",
    "KINDS",
]

#: direct evaluation switches to log space past these factor magnitudes
_OVERFLOW = 1e300
_UNDERFLOW = 1e-300

_SIMPLEX_TOL = 1e-12
_HERMITE_SCALE = 2.0**512
_E = exp(1.0)


@dataclass(frozen=True)
class EvalPoint:
    """A point of the product state space: continuous and discrete slots."""

    continuous: tuple[float, ...] = ()
    discrete: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.discrete and min(self.discrete) < 0:
            raise ValueError("discrete coordinates must be non-negative")


#: the count parameters and their floors; the others are finite and positive
_INTEGER_FLOORS = {"N": 1, "d": 2}


def _check(name: str, value) -> None:
    if name in _INTEGER_FLOORS:
        low = _INTEGER_FLOORS[name]
        if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
    elif isinstance(value, bool) or not isinstance(value, Real) or not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, not {value!r}")


def _square_monomial(kind: str, rows: Basis, cols: Basis) -> int:
    if rows.kind != "monomial" or rows.size != cols.size:
        raise ValueError(f"{kind} duality needs equal-size monomial rows")
    return rows.size


def _hermite_scaled(n: int, x: float) -> tuple[float, int]:
    """H_n(x) as ``h * 2**s``, by the recurrence H_{j+1} = 2x H_j - 2j H_{j-1}.

    Both terms are divided by 2**512 whenever the newest passes it, so no
    term overflows; dividing by a power of two is exact, so ``h * 2**s`` is
    bit for bit the plain recurrence's value wherever that is finite.
    """
    if n == 0:
        return 1.0, 0
    prev, cur, s = 1.0, 2.0 * x, 0
    for j in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * j * prev
        if abs(cur) > _HERMITE_SCALE:
            prev, cur, s = prev / _HERMITE_SCALE, cur / _HERMITE_SCALE, s + 512
    return cur, s


class _Duality:
    kind: ClassVar[str]
    slots: ClassVar[tuple[type, type]] = (float, int)
    lifted: ClassVar[bool] = False

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None:
                _check(name, value)


class _Powers(_Duality):
    """``prod b(x_i)^n_i``, with partials in ``x`` only; each brings out the sign of ``b'``."""

    lifted = True
    _sign: ClassVar[int] = 1

    def _bases(self, x: Sequence[float]) -> Sequence[float]:
        return x

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        if len(p.continuous) != len(p.discrete) or not p.continuous:
            raise ValueError(f"{self.kind} needs matching continuous/discrete vectors")
        return [(b, float(k)) for b, k in zip(self._bases(p.continuous), p.discrete)]

    def value(self, x: Sequence[float], n: Sequence[int]) -> float:
        out = 1.0
        for b, k in zip(self._bases(x), n):
            out *= b**k
        return out

    def u_partial(self, x: Sequence[float], n: Sequence[int], *coords: int) -> float:
        powers, coef = list(n), 1
        for i in coords:
            coef *= powers[i]
            powers[i] -= 1
        return self._sign ** len(coords) * (coef * self.value(x, powers) if coef else 0.0)


@dataclass(frozen=True)
class Monomial(_Powers):
    """``prod x_i^{n_i}``, the moment duality of the diffusions with their block-counting chains."""

    kind = "monomial"

    def matrix(self, rows: Basis, cols: Basis) -> np.ndarray:
        return np.eye(_square_monomial(self.kind, rows, cols))


@dataclass(frozen=True)
class MirrorMonomial(_Powers):
    """``prod (1 - x_i)^{n_i}``, the duality function of the positive-selection diffusion."""

    kind = "mirror-monomial"
    _sign = -1

    def _bases(self, x: Sequence[float]) -> Sequence[float]:
        return tuple(1.0 - xi for xi in x)


@dataclass(frozen=True)
class Exponential(_Duality):
    """``exp(x . y)``; a derivative in a coordinate of one slot brings out that coordinate of the other."""

    kind = "exponential"
    slots = (float, float)

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        c, half = p.continuous, len(p.continuous) // 2
        if p.discrete or not c or len(c) % 2:
            raise ValueError("exponential needs two continuous slots (x, y) of one size")
        return [(self.value(c[:half], c[half:]), 1.0)]

    def value(self, x: Sequence[float], y: Sequence[float]) -> float:
        return exp(sum(xi * yi for xi, yi in zip(x, y)))

    def u_partial(self, x: Sequence[float], y: Sequence[float], *coords: int) -> float:
        return prod((y[i] for i in coords), start=1.0) * self.value(x, y)

    def w_partial(self, x: Sequence[float], y: Sequence[float], *coords: int) -> float:
        return self.u_partial(y, x, *coords)


@dataclass(frozen=True)
class HermiteWeighted(_Duality):
    """``exp(-x^2/2) H_n(x)``; the Gaussian is the factor ``(e, -x^2/2)``, so the log path carries it.

    Where H_n(x) itself passes the double range it is the two factors
    ``(2, s)`` and ``(h, 1)`` of the scaled recurrence, which the log path
    also carries.
    """

    kind = "hermite-weighted"

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        if len(p.continuous) != 1 or len(p.discrete) != 1:
            raise ValueError("hermite-weighted needs one continuous and one discrete slot")
        x = p.continuous[0]
        h, s = _hermite_scaled(p.discrete[0], x)
        if frexp(h)[1] + s <= 1024:
            return [(_E, -x * x / 2.0), (ldexp(h, s), 1.0)]
        return [(_E, -x * x / 2.0), (2.0, float(s)), (h, 1.0)]

    def matrix(self, rows: Basis, cols: Basis) -> np.ndarray:
        """Column n holds the monomial coefficients of H_n, relative to the Gaussian-gauged monomials."""
        size = _square_monomial(self.kind, rows, cols)
        out = np.zeros((size, size))
        out[0, 0] = 1.0
        for n in range(size - 1):
            out[1:, n + 1] = 2.0 * out[:-1, n]
            if n:
                out[:, n + 1] -= 2.0 * n * out[:, n - 1]
        return out


@dataclass(frozen=True)
class GammaWeighted(_Duality):
    """``z^n Gamma(m/2) / Gamma(m/2 + n)``, the su(1,1) intertwiner of label ``m``."""

    m: float
    kind = "gamma-weighted"

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        if len(p.continuous) != 1 or len(p.discrete) != 1:
            raise ValueError("gamma-weighted needs one continuous and one discrete slot")
        z, deg = p.continuous[0], p.discrete[0]
        if z < 0:
            raise ValueError("gamma-weighted needs z >= 0")
        a = self.m / 2.0
        # z^deg / ((a)(a+1)...(a+deg-1))
        return [(z / (a + j), 1.0) for j in range(deg)] or [(1.0, 1.0)]

    def matrix(self, rows: Basis, cols: Basis) -> np.ndarray:
        from scipy.special import gammaln  # imported here: at module level it adds 2-4 MB and 0.05 s to every run
        a = self.m / 2.0
        n = np.arange(_square_monomial(self.kind, rows, cols))
        return np.diag(np.exp(gammaln(a) - gammaln(a + n)))


@dataclass(frozen=True)
class ProductGamma(_Duality):
    """``prod x_i^k_i / Gamma(2 theta/(d-1) + k_i)``, the d-type Wright-Fisher / Moran duality."""

    theta: float
    d: int
    kind = "product-gamma"
    lifted = True

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        c, n = p.continuous, p.discrete
        if len(c) != self.d or len(n) != self.d:
            raise ValueError("product-gamma needs d continuous and d discrete slots")
        if abs(sum(c) - 1.0) > _SIMPLEX_TOL:
            raise ValueError("product-gamma continuous coordinates must lie on the simplex")
        a = 2.0 * self.theta / (self.d - 1)
        out = []
        for x, k in zip(c, n):
            if x < 0:
                raise ValueError("simplex coordinates must be non-negative")
            out.append((x, float(k)))
            out.append((_E, -lgamma(a + k)))
        return out


@dataclass(frozen=True)
class LimitingSip(_Duality):
    """``prod x_i^xi_i / (xi_i - 1)!``, zero unless every site is occupied: the vanishing-mutation limit.

    It is ``product-gamma`` at theta -> 0: an empty site's factor there is
    1/Gamma(a), which vanishes with a.  The inclusion process at m = 0
    never refills an empty site, so the dual chain is killed once one
    empties.
    """

    kind = "limiting-sip"
    slots = (int, float)
    lifted = True

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        c, n = p.continuous, p.discrete
        if len(c) != len(n) or not c:
            raise ValueError("limiting-sip needs matching count and coordinate vectors")
        if min(n) < 1:
            return [(0.0, 1.0)]
        out = []
        for x, xi in zip(c, n):
            out.append((x, float(xi)))
            out.append((_E, -lgamma(xi)))
        return out


@dataclass(frozen=True)
class HypergeometricFinite(_Duality):
    """``C(k,n)/C(N,n)``, the population of size ``N`` vs block counting."""

    N: int
    kind = "hypergeometric-finite"
    slots = (int, int)

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        if p.continuous or len(p.discrete) != 2:
            raise ValueError("hypergeometric-finite needs a discrete pair (k, n)")
        k, deg = p.discrete
        if deg > self.N:
            raise ValueError("degree exceeds the population size")
        if k > self.N:
            raise ValueError("count exceeds the population size")
        if deg > k:
            return [(0.0, 1.0)]
        # C(k,deg)/C(N,deg) as a product of linear ratios
        return [((k - j) / (self.N - j), 1.0) for j in range(deg)] or [(1.0, 1.0)]

    def matrix(self, rows: Basis, cols: Basis) -> np.ndarray:
        if rows.size != self.N + 1 or cols.size != self.N + 1:
            raise ValueError("hypergeometric-finite duality needs bases of size N+1")
        return falling_factorial_matrix(self.N)


@dataclass(frozen=True)
class InclusionSelfDuality(_Duality):
    """Self-duality of the inclusion process, ``a = m/2``, and of its sector the d-type Moran model."""

    a: float
    N: int | None = None
    kind = "moran-self-dual"
    slots = (int, int)
    lifted = True

    @classmethod
    def moran(cls, N: int, theta: float, d: int) -> InclusionSelfDuality:
        """The Moran model of population ``N``: ``a = 2 theta/(d-1)``, counts summing to ``N``."""
        _check("theta", theta)
        _check("d", d)
        return cls(2.0 * theta / (d - 1), N)

    def factors(self, p: EvalPoint) -> list[tuple[float, float]]:
        n, d = p.discrete, len(p.discrete) // 2
        if p.continuous or not n or len(n) % 2:
            raise ValueError("moran-self-dual needs 2d discrete slots (k then xi)")
        if self.N is not None and sum(n[:d]) != self.N:
            raise ValueError("type counts must sum to the population size")
        a = self.a
        log_gamma_a = lgamma(a)
        out = []
        for ki, xii in zip(n[:d], n[d:]):
            if xii > ki:
                return [(0.0, 1.0)]
            # falling factorial k(k-1)...(k-xi+1)
            for j in range(xii):
                out.append((float(ki - j), 1.0))
            out.append((_E, log_gamma_a - lgamma(a + xii)))
        return out

    def matrix(self, index_rows, index_cols) -> np.ndarray:
        """D between two sectors' state indexes, one dual state (column) at a time.

        Each coordinate of the row states is one contiguous float row.  An
        entry's falling factorials multiply in the scalar product's order, so
        it has that product's bits, and a row below the dual state is +0.0.
        """
        a = self.a
        if index_rows.array.shape[1] != index_cols.array.shape[1]:
            raise ValueError("sector dimensions differ")
        K = np.ascontiguousarray(index_rows.array.T, dtype=float)
        out = np.ones((len(index_cols), len(index_rows)))
        for col, xi in zip(out, index_cols.array.tolist()):
            inside = np.ones(len(index_rows), dtype=bool)
            for k, xii in zip(K, xi):
                for step in range(xii):
                    col *= k - step
                col *= exp(lgamma(a) - lgamma(a + xii))
                # only a coordinate the dual state occupies can be below it
                if xii:
                    inside &= k >= xii
            col[~inside] = 0.0
        return np.ascontiguousarray(out.T)


# each kind's builder; its signature names the parameters the kind takes
_BUILDERS = {
    cls.kind: cls
    for cls in (Monomial, MirrorMonomial, Exponential, HermiteWeighted, HypergeometricFinite, GammaWeighted, ProductGamma, LimitingSip)
}
_BUILDERS["moran-self-dual"] = InclusionSelfDuality.moran
KINDS = tuple(_BUILDERS)


def DualityFamily(kind: str, N: int | None = None, m: float | None = None, theta: float | None = None, d: int | None = None):
    """The catalog object of ``kind``; a missing, stray (not ``None``) or invalid parameter raises ``ValueError``."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown duality kind {kind!r}")
    given = {name: v for name, v in (("N", N), ("m", m), ("theta", theta), ("d", d)) if v is not None}
    need = tuple(inspect.signature(_BUILDERS[kind]).parameters)
    if set(given) != set(need):
        raise ValueError(f"{kind} takes the parameters ({', '.join(need)}), not ({', '.join(given)})")
    return _BUILDERS[kind](**given)


def evaluate(family, p: EvalPoint, *, method: str = "auto") -> float:
    """Evaluate one duality function at a point of the product space.

    ``method`` is ``auto`` (direct unless a factor leaves the safe double
    range), ``direct``, or ``log``.
    """
    factors = family.factors(p)
    if method not in ("auto", "direct", "log"):
        raise ValueError("method must be auto, direct or log")
    if method != "log":
        risky = False
        out = 1.0
        for base, power in factors:
            try:
                raw = base**power
            except OverflowError:
                if method == "direct":
                    raise
                risky = True
                break
            # outside the safe range, an over- or underflowed power; an exact
            # zero (of a zero base) and a NaN are not
            if not _UNDERFLOW <= abs(raw) <= _OVERFLOW and (raw == raw if raw != 0.0 else base != 0.0):
                risky = True
            out *= raw
        if method == "direct" or not risky:
            return out
    sign = 1.0
    total = 0.0
    for base, power in factors:
        if base == 0.0:
            if power == 0.0:
                continue  # 0^0 is 1 under the power conventions used here
            return 0.0
        if base < 0.0:
            if power != int(power):
                raise ValueError("negative base with fractional exponent")
            if int(power) % 2:
                sign = -sign
        total += power * log(abs(base))
    value = sign * exp(total)
    if not isfinite(value):
        raise OverflowError("duality value exceeds the double range")
    return value


def evaluate_at(family, continuous: Sequence[float], discrete: Sequence[int]) -> float:
    """Convenience wrapper building the :class:`EvalPoint` in place."""
    return evaluate(family, EvalPoint(tuple(map(float, continuous)), tuple(map(int, discrete))))


def cheap_self_duality(mu: np.ndarray) -> np.ndarray:
    """Diagonal self-duality matrix ``delta_{x,y} / mu(x)`` of a reversible chain.

    Valid for any generator reversible with respect to the strictly positive
    probability vector ``mu``, by detailed balance.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("mu must be a non-empty vector")
    if np.any(mu <= 0):
        raise ValueError("mu must be strictly positive")
    if abs(mu.sum() - 1.0) > 1e-12:
        raise ValueError("mu must sum to one")
    return np.diag(1.0 / mu)


def transform_by_symmetry(S, D: np.ndarray) -> np.ndarray:
    """Left action of a symmetry on a duality matrix, ``S @ D``, as an ndarray.

    ``S`` is any operator with ``.shape`` and ``@``: a dense array or a
    sparse matrix such as a generator's CSR ``Q`` (a generator commutes
    with itself).  When ``S`` commutes with the left generator the product
    is again an intertwiner for the same pair; pair with
    ``check_intertwiner`` to confirm.
    """
    if not hasattr(S, "shape"):
        S = np.asarray(S, dtype=float)
    D = np.asarray(D, dtype=float)
    if S.shape[1] != D.shape[0]:
        raise ValueError("dimension mismatch in S @ D")
    return np.asarray(S @ D, dtype=float)
