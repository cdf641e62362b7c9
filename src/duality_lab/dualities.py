"""Catalog of duality functions with numerically stable evaluation.

Each :class:`DualityFamily` names one bilinear function ``D(first, second)``
on a product of state spaces.  ``evaluate`` computes values either directly
or in log space with sign tracking; the log path engages automatically once
any factor leaves the safe double range, and the two paths agree to relative
1e-12 wherever the direct one is representable.

Slot conventions (first argument, second argument):

====================  =======================================================
monomial              continuous vector x, discrete vector n: prod x_i^n_i
exponential           continuous pair (x, y): exp(x*y)
hermite-weighted      continuous scalar x, discrete scalar n:
                      exp(-x^2/2) H_n(x), physicists' Hermite polynomials
hypergeometric-finite discrete pair (k, n): C(k,n)/C(N,n), zero for n > k
gamma-weighted        continuous scalar z, discrete scalar n:
                      z^n Gamma(m/2) / Gamma(m/2 + n)
product-gamma         continuous simplex x (d entries), discrete k (d):
                      prod x_i^k_i / Gamma(2 theta/(d-1) + k_i)
moran-self-dual       discrete (k, xi), each d entries, k summing to N:
                      prod k_i!/(k_i-xi_i)! * Gamma(a)/Gamma(xi_i + a)
                      with a = 2 theta/(d-1); zero unless xi <= k
limiting-sip          discrete occupancy xi (d), continuous x (d):
                      prod over occupied sites of x_i^xi_i / (xi_i - 1)!
====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, lgamma, log
from typing import Sequence

import numpy as np

__all__ = [
    "DualityFamily",
    "EvalPoint",
    "evaluate",
    "cheap_self_duality",
    "transform_by_symmetry",
    "hermite_value",
    "KINDS",
]

KINDS = (
    "monomial",
    "exponential",
    "hermite-weighted",
    "hypergeometric-finite",
    "gamma-weighted",
    "product-gamma",
    "moran-self-dual",
    "limiting-sip",
)

#: direct evaluation switches to log space past these factor magnitudes
_OVERFLOW = 1e300
_UNDERFLOW = 1e-300

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class DualityFamily:
    """One duality function plus the parameters its formula needs."""

    kind: str
    N: int | None = None
    m: float | None = None
    theta: float | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown duality kind {self.kind!r}")
        need = {
            "hypergeometric-finite": ("N",),
            "gamma-weighted": ("m",),
            "product-gamma": ("theta", "d"),
            "moran-self-dual": ("N", "theta", "d"),
        }.get(self.kind, ())
        for name in ("N", "m", "theta", "d"):
            val = getattr(self, name)
            if name in need and val is None:
                raise ValueError(f"{self.kind} requires parameter {name}")
            if name not in need and val is not None:
                raise ValueError(f"{self.kind} does not take parameter {name}")
        if self.m is not None and self.m <= 0:
            raise ValueError("m must be strictly positive")
        if self.theta is not None and self.theta <= 0:
            raise ValueError("theta must be strictly positive")
        if self.d is not None and self.d < 2:
            raise ValueError("d must be an integer >= 2")
        if self.N is not None and self.N < 1:
            raise ValueError("N must be a positive integer")

    @property
    def gamma_shift(self) -> float:
        """The Gamma-argument offset 2*theta/(d-1) of the product families."""
        assert self.theta is not None and self.d is not None
        return 2.0 * self.theta / (self.d - 1)


@dataclass(frozen=True)
class EvalPoint:
    """A point of the product state space: continuous and discrete slots."""

    continuous: tuple[float, ...] = ()
    discrete: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.discrete):
            raise ValueError("discrete coordinates must be non-negative")


def _point(continuous: Sequence[float], discrete: Sequence[int]) -> EvalPoint:
    return EvalPoint(tuple(float(c) for c in continuous), tuple(int(n) for n in discrete))


def hermite_value(n: int, x: float) -> float:
    """H_n(x) in the physicists' convention, H_{j+1} = 2x H_j - 2j H_{j-1}."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for j in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * j * prev
    return cur


# each family is reduced to a list of (base, exponent) factors; the direct
# path multiplies the raw powers, the log path sums exponent-weighted log
# magnitudes with sign tracking


def _factors(family: DualityFamily, p: EvalPoint) -> list[tuple[float, float]]:
    kind = family.kind
    c, n = p.continuous, p.discrete
    if kind == "monomial":
        if len(c) != len(n) or not c:
            raise ValueError("monomial needs matching continuous/discrete vectors")
        return [(x, float(k)) for x, k in zip(c, n)]
    if kind == "exponential":
        if len(c) != 2 or n:
            raise ValueError("exponential needs a continuous pair (x, y)")
        return [(exp(c[0] * c[1]), 1.0)]
    if kind == "hermite-weighted":
        if len(c) != 1 or len(n) != 1:
            raise ValueError("hermite-weighted needs one continuous and one discrete slot")
        x = c[0]
        return [(exp(-x * x / 2.0), 1.0), (hermite_value(n[0], x), 1.0)]
    if kind == "hypergeometric-finite":
        if c or len(n) != 2:
            raise ValueError("hypergeometric-finite needs a discrete pair (k, n)")
        k, deg = n
        assert family.N is not None
        if deg > family.N:
            raise ValueError("degree exceeds the population size")
        if k > family.N:
            raise ValueError("count exceeds the population size")
        if deg > k:
            return [(0.0, 1.0)]
        # C(k,deg)/C(N,deg) as a product of linear ratios
        return [((k - j) / (family.N - j), 1.0) for j in range(deg)] or [(1.0, 1.0)]
    if kind == "gamma-weighted":
        if len(c) != 1 or len(n) != 1:
            raise ValueError("gamma-weighted needs one continuous and one discrete slot")
        z, deg = c[0], n[0]
        if z < 0:
            raise ValueError("gamma-weighted needs z >= 0")
        a = family.m / 2.0
        # z^deg / ((a)(a+1)...(a+deg-1))
        return [(z / (a + j), 1.0) for j in range(deg)] or [(1.0, 1.0)]
    if kind == "product-gamma":
        d = family.d
        if len(c) != d or len(n) != d:
            raise ValueError("product-gamma needs d continuous and d discrete slots")
        if abs(sum(c) - 1.0) > _SIMPLEX_TOL:
            raise ValueError("product-gamma continuous coordinates must lie on the simplex")
        a = family.gamma_shift
        out: list[tuple[float, float]] = []
        for x, k in zip(c, n):
            if x < 0:
                raise ValueError("simplex coordinates must be non-negative")
            out.append((x, float(k)))
            out.append((_E, -lgamma(a + k)))
        return out
    if kind == "moran-self-dual":
        d = family.d
        if c or len(n) != 2 * d:
            raise ValueError("moran-self-dual needs 2d discrete slots (k then xi)")
        k, xi = n[:d], n[d:]
        if sum(k) != family.N:
            raise ValueError("type counts must sum to the population size")
        a = family.gamma_shift
        out = []
        for ki, xii in zip(k, xi):
            if xii > ki:
                return [(0.0, 1.0)]
            # falling factorial k(k-1)...(k-xi+1)
            out.extend((float(ki - j), 1.0) for j in range(xii))
            out.append((_E, lgamma(a) - lgamma(a + xii)))
        return out or [(1.0, 1.0)]
    if kind == "limiting-sip":
        if len(c) != len(n) or not c:
            raise ValueError("limiting-sip needs matching occupancy and coordinate vectors")
        out = []
        for x, xi in zip(c, n):
            if xi >= 1:
                out.append((x, float(xi)))
                out.append((_E, -lgamma(xi)))
        return out or [(1.0, 1.0)]
    raise ValueError(f"unknown duality kind {kind!r}")  # pragma: no cover


_E = exp(1.0)


def evaluate(family: DualityFamily, p: EvalPoint, *, method: str = "auto") -> float:
    """Evaluate one duality function at a point of the product space.

    ``method`` is ``auto`` (direct unless a factor leaves the safe double
    range), ``direct``, or ``log``.
    """
    factors = _factors(family, p)
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
            if raw == 0.0 and base != 0.0:
                risky = True  # underflowed power
            if abs(raw) > _OVERFLOW or (raw != 0.0 and abs(raw) < _UNDERFLOW):
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


def evaluate_at(family: DualityFamily, continuous: Sequence[float], discrete: Sequence[int]) -> float:
    """Convenience wrapper building the :class:`EvalPoint` in place."""
    return evaluate(family, _point(continuous, discrete))


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
