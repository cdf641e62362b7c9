"""Seeded Monte Carlo estimation of duality-relation sides.

One side of a duality relation is the expectation of the duality function
along a process, with the other argument frozen.  This module estimates
such a side by simulation (path ``i`` always draws from stream
``(seed, i)``, so estimates are reproducible bit for bit and independent of
any parallel work partition) and compares it against an exact value or a
second estimate at a configurable number of combined standard errors plus a
declared bias budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dualities, processes
from .dualities import EvalPoint
from .processes import DiffusionModel, JumpModel

__all__ = [
    "EstimatorConfig",
    "SideEstimate",
    "ComparisonReport",
    "estimate_duality_side",
    "compare",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling parameters: path count, seed, step, horizon, antithetic flag."""

    n_paths: int
    seed: int
    dt: float
    t: float
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 100:
            raise ValueError("need at least 100 paths")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t < 0:
            raise ValueError("horizon must be non-negative")


@dataclass(frozen=True)
class SideEstimate:
    mean: float
    se: float
    n: int


@dataclass(frozen=True)
class ComparisonReport:
    """Two values with uncertainties and the z-score verdict.

    Passing means |lhs - rhs| <= multiplier * combined SE + bias budget.
    """

    lhs: SideEstimate
    rhs: SideEstimate
    z: float
    tolerance_multiplier: float
    bias_budget: float
    passed: bool

    def as_row(self) -> dict:
        return {
            "lhs_mean": self.lhs.mean,
            "lhs_se": self.lhs.se,
            "lhs_n": self.lhs.n,
            "rhs_mean": self.rhs.mean,
            "rhs_se": self.rhs.se,
            "rhs_n": self.rhs.n,
            "z": self.z,
            "tolerance_multiplier": self.tolerance_multiplier,
            "bias_budget": self.bias_budget,
            "passed": self.passed,
        }


def _mean_se(values: Sequence[float], paired: bool = False) -> SideEstimate:
    """Sample mean and standard error of ``values``.

    With ``paired`` the values come in antithetic pairs (2j, 2j + 1), which
    are correlated, and the SE is that of the n/2 independent pair means
    about the mean; ``n`` stays the path count.
    """
    n = len(values)
    mean = math.fsum(values) / n
    units = [(a + b) / 2 for a, b in zip(values[::2], values[1::2])] if paired else values
    m = len(units)
    if m > 1:
        var = math.fsum((u - mean) ** 2 for u in units) / (m * (m - 1))
        se = math.sqrt(var)
    else:
        se = 0.0
    return SideEstimate(mean=mean, se=se, n=n)


def estimate_duality_side(
    spec: DiffusionModel | JumpModel,
    family,
    start,
    frozen,
    t: float,
    cfg: EstimatorConfig,
) -> SideEstimate:
    """Sample mean and standard error of D(X_t, frozen) over seeded paths.

    The endpoint fills the slot of its type (``family.slots``) and
    ``frozen``, of the same size, the other; where both slots have one
    type, the endpoint fills the first.

    Along a diffusion, ``processes.diffusion_endpoints`` simulates every
    path first; the endpoints are lifted to the simplex in one array
    expression (``spec.lift``, for a ``family.lifted``), and the loop over
    paths is one ``dualities.evaluate`` call per row.  ``frozen`` is
    converted once per call, on both sides.

    Along a jump process, ``processes.sample_jump`` draws every path's
    endpoint in one call, from the streams of ``processes.path_rng``; the
    evaluation point of each distinct endpoint is built once, and
    ``dualities.evaluate`` still runs once per path.  A killed duality
    function, such as ``limiting-sip``, is zero past the killing time by
    its own factors.
    """
    if cfg.t != t:
        cfg = EstimatorConfig(cfg.n_paths, cfg.seed, cfg.dt, t, cfg.antithetic)
    lift = family.lifted

    if isinstance(spec, DiffusionModel):
        endpoints = spec.start(start)[None, :]
        size = (spec.lift(endpoints) if lift else endpoints).shape[1]
        point = _point_maker(family, frozen, float, size)
        if t > 0:
            endpoints = processes.diffusion_endpoints(
                spec, start, t, cfg.dt, cfg.seed, cfg.n_paths, antithetic=cfg.antithetic
            )
        if lift:
            endpoints = spec.lift(endpoints)
        values = [dualities.evaluate(family, point(tuple(row.tolist()))) for row in endpoints]
        if t == 0:
            return SideEstimate(mean=values[0], se=0.0, n=cfg.n_paths)
        return _mean_se(values, paired=cfg.antithetic)

    if not isinstance(spec, JumpModel):
        raise TypeError(f"a {type(spec).__name__} is not a model: pass the DiffusionModel or the JumpModel itself")
    start_t = tuple(int(v) for v in np.atleast_1d(start))
    point = _point_maker(family, frozen, int, len(spec.lift(start_t) if lift else start_t))
    rngs = (processes.path_rng(cfg.seed, i) for i in range(cfg.n_paths))
    endpoints = processes.sample_jump(spec, start_t, t, rngs)
    points = {e: point(spec.lift(e) if lift else e) for e in set(endpoints)}
    return _mean_se([dualities.evaluate(family, points[e]) for e in endpoints])


def _point_maker(family, frozen, endpoint_type: type, size: int):
    """The map from an endpoint, a tuple of ``size`` floats or ints, to the evaluation point."""
    slots = family.slots
    if endpoint_type not in slots:
        raise ValueError(f"{family.kind} has no {endpoint_type.__name__} slot for the endpoint")
    other = tuple(slots[1 - slots.index(endpoint_type)](v) for v in np.atleast_1d(frozen))
    if len(other) != size:
        raise ValueError(f"{family.kind} needs slots of one size, not an endpoint of {size} and a frozen {len(other)}")
    # slots of one type are concatenated, the endpoint's first
    if slots[0] is slots[1]:
        return (lambda e: EvalPoint(e + other)) if endpoint_type is float else (lambda e: EvalPoint((), e + other))
    return (lambda e: EvalPoint(e, other)) if endpoint_type is float else (lambda e: EvalPoint(other, e))


def compare(
    lhs: SideEstimate,
    rhs: SideEstimate | float,
    tolerance_multiplier: float = 3.0,
    bias_budget: float = 0.0,
) -> ComparisonReport:
    """Compare an estimate with an exact value or a second estimate."""
    if not isinstance(rhs, SideEstimate):
        rhs = SideEstimate(mean=float(rhs), se=0.0, n=1)
    delta = abs(lhs.mean - rhs.mean)
    combined = math.hypot(lhs.se, rhs.se)
    if combined > 0:
        z = delta / combined
    else:
        z = 0.0 if delta <= bias_budget else math.inf
    passed = delta <= tolerance_multiplier * combined + bias_budget
    return ComparisonReport(
        lhs=lhs,
        rhs=rhs,
        z=z,
        tolerance_multiplier=tolerance_multiplier,
        bias_budget=bias_budget,
        passed=passed,
    )
