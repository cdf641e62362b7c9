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
from .dualities import DualityFamily, EvalPoint
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


def _mean_se(values: Sequence[float]) -> SideEstimate:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n * (n - 1))
        se = math.sqrt(var)
    else:
        se = 0.0
    return SideEstimate(mean=mean, se=se, n=n)


# families that read the implicit last type of the d-type states (spec.lift)
_LIFTED_FAMILIES = ("product-gamma", "limiting-sip", "moran-self-dual", "monomial")


def _occupied(v: Sequence[int]) -> int:
    return sum(1 for x in v if x >= 1)


def estimate_duality_side(
    spec: DiffusionModel | JumpModel,
    family: DualityFamily,
    start,
    frozen,
    t: float,
    cfg: EstimatorConfig,
    *,
    endpoint_slot: str = "first",
) -> SideEstimate:
    """Sample mean and standard error of D(X_t, frozen) over seeded paths.

    ``endpoint_slot`` resolves the argument order for families whose two
    slots have the same type ("first" puts the simulated endpoint in the
    duality function's first slot).

    Along a diffusion, ``processes.diffusion_endpoints`` simulates every
    path first; the endpoints are lifted to the simplex in one array
    expression (``spec.lift``), and the loop over paths is one
    ``dualities.evaluate`` call per row.  ``frozen`` is converted once per
    call, on both sides.

    Along a jump process, ``processes.sample_jump`` draws every path's
    endpoint in one call, from the streams of ``processes.path_rng``; the
    evaluation point of each distinct endpoint is built once, and
    ``dualities.evaluate`` still runs once per path.

    For the limiting occupancy duality evaluated along a jump process, the
    estimator multiplies by the indicator that the number of occupied sites
    is conserved; that is the only contribution surviving the vanishing-
    mutation limit when every site starts occupied, and starting
    configurations with an empty site are rejected.
    """
    if endpoint_slot not in ("first", "second"):
        raise ValueError("endpoint_slot must be 'first' or 'second'")
    if cfg.t != t:
        cfg = EstimatorConfig(cfg.n_paths, cfg.seed, cfg.dt, t, cfg.antithetic)
    lift = family.kind in _LIFTED_FAMILIES

    if isinstance(spec, DiffusionModel):
        if t == 0:
            endpoints = spec.start(start)[None, :]
        else:
            endpoints = processes.diffusion_endpoints(
                spec, start, t, cfg.dt, cfg.seed, cfg.n_paths, antithetic=cfg.antithetic
            )
        if lift:
            endpoints = spec.lift(endpoints)
        point = _point_maker(family, frozen, endpoint_slot, continuous_endpoint=True)
        values = [dualities.evaluate(family, point(tuple(row.tolist()))) for row in endpoints]
        if t == 0:
            return SideEstimate(mean=values[0], se=0.0, n=cfg.n_paths)
        return _mean_se(values)

    if not isinstance(spec, JumpModel):
        raise ValueError(f"{spec.kind} is neither a diffusion nor a jump process")
    limiting_jump = family.kind == "limiting-sip"
    start_t = tuple(int(v) for v in np.atleast_1d(start))
    if limiting_jump:
        full0 = spec.lift(start_t) if lift else start_t
        if _occupied(full0) != len(full0):
            raise ValueError(
                "limiting-sip estimation requires every site occupied at the start; "
                f"got {full0} with an empty site"
            )
    point = _point_maker(family, frozen, endpoint_slot, continuous_endpoint=False)
    rngs = (processes.path_rng(cfg.seed, i) for i in range(cfg.n_paths))
    endpoints = processes.sample_jump(spec, start_t, t, rngs)
    # each distinct endpoint's point, and whether it lost an occupied site
    points = {}
    for endpoint in set(endpoints):
        disc = spec.lift(endpoint) if lift else endpoint
        points[endpoint] = (point(disc), limiting_jump and _occupied(disc) != len(disc))
    values = []
    for endpoint in endpoints:
        p, lost = points[endpoint]
        value = dualities.evaluate(family, p)
        values.append(0.0 if lost else value)
    return _mean_se(values)


def _point_maker(family, frozen, endpoint_slot, *, continuous_endpoint: bool):
    """The map from an endpoint tuple to the evaluation point, with ``frozen`` converted once."""
    frozen_t = tuple(np.atleast_1d(frozen))
    if family.kind == "exponential":
        y = float(frozen_t[0])
        if endpoint_slot == "first":
            return lambda e: EvalPoint(continuous=(e[0], y))
        return lambda e: EvalPoint(continuous=(y, e[0]))
    if continuous_endpoint:
        disc = tuple(int(v) for v in frozen_t)
        return lambda e: EvalPoint(continuous=e, discrete=disc)
    if family.kind in ("hypergeometric-finite", "moran-self-dual"):
        other = tuple(int(v) for v in frozen_t)
        if endpoint_slot == "first":
            return lambda e: EvalPoint(discrete=tuple(int(v) for v in e) + other)
        return lambda e: EvalPoint(discrete=other + tuple(int(v) for v in e))
    cont = tuple(float(v) for v in frozen_t)
    return lambda e: EvalPoint(continuous=cont, discrete=tuple(int(v) for v in e))


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
