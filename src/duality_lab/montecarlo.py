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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import dualities, processes
from .dualities import DualityFamily, EvalPoint
from .processes import ProcessSpec

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
    metadata: Mapping[str, str] = field(default_factory=dict)

    def as_row(self) -> dict:
        row = {
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
        row.update(self.metadata)
        return row


def _mean_se(values: Sequence[float]) -> SideEstimate:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n * (n - 1))
        se = math.sqrt(var)
    else:
        se = 0.0
    return SideEstimate(mean=mean, se=se, n=n)


def _lift_simplex(endpoints: np.ndarray) -> np.ndarray:
    """Append the implicit last type ``1 - sum`` to each row of free coordinates.

    The samplers track the first d - 1 frequencies; simplex-valued duality
    functions need all d.  A renormalised row can sum to 1 + 2**-52, so
    the restored coordinate is clamped at zero.
    """
    last = np.maximum(1.0 - endpoints.sum(axis=1), 0.0)
    return np.concatenate([endpoints, last[:, None]], axis=1)


def _lift_discrete(spec: ProcessSpec, endpoint: tuple[int, ...]) -> tuple[int, ...]:
    if spec.kind == "moran-multitype":
        assert spec.N is not None
        return endpoint + (spec.N - sum(endpoint),)
    return endpoint


def _needs_lift(family: DualityFamily, spec: ProcessSpec) -> bool:
    return family.kind in ("product-gamma", "limiting-sip", "moran-self-dual", "monomial") and spec.kind in (
        "wf-multitype",
        "moran-multitype",
    )


def _occupied(v: Sequence[int]) -> int:
    return sum(1 for x in v if x >= 1)


def estimate_duality_side(
    spec: ProcessSpec,
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
    expression (d-type Wright-Fisher), and the loop over paths is one
    ``dualities.evaluate`` call per row.  ``frozen`` is converted once per
    call, on both sides.

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
    limiting_jump = family.kind == "limiting-sip" and spec.is_jump
    lift = _needs_lift(family, spec)

    if spec.is_diffusion:
        if t == 0:
            endpoints = np.atleast_1d(np.asarray(start, dtype=float))[None, :]
        else:
            endpoints = processes.diffusion_endpoints(
                spec, start, t, cfg.dt, cfg.seed, cfg.n_paths, antithetic=cfg.antithetic
            )
        if lift:
            endpoints = _lift_simplex(endpoints)
        point = _point_maker(family, frozen, endpoint_slot, continuous_endpoint=True)
        values = [dualities.evaluate(family, point(tuple(row.tolist()))) for row in endpoints]
        if t == 0:
            return SideEstimate(mean=values[0], se=0.0, n=cfg.n_paths)
        return _mean_se(values)

    if not spec.is_jump:
        raise ValueError(f"{spec.kind} is neither a diffusion nor a jump process")
    start_t = tuple(int(v) for v in np.atleast_1d(start))
    if limiting_jump:
        full0 = _lift_discrete(spec, start_t) if lift else start_t
        if _occupied(full0) != len(full0):
            raise ValueError(
                "limiting-sip estimation requires every site occupied at the start; "
                f"got {full0} with an empty site"
            )
    point = _point_maker(family, frozen, endpoint_slot, continuous_endpoint=False)
    values = []
    for i in range(cfg.n_paths):
        rng = processes.path_rng(cfg.seed, i)
        endpoint = start_t if t == 0 else processes.sample_jump(spec, start_t, t, rng)
        disc = _lift_discrete(spec, endpoint) if lift else endpoint
        value = dualities.evaluate(family, point(disc))
        if limiting_jump and _occupied(disc) != len(disc):
            value = 0.0
        values.append(value)
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
    metadata: Mapping[str, str] | None = None,
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
        metadata=dict(metadata or {}),
    )
