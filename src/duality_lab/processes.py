"""Process models, generator matrices and trajectory samplers.

Each process kind is one frozen dataclass, built by its module factory:
diffusions on [0, 1] with polynomial coefficients whose moment dual is a
Markov chain (``wf_general_1d``: neutral, mutation, selection), the d-type
Wright-Fisher diffusion with symmetric parent-independent mutation
(``wf_multitype``), the Brownian energy process (``bep``), the d-type Moran
model (``moran_multitype``), the symmetric inclusion process (``sip``), the
block-counting chain with mutation and selection (``kingman_block``) and
the stepping-stone diffusion with its migration/coalescence dual
(``stepping_stone_forward`` / ``_dual``).

A :class:`JumpModel` lists the positive rates out of a state,
``rates(state, num=float)``, and enumerates its states,
``index(truncation)``.  In floats the rates fill a sparse (CSR) rate matrix,
:func:`generator_matrix`: every chain here moves one particle or one count
per jump, so a row holds a handful of rates however many states there are.
With ``num=Fraction`` the same rates give the exact rational generator,
:func:`rational_generator`.  The jump sampler reads the CSR rows through
per-state cumulative tables.  A :class:`DiffusionModel` gives its drift and
covariance on a batch of states, ``coefficients(x)``, and its domain;
:func:`diffusion_endpoints` runs seeded Euler-Maruyama paths from a checked
start.  ``wf_general_1d`` is both: a diffusion and, through its rates, its
moment dual chain.  Models and generators are immutable; samplers are pure
given their random stream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, fsum, sqrt
from typing import ClassVar, Iterator, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "JumpModel",
    "DiffusionModel",
    "StateIndex",
    "GeneratorMatrix",
    "wf_general_1d",
    "wf_multitype",
    "moran_multitype",
    "sip",
    "bep",
    "kingman_block",
    "stepping_stone_forward",
    "stepping_stone_dual",
    "enumerate_states",
    "generator_matrix",
    "rational_generator",
    "drift_diffusion",
    "sample_jump",
    "diffusion_endpoints",
    "path_rng",
]

_STATE_LIMIT = 5_000_000
_COEF_TOL = 1e-12

Transitions = list[tuple[tuple[int, ...], float | Fraction]]


# ---------------------------------------------------------------------------
# state enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StateIndex:
    """Enumerated occupation vectors with a state <-> integer bijection."""

    d: int
    N: int
    mode: str
    states: tuple[tuple[int, ...], ...]
    pos: dict[tuple[int, ...], int]

    def __len__(self) -> int:
        return len(self.states)


def _compositions(d: int, N: int) -> Iterator[tuple[int, ...]]:
    if d == 1:
        yield (N,)
        return
    for first in range(N + 1):
        for rest in _compositions(d - 1, N - first):
            yield (first,) + rest


def enumerate_states(d: int, N: int, mode: str = "conserved") -> StateIndex:
    """Enumerate ``{k : sum k = N}`` (conserved) or ``{k : sum k <= N}``.

    The down-closed mode is what dual chains with deaths live on.  States
    are listed in lexicographic order; a guard rejects spaces above five
    million states.
    """
    if d < 1 or N < 0:
        raise ValueError("need d >= 1 and N >= 0")
    if mode == "conserved":
        count = comb(N + d - 1, d - 1)
    elif mode == "down-closed":
        count = comb(N + d, d)
    else:
        raise ValueError("mode must be 'conserved' or 'down-closed'")
    if count > _STATE_LIMIT:
        raise ValueError(f"state space of size {count} exceeds the {_STATE_LIMIT} guard")
    if mode == "conserved":
        states = tuple(_compositions(d, N))
    else:
        states = tuple(
            s for total in range(N + 1) for s in _compositions(d, total)
        )
        states = tuple(sorted(states))
    return StateIndex(d=d, N=N, mode=mode, states=states, pos={s: i for i, s in enumerate(states)})


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class JumpModel:
    """A continuous-time chain on occupation vectors.

    Subclasses give ``rates(k, num=float)``, the transitions out of state
    ``k`` with their rates, all positive, in the number type ``num``
    (``float`` or ``Fraction``), and ``index(truncation)``, the enumerated
    state space; a transition that leaves it is dropped.
    """

    kind: ClassVar[str]
    #: the particle total never grows, so a start state bounds the space
    total_bounded: ClassVar[bool] = False

    def lift(self, state: tuple[int, ...]) -> tuple[int, ...]:
        """The state with any implicit last coordinate written out."""
        return state


class DiffusionModel:
    """A diffusion with generator ``(1/2) sum a_ij d_i d_j + sum b_i d_i``.

    Subclasses give ``dim``; the domain, named by ``domain`` and tested by
    ``_inside(x)``; ``_drift_covariance(x)``, the drift (paths, dim) and
    covariance at each row of ``x``, the covariance as (paths, dim, dim) or,
    when the coordinates take independent noise, as the variances (paths,
    dim); and ``project(x, prev)``, which maps the states after one
    Euler-Maruyama step from ``prev`` back into the domain.
    """

    kind: ClassVar[str]
    domain: ClassVar[str]

    def coefficients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drift (paths, dim) and covariance (paths, dim, dim) at each row of ``x``."""
        b, a = self._drift_covariance(np.asarray(x, dtype=float))
        if a.ndim == 2:
            a = a[:, :, None] * np.eye(a.shape[1])
        return b, a

    def start(self, x0: Sequence[float] | float) -> np.ndarray:
        """The start as a float vector, after checking its size and domain."""
        x = np.atleast_1d(np.asarray(x0, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError(f"{self.kind} start {x0!r} must have {self.dim} coordinates")
        if not self._inside(x):
            raise ValueError(f"{self.kind} start {x0!r} is outside the domain: {self.domain}")
        return x

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Rows of states with any implicit last coordinate written out."""
        return x


def _in_unit_cube(x: np.ndarray) -> bool:
    return bool(((x >= 0.0) & (x <= 1.0)).all())


def _clip_unit(x: np.ndarray, prev: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0, out=x)


def _validate_balance(coefs: dict[int, float], pivot: int, name: str) -> None:
    # all coefficients away from the pivot are non-negative and the pivot
    # carries minus their total mass, so jump rates come out non-negative
    # and the dual chain conserves probability
    total = 0.0
    for k, v in coefs.items():
        if k == pivot:
            continue
        if v < 0:
            raise ValueError(f"{name}_{k} must be non-negative")
        total += v
    pivot_val = coefs.get(pivot, 0.0)
    if abs(pivot_val + total) > _COEF_TOL * max(1.0, total):
        raise ValueError(f"{name}_{pivot} must equal minus the sum of the other {name} coefficients")


@dataclass(frozen=True)
class WfGeneral1D(DiffusionModel, JumpModel):
    """Diffusion ``alpha(x) d^2/dx^2 + beta(x) d/dx`` on [0, 1] and its moment dual.

    ``alpha`` and ``beta`` are sorted (power, coefficient) pairs; see
    :func:`wf_general_1d`.  The covariance is ``a = 2 alpha`` and the drift
    ``b = beta``; the dual chain jumps n -> n+k-2 at rate n(n-1) alpha_k and
    n -> n+k-1 at rate n beta_k.
    """

    alpha: tuple[tuple[int, float], ...]
    beta: tuple[tuple[int, float], ...] = ()

    kind: ClassVar[str] = "wf-general-1d"
    domain: ClassVar[str] = "x in [0, 1]"
    dim: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not self.alpha:
            raise ValueError("alpha must contain at least one coefficient")
        if any(k < 1 for k, _ in self.alpha):
            raise ValueError("alpha powers start at k = 1")
        if any(k < 0 for k, _ in self.beta):
            raise ValueError("beta powers start at k = 0")
        _validate_balance(dict(self.alpha), 2, "alpha")
        if self.beta:
            _validate_balance(dict(self.beta), 1, "beta")

    def index(self, truncation: int | None) -> StateIndex:
        return enumerate_states(1, 200 if truncation is None else truncation, "down-closed")

    def rates(self, k: tuple[int, ...], num: type = float) -> Transitions:
        (n,) = k
        out = []
        for pw, coef in self.alpha:
            rate = n * (n - 1) * num(coef)
            if pw != 2 and rate > 0:
                out.append(((n + pw - 2,), rate))
        for pw, coef in self.beta:
            rate = n * num(coef)
            if pw != 1 and rate > 0:
                out.append(((n + pw - 1,), rate))
        return out

    _inside = staticmethod(_in_unit_cube)
    project = staticmethod(_clip_unit)

    def _drift_covariance(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xv = x[:, 0]
        a = 2.0 * sum(c * xv**k for k, c in self.alpha)
        b = sum(c * xv**k for k, c in self.beta) if self.beta else np.zeros_like(xv)
        return b[:, None], a[:, None]


@dataclass(frozen=True)
class WfMultitype(DiffusionModel):
    """d-type Wright-Fisher diffusion with symmetric parent-independent mutation.

    The state lists the first d-1 type frequencies; the last is implicit.
    """

    d: int
    theta: float

    kind: ClassVar[str] = "wf-multitype"
    domain: ClassVar[str] = "non-negative frequencies with sum <= 1"

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("wf-multitype needs d >= 2")
        if self.theta < 0:
            raise ValueError("mutation rate theta must be >= 0")

    @property
    def dim(self) -> int:
        return self.d - 1

    def _inside(self, x: np.ndarray) -> bool:
        return bool((x >= 0.0).all() and x.sum() <= 1.0 + 1e-12)

    def _drift_covariance(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        drift = (self.theta / (self.d - 1)) * (1.0 - self.d * x)
        if self.d == 2:
            # one free coordinate: the variance x(1-x); x - x*x differs in
            # the last bit at about 39% of points
            return drift, x * (1.0 - x)
        return drift, x[:, :, None] * np.eye(self.d - 1) - x[:, :, None] * x[:, None, :]

    def project(self, x: np.ndarray, prev: np.ndarray) -> np.ndarray:
        np.clip(x, 0.0, 1.0, out=x)
        if self.d > 2:
            # with one free coordinate the clip alone keeps it on the simplex
            total = x.sum(axis=1)
            over = total > 1.0
            if np.any(over):
                x[over] /= total[over, None]
        return x

    def lift(self, x: np.ndarray) -> np.ndarray:
        # a renormalised row can sum to 1 + 2**-52: clamp the last type at zero
        last = np.maximum(1.0 - x.sum(axis=1), 0.0)
        return np.concatenate([x, last[:, None]], axis=1)


@dataclass(frozen=True)
class Bep(DiffusionModel):
    """Brownian energy process on d sites with parameter m."""

    d: int
    m: float

    kind: ClassVar[str] = "bep"
    domain: ClassVar[str] = "non-negative energies"

    def __post_init__(self) -> None:
        if self.d < 2 or self.m < 0:
            raise ValueError("bep needs d >= 2 and m >= 0")

    @property
    def dim(self) -> int:
        return self.d

    def _inside(self, x: np.ndarray) -> bool:
        return bool((x >= 0.0).all())

    def _drift_covariance(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        total = x.sum(axis=1)
        drift = (self.m / 4.0) * (total[:, None] - self.d * x)
        cov = total[:, None, None] * (x[:, :, None] * np.eye(self.d)) - x[:, :, None] * x[:, None, :]
        return drift, cov

    def project(self, x: np.ndarray, prev: np.ndarray) -> np.ndarray:
        np.clip(x, 0.0, None, out=x)
        # the dynamics conserve the total energy; restore it after the clip
        # so the identification with the simplex diffusion holds
        total = prev.sum(axis=1)
        sums = x.sum(axis=1)
        fix = sums > 0
        x[fix] *= (total[fix] / sums[fix])[:, None]
        return x


def _inclusion_moves(k: tuple[int, ...], weight, mut) -> Transitions:
    """One particle i -> j at rate ``weight * k_i * (k_j + mut)``, every ordered pair."""
    d = len(k)
    out = []
    for i in range(d):
        if k[i] == 0:
            continue
        for j in range(d):
            if i == j:
                continue
            rate = weight * k[i] * (k[j] + mut)
            if rate > 0:
                target = list(k)
                target[i] -= 1
                target[j] += 1
                out.append((tuple(target), rate))
    return out


@dataclass(frozen=True)
class MoranMultitype(JumpModel):
    """d-type Moran model with population N and mutation rate theta.

    The state lists the first d-1 type counts; the last type is implicit.
    ``rate_scale`` multiplies every jump rate.  The default matches the
    d-type definition (resampling rate 1/2 per ordered pair); the two-type
    chain whose duality with the rate n(n-1) block-counting process is an
    exact identity runs twice as fast, ``rate_scale=2``.
    """

    N: int
    d: int
    theta: float
    rate_scale: float = 1.0

    kind: ClassVar[str] = "moran-multitype"

    def __post_init__(self) -> None:
        if self.N < 1 or self.d < 2 or self.theta < 0:
            raise ValueError("moran-multitype needs N >= 1, d >= 2, theta >= 0")
        if self.rate_scale <= 0:
            raise ValueError("rate_scale must be positive")

    def index(self, truncation: int | None) -> StateIndex:
        return enumerate_states(self.d - 1, self.N, "down-closed")

    def rates(self, k: tuple[int, ...], num: type = float) -> Transitions:
        # resampling moves one individual between any two types, the
        # implicit last one included, as in the inclusion process
        full = self.lift(k)
        if full[-1] < 0:
            raise ValueError("state exceeds the population size")
        mut = 2 * num(self.theta) / (self.d - 1)
        return [(target[:-1], rate) for target, rate in _inclusion_moves(full, num(self.rate_scale) / 2, mut)]

    def lift(self, state: tuple[int, ...]) -> tuple[int, ...]:
        return state + (self.N - sum(state),)


@dataclass(frozen=True)
class Sip(JumpModel):
    """Symmetric inclusion process on d sites with parameter m."""

    d: int
    m: float

    kind: ClassVar[str] = "sip"
    total_bounded: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.d < 2 or self.m < 0:
            raise ValueError("sip needs d >= 2 and m >= 0")

    def index(self, truncation: int | None) -> StateIndex:
        if truncation is None:
            raise ValueError("sip needs the conserved particle total as truncation")
        return enumerate_states(self.d, truncation, "conserved")

    def rates(self, k: tuple[int, ...], num: type = float) -> Transitions:
        return _inclusion_moves(k, num(1) / 2, num(self.m) / 2)


@dataclass(frozen=True)
class KingmanBlock(JumpModel):
    """Block-counting chain: rate n(n-1) + theta n down, sigma n up, on 0..n_max."""

    theta: float = 0.0
    sigma: float = 0.0
    n_max: int = 200

    kind: ClassVar[str] = "kingman-block"

    def __post_init__(self) -> None:
        if self.theta < 0 or self.sigma < 0 or self.n_max < 1:
            raise ValueError("kingman-block needs theta, sigma >= 0 and n_max >= 1")

    def index(self, truncation: int | None) -> StateIndex:
        return enumerate_states(1, self.n_max if truncation is None else truncation, "down-closed")

    def rates(self, k: tuple[int, ...], num: type = float) -> Transitions:
        (n,) = k
        out = []
        down = n * (n - 1) + num(self.theta) * n
        if down > 0:
            out.append(((n - 1,), down))
        up = num(self.sigma) * n
        if up > 0:
            out.append(((n + 1,), up))
        return out


def _validate_kernel(kernel: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    P = np.asarray(kernel, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise ValueError("kernel must be a square matrix over at least two sites")
    if np.any((P < 0) & ~np.eye(len(P), dtype=bool)):
        raise ValueError("off-diagonal kernel entries must be non-negative")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > _COEF_TOL):
        raise ValueError("kernel rows must sum to one")
    return tuple(tuple(float(v) for v in row) for row in P)


@dataclass(frozen=True)
class SteppingStoneForward(DiffusionModel):
    """Stepping-stone diffusion: one allele frequency per site, migration kernel P."""

    kernel: tuple[tuple[float, ...], ...]

    kind: ClassVar[str] = "stepping-stone-forward"
    domain: ClassVar[str] = "every site frequency in [0, 1]"

    def __post_init__(self) -> None:
        if len(self.kernel) > 16:
            raise ValueError("stepping-stone-forward supports at most 16 sites")

    @property
    def dim(self) -> int:
        return len(self.kernel)

    _inside = staticmethod(_in_unit_cube)
    project = staticmethod(_clip_unit)

    def _drift_covariance(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P = np.asarray(self.kernel)
        return x @ P.T + x @ P - x * (1.0 + P.sum(axis=0)), 2.0 * x * (1.0 - x)


@dataclass(frozen=True)
class SteppingStoneDual(JumpModel):
    """Migration/coalescence chain dual to the stepping-stone diffusion."""

    kernel: tuple[tuple[float, ...], ...]

    kind: ClassVar[str] = "stepping-stone-dual"
    total_bounded: ClassVar[bool] = True

    def index(self, truncation: int | None) -> StateIndex:
        if truncation is None:
            raise ValueError("stepping-stone-dual needs a particle-number truncation")
        return enumerate_states(len(self.kernel), truncation, "down-closed")

    def rates(self, k: tuple[int, ...], num: type = float) -> Transitions:
        P = self.kernel
        d = len(k)
        out = []
        for i in range(d):
            if k[i] == 0:
                continue
            for j in range(d):
                if i == j:
                    continue
                # both kernel directions move a walker from i to j
                rate = k[i] * (num(P[i][j]) + num(P[j][i]))
                if rate > 0:
                    target = list(k)
                    target[i] -= 1
                    target[j] += 1
                    out.append((tuple(target), rate))
            if k[i] > 1:
                target = list(k)
                target[i] -= 1
                out.append((tuple(target), num(k[i] * (k[i] - 1))))
        return out


def _pairs(coefs: dict[int, float] | Sequence[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted((int(k), float(v)) for k, v in dict(coefs).items()))


def wf_general_1d(
    alpha: dict[int, float] | Sequence[tuple[int, float]],
    beta: dict[int, float] | Sequence[tuple[int, float]] = (),
) -> WfGeneral1D:
    """Diffusion on [0, 1] with generator ``alpha(x) d^2/dx^2 + beta(x) d/dx``.

    ``alpha`` maps powers k >= 1 to coefficients, ``beta`` maps powers
    k >= 0.  Validation enforces the balance conditions (the k = 2 and k = 1
    coefficients equal minus the rest, all others non-negative) under which
    the moment dual is a continuous-time Markov chain.
    """
    return WfGeneral1D(alpha=_pairs(alpha), beta=_pairs(beta))


# models whose parameters need no conversion are their own factories
wf_multitype = WfMultitype
moran_multitype = MoranMultitype
sip = Sip
bep = Bep
kingman_block = KingmanBlock


def stepping_stone_forward(kernel: Sequence[Sequence[float]]) -> SteppingStoneForward:
    return SteppingStoneForward(kernel=_validate_kernel(kernel))


def stepping_stone_dual(kernel: Sequence[Sequence[float]]) -> SteppingStoneDual:
    return SteppingStoneDual(kernel=_validate_kernel(kernel))


# ---------------------------------------------------------------------------
# generators and coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Sparse rate matrix over an enumerated state space.

    ``Q`` is a ``scipy.sparse.csr_array`` with sorted column indices and the
    diagonal stored in every row.  Call ``Q.toarray()`` where a dense copy
    is needed.
    """

    Q: sparse.csr_array
    index: StateIndex

    def __post_init__(self) -> None:
        Q = self.Q
        n = len(self.index)
        if not isinstance(Q, sparse.csr_array):
            raise TypeError("rate matrix must be a scipy.sparse.csr_array")
        if Q.shape != (n, n):
            raise ValueError("rate matrix does not match the state enumeration")
        data, indptr = Q.data, Q.indptr
        rows = np.arange(n).repeat(indptr[1:] - indptr[:-1])
        if (data[Q.indices != rows] < -1e-12).any():
            raise ValueError("negative off-diagonal rate")
        sums = np.bincount(rows, weights=data, minlength=n)
        if abs(sums).max(initial=0.0) > 1e-12 * max(1.0, abs(data).max(initial=0.0)):
            raise ValueError("rows must sum to zero")


def _jump_model(spec) -> JumpModel:
    if not isinstance(spec, JumpModel):
        raise ValueError(f"{spec.kind} is not a jump-type process")
    return spec


def _rate_rows(spec: JumpModel, index: StateIndex, num: type) -> Iterator[dict[int, float | Fraction]]:
    """Per state, its rates by column and the diagonal minus their sum.

    Float diagonals are the correctly rounded sum (``math.fsum``).
    """
    pos = index.pos
    for i, state in enumerate(index.states):
        row: dict = {}
        for target, rate in spec.rates(state, num):
            j = pos.get(target)
            if j is None:
                # transitions leaving the enumerated window are dropped
                continue
            row[j] = row[j] + rate if j in row else rate
        row[i] = -(fsum(row.values()) if num is float else sum(row.values(), num(0)))
        yield row


def generator_matrix(
    spec: JumpModel,
    truncation: int | None = None,
    index: StateIndex | None = None,
) -> GeneratorMatrix:
    """Sparse (CSR) generator of a jump-type process.

    ``truncation`` bounds the state space of non-conserved chains (and names
    the conserved particle total for ``sip``).  A ``wf_general_1d`` model
    yields its moment dual chain.  Pass ``index`` to override the state
    enumeration, e.g. to scan conservation across sectors.

    The CSR arrays are filled in one pass over the states, with the model's
    float rates; no n x n array is allocated.  Going through COO and
    ``tocsr()`` instead would add a few hundred microseconds per call,
    several times the whole build of the 5- to 31-state chains the check
    commands build by the dozen.
    """
    spec = _jump_model(spec)
    if index is None:
        index = spec.index(truncation)
    n = len(index)
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for row in _rate_rows(spec, index, float):
        cols, rates = zip(*sorted(row.items()))
        indices += cols
        data += rates
        indptr.append(len(indices))
    Q = sparse.csr_array(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)), shape=(n, n)
    )
    return GeneratorMatrix(Q=Q, index=index)


def rational_generator(spec: JumpModel, truncation: int | None = None) -> list[list[Fraction]]:
    """The generator of :func:`generator_matrix` in exact rational arithmetic.

    The same rates evaluated with ``num=Fraction`` (parameters enter as the
    exact value of their float), as dense nested lists over ``index(truncation)``.
    """
    spec = _jump_model(spec)
    index = spec.index(truncation)
    Q = [[Fraction(0)] * len(index) for _ in index.states]
    for i, row in enumerate(_rate_rows(spec, index, Fraction)):
        for j, rate in row.items():
            Q[i][j] = rate
    return Q


def _diffusion_model(spec) -> DiffusionModel:
    if not isinstance(spec, DiffusionModel):
        raise ValueError(f"{spec.kind} is not a diffusion")
    return spec


def drift_diffusion(spec: DiffusionModel, x: Sequence[float] | float) -> tuple[np.ndarray, np.ndarray]:
    """Drift vector b and covariance matrix a at a state.

    The one-row case of ``spec.coefficients``.  The generator is
    ``(1/2) sum a_ij d_i d_j + sum b_i d_i``; for the one-dimensional family
    written as ``alpha(x) d^2/dx^2 + beta(x) d/dx`` this means ``a = 2 alpha``
    and ``b = beta``.
    """
    spec = _diffusion_model(spec)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (spec.dim,):
        raise ValueError(f"{spec.kind} state must have {spec.dim} coordinates")
    b, a = spec.coefficients(xv[None, :])
    bvec, amat = b[0], a[0]
    eigs = np.linalg.eigvalsh(amat)
    scale = max(1.0, float(np.abs(amat).max()))
    if eigs.min() < -1e-10 * scale:
        raise ValueError(f"diffusion matrix not positive semidefinite at {x!r}")
    return bvec, amat


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def path_rng(seed: int, path: int) -> np.random.Generator:
    """The random stream of one path: stream id (experiment seed, path index)."""
    return np.random.default_rng([int(seed), int(path)])


@lru_cache(maxsize=64)
def _cached_chain(
    spec: JumpModel, truncation: int | None
) -> tuple[GeneratorMatrix, list[tuple[float, list[int], list[float]]]]:
    """Generator plus, per state, its exit rate, jump targets and cumulative jump law."""
    gen = generator_matrix(spec, truncation)
    Q = gen.Q
    tables = []
    for i in range(Q.shape[0]):
        lo, hi = Q.indptr[i], Q.indptr[i + 1]
        cols, vals = Q.indices[lo:hi], Q.data[lo:hi]
        off = cols != i
        rates = vals[off]
        total = rates.sum()
        cdf = rates
        if total > 0:
            # the same normalisation as Generator.choice with p = rates / sum
            cdf = (rates / total).cumsum()
            cdf /= cdf[-1]
        tables.append((float(-vals[~off].sum()), cols[off].tolist(), cdf.tolist()))
    return gen, tables


def sample_jump(
    spec: JumpModel,
    k0: Sequence[int],
    t: float,
    rng: np.random.Generator,
    truncation: int | None = None,
) -> tuple[int, ...]:
    """Exact continuous-time simulation of a jump chain up to horizon t.

    Holding times are exponential with the total exit rate, jump targets
    categorical in the rates (one uniform draw searched in the state's
    cumulative table).  Deterministic given the random stream.
    """
    if t < 0:
        raise ValueError("horizon must be non-negative")
    state = tuple(int(v) for v in k0)
    if t == 0:
        return state
    if truncation is None and _jump_model(spec).total_bounded:
        # the particle total is conserved or non-increasing, so the
        # starting total bounds the space
        truncation = sum(state)
    gen, tables = _cached_chain(spec, truncation)
    try:
        i = gen.index.pos[state]
    except KeyError:
        raise ValueError(f"state {state} is outside the enumerated space") from None
    clock = 0.0
    while True:
        rate, targets, cdf = tables[i]
        if rate <= 0:
            return gen.index.states[i]
        clock += rng.exponential(1.0 / rate)
        if clock > t:
            return gen.index.states[i]
        i = targets[bisect_right(cdf, rng.random())]


def _n_steps(t: float, dt: float) -> tuple[int, float]:
    """Number of full steps and the size of the trailing partial step."""
    n_full = int(floor(t / dt + 1e-9))
    rem = t - n_full * dt
    if rem < 1e-12 * max(t, 1.0):
        rem = 0.0
    return n_full, rem


def _psd_sqrt_batch(a: np.ndarray) -> np.ndarray:
    # stacked symmetric square roots; negative round-off eigenvalues are
    # clipped to zero before the root
    w, V = np.linalg.eigh(a)
    w = np.maximum(w, 0.0)
    return (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)


def _em_run(spec: DiffusionModel, x0: np.ndarray, t: float, dt: float, normals: np.ndarray) -> np.ndarray:
    """Vectorized Euler-Maruyama over a batch of paths.

    ``normals`` is step-major, shape (steps, paths, dim), so step ``s``
    reads the one contiguous slab ``normals[s]``; path ``p``'s increments
    are the column ``normals[:, p]``.  The trailing step uses the remainder
    of the horizon when t is not a multiple of dt.  After every step the
    model maps the states back into its domain; absorbing boundaries of the
    neutral models hold because drift and noise vanish there.
    """
    n_full, rem = _n_steps(t, dt)
    steps = n_full + (1 if rem > 0 else 0)
    npaths = normals.shape[1]
    x = np.tile(np.asarray(x0, dtype=float), (npaths, 1))
    if normals.shape != (steps, npaths, x.shape[1]):
        raise ValueError("normals shape mismatch")
    for s in range(steps):
        h = dt if s < n_full else rem
        z = normals[s]
        drift, cov = spec._drift_covariance(x)
        if cov.ndim == 2:
            noise = np.sqrt(np.maximum(cov, 0.0) * h) * z
        else:
            noise = sqrt(h) * np.einsum("pij,pj->pi", _psd_sqrt_batch(cov), z)
        x = spec.project(x + drift * h + noise, x)
        if np.any(np.isnan(x)):
            raise FloatingPointError("NaN encountered along a diffusion path")
    return x


def diffusion_endpoints(
    spec: DiffusionModel,
    x0: Sequence[float] | float,
    t: float,
    dt: float,
    seed: int,
    n_paths: int,
    *,
    antithetic: bool = False,
    block: int = 20_000,
) -> np.ndarray:
    """Endpoints of ``n_paths`` independent paths, one stream per path.

    The start is checked against the model's domain before any path is
    drawn.  Path ``i`` draws its (steps, dim) normals from stream
    ``(seed, i)``; with ``antithetic`` the pair (2j, 2j + 1) is drawn once
    from stream ``(seed, j)`` and the odd path takes the negated increments.
    Paths run in blocks of ``block``, each a step-major (steps, paths, dim)
    array that path ``i`` fills in its column; the result does not depend on
    the block partition.
    """
    x0v = _diffusion_model(spec).start(x0)
    if t == 0:
        return np.tile(x0v, (n_paths, 1))
    if dt <= 0 or dt >= t:
        raise ValueError("need 0 < dt < t")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic sampling needs an even number of paths")
    n_full, rem = _n_steps(t, dt)
    steps = n_full + (1 if rem > 0 else 0)
    dim = x0v.size
    out = np.empty((n_paths, dim))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        normals = np.empty((steps, stop - start, dim))
        for i in range(start, stop):
            if not antithetic:
                normals[:, i - start] = path_rng(seed, i).standard_normal((steps, dim))
            elif i % 2 == 0:
                # the pair's odd path may open the next block; base carries over
                base = path_rng(seed, i // 2).standard_normal((steps, dim))
                normals[:, i - start] = base
            else:
                np.negative(base, out=normals[:, i - start])
        out[start:stop] = _em_run(spec, x0v, t, dt, normals)
    return out
