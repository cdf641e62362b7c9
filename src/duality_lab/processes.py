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

A :class:`JumpModel` writes its transitions once, in array form:
``moves(K, num=float)`` over an (n, d) block of states gives one integer
delta per move and one rate column per move.  It also enumerates its
states, ``index(truncation)``.  In floats one ``moves`` call over all the
states fills a sparse (CSR) rate matrix, :func:`generator_matrix`, through
numpy alone: every chain here moves one particle or one count per jump, so
a row holds a handful of rates however many states there are.  Run on an
object array with ``num=Fraction``, the same code gives the exact rational
generator, :func:`rational_generator`, as Python ints over one common
denominator, ``(ints, den)``; ``transitions(states, num)`` gives
its per-state lists, which the pointwise checks read.  The jump sampler,
:func:`sample_jump`, uniformizes the chain and steps every path of a call
at once through padded per-state tables of targets and cumulative rates
read off the CSR rows.  A :class:`DiffusionModel` gives its drift and covariance on a batch
of states, ``coefficients(x)``, and its domain; :func:`diffusion_endpoints`
runs seeded Euler-Maruyama paths from a checked start.  ``wf_general_1d``
is both: a diffusion and, through its rates, its moment dual chain.  Models
and generators are immutable; samplers are pure given their random streams.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, floor, frexp, fsum, isfinite, prod, sqrt
from types import MappingProxyType
from typing import Callable, ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import sparse

from .algebra import _scaled

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
    """Enumerated occupation vectors, the rows of ``array``, and the state <-> integer bijection.

    ``array`` is an (n, d) integer array; ``states`` and ``pos`` are its rows
    as tuples and their positions, built on first use.
    """

    d: int
    N: int
    mode: str
    array: np.ndarray

    def __len__(self) -> int:
        return len(self.array)

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def pos(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(dict(zip(self.states, range(len(self)))))


# Enumerated windows and their target columns, kept by value: both are
# immutable and deterministic, so builds over one window share them, and
# with the targets the rate-free CSR plan of the window's latest build.  The
# least recently used go once all together pass this many bytes.
_MEMO_BYTES = 32 << 20
_memo: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
_memo_bytes = 0


def _memoised(key: tuple, build: Callable[[], object], nbytes: Callable[[object], int]) -> object:
    """``build()``, kept under ``key`` among the most recently used values."""
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key][0]
    value = build()
    _keep(key, value, nbytes(value))
    return value


def _keep(key: tuple, value: object, size: int) -> None:
    """Keep ``value`` of ``size`` bytes under ``key`` as the most recently used, replacing any value there."""
    global _memo_bytes
    if key in _memo:
        _memo_bytes -= _memo.pop(key)[1]
    _memo[key] = (value, size)
    _memo_bytes += size
    while _memo_bytes > _MEMO_BYTES:
        _memo_bytes -= _memo.popitem(last=False)[1][1]


def _compositions(d: int, N: int) -> np.ndarray:
    """Every d-vector of non-negative integers summing to N, in lexicographic order, as rows."""
    if d == 1:
        return np.array([[N]])
    first = np.arange(N + 1)
    rows, left = first[:, None], N - first
    for _ in range(d - 2):
        # each row branches into every value of its next coordinate
        counts = left + 1
        parent = np.repeat(np.arange(len(left)), counts)
        value = np.arange(len(parent)) - np.repeat(counts.cumsum() - counts, counts)
        rows = np.concatenate([rows[parent], value[:, None]], axis=1)
        left = left[parent] - value
    return np.concatenate([rows, left[:, None]], axis=1)


def enumerate_states(d: int, N: int, mode: str = "conserved") -> StateIndex:
    """Enumerate ``{k : sum k = N}`` (conserved) or ``{k : sum k <= N}``.

    The down-closed mode is what dual chains with deaths live on.  States
    are listed in lexicographic order; a guard rejects spaces above five
    million states.  Indices are immutable, and recent ones are shared
    between calls.
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
    return _memoised(("states", d, N, mode), lambda: _enumerate(d, N, mode), lambda index: index.array.nbytes)


def _enumerate(d: int, N: int, mode: str) -> StateIndex:
    # a down-closed state is a conserved one with a slack coordinate
    # appended, and dropping the slack keeps the lexicographic order
    states = _compositions(d, N) if mode == "conserved" else _compositions(d + 1, N)[:, :-1]
    states.flags.writeable = False
    return StateIndex(d=d, N=N, mode=mode, array=states)


_CODE_LIMIT = 2**62


def _codes(states: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes of the states (n,) and of their targets ``states[i] + deltas[c]`` (n, m).

    Two rows get one code exactly when they are equal.  Each coordinate is
    a digit of a mixed-radix code, its range padded by the longest move
    along it so that no target's digit carries into the next: the code is
    linear, a target's being its state's plus its move's.  Coordinates
    whose digits would pass 2**62 are coded in two halves, each replaced by
    its rank among the states' codes.
    """
    moves = deltas.tolist()
    lo = states.min(axis=0)
    radix = [
        hi - low + 1 + 2 * max((abs(move[c]) for move in moves), default=0)
        for c, (low, hi) in enumerate(zip(lo.tolist(), states.max(axis=0).tolist()))
    ]
    if prod(radix) <= _CODE_LIMIT:
        weights = [prod(radix[c + 1 :]) for c in range(len(radix))]
        own = (states - lo) @ np.array(weights, dtype=np.int64)
        steps = [sum(w * v for w, v in zip(weights, move)) for move in moves]
        return own, own[:, None] + np.array(steps, dtype=np.int64)
    half = len(radix) // 2
    ranks = []
    for cut in (slice(None, half), slice(half, None)):
        own, code = _codes(states[:, cut], deltas[:, cut])
        seen = np.unique(own)
        hit = np.minimum(np.searchsorted(seen, code), len(seen) - 1)
        ranks.append((np.searchsorted(seen, own), np.where(seen[hit] == code, hit, -1), len(seen)))
    (own_a, code_a, _), (own_b, code_b, size_b) = ranks
    return own_a * size_b + own_b, np.where((code_a >= 0) & (code_b >= 0), code_a * size_b + code_b, -1)


def _target_columns(states: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, bool]:
    """Position of ``states[i] + deltas[c]`` among the rows of ``states`` (n, m), or -1.

    The codes of :func:`_codes` are looked up with ``searchsorted`` among
    the states' codes, in whatever order the states are listed, so a target
    outside the window, negative or too-large coordinates included, is
    never aliased to a state.  The flag says whether the states are listed
    in increasing code order, which is lexicographic order.
    """
    own, code = _codes(states, deltas)
    ordered = bool((own[1:] > own[:-1]).all())
    order = None if ordered else np.argsort(own)
    ranked = own if ordered else own[order]
    # a code past the last state lands on it, and fails the comparison
    hit = np.searchsorted(ranked[:-1], code)
    found = ranked[hit] == code
    return np.where(found, hit if ordered else order[hit], -1), ordered


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class JumpModel:
    """A continuous-time chain on occupation vectors.

    Subclasses give ``moves(K, num=float)``, the chain's transitions over an
    (n, d) block of states ``K``: an (m, d) integer array of deltas, one per
    move, and an (n, m) array of rates, column ``c`` the rate of state
    ``K[i] -> K[i] + deltas[c]``; a move whose rate is not positive is not
    taken.  Rates formed move by move, as the transpose of an (m, n)
    array, are read by the generator build one contiguous row per move,
    without a copy.  The rates are in the number type ``num``: ``float`` on an
    integer ``K``, ``Fraction`` on an object array of ints.  Subclasses also
    give ``index(truncation)``, the enumerated state space; a transition that
    leaves it is dropped.  Every generator, sampler and check reads the
    rates through ``moves``.
    """

    kind: ClassVar[str]
    #: the particle total never grows, so a start state bounds the space
    total_bounded: ClassVar[bool] = False

    def lift(self, state: tuple[int, ...]) -> tuple[int, ...]:
        """The state with any implicit last coordinate written out."""
        return state

    def transitions(self, states: Sequence[Sequence[int]], num: type = float) -> list[Transitions]:
        """Per state, its transitions with their positive rates, from one ``moves`` call over all of them."""
        K = np.array(states, dtype=np.int64).reshape(len(states), -1)
        deltas, rates = self.moves(K if num is float else K.astype(object), num)
        targets = (K[:, None, :] + deltas).tolist()
        return [
            [(tuple(target), rate) for target, rate in zip(row_targets, row_rates) if rate > 0]
            for row_targets, row_rates in zip(targets, rates.tolist())
        ]


class DiffusionModel:
    """A diffusion with generator ``(1/2) sum a_ij d_i d_j + sum b_i d_i``.

    Subclasses give ``dim``; the domain, named by ``domain`` and tested by
    ``_inside(x)``; ``_drift_covariance(x)``, the drift (paths, dim) and
    covariance at each row of ``x``, the covariance as (paths, dim, dim) or,
    when the coordinates take independent noise, as the variances (paths,
    dim), both fresh arrays that the caller may overwrite; and
    ``project(x, prev)``, which maps the states after one Euler-Maruyama
    step from ``prev`` back into the domain.
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

    def moves(self, K: np.ndarray, num: type = float) -> tuple[np.ndarray, np.ndarray]:
        n = K[:, 0]
        pairs = n * (n - 1)
        jumps = [(pw - 2, pairs * num(coef)) for pw, coef in self.alpha if pw != 2]
        jumps += [(pw - 1, n * num(coef)) for pw, coef in self.beta if pw != 1]
        deltas = np.array([[step] for step, _ in jumps], dtype=np.int64).reshape(-1, 1)
        return deltas, np.array([rate for _, rate in jumps]).T.reshape(len(K), len(jumps))

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


@lru_cache(maxsize=32)
def _ordered_pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ordered pairs i != j of d sites, i-major, and the delta e_j - e_i of each."""
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    eye = np.eye(d, dtype=np.int64)
    deltas = eye[j] - eye[i]
    for a in (i, j, deltas):
        a.flags.writeable = False
    return i, j, deltas


def _inclusion_moves(K: np.ndarray, weight, mut) -> tuple[np.ndarray, np.ndarray]:
    """One particle i -> j at rate ``weight * K_i * (K_j + mut)``, every ordered pair."""
    i, j, deltas = _ordered_pairs(K.shape[1])
    # both factors formed once per site as contiguous (sites, states) rows,
    # then gathered move by move into (moves, states) rows, which the
    # generator build reads without a copy
    out, into = np.multiply(weight, K.T, order="C"), np.add(K.T, mut, order="C")
    return deltas, (out[i] * into[j]).T


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

    def moves(self, K: np.ndarray, num: type = float) -> tuple[np.ndarray, np.ndarray]:
        # resampling moves one individual between any two types, the
        # implicit last one included, as in the inclusion process
        last = self.N - K.sum(axis=1)
        if (last < 0).any():
            raise ValueError("state exceeds the population size")
        mut = 2 * num(self.theta) / (self.d - 1)
        deltas, rates = _inclusion_moves(np.concatenate([K, last[:, None]], axis=1), num(self.rate_scale) / 2, mut)
        return deltas[:, :-1], rates

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

    def moves(self, K: np.ndarray, num: type = float) -> tuple[np.ndarray, np.ndarray]:
        return _inclusion_moves(K, num(1) / 2, num(self.m) / 2)


_DOWN_UP = np.array([[-1], [1]])
_DOWN_UP.flags.writeable = False


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

    def moves(self, K: np.ndarray, num: type = float) -> tuple[np.ndarray, np.ndarray]:
        n = K[:, 0]
        return _DOWN_UP, np.array([n * (n - 1) + num(self.theta) * n, num(self.sigma) * n]).T


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
        # (x @ (P + P.T))_i summed term by term: a BLAS product rounds a
        # one-row batch differently from a many-row one, and each path's
        # drift must not depend on the batch it runs in
        P = np.asarray(self.kernel)
        S = P + P.T
        mix = x[:, :1] * S[0]
        for j in range(1, self.dim):
            mix = mix + x[:, j : j + 1] * S[j]
        return mix - x * (1.0 + P.sum(axis=0)), 2.0 * x * (1.0 - x)


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

    def moves(self, K: np.ndarray, num: type = float) -> tuple[np.ndarray, np.ndarray]:
        P = self.kernel
        eye = np.eye(K.shape[1], dtype=np.int64)
        deltas, rates = [], []
        for i, ki in enumerate(K.T):
            for j in range(len(eye)):
                if j != i:
                    # both kernel directions move a walker from i to j
                    deltas.append(eye[j] - eye[i])
                    rates.append(ki * (num(P[i][j]) + num(P[j][i])))
            # two walkers at i coalesce
            deltas.append(-eye[i])
            rates.append(num(1) * (ki * (ki - 1)))
        return np.array(deltas), np.array(rates).T.reshape(len(K), len(deltas))


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
    """Sparse rate matrix over an enumerated state space, as :func:`generator_matrix` builds it.

    ``Q`` is a ``scipy.sparse.csr_array`` with sorted column indices, the
    positive off-diagonal rates and the diagonal stored in every row, the
    diagonal being minus the correctly rounded sum of the row's rates.  Its
    ``indices`` and ``indptr`` are read-only: builds that store the same
    entries share them.  Call ``Q.toarray()`` where a dense copy is needed.
    """

    Q: sparse.csr_array
    index: StateIndex


def _jump_model(spec) -> JumpModel:
    if not isinstance(spec, JumpModel):
        raise ValueError(f"{spec.kind} is not a jump-type process")
    return spec


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


# bytes of one build per (state, move) pair, the diagonal counted as a move:
# the rates, codes, masks, plan and CSR arrays together peak at 32-53 on a
# window's first build and 27-48 on one that reuses its plan (traced with
# tracemalloc on SIP, Moran, stepping-stone, block-counting and moment-dual
# chains of 560 to 6,000 states)
_BUILD_BYTES = 64
# moves per model, by its ``moves`` function and its (frozen) fields: the
# count sizes the memory guard, and counting costs a ``moves`` call; the
# oldest go past this many models
_MOVE_COUNTS_HELD = 256
_move_counts: dict[tuple[Callable, JumpModel], int] = {}


class _CsrPlan(NamedTuple):
    """The rate-free part of a float build: where its stored entries go in the CSR arrays.

    ``mask`` (n, L) marks the stored entries; ``gather`` holds their
    positions in the rates' column-major order, in CSR order; ``indices``
    and ``indptr`` are the CSR arrays.  All four are read-only.
    """

    mask: np.ndarray
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


@dataclass(eq=False)
class _Targets:
    """A window's targets under one move layout, and the CSR plan of its latest float build.

    ``cols`` (n, L) holds the position of each target among the window's
    states, or -1 for a target outside it; ``outside`` holds the positions
    of the -1s in column-major order.  ``ordered`` says whether the states
    are listed in lexicographic order.  Only ``plan`` changes: a build that
    stores other entries than it was made for replaces it.
    """

    cols: np.ndarray
    outside: np.ndarray
    ordered: bool
    plan: _CsrPlan | None = None

    @property
    def nbytes(self) -> int:
        arrays = (self.cols, self.outside) + (() if self.plan is None else tuple(self.plan))
        return sum(a.nbytes for a in arrays)


def _targets(states: np.ndarray, layout: np.ndarray) -> _Targets:
    cols, ordered = _target_columns(states, layout)
    cols = np.asfortranarray(cols, dtype=np.int32)
    outside = np.flatnonzero(cols.ravel(order="F") < 0)
    cols.flags.writeable = outside.flags.writeable = False
    return _Targets(cols, outside, ordered)


def _window_moves(spec: JumpModel, index: StateIndex, num: type) -> tuple[np.ndarray, _Targets, tuple | None, int]:
    """The model's moves over ``index``: rates (n, L) in ``num``, their targets, their memo key and the stay.

    There is one column per distinct delta, in lexicographic order, the
    zero delta (staying put, column ``stay``) included, so each row of a
    lexicographically ordered index lists its targets by column.  Moves
    with one delta add up in move order.  A rate is zero where no move is
    taken: the model's rates are not positive, the target leaves the
    window, or the column is the stay.  The rates are column-major, one
    contiguous column per move.  The targets of an enumerated window are
    memoised under the key returned, which is None for any other index.
    """
    states = index.array
    n, d = states.shape
    model = (type(spec).moves, spec)
    count = _move_counts.get(model)
    if count is None:
        # the moves of an empty block count the moves before any (state, move) array exists
        count = len(spec.moves(states[:0])[0])
    need = n * (count + 1) * _BUILD_BYTES
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"the generator of {n} states x {count} moves needs about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    # kept once a build is admitted, so only models that are built are held
    _move_counts[model] = count
    if len(_move_counts) > _MOVE_COUNTS_HELD:
        del _move_counts[next(iter(_move_counts))]
    deltas, rates = spec.moves(states if num is float else states.astype(object), num)
    layout, columns, firsts, repeats, stay = _columns(np.asarray(deltas, dtype=np.int64).tobytes(), d)
    # (moves, states): the models build their rates move by move, so each
    # row is contiguous and copies as one block
    moves = rates.T
    zero = num(0)
    merged = np.full((len(layout), n), zero, dtype=float if num is float else object)
    merged[columns] = moves[firsts]
    # fmax takes a rate that is not positive, NaN included, to zero
    np.fmax(merged, zero, out=merged)
    for k, c in repeats:
        merged[k] += np.fmax(moves[c], zero)
    window = ("states", index.d, index.N, index.mode)
    if _memo.get(window, (None,))[0] is index:
        # an enumerated window: its targets depend on the deltas alone
        key = window + (layout.tobytes(),)
        targets = _memoised(key, lambda: _targets(states, layout), lambda value: value.nbytes)
    else:
        key, targets = None, _targets(states, layout)
    merged.ravel()[targets.outside] = zero
    return merged.T, targets, key, stay


@lru_cache(maxsize=256)
def _columns(deltas: bytes, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | slice, tuple, int]:
    """The columns of a move set, given as the bytes of its (m, d) int64 deltas.

    The columns are the distinct deltas and the zero one, in lexicographic
    order.  Returns the columns' deltas; the column of each delta's first
    move and that move, as two index arrays (the second a full slice when
    no delta repeats); each later move with a repeated delta as (column,
    move); and the zero delta's column.
    """
    moves = list(map(tuple, np.frombuffer(deltas, dtype=np.int64).reshape(-1, d).tolist()))
    stay = (0,) * d
    layout = sorted(set(moves) | {stay})
    column = {delta: k for k, delta in enumerate(layout)}
    first: dict[int, int] = {}
    repeats = []
    for c, delta in enumerate(moves):
        k = column[delta]
        if k in first:
            repeats.append((k, c))
        else:
            first[k] = c
    layout = np.array(layout, dtype=np.int64)
    columns, firsts = np.array(list(first), dtype=np.intp), np.array(list(first.values()), dtype=np.intp)
    for a in (layout, columns, firsts):
        a.flags.writeable = False
    return layout, columns, firsts if repeats else slice(None), tuple(repeats), column[stay]


def _row_sums(rates: np.ndarray) -> np.ndarray:
    """Each row's sum of non-negative rates, correctly rounded, as ``math.fsum`` gives it.

    A sum in which no addition rounds is exact, in any order.  No addition
    can round where every rate is an integer multiple of 2**-s and each
    row's sum is below 2**(53 - s): every partial sum is then such a
    multiple, so a float (:func:`_cannot_round` tests this).  Nor can a sum
    round twice where no row has more than two nonzero rates, which is
    tested where there are at most three columns: every two-move chain,
    with its stay.  Otherwise the left-to-right sum is taken, and the rows
    where one of its additions rounds (TwoSum's error term is not zero) go
    through ``fsum``.  All add on the (moves, states) transpose, one
    contiguous row across all states at a time.
    """
    moves = np.ascontiguousarray(rates.T)
    out = np.add.reduce(moves)
    if (len(moves) <= 3 and (moves != 0).sum(axis=0).max(initial=0) <= 2) or _cannot_round(moves, out):
        return out
    total = moves.copy()
    # one move at a time: np.cumsum(moves, axis=0) adds in the same order,
    # but accumulates state by state and took 1.3-1.7x as long at 496 to
    # 1,771 states (numpy 2.4)
    for k in range(1, len(total)):
        total[k] += total[k - 1]
    prev, new, s = total[:-1], moves[1:], total[1:]
    back = s - prev
    rounded = ((prev - (s - back)) + (new - back)).any(axis=0)
    out = total[-1]
    for i in np.flatnonzero(rounded).tolist():
        out[i] = fsum(rates[i].tolist())
    return out


def _cannot_round(rates: np.ndarray, sums: np.ndarray) -> bool:
    """Whether, for some s, every rate is an integer multiple of 2**-s and every sum is below 2**(53 - s).

    The rates are non-negative and ``sums`` are their float sums, added in
    any order: once an addition rounds, its sum is at least 2**(53 - s), and
    so is every later one.  The sums bound s, and the largest s they allow
    is taken: the rates are multiples of 2**-s if they are for any smaller
    s.  Sums of 2**53 or more, or below 2**-900, are not tested.
    """
    top = float(sums.max(initial=0.0))
    e = frexp(top)[1]  # top < 2**e
    if not (isfinite(top) and -900 <= e <= 53):
        return False
    scaled = rates * 2.0 ** (53 - e)
    return bool((np.floor(scaled) == scaled).all())


def generator_matrix(
    spec: JumpModel,
    truncation: int | None = None,
    index: StateIndex | None = None,
) -> GeneratorMatrix:
    """Sparse (CSR) generator of a jump-type process.

    ``truncation`` bounds the state space of non-conserved chains (and names
    the conserved particle total for ``sip``).  A ``wf_general_1d`` model
    yields its moment dual chain.  Pass ``index`` to override the state
    enumeration, in any order, e.g. to scan conservation across sectors.

    The model's ``moves`` runs once over the whole (n, d) block of states;
    each target is ranked among the states by a mixed-radix code and a
    target outside the window is dropped.  Each row stores its rates and
    its diagonal, minus the correctly rounded sum of the rates, sorted by
    column.  No per-state Python loop runs and no n x n array is
    allocated.  An enumerated window keeps, with its targets, the rate-free
    plan of the CSR arrays: which entries are stored, where each one goes,
    and ``indices`` and ``indptr``, which the matrix shares read-only.  A
    build that stores the same entries as the plan's takes it as it is and
    only gathers its rates into ``data``.  A build whose (state, move)
    arrays would exceed physical memory raises a ``ValueError`` before any
    of them is allocated.
    """
    spec = _jump_model(spec)
    if index is None:
        index = spec.index(truncation)
    rates, targets, key, stay = _window_moves(spec, index, float)
    n = len(index)
    stored = rates > 0
    stored[:, stay] = True
    rates[:, stay] = -_row_sums(rates)
    plan = targets.plan
    if plan is None or not np.array_equal(stored, plan.mask):
        plan = targets.plan = _csr_plan(stored, targets)
        if key in _memo:
            # the plan's bytes count against the memo's budget
            _keep(key, targets, targets.nbytes)
    data = rates.ravel(order="F").take(plan.gather)
    return GeneratorMatrix(Q=sparse.csr_array((data, plan.indices, plan.indptr), shape=(n, n)), index=index)


def _csr_plan(stored: np.ndarray, targets: _Targets) -> _CsrPlan:
    """The CSR plan of the entries ``stored`` marks, over the window of ``targets``."""
    n = len(stored)
    # nonzero lists the entries row by row, each row's by column
    rows, columns = np.nonzero(stored)
    gather = columns * n + rows
    indices = targets.cols.ravel(order="F")[gather]
    if not targets.ordered:
        # rows of a lexicographic index come sorted by target; others are sorted here
        order = np.argsort(rows * n + indices)
        gather, indices = gather[order], indices[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.bincount(rows, minlength=n).cumsum()
    plan = _CsrPlan(stored, gather, indices, indptr)
    for a in plan:
        a.flags.writeable = False
    return plan


def rational_generator(spec: JumpModel, truncation: int | None = None) -> tuple[np.ndarray, int]:
    """The generator of :func:`generator_matrix` in exact rational arithmetic.

    The same ``moves`` evaluated with ``num=Fraction`` (parameters enter as
    the exact value of their float), over ``index(truncation)``, as
    ``(ints, den)``: a dense object array of Python ints over the least
    common denominator of the rates (:func:`~duality_lab.algebra._scaled`).
    """
    spec = _jump_model(spec)
    index = spec.index(truncation)
    rates, targets, _, _ = _window_moves(spec, index, Fraction)
    ints, den = _scaled(rates)
    n = len(index)
    Q = np.zeros((n, n), dtype=object)
    # a row's moves have distinct targets; a rate not taken is zero
    taken = ints != 0
    Q[taken.nonzero()[0], targets.cols[taken]] = ints[taken]
    np.fill_diagonal(Q, -ints.sum(axis=1))
    return Q, den


def _diffusion_model(spec) -> DiffusionModel:
    if not isinstance(spec, DiffusionModel):
        raise ValueError(f"{spec.kind} is not a diffusion")
    return spec


def _checked_coefficients(spec: DiffusionModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spec.coefficients(x)``, each row of ``x`` checked to be a state and
    each covariance to be positive semidefinite."""
    spec = _diffusion_model(spec)
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise ValueError(f"{spec.kind} state must have {spec.dim} coordinates")
    b, a = spec.coefficients(x)
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    bad = np.nonzero(np.linalg.eigvalsh(a).min(axis=1) < -1e-10 * scale)[0]
    if bad.size:
        raise ValueError(f"diffusion matrix not positive semidefinite at {tuple(x[bad[0]].tolist())!r}")
    return b, a


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4
# paths hashed together: chunks of _FIRST_CHUNK paths start at paths 0 and
# 256, then each chunk doubles (512 paths at 512, ..., 2,048 at 2,048) up to
# _CHUNK; each size is a power of two dividing 2**32 and the chunk's first
# path, so every path of a chunk has as many 32-bit words as its first, and
# an estimate of a few hundred paths hashes a few hundred seeds
_FIRST_CHUNK = 256
_CHUNK = 4096


def _int_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix; its multiplier steps on each call, whatever the data."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


@lru_cache(maxsize=2)
def _chunk_seeds(seed: int, first: int, size: int) -> np.ndarray:
    """PCG64 seed words of paths ``first`` to ``first + size - 1``, shape (size, 4) uint64.

    Row ``j`` equals ``SeedSequence([seed, first + j])
    .generate_state(4, np.uint64)``: the same mixing, run in uint32 arrays
    across the chunk's paths at once.  Callers walk paths in order, so two
    cached chunks cover a chunk boundary or a second seed.
    """
    path_words = _int_words(first)
    words = _int_words(seed) + path_words
    entropy = np.empty((len(words), size), dtype=np.uint32)
    entropy[:] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words) - len(path_words)] += np.arange(size, dtype=np.uint32)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(words) else zeros) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(words)):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))

    # generate_state(4, uint64): eight uint32 words, paired little-endian
    hashout = _hasher(_INIT_B, _MULT_B)
    state = np.empty((size, 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        state[:, i] = hashout(pool[i % _POOL])
    seeds = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    seeds.flags.writeable = False
    return seeds


class _PathSeed(ISeedSequence):
    """Hands PCG64 one path's precomputed seed words; nothing else is supported."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a path seed only yields PCG64's four uint64 words")
        return self._words


def path_rng(seed: int, path: int) -> np.random.Generator:
    """The random stream of one path: stream id (experiment seed, path index).

    Bit for bit ``np.random.default_rng([seed, path])``; the SeedSequence
    hash is computed for a chunk of paths at once and memoised.
    """
    seed, path = int(seed), int(path)
    if seed < 0 or path < 0:
        raise ValueError(f"stream ids must be non-negative, not ({seed}, {path})")
    size = _CHUNK if path >= _CHUNK else max(_FIRST_CHUNK, (1 << path.bit_length()) >> 1)
    first = path & -size
    words = _chunk_seeds(seed, first, size)[path - first]
    return np.random.Generator(np.random.PCG64(_PathSeed(words)))


# uniforms in one padded block of jump paths: the size of one diffusion
# block at run-mc defaults, 20 000 paths x 500 steps of 8 bytes (80 MB)
_BLOCK_FLOATS = 10_000_000


@dataclass(frozen=True, eq=False)
class _JumpTables:
    """A chain's generator and its padded per-state jump tables.

    Row ``i`` of ``cum`` holds the cumulative rates of state ``i``'s jumps
    in column order, padded with +inf; row ``i`` of ``targets`` holds the
    jumps' states and then ``i`` itself in every remaining column, the
    self-loop of the uniformized chain.
    """

    gen: GeneratorMatrix
    exit: np.ndarray
    cum: np.ndarray
    targets: np.ndarray


@lru_cache(maxsize=64)
def _cached_chain(spec: JumpModel, truncation: int | None) -> _JumpTables:
    """Generator plus, per state, its exit rate and padded jump tables."""
    gen = generator_matrix(spec, truncation)
    Q = gen.Q
    n = Q.shape[0]
    rows = np.arange(n).repeat(np.diff(Q.indptr))
    off = Q.indices != rows
    src = rows[off]
    counts = np.bincount(src, minlength=n)
    col = np.arange(src.size) - (counts.cumsum() - counts)[src]
    width = int(counts.max(initial=0))
    rates = np.zeros((n, width))
    rates[src, col] = Q.data[off]
    cum = rates.cumsum(axis=1)
    cum[np.arange(width) >= counts[:, None]] = np.inf
    targets = np.arange(n)[:, None].repeat(width + 1, axis=1)
    targets[src, col] = Q.indices[off]
    return _JumpTables(gen=gen, exit=-Q.diagonal(), cum=cum, targets=targets)


@lru_cache(maxsize=256)
def _uniform_rate(spec: JumpModel, truncation: int | None, i0: int) -> float:
    """The largest exit rate over the states reachable from state ``i0``."""
    chain = _cached_chain(spec, truncation)
    seen = np.zeros(len(chain.exit), dtype=bool)
    seen[i0] = True
    frontier = np.array([i0])
    while frontier.size:
        reached = np.unique(chain.targets[frontier])
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return float(chain.exit[seen].max())


def _uniformized_block(chain: _JumpTables, i0: int, lam: float, draws: list[np.ndarray]) -> np.ndarray:
    """End-state indices of one block of paths, each given by its uniforms.

    The uniforms sit step-major in a (steps, paths) array padded with +inf,
    which every state's table sends to its self-loop.
    """
    sizes = np.array([d.size for d in draws])
    u = np.full((sizes.max(), len(draws)), np.inf)
    # u.T is path-major, the order of the concatenated draws
    u.T[np.arange(len(u)) < sizes[:, None]] = np.concatenate(draws)
    u *= lam
    i = np.full(len(draws), i0)
    cum, width = chain.cum, chain.targets.shape[1]
    targets = chain.targets.ravel()
    for step in u:
        k = np.count_nonzero(cum.take(i, axis=0) <= step[:, None], axis=1)
        k += i * width
        i = targets.take(k)
    return i


def sample_jump(
    spec: JumpModel,
    k0: Sequence[int],
    t: float,
    rngs: Iterable[np.random.Generator],
    truncation: int | None = None,
) -> list[tuple[int, ...]]:
    """Exact endpoints at horizon t of jump-chain paths from k0, one per stream.

    Uniformization (Jensen 1953): with Λ the largest exit rate over the
    states reachable from k0, a path takes Poisson(Λt) steps of the
    discrete chain P = I + Q/Λ.  Each stream draws its step count
    ``n = rng.poisson(Λt)`` and then its uniforms ``rng.random(n)``, and
    nothing else, so a path's endpoint depends only on its own stream.  A
    step with uniform u leaves state i for the first target whose
    cumulative rate exceeds u·Λ, and stays when none does.

    ``rngs`` is read once, in order, and the steps run across a block of
    paths at once; a block's padded uniforms stay within about 80 MB.  A
    horizon whose Λt alone exceeds that is refused before any draw.
    """
    if t < 0:
        raise ValueError("horizon must be non-negative")
    state = tuple(int(v) for v in k0)
    if t == 0:
        return [state for _ in rngs]
    if truncation is None and _jump_model(spec).total_bounded:
        # the particle total is conserved or non-increasing, so the
        # starting total bounds the space
        truncation = sum(state)
    chain = _cached_chain(spec, truncation)
    try:
        i0 = chain.gen.index.pos[state]
    except KeyError:
        raise ValueError(f"state {state} is outside the enumerated space") from None
    lam = _uniform_rate(spec, truncation, i0)
    mean_steps = lam * t
    if mean_steps > _BLOCK_FLOATS:
        raise ValueError(
            f"Λ·t = {mean_steps:.4g} uniformization steps a path exceed the {_BLOCK_FLOATS} uniforms of a block"
        )
    if lam == 0:
        # nothing reachable moves: the start is absorbing
        return [state for _ in rngs]
    ends: list[np.ndarray] = []
    block: list[np.ndarray] = []
    longest = 0
    for rng in rngs:
        draws = rng.random(rng.poisson(mean_steps))
        longest = max(longest, draws.size)
        if block and (len(block) + 1) * longest > _BLOCK_FLOATS:
            ends.append(_uniformized_block(chain, i0, lam, block))
            block, longest = [], draws.size
        block.append(draws)
    if block:
        ends.append(_uniformized_block(chain, i0, lam, block))
    states = chain.gen.index.states
    return [states[i] for i in np.concatenate(ends).tolist()] if ends else []


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
        # (x + drift*h) + noise, formed in the model's fresh arrays by the
        # same operations in the same order, so with the same bits
        drift, cov = spec._drift_covariance(x)
        if cov.ndim == 2:
            noise = np.maximum(cov, 0.0, out=cov)
            noise *= h
            np.sqrt(noise, out=noise)
            noise *= z
        else:
            noise = np.einsum("pij,pj->pi", _psd_sqrt_batch(cov), z)
            noise *= sqrt(h)
        drift *= h
        drift += x
        drift += noise
        x = spec.project(drift, x)
        # min propagates a NaN
        if np.isnan(x.min()):
            raise FloatingPointError("NaN encountered along a diffusion path")
    return x


# paths whose normals are drawn path-major into one tile, then copied into
# the step-major block with one transposed assignment; at 500 steps a tile
# is 1 MB, and the copy reads 256 rows at once
_TILE = 256


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
    array in one buffer reused from block to block.  A tile of paths is
    drawn path-major and copied into the block's columns; the result does
    not depend on the block partition.  A block and tile larger than
    physical memory are refused before any draw.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, not {n_paths}")
    if block < 1:
        raise ValueError(f"block must be >= 1, not {block}")
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
    width = min(block, n_paths)
    tile_width = min(_TILE, width)
    need = (width + tile_width) * steps * dim * 8
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"the normals of {width} paths x {steps} steps x {dim} coordinates need about {need} bytes, "
            f"more than the {memory} bytes of physical memory"
        )
    buffer = np.empty(width * steps * dim)
    tile = np.empty((tile_width, steps, dim))
    out = np.empty((n_paths, dim))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        normals = buffer[: (stop - start) * steps * dim].reshape(steps, stop - start, dim)
        for lo in range(start, stop, tile_width):
            hi = min(lo + tile_width, stop)
            for row, i in zip(tile, range(lo, hi)):
                if not antithetic:
                    path_rng(seed, i).standard_normal((steps, dim), out=row)
                elif i % 2 == 0:
                    path_rng(seed, i // 2).standard_normal((steps, dim), out=row)
                    base = row
                else:
                    # the pair's even path may close the previous tile or
                    # block; its row is not overwritten before this one
                    np.negative(base, out=row)
            normals[:, lo - start : hi - start] = tile[: hi - lo].transpose(1, 0, 2)
        out[start:stop] = _em_run(spec, x0v, t, dt, normals)
    return out
