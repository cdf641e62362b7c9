"""Process specifications, generator matrices and trajectory samplers.

Covered processes:

* one-dimensional diffusions on [0, 1] with polynomial coefficients
  subject to the sign/balance conditions that make their moment dual a
  Markov chain (``wf-general-1d``), including the neutral, mutation and
  selection Wright-Fisher generators;
* the d-type Wright-Fisher diffusion with symmetric parent-independent
  mutation (``wf-multitype``) and the Brownian energy process (``bep``);
* the d-type Moran model (``moran-multitype``) and the symmetric inclusion
  process (``sip``);
* the coalescent block-counting chain with mutation down-jumps and
  selection up-jumps (``kingman-block``);
* the stepping-stone diffusion on a finite site set and its dual
  migration/coalescence chain (``stepping-stone-forward`` / ``-dual``).

Jump chains are realized as sparse (CSR) rate matrices over an enumerated
state space: every chain here moves one particle or one count per jump, so
a row holds a handful of rates however many states there are, and a dense
n x n array would spend memory and time quadratic in n on zeros.  The
samplers read the same rows through per-state cumulative tables.
Diffusions expose drift/covariance coefficients and seeded Euler-Maruyama
sampling.  Specs and generators are immutable after construction;
samplers are pure given their random stream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb, floor, fsum, sqrt
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "ProcessSpec",
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
    "drift_diffusion",
    "sample_jump",
    "sample_diffusion",
    "diffusion_endpoints",
    "path_rng",
    "DIFFUSION_KINDS",
    "JUMP_KINDS",
]

DIFFUSION_KINDS = ("wf-general-1d", "wf-multitype", "bep", "stepping-stone-forward")
JUMP_KINDS = ("moran-multitype", "sip", "kingman-block", "stepping-stone-dual")

_STATE_LIMIT = 5_000_000
_COEF_TOL = 1e-12


@dataclass(frozen=True)
class ProcessSpec:
    """Validated description of one process; build via the module factories."""

    kind: str
    d: int | None = None
    N: int | None = None
    m: float | None = None
    theta: float | None = None
    sigma: float | None = None
    n_max: int | None = None
    rate_scale: float = 1.0
    alpha: tuple[tuple[int, float], ...] | None = None
    beta: tuple[tuple[int, float], ...] | None = None
    kernel: tuple[tuple[float, ...], ...] | None = None

    @property
    def is_diffusion(self) -> bool:
        return self.kind in DIFFUSION_KINDS

    @property
    def is_jump(self) -> bool:
        return self.kind in JUMP_KINDS


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


def wf_general_1d(
    alpha: dict[int, float] | Sequence[tuple[int, float]],
    beta: dict[int, float] | Sequence[tuple[int, float]] = (),
) -> ProcessSpec:
    """Diffusion on [0, 1] with generator ``alpha(x) d^2/dx^2 + beta(x) d/dx``.

    ``alpha`` maps powers k >= 1 to coefficients, ``beta`` maps powers
    k >= 0.  Validation enforces the balance conditions (the k = 2 and k = 1
    coefficients equal minus the rest, all others non-negative) under which
    the moment dual is a continuous-time Markov chain.
    """
    alpha = dict(alpha)
    beta = dict(beta)
    if not alpha:
        raise ValueError("alpha must contain at least one coefficient")
    if any(k < 1 for k in alpha):
        raise ValueError("alpha powers start at k = 1")
    if any(k < 0 for k in beta):
        raise ValueError("beta powers start at k = 0")
    _validate_balance(alpha, 2, "alpha")
    if beta:
        _validate_balance(beta, 1, "beta")
    return ProcessSpec(
        kind="wf-general-1d",
        alpha=tuple(sorted((int(k), float(v)) for k, v in alpha.items())),
        beta=tuple(sorted((int(k), float(v)) for k, v in beta.items())),
    )


def wf_multitype(d: int, theta: float) -> ProcessSpec:
    if d < 2:
        raise ValueError("wf-multitype needs d >= 2")
    if theta < 0:
        raise ValueError("mutation rate theta must be >= 0")
    return ProcessSpec(kind="wf-multitype", d=d, theta=float(theta))


def moran_multitype(N: int, d: int, theta: float, rate_scale: float = 1.0) -> ProcessSpec:
    """d-type Moran model with population N and mutation rate theta.

    ``rate_scale`` multiplies every jump rate.  The default matches the
    d-type definition (resampling rate 1/2 per ordered pair); the two-type
    chain whose duality with the rate n(n-1) block-counting process is an
    exact identity runs twice as fast, ``rate_scale=2``.
    """
    if N < 1 or d < 2 or theta < 0:
        raise ValueError("moran-multitype needs N >= 1, d >= 2, theta >= 0")
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    return ProcessSpec(kind="moran-multitype", N=N, d=d, theta=float(theta), rate_scale=float(rate_scale))


def sip(d: int, m: float) -> ProcessSpec:
    if d < 2 or m < 0:
        raise ValueError("sip needs d >= 2 and m >= 0")
    return ProcessSpec(kind="sip", d=d, m=float(m))


def bep(d: int, m: float) -> ProcessSpec:
    if d < 2 or m < 0:
        raise ValueError("bep needs d >= 2 and m >= 0")
    return ProcessSpec(kind="bep", d=d, m=float(m))


def kingman_block(theta: float = 0.0, sigma: float = 0.0, n_max: int = 200) -> ProcessSpec:
    """Block-counting chain: rate n(n-1)+theta*n down, sigma*n up."""
    if theta < 0 or sigma < 0 or n_max < 1:
        raise ValueError("kingman-block needs theta, sigma >= 0 and n_max >= 1")
    return ProcessSpec(kind="kingman-block", theta=float(theta), sigma=float(sigma), n_max=n_max)


def _validate_kernel(kernel: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    P = np.asarray(kernel, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise ValueError("kernel must be a square matrix over at least two sites")
    off = P.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        raise ValueError("off-diagonal kernel entries must be non-negative")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > _COEF_TOL):
        raise ValueError("kernel rows must sum to one")
    return tuple(tuple(float(v) for v in row) for row in P)


def stepping_stone_forward(kernel: Sequence[Sequence[float]]) -> ProcessSpec:
    k = _validate_kernel(kernel)
    if len(k) > 16:
        raise ValueError("stepping-stone-forward supports at most 16 sites")
    return ProcessSpec(kind="stepping-stone-forward", kernel=k)


def stepping_stone_dual(kernel: Sequence[Sequence[float]]) -> ProcessSpec:
    return ProcessSpec(kind="stepping-stone-dual", kernel=_validate_kernel(kernel))


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


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Sparse rate matrix over an enumerated state space.

    ``Q`` is a ``scipy.sparse.csr_array`` with sorted column indices and the
    diagonal stored in every row.  Call ``Q.toarray()`` where a dense copy
    is needed.
    """

    Q: sparse.csr_array
    index: StateIndex
    conserved: str | None = None

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


def _rates_from_state(spec: ProcessSpec, k: tuple[int, ...]) -> list[tuple[tuple[int, ...], float]]:
    """All transitions out of one state with their rates."""
    kind = spec.kind
    out: list[tuple[tuple[int, ...], float]] = []
    if kind == "sip":
        m = spec.m or 0.0
        d = len(k)
        for i in range(d):
            if k[i] == 0:
                continue
            for j in range(d):
                if i == j:
                    continue
                rate = 0.5 * k[i] * (k[j] + m / 2.0)
                if rate > 0:
                    target = list(k)
                    target[i] -= 1
                    target[j] += 1
                    out.append((tuple(target), rate))
    elif kind == "moran-multitype":
        # state lists the first d-1 type counts; the last type is implicit
        assert spec.N is not None and spec.d is not None and spec.theta is not None
        N, d, theta = spec.N, spec.d, spec.theta
        scale = spec.rate_scale
        mut = 2.0 * theta / (d - 1)
        rest = N - sum(k)
        if rest < 0:
            raise ValueError("state exceeds the population size")
        for i in range(d - 1):
            for j in range(d - 1):
                if i == j:
                    continue
                # resample between explicit types i and j
                rate = scale * 0.5 * k[i] * (k[j] + mut)
                if rate > 0:
                    target = list(k)
                    target[i] -= 1
                    target[j] += 1
                    out.append((tuple(target), rate))
            up = scale * 0.5 * rest * (k[i] + mut)
            if up > 0:
                target = list(k)
                target[i] += 1
                out.append((tuple(target), up))
            down = scale * 0.5 * k[i] * (rest + mut)
            if down > 0:
                target = list(k)
                target[i] -= 1
                out.append((tuple(target), down))
    elif kind == "kingman-block":
        assert spec.theta is not None and spec.sigma is not None and spec.n_max is not None
        (n,) = k
        down = n * (n - 1) + spec.theta * n
        if down > 0:
            out.append(((n - 1,), down))
        # the up-rate is switched off at the truncation boundary
        if spec.sigma > 0 and n < spec.n_max:
            out.append(((n + 1,), spec.sigma * n))
    elif kind == "wf-general-1d":
        # moment dual of the diffusion: n -> n+k-2 at rate n(n-1) alpha_k,
        # n -> n+k-1 at rate n beta_k
        assert spec.alpha is not None and spec.n_max is not None
        (n,) = k
        for pw, coef in spec.alpha:
            if pw == 2 or coef == 0.0:
                continue
            target = n + pw - 2
            rate = n * (n - 1) * coef
            if rate > 0 and 0 <= target <= spec.n_max:
                out.append(((target,), rate))
        for pw, coef in spec.beta or ():
            if pw == 1 or coef == 0.0:
                continue
            target = n + pw - 1
            rate = n * coef
            if rate > 0 and 0 <= target <= spec.n_max:
                out.append(((target,), rate))
    elif kind == "stepping-stone-dual":
        assert spec.kernel is not None
        P = spec.kernel
        d = len(k)
        for i in range(d):
            if k[i] == 0:
                continue
            for j in range(d):
                if i == j:
                    continue
                # both kernel directions move a walker from i to j
                rate = k[i] * (P[i][j] + P[j][i])
                if rate > 0:
                    target = list(k)
                    target[i] -= 1
                    target[j] += 1
                    out.append((tuple(target), rate))
            coal = k[i] * (k[i] - 1)
            if coal > 0:
                target = list(k)
                target[i] -= 1
                out.append((tuple(target), float(coal)))
    else:
        raise ValueError(f"{kind} is not a jump-type process")
    return out


def _default_index(spec: ProcessSpec, truncation: int | None) -> StateIndex:
    kind = spec.kind
    if kind == "sip":
        if truncation is None:
            raise ValueError("sip needs the conserved particle total as truncation")
        assert spec.d is not None
        return enumerate_states(spec.d, truncation, "conserved")
    if kind == "moran-multitype":
        assert spec.d is not None and spec.N is not None
        return enumerate_states(spec.d - 1, spec.N, "down-closed")
    if kind == "kingman-block":
        n_max = truncation if truncation is not None else spec.n_max
        assert n_max is not None
        return enumerate_states(1, n_max, "down-closed")
    if kind == "wf-general-1d":
        n_max = truncation if truncation is not None else 200
        return enumerate_states(1, n_max, "down-closed")
    if kind == "stepping-stone-dual":
        if truncation is None:
            raise ValueError("stepping-stone-dual needs a particle-number truncation")
        assert spec.kernel is not None
        return enumerate_states(len(spec.kernel), truncation, "down-closed")
    raise ValueError(f"{kind} is not a jump-type process")


def generator_matrix(
    spec: ProcessSpec,
    truncation: int | None = None,
    index: StateIndex | None = None,
) -> GeneratorMatrix:
    """Sparse (CSR) generator of a jump-type process.

    ``truncation`` bounds the state space of non-conserved chains (and names
    the conserved particle total for ``sip``).  A ``wf-general-1d`` spec
    yields its moment dual chain.  Pass ``index`` to override the state
    enumeration, e.g. to scan conservation across sectors.

    The CSR arrays are filled in one pass over the states, with the rates
    of ``_rates_from_state`` and the diagonal set to minus the row's
    correctly rounded sum (``math.fsum``); no n x n array is allocated.
    Going through COO and ``tocsr()`` instead would add a few hundred
    microseconds per call, several times the whole build of the 5- to
    31-state chains the check commands build by the dozen.
    """
    if spec.kind == "kingman-block" and truncation is not None:
        spec = ProcessSpec(kind="kingman-block", theta=spec.theta, sigma=spec.sigma, n_max=truncation)
        truncation = None
    if spec.kind == "wf-general-1d" and truncation is not None:
        n_max = truncation
    else:
        n_max = None
    if index is None:
        index = _default_index(spec, truncation)
    if spec.kind == "wf-general-1d":
        bound = n_max if n_max is not None else index.N
        spec_for_rates = ProcessSpec(kind=spec.kind, alpha=spec.alpha, beta=spec.beta, n_max=bound)
    else:
        spec_for_rates = spec
    n = len(index)
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for i, state in enumerate(index.states):
        row: dict[int, float] = {}
        for target, rate in _rates_from_state(spec_for_rates, state):
            j = index.pos.get(target)
            if j is None:
                # transitions leaving the enumerated window are dropped
                continue
            row[j] = row.get(j, 0.0) + rate
        row[i] = -fsum(row.values())
        cols, rates = zip(*sorted(row.items()))
        indices += cols
        data += rates
        indptr.append(len(indices))
    Q = sparse.csr_array(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)), shape=(n, n)
    )
    conserved = {
        "sip": "total particle number",
        "moran-multitype": "population size (implicit last type)",
    }.get(spec.kind)
    return GeneratorMatrix(Q=Q, index=index, conserved=conserved)


# ---------------------------------------------------------------------------
# diffusion coefficients
# ---------------------------------------------------------------------------


def _poly_eval(coefs: tuple[tuple[int, float], ...], x: float) -> float:
    return sum(c * x**k for k, c in coefs)


def drift_diffusion(spec: ProcessSpec, x: Sequence[float] | float) -> tuple[np.ndarray, np.ndarray]:
    """Drift vector b and covariance matrix a at a state.

    The generator is ``(1/2) sum a_ij d_i d_j + sum b_i d_i``.  For the
    one-dimensional family written as ``alpha(x) d^2/dx^2 + beta(x) d/dx``
    this means ``a = 2 alpha`` and ``b = beta``.
    """
    if not spec.is_diffusion:
        raise ValueError(f"{spec.kind} is not a diffusion")
    kind = spec.kind
    if kind == "wf-general-1d":
        xv = float(np.asarray(x).reshape(()))
        assert spec.alpha is not None
        a = 2.0 * _poly_eval(spec.alpha, xv)
        b = _poly_eval(spec.beta or (), xv)
        amat = np.array([[a]])
        bvec = np.array([b])
    elif kind == "wf-multitype":
        assert spec.d is not None and spec.theta is not None
        xv = np.asarray(x, dtype=float)
        if xv.shape != (spec.d - 1,):
            raise ValueError("state must list the first d-1 type frequencies")
        amat = np.diag(xv) - np.outer(xv, xv)
        bvec = (spec.theta / (spec.d - 1)) * (1.0 - spec.d * xv)
    elif kind == "bep":
        assert spec.d is not None and spec.m is not None
        yv = np.asarray(x, dtype=float)
        if yv.shape != (spec.d,):
            raise ValueError("state must list all d energies")
        total = yv.sum()
        amat = total * np.diag(yv) - np.outer(yv, yv)
        bvec = (spec.m / 4.0) * (total - spec.d * yv)
    elif kind == "stepping-stone-forward":
        assert spec.kernel is not None
        P = np.asarray(spec.kernel)
        xv = np.asarray(x, dtype=float)
        if xv.shape != (P.shape[0],):
            raise ValueError("state must list one frequency per site")
        amat = np.diag(2.0 * xv * (1.0 - xv))
        bvec = P @ xv + P.T @ xv - xv * (1.0 + P.sum(axis=0))
    else:  # pragma: no cover
        raise ValueError(f"unknown diffusion kind {kind}")
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
    spec: ProcessSpec, truncation: int | None
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
        # the same normalisation as Generator.choice with p = rates / sum
        cdf = (rates / rates.sum()).cumsum()
        if cdf.size:
            cdf /= cdf[-1]
        tables.append((float(-vals[~off].sum()), cols[off].tolist(), cdf.tolist()))
    return gen, tables


def sample_jump(
    spec: ProcessSpec,
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
    if spec.kind in ("sip", "stepping-stone-dual") and truncation is None:
        # the particle total is conserved (sip) or non-increasing (dual
        # migration/coalescence), so the starting total bounds the space
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


def _em_run(spec: ProcessSpec, x0: np.ndarray, t: float, dt: float, normals: np.ndarray) -> np.ndarray:
    """Vectorized Euler-Maruyama over a batch of paths.

    ``normals`` is step-major, shape (steps, paths, dim), so step ``s``
    reads the one contiguous slab ``normals[s]``; path ``p``'s increments
    are the column ``normals[:, p]``.  The trailing step uses the remainder
    of the horizon when t is not a multiple of dt.
    """
    kind = spec.kind
    n_full, rem = _n_steps(t, dt)
    steps = n_full + (1 if rem > 0 else 0)
    npaths = normals.shape[1]
    x = np.tile(np.asarray(x0, dtype=float), (npaths, 1))
    dim = x.shape[1]
    if normals.shape != (steps, npaths, dim):
        raise ValueError("normals shape mismatch")
    for s in range(steps):
        h = dt if s < n_full else rem
        z = normals[s]
        if kind == "wf-general-1d":
            xv = x[:, 0]
            assert spec.alpha is not None
            a = 2.0 * sum(c * xv**k for k, c in spec.alpha)
            b = sum(c * xv**k for k, c in (spec.beta or ())) if spec.beta else 0.0
            xv = xv + b * h + np.sqrt(np.maximum(a, 0.0) * h) * z[:, 0]
            x[:, 0] = np.clip(xv, 0.0, 1.0)
        elif kind == "wf-multitype":
            assert spec.d is not None and spec.theta is not None
            drift = (spec.theta / (spec.d - 1)) * (1.0 - spec.d * x)
            if dim == 1:
                xv = x[:, 0]
                noise = np.sqrt(np.maximum(xv * (1.0 - xv), 0.0) * h) * z[:, 0]
                x[:, 0] = xv + drift[:, 0] * h + noise
                # one free coordinate: the clip alone keeps it on the simplex
                np.clip(x, 0.0, 1.0, out=x)
            else:
                amat = x[:, :, None] * np.eye(dim) - x[:, :, None] * x[:, None, :]
                root = _psd_sqrt_batch(amat)
                x = x + drift * h + sqrt(h) * np.einsum("pij,pj->pi", root, z)
                np.clip(x, 0.0, 1.0, out=x)
                total = x.sum(axis=1)
                over = total > 1.0
                if np.any(over):
                    x[over] /= total[over, None]
        elif kind == "bep":
            assert spec.d is not None and spec.m is not None
            total = x.sum(axis=1)
            drift = (spec.m / 4.0) * (total[:, None] - spec.d * x)
            amat = total[:, None, None] * (x[:, :, None] * np.eye(dim)) - x[:, :, None] * x[:, None, :]
            root = _psd_sqrt_batch(amat)
            x = x + drift * h + sqrt(h) * np.einsum("pij,pj->pi", root, z)
            np.clip(x, 0.0, None, out=x)
            # the dynamics conserve the total energy; restore it after the
            # clip so the identification with the simplex diffusion holds
            sums = x.sum(axis=1)
            fix = sums > 0
            x[fix] *= (total[fix] / sums[fix])[:, None]
        elif kind == "stepping-stone-forward":
            assert spec.kernel is not None
            P = np.asarray(spec.kernel)
            drift = x @ P.T + x @ P - x * (1.0 + P.sum(axis=0))
            noise = np.sqrt(np.maximum(2.0 * x * (1.0 - x), 0.0) * h) * z
            x = x + drift * h + noise
            np.clip(x, 0.0, 1.0, out=x)
        else:  # pragma: no cover
            raise ValueError(f"{kind} is not a diffusion")
        if np.any(np.isnan(x)):
            raise FloatingPointError("NaN encountered along a diffusion path")
    return x


def _diffusion_dim(spec: ProcessSpec, x0: Sequence[float] | float) -> np.ndarray:
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    expected = {
        "wf-general-1d": 1,
        "wf-multitype": (spec.d - 1) if spec.d else None,
        "bep": spec.d,
        "stepping-stone-forward": len(spec.kernel) if spec.kernel else None,
    }[spec.kind]
    if x0v.shape != (expected,):
        raise ValueError(f"initial state must have {expected} coordinates")
    return x0v


def sample_diffusion(
    spec: ProcessSpec,
    x0: Sequence[float] | float,
    t: float,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Euler-Maruyama endpoint of one path, deterministic given the stream.

    Coordinates are clipped back to their domain after every step (and
    simplex states renormalized); absorbing corners of the neutral models
    are preserved automatically because drift and noise vanish there.
    """
    if not spec.is_diffusion:
        raise ValueError(f"{spec.kind} is not a diffusion")
    x0v = _diffusion_dim(spec, x0)
    if t == 0:
        return x0v.copy()
    if dt <= 0 or dt >= t:
        raise ValueError("need 0 < dt < t")
    n_full, rem = _n_steps(t, dt)
    steps = n_full + (1 if rem > 0 else 0)
    normals = rng.standard_normal((steps, 1, x0v.size))
    return _em_run(spec, x0v, t, dt, normals)[0]


def diffusion_endpoints(
    spec: ProcessSpec,
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

    Path ``i`` draws its (steps, dim) normals from stream ``(seed, i)``;
    with ``antithetic`` the pair (2j, 2j + 1) is drawn once from stream
    ``(seed, j)`` and the odd path takes the negated increments.  Paths run
    in blocks of ``block``, each a step-major (steps, paths, dim) array
    that path ``i`` fills in its column; the result does not depend on the
    block partition.
    """
    x0v = _diffusion_dim(spec, x0)
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
