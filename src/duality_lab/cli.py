"""Command-line driver: verification suites from declarative JSON configs.

Usage::

    duality-lab <command> --config <path> [--out <dir>] [--format csv|json]
                [--seed <u64>]

Commands: ``check-algebra``, ``check-exact``, ``check-pointwise``,
``run-mc``, ``reproduce-examples``.  Flag overrides win over config-file
values; unknown config keys, values of another JSON type than the key's
default, numbers below the key's floor, names outside a key's choices
(such as an unknown ``run-mc`` experiment) and empty lists are rejected.
Each command yields its report rows; machine output goes to
``<out>/report.csv`` (or ``report.json``), wall-clock info to
``<out>/run.log``.  Exit status 0 when every row with a ``passed`` cell
passed (``reproduce-examples`` rows have none), 1 on runtime failure, 2 on
config validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb, inf, isfinite
from pathlib import Path
from typing import Iterator

import numpy as np

from . import algebra, dualities, exact, montecarlo, processes, reporting

CHECK_COLUMNS = ["suite", "check", "params", "value", "tolerance", "passed"]
MC_COLUMNS = [
    "experiment",
    "params",
    "lhs_mean",
    "lhs_se",
    "lhs_n",
    "rhs_mean",
    "rhs_se",
    "rhs_n",
    "z",
    "tolerance_multiplier",
    "bias_budget",
    "passed",
]
EXAMPLE_COLUMNS = ["id", "closed_form_value", "oracle_value", "abs_diff"]

DEFAULTS: dict[str, dict] = {
    "check-algebra": {
        "order": 12,
        "finite_N": 8,
        "m": 1.5,
        "binomial_N": 12,
        "seed": 20240601,
        "tolerance": 1e-10,
    },
    "check-exact": {
        "rational_N_max": 10,
        "float_N_max": 20,
        "self_dual_N_max": 6,
        "m_values": "1,2,3",
        "theta": 0.5,
        "wf_moran_N": 3,
        "semigroup_times": "0.1,1,5",
        "tolerance": 1e-10,
        "semigroup_tolerance": 1e-8,
    },
    "check-pointwise": {
        "theta": 0.7,
        "sigma": 0.4,
        "max_degree": 6,
        "x_grid": "0.1,0.3,0.5,0.7,0.9",
        "xy_grid": "-1,0,1",
        "halfline_grid": "0.0,0.5,1.5",
        "c1": 0.8,
        "c2": 0.6,
        "c3": 0.9,
        "tolerance": 1e-9,
    },
    "run-mc": {
        "experiment": "heterozygosity",
        "x0": 0.3,
        "theta": 0.5,
        "N": 3,
        "frozen": "2,1",
        "n": 2,
        "t": 0.5,
        "dt": 1e-3,
        "n_paths": 100000,
        "seed": 20240601,
        "tolerance_multiplier": 3.0,
        "bias_budget_dt_multiple": 5.0,
        "antithetic": False,
    },
    "reproduce-examples": {"x": 0.3, "y": 0.7, "t": 0.5, "d": 3},
}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip() != "")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip() != "")


def _row(suite: str, check: str, params: str, value: float, tol: float) -> dict:
    return {
        "suite": suite,
        "check": check,
        "params": params,
        "value": float(value),
        "tolerance": tol,
        "passed": bool(value <= tol),
    }


# ---------------------------------------------------------------------------
# check-algebra
# ---------------------------------------------------------------------------


def _hypergeometric_matrix(N: int) -> np.ndarray:
    """The hypergeometric duality's matrix between the Moran chain of size N and block counting."""
    basis = algebra.Basis("falling-factorial", N + 1, N=N)
    return dualities.HypergeometricFinite(N).matrix(basis, basis)


def run_check_algebra(cfg: dict) -> Iterator[dict]:
    tol = cfg["tolerance"]
    M = cfg["order"]
    N = cfg["finite_N"]
    m = cfg["m"]

    sets = [
        algebra.build_representation("heisenberg-continuous", M),
        algebra.build_representation("heisenberg-discrete", M),
        algebra.build_representation("heisenberg-finite-N", N, N=N),
        algebra.build_representation("su11-continuous", M, m=m),
        algebra.build_representation("su11-discrete", M, m=m),
    ]
    cont, disc, _, cont11, disc11 = sets
    for opset in sets:
        params = f"M={opset.basis.size - 1}" + (f",m={opset.m}" if opset.m is not None else "")
        for rep in algebra.check_commutation_relations(opset):
            yield _row("commutation", f"{opset.family}: {rep.identity}", params, rep.max_abs_residual, tol)

    # gauged Gaussian ladder pair and its Hermite intertwiner
    size = M + 1
    A = cont.ops["lower"]
    X = cont.ops["raise"]
    low = 0.5 * A
    rai = 2.0 * X - A
    comm = algebra.commutator(low, rai) - np.eye(size)
    yield _row("commutation", "gauss-ladder: [lower,raise] - I", f"M={M}", float(np.abs(comm[: M - 1, : M - 1]).max()), tol)
    H = dualities.HermiteWeighted().matrix(cont.basis, disc.basis)
    rep = algebra.check_intertwiner(low, disc.ops["lower"], H, identity="gauss lower vs occupation lower")
    yield _row("intertwiner", rep.identity, f"M={M}", rep.max_abs_residual, tol)
    rep = algebra.check_intertwiner(rai, disc.ops["raise"], H, cols=slice(0, M), identity="gauss raise vs occupation raise")
    yield _row("intertwiner", rep.identity, f"M={M}", rep.max_abs_residual, tol)

    # neutral diffusion on monomials vs block counting, identity duality;
    # x(1-x) f'' is twice the mutation-free Wright-Fisher generator
    K = 2.0 * exact.wf_monomial_matrix(0.0, M)
    kingman = processes.generator_matrix(processes.kingman_block(n_max=M))
    rep = algebra.check_intertwiner(
        K, kingman.Q, dualities.Monomial().matrix(cont.basis, disc.basis), rows=slice(0, M - 1), cols=slice(0, M - 1),
        identity="neutral diffusion vs block counting",
    )
    yield _row("intertwiner", rep.identity, f"M={M}", rep.max_abs_residual, tol)

    # finite population vs block counting with the falling-factorial matrix
    moran, kingmanN = (processes.generator_matrix(model) for model in exact.moran_block_counting(N))
    D = _hypergeometric_matrix(N)
    rep = algebra.check_intertwiner(moran.Q, kingmanN.Q, D, identity="moran vs block counting")
    yield _row("intertwiner", rep.identity, f"N={N}", rep.max_abs_residual, tol)

    # su(1,1) continuous vs discrete through the diagonal gamma-ratio matrix
    Dg = dualities.GammaWeighted(m).matrix(cont11.basis, disc11.basis)
    for name in ("lower", "raise", "number"):
        rep = algebra.check_intertwiner(
            cont11.ops[name],
            disc11.ops[name],
            Dg,
            rows=slice(0, M - 1),
            cols=slice(0, M - 1),
            identity=f"su11 {name} vs discrete {name}",
        )
        yield _row("intertwiner", rep.identity, f"M={M},m={m}", rep.max_abs_residual, tol)

    # binomial mixture of the falling-factorial polynomials gives plain powers
    NB = cfg["binomial_N"]
    worst = 0.0
    for rho in (0.1, 0.5, 0.9):
        pmf = np.array([comb(NB, k) * rho**k * (1 - rho) ** (NB - k) for k in range(NB + 1)])
        DN = _hypergeometric_matrix(NB)
        got = pmf @ DN
        want = np.array([rho**n for n in range(NB + 1)])
        worst = max(worst, float(np.abs(got - want).max()))
    yield _row("binomial-transform", "mixture equals powers", f"N={NB}", worst, tol)

    ft = np.arange(NB + 1, dtype=float)
    coefs = algebra.binomial_transform(ft, NB)
    want = np.zeros(NB + 1)
    want[1] = NB
    yield _row("binomial-transform", "transform of f(k)=k", f"N={NB}", float(np.abs(coefs - want).max()), tol)

    # two intertwiners for one pair differ by a symmetry commuting with K
    rng = np.random.default_rng(cfg["seed"])
    K5 = rng.normal(size=(5, 5))
    D5 = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    Khat5 = np.linalg.solve(D5, K5 @ D5).T
    S = 0.7 * np.eye(5) + 0.25 * K5 + 0.05 * K5 @ K5
    D5p = S @ D5
    r1 = float(np.abs(K5 @ D5p - D5p @ Khat5.T).max())
    S_rec = D5p @ np.linalg.inv(D5)
    r2 = float(np.abs(algebra.commutator(S_rec, K5)).max())
    scale = float(np.abs(K5 @ D5p).max())
    yield _row("symmetry", "transformed duality stays an intertwiner", "size=5", r1 / scale, tol)
    yield _row("symmetry", "intertwiner ratio commutes with K", "size=5", r2 / scale, tol)


# ---------------------------------------------------------------------------
# check-exact
# ---------------------------------------------------------------------------


def run_check_exact(cfg: dict) -> Iterator[dict]:
    tol = cfg["tolerance"]

    for N in range(2, cfg["rational_N_max"] + 1):
        direct, d = processes.rational_generator(exact.moran_block_counting(N)[0])
        resid = exact.moran_kingman_residual_exact(N, (direct, d))
        yield _row("moran-kingman", "rational residual is exactly zero", f"N={N}", float(resid), 0.0)
        ladder, l = exact.moran_ladder_product_exact(N)
        diff = Fraction(abs(d * ladder - l * direct).max(), l * d)
        yield _row("moran-kingman", "ladder product equals rate matrix (rational)", f"N={N}", float(diff), 0.0)

    for N in range(2, cfg["float_N_max"] + 1):
        moran, kingman = (processes.generator_matrix(model) for model in exact.moran_block_counting(N))
        D = _hypergeometric_matrix(N)
        rep = exact.check_generator_duality(moran, kingman, D, name="moran vs block counting")
        yield _row("moran-kingman", rep.identity, f"N={N}", rep.max_abs_residual, tol)

    # inclusion-process self-duality, same sector (diagonal) and across sectors
    for m in _floats(cfg["m_values"]):
        for N in range(2, cfg["self_dual_N_max"] + 1):
            gen = processes.generator_matrix(processes.sip(2, m), truncation=N)
            Dbar = exact.sip_self_duality_matrix(gen.index, gen.index, m)
            rep = exact.check_generator_duality(gen, gen, Dbar, name="self-duality, same sector")
            yield _row("self-duality", rep.identity, f"d=2,N={N},m={m}", rep.max_abs_residual, tol)
        genN = processes.generator_matrix(processes.sip(2, m), truncation=5)
        genn = processes.generator_matrix(processes.sip(2, m), truncation=2)
        Dcross = exact.sip_self_duality_matrix(genN.index, genn.index, m)
        rep = exact.check_generator_duality(genN, genn, Dcross, name="self-duality, across sectors")
        yield _row("self-duality", rep.identity, f"d=2,N=5,n=2,m={m}", rep.max_abs_residual, tol)

    # two-type diffusion-with-mutation vs finite population, exact matrices
    theta = cfg["theta"]
    N = cfg["wf_moran_N"]
    L = exact.wf_monomial_matrix(theta, N)
    moranN = processes.generator_matrix(processes.moran_multitype(N, 2, theta))
    Dwm = exact.wf_moran_duality_matrix(N, theta)
    rep = exact.check_generator_duality(L, moranN, Dwm, name="diffusion-with-mutation vs finite population")
    yield _row("wf-moran", rep.identity, f"N={N},theta={theta}", rep.max_abs_residual, tol)

    # generator duality propagates to the semigroups
    N = 6
    moran, kingman = (processes.generator_matrix(model) for model in exact.moran_block_counting(N))
    D = _hypergeometric_matrix(N)
    for t in _floats(cfg["semigroup_times"]):
        lhs = exact.matrix_exponential_apply(moran, D, t)
        rhs = (exact.matrix_exponential_apply(kingman, D.T, t)).T
        resid = float(np.abs(lhs - rhs).max())
        yield _row("semigroup", "exp(tK) D equals D exp(tK_hat)^T", f"N={N},t={t}", resid, cfg["semigroup_tolerance"])

    # stochasticity and positivity under the exponential
    gens = {
        "sip(d=2,m=1),N=4": processes.generator_matrix(processes.sip(2, 1.0), truncation=4),
        "block-counting(theta=0.7,sigma=0.3)": processes.generator_matrix(
            processes.kingman_block(theta=0.7, sigma=0.3, n_max=30)
        ),
    }
    for label, gen in gens.items():
        ones = np.ones(len(gen.index))
        moved = exact.matrix_exponential_apply(gen, ones, 1.0)
        yield _row("stochasticity", "exp(tQ) preserves the constant", label, float(np.abs(moved - 1.0).max()), tol)
        start = np.zeros(len(gen.index))
        start[len(gen.index) // 2] = 1.0
        probs = exact.matrix_exponential_apply(gen, start, 1.0, transpose=True)
        yield _row("stochasticity", "probabilities stay non-negative", label, float(max(0.0, -probs.min())), 1e-12)

    # assertable worked examples (two-type heterozygosity decay)
    for t in (0.25, 0.5, 1.0):
        rec = exact.reproduce_example("heterozygosity", t=t)
        yield _row("examples", "heterozygosity oracle equals closed form", f"t={t}", rec.abs_diff, tol)


# ---------------------------------------------------------------------------
# check-pointwise
# ---------------------------------------------------------------------------


def run_check_pointwise(cfg: dict) -> Iterator[dict]:
    tol = cfg["tolerance"]
    xs = _floats(cfg["x_grid"])
    degrees = list(range(cfg["max_degree"] + 1))
    theta = cfg["theta"]
    sigma = cfg["sigma"]

    neutral = processes.wf_general_1d({1: 1.0, 2: -1.0})
    mutation = processes.wf_general_1d({1: 1.0, 2: -1.0}, {0: theta, 1: -theta})
    neg_sel = processes.wf_general_1d({1: 1.0, 2: -1.0}, {1: -sigma, 2: sigma})
    # positive selection pairs with the mirrored power duality
    pos_sel = exact.Operator1D(
        alpha=lambda x: x * (1.0 - x),
        beta=lambda x: sigma * x * (1.0 - x),
    )
    # both selection diffusions pair with one birth-death chain
    selection_chain = processes.kingman_block(sigma=sigma)
    pairs = [
        ("neutral vs block counting", neutral, processes.kingman_block(), dualities.Monomial()),
        ("mutation vs block counting + mutation", mutation, processes.kingman_block(theta=theta), dualities.Monomial()),
        ("negative selection vs birth-death dual", neg_sel, selection_chain, dualities.Monomial()),
        ("positive selection vs birth-death dual", pos_sel, selection_chain, dualities.MirrorMonomial()),
    ]
    for label, left, chain, D in pairs:
        rep = exact.check_pointwise_duality(left, chain, D, xs, degrees, identity=label)
        yield _row("moment-dual", rep.identity, f"degrees<= {degrees[-1]}", rep.max_abs_residual, tol)

    # exponential duality: Laplacian vs multiplication
    grid = _floats(cfg["xy_grid"])
    left = exact.Operator1D(alpha=lambda x: 0.5, beta=lambda x: 0.0)
    right = exact.Operator1D(alpha=lambda y: 0.0, beta=lambda y: 0.0, gamma=lambda y: 0.5 * y * y)
    rep = exact.check_pointwise_duality(left, right, dualities.Exponential(), grid, grid, identity="half Laplacian vs quadratic multiplication")
    yield _row("exponential", rep.identity, f"grid={cfg['xy_grid']}", rep.max_abs_residual, tol)

    # exponential duality: square-root-type diffusion pair on the half line
    c1, c2, c3 = cfg["c1"], cfg["c2"], cfg["c3"]
    hgrid = _floats(cfg["halfline_grid"])
    left = exact.Operator1D(alpha=lambda x: c1 * x * x + c2 * x, beta=lambda x: c3 * x)
    right = exact.Operator1D(alpha=lambda y: c1 * y * y, beta=lambda y: c2 * y * y + c3 * y)
    rep = exact.check_pointwise_duality(left, right, dualities.Exponential(), hgrid, hgrid, identity="half-line diffusion pair")
    yield _row("exponential", rep.identity, f"c=({c1},{c2},{c3})", rep.max_abs_residual, tol)

    self_dual = exact.Operator1D(alpha=lambda x: c1 * x * x, beta=lambda x: c3 * x)
    rep = exact.check_pointwise_duality(self_dual, self_dual, dualities.Exponential(), hgrid, hgrid, identity="self-dual half-line diffusion")
    yield _row("exponential", rep.identity, f"c=({c1},0,{c3})", rep.max_abs_residual, tol)

    # stepping stone vs migration/coalescence dual, product powers duality
    kernels = {
        "symmetric": ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
        "asymmetric": ((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2)),
    }
    x_points = ((0.2, 0.5, 0.8), (0.4, 0.1, 0.9), (0.7, 0.7, 0.2))
    n_points = ((0, 0, 0), (1, 0, 2), (2, 1, 1), (3, 2, 0))
    for label, kern in kernels.items():
        rep = exact.check_pointwise_duality(
            processes.stepping_stone_forward(kern), processes.stepping_stone_dual(kern), dualities.Monomial(), x_points, n_points
        )
        yield _row("stepping-stone", "forward vs dual chain", label, rep.max_abs_residual, tol)


# ---------------------------------------------------------------------------
# run-mc
# ---------------------------------------------------------------------------


def run_run_mc(cfg: dict) -> Iterator[dict]:
    experiment = cfg["experiment"]
    t = cfg["t"]
    dt = cfg["dt"]
    est_cfg = montecarlo.EstimatorConfig(
        n_paths=cfg["n_paths"],
        seed=cfg["seed"],
        dt=dt,
        t=t,
        antithetic=cfg["antithetic"],
    )
    budget = cfg["bias_budget_dt_multiple"] * dt
    x0 = cfg["x0"]

    if experiment == "heterozygosity":
        spec = processes.wf_multitype(2, 0.0)
        family = dualities.DualityFamily("limiting-sip")
        side = montecarlo.estimate_duality_side(spec, family, (x0,), (1, 1), t, est_cfg)
        oracle = exact.reproduce_example("heterozygosity", x=x0, y=1.0 - x0, t=t).oracle_value
        params = f"x0={x0},t={t},dt={dt}"
    elif experiment == "wf-vs-moran":
        theta = cfg["theta"]
        N = cfg["N"]
        frozen = _ints(cfg["frozen"])
        spec = processes.wf_multitype(2, theta)
        family = dualities.DualityFamily("product-gamma", theta=theta, d=2)
        side = montecarlo.estimate_duality_side(spec, family, (x0,), frozen, t, est_cfg)
        gen = processes.generator_matrix(processes.moran_multitype(N, 2, theta))
        f = np.array([dualities.evaluate_at(family, (x0, 1.0 - x0), (k[0], N - k[0])) for k in gen.index.states])
        oracle = exact.exact_expectation(gen, f, (frozen[0],), t).value
        params = f"x0={x0},theta={theta},N={N},frozen={cfg['frozen']},t={t},dt={dt}"
    else:  # wf-moment-vs-kingman
        n = cfg["n"]
        spec = processes.wf_general_1d({1: 1.0, 2: -1.0})
        family = dualities.DualityFamily("monomial")
        side = montecarlo.estimate_duality_side(spec, family, (x0,), (n,), t, est_cfg)
        gen = processes.generator_matrix(processes.kingman_block(n_max=max(2 * n, 4)))
        f = np.array([dualities.evaluate_at(family, (x0,), state) for state in gen.index.states])
        oracle = exact.exact_expectation(gen, f, (n,), t).value
        params = f"x0={x0},n={n},t={t},dt={dt}"

    report = montecarlo.compare(side, oracle, tolerance_multiplier=cfg["tolerance_multiplier"], bias_budget=budget)
    yield {"experiment": experiment, "params": params, **report.as_row()}


def run_reproduce_examples(cfg: dict) -> Iterator[dict]:
    for example_id in exact.EXAMPLE_IDS:
        rec = exact.reproduce_example(example_id, x=cfg["x"], y=cfg["y"], t=cfg["t"], d=cfg["d"])
        yield {
            "id": rec.id,
            "closed_form_value": rec.closed_form_value,
            "oracle_value": rec.oracle_value,
            "abs_diff": rec.abs_diff,
        }


# command -> (row generator, report columns)
RUNNERS = {
    "check-algebra": (run_check_algebra, CHECK_COLUMNS),
    "check-exact": (run_check_exact, CHECK_COLUMNS),
    "check-pointwise": (run_check_pointwise, CHECK_COLUMNS),
    "run-mc": (run_run_mc, MC_COLUMNS),
    "reproduce-examples": (run_reproduce_examples, EXAMPLE_COLUMNS),
}

# the smallest value of each numeric key; below it a suite dies on an empty
# array, passes with its checks gone, or loosens its own verdict
_MINIMA: dict[str, dict[str, float]] = {
    "check-algebra": {"order": 2, "finite_N": 1, "binomial_N": 1, "seed": 0},
    "check-exact": {"rational_N_max": 2, "float_N_max": 2, "self_dual_N_max": 2, "wf_moran_N": 1},
    "check-pointwise": {"max_degree": 0},
    "run-mc": {"seed": 0, "n": 1, "tolerance_multiplier": 0.0, "bias_budget_dt_multiple": 0.0},
    "reproduce-examples": {"d": 2},
}
# keys that must be strictly positive: at t = 0 run-mc compares the start with itself
_POSITIVE: dict[str, tuple[str, ...]] = {"run-mc": ("t",)}
# string keys that must name one of the listed choices
_CHOICES: dict[str, dict[str, tuple[str, ...]]] = {
    "run-mc": {"experiment": ("heterozygosity", "wf-vs-moran", "wf-moment-vs-kingman")},
}
# comma-separated lists that must name at least one number
_NONEMPTY_LISTS: dict[str, tuple[str, ...]] = {
    "check-exact": ("m_values", "semigroup_times"),
    "check-pointwise": ("x_grid", "xy_grid", "halfline_grid"),
}

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _typed(key: str, value, default):
    """``value`` if it has the JSON type of ``default``; integers are taken for floats."""
    if type(default) is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = inf  # too large to be finite: rejected below
    if type(value) is not type(default) or (type(value) is float and not isfinite(value)):
        raise ValueError(f"config key {key!r} must be {_JSON_TYPES[type(default)]}, not {json.dumps(value)}")
    return value


def resolve_config(command: str, config_path: str | None, seed: int | None) -> dict:
    """The defaults of ``command`` updated from the config file and ``--seed``.

    Every value the file sets must have the JSON type of the key's default:
    a boolean, an integer that is not a boolean, a finite number (stored as
    a float) or a string.  Keys with a floor in ``_MINIMA`` must reach it,
    keys in ``_POSITIVE`` must exceed zero, keys in ``_CHOICES`` must name
    one of their choices, and the lists in ``_NONEMPTY_LISTS`` must name a
    number.  The wf-vs-moran run's ``frozen`` must list two type counts
    summing to ``N``.  Anything else raises ``ValueError`` naming the key.
    """
    cfg = dict(DEFAULTS[command])
    if config_path is not None:
        text = Path(config_path).read_text(encoding="utf-8")
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object of scalars")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {', '.join(unknown)}")
        cfg.update({key: _typed(key, value, cfg[key]) for key, value in loaded.items()})
    if seed is not None:
        if "seed" not in cfg:
            raise ValueError(f"{command} takes no seed")
        cfg["seed"] = int(seed)
    for key, least in _MINIMA.get(command, {}).items():
        if cfg[key] < least:
            raise ValueError(f"config key {key!r} must be at least {least}, not {cfg[key]}")
    for key in _POSITIVE.get(command, ()):
        if cfg[key] <= 0:
            raise ValueError(f"config key {key!r} must be positive, not {cfg[key]}")
    for key, choices in _CHOICES.get(command, {}).items():
        if cfg[key] not in choices:
            raise ValueError(f"config key {key!r} must be one of {', '.join(choices)}, not {cfg[key]!r}")
    for key in _NONEMPTY_LISTS.get(command, ()):
        try:
            values = _floats(cfg[key])
        except ValueError:
            values = ()
        if not values:
            raise ValueError(f"config key {key!r} must list at least one number, not {cfg[key]!r}")
    if command == "run-mc" and cfg["experiment"] == "wf-vs-moran":
        try:
            frozen = _ints(cfg["frozen"])
        except ValueError:
            frozen = ()
        if len(frozen) != 2 or sum(frozen) != cfg["N"]:
            raise ValueError("frozen must list both type counts and sum to N")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="duality-lab", description=__doc__)
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", help="JSON config file (flat object of scalars)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--format", default="csv", choices=["csv", "json"], dest="fmt")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(args.command, args.config, args.seed)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    runner, columns = RUNNERS[args.command]
    out_dir = Path(args.out)
    # opened before the run, so an unusable --out or run.log fails before any work
    try:
        log = reporting.RunLog(out_dir / "run.log")
    except OSError as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1
    with log:
        log.add(f"command={args.command}")
        log.add("config=" + reporting.canonical_config(cfg))
        try:
            rows = list(runner(cfg))
            target = reporting.write_report(out_dir, args.fmt, columns, rows, cfg)
        except Exception as err:  # noqa: BLE001 - the CLI boundary reports and exits
            log.add(f"runtime failure: {err!r}")
            print(f"runtime failure: {err}", file=sys.stderr)
            return 1
        passed = all(row["passed"] for row in rows if "passed" in row)
        log.add(f"wrote {target.name} with {len(rows)} rows")
        log.add("passed" if passed else "failed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
