"""The benchmark's workloads: seeded op inputs, timed calls, reference checks.

An op is one request to verify a duality: one CLI command run in-process,
or one estimator call plus its oracle.  ``Op.run`` is the timed call.
``Op.check`` runs after the timer stops and compares the result with a
reference the benchmark computes itself, returning a failure message or
``None``.

Ops come in rounds.  A round holds each input class of the workload once,
in an order the seed shuffles, and a run always ends on a round boundary,
so every run times the same mix of op sizes.  Inputs that set an op's cost
or its variance (x0, start states, sectors) are fixed per class; the seed
draws the random streams, the order and the inputs that do not move cost.
A seeded x0 anywhere in [0.2, 0.8] moves time_to_rse of one run-mc op by a
factor of six, which would swamp any change in the program.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import expm

from duality_lab import cli, dualities, exact, montecarlo, processes

WORKLOADS = ("mc-diffusion", "mc-jump", "exact-oracle", "verify-suite")

MC_SE_MULT = 5.0  # |mean - oracle| <= 5 SE + bias: a correct op fails < 1e-6 of the time
EXACT_TOL = 1e-10  # generator residual and closed-form oracles
SEMIGROUP_TOL = 1e-8


@dataclass
class Op:
    label: str  # the op's input class: ops with one label differ only in seeded draws
    run: Callable[[], object]
    check: Callable[[object], str | None]
    n_paths: int = 0  # paths one run of the op simulates (0: exact op)
    gen_sizes: tuple[int, ...] | None = None  # generator sizes the op requests
    cli_calls: int = 0  # cli.main calls the op makes
    reference: dict = field(default_factory=dict)  # what check() compares against
    outcome: dict = field(default_factory=dict)  # filled by check(): mean, se


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _read_report(out_dir: Path) -> list[dict]:
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("# config=")]
    return list(csv.DictReader(lines))


def _write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _cli_op(label: str, argv: list[str], out_dir: Path, check, **kw) -> Op:
    report = out_dir / "report.csv"

    def run():
        report.unlink(missing_ok=True)
        return cli.main(argv + ["--out", str(out_dir)])

    return Op(label=label, run=run, check=check, cli_calls=1, **kw)


def mc_verdict(op: Op, mean: float, se: float, oracle: float) -> str | None:
    """The Monte Carlo reference check; also used by the self-test."""
    op.outcome.update(mean=mean, se=se)
    ref = op.reference["oracle"]
    bias = op.reference.get("bias_budget", 0.0)
    if abs(oracle - ref) > EXACT_TOL * max(1.0, abs(ref)):
        return f"program oracle {oracle!r} != reference {ref!r}"
    if not abs(mean - ref) <= MC_SE_MULT * se + bias:
        return f"|mean - oracle| = {abs(mean - ref):.3g} > {MC_SE_MULT:g} SE ({se:.3g}) + bias {bias:g}"
    return None


# ---------------------------------------------------------------------------
# mc-diffusion: run-mc through cli.main at default size
# ---------------------------------------------------------------------------

RUN_MC = {"t": 0.5, "dt": 1e-3, "n_paths": 100_000, "theta": 0.5, "N": 3, "frozen": "2,1"}
MC_DIFFUSION_X0 = (0.3, 0.7)


def wf_moran_oracle(x0: float, theta: float, k1: int, k2: int, t: float) -> float:
    """E_x0 of x^k1 (1-x)^k2 / (Gamma(a+k1) Gamma(a+k2)) under the two-type diffusion.

    Independent of the program: the generator (1/2) x(1-x) f'' +
    theta (1-2x) f' maps x^n to [n(n-1)/2 + theta n] x^(n-1) -
    [n(n-1)/2 + 2 theta n] x^n, so it acts exactly on polynomial
    coefficients and the expectation is one small matrix exponential.
    """
    deg = k1 + k2
    coef = np.zeros(deg + 1)
    for j in range(k2 + 1):
        coef[k1 + j] = math.comb(k2, j) * (-1.0) ** j
    L = np.zeros((deg + 1, deg + 1))
    for n in range(1, deg + 1):
        L[n - 1, n] = 0.5 * n * (n - 1) + theta * n
        L[n, n] = -(0.5 * n * (n - 1) + 2.0 * theta * n)
    moved = expm(t * L) @ coef
    a = 2.0 * theta
    return float(np.polyval(moved[::-1], x0)) / (math.gamma(a + k1) * math.gamma(a + k2))


def _run_mc_check(op: Op, out_dir: Path):
    def check(rc) -> str | None:
        if rc not in (0, 1):
            return f"run-mc exited {rc}"
        rows = _read_report(out_dir)
        if len(rows) != 1:
            return f"run-mc wrote {len(rows)} rows"
        row = rows[0]
        passed = row["passed"] == "true"
        if rc == 1 and passed:
            return "run-mc exited 1 with a passing row"
        op.outcome["cli_verdict_failed"] = not passed
        if int(row["lhs_n"]) != op.n_paths:
            return f"lhs_n {row['lhs_n']} != {op.n_paths}"
        return mc_verdict(op, float(row["lhs_mean"]), float(row["lhs_se"]), float(row["rhs_mean"]))

    return check


def mc_diffusion_rounds(seed: int, out: Path, toy: bool) -> Iterator[list[Op]]:
    base = dict(RUN_MC, n_paths=400) if toy else dict(RUN_MC)
    rng = _rng(seed, 1)
    while True:
        ops = []
        for x0 in MC_DIFFUSION_X0:
            for experiment in ("heterozygosity", "wf-vs-moran"):
                cfg = dict(base, experiment=experiment, x0=x0)
                i = len(ops)
                path = _write_config(out / f"run-mc-{i}.json", cfg)
                op_out = out / f"run-mc-{i}"
                op = _cli_op(
                    f"run-mc {experiment} x0={x0}",
                    ["run-mc", "--config", path, "--seed", str(int(rng.integers(2**62)))],
                    op_out,
                    None,
                    n_paths=cfg["n_paths"],
                    # heterozygosity's oracle is the 3-state sector of sip(d=2);
                    # wf-vs-moran's is the 4-state Moran chain with N = 3
                    gen_sizes=(3,) if experiment == "heterozygosity" else (4,),
                )
                t = cfg["t"]
                if experiment == "heterozygosity":
                    oracle = x0 * (1.0 - x0) * math.exp(-t)
                else:
                    k1, k2 = (int(v) for v in cfg["frozen"].split(","))
                    oracle = wf_moran_oracle(x0, cfg["theta"], k1, k2, t)
                op.reference = {"oracle": oracle, "bias_budget": 5.0 * cfg["dt"]}
                op.check = _run_mc_check(op, op_out)
                ops.append(op)
        yield [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# mc-jump: Gillespie estimator on the d = 3 Moran chain
# ---------------------------------------------------------------------------

MORAN_N, MORAN_THETA, JUMP_T = 12, 0.5, 0.5
# (start: first two type counts, frozen dual configuration of all three types)
MC_JUMP_CASES = (((4, 4), (2, 1, 1)), ((6, 2), (1, 1, 0)), ((3, 5), (0, 2, 1)), ((2, 7), (1, 0, 2)))


def _moran_dual_oracle(k0: tuple[int, ...], xi: tuple[int, ...], t: float) -> float:
    """E_xi D(k0, xi_t) on the Moran chain of population |xi|.

    By self-duality this equals E_k0 D(k_t, xi) on the population-N chain,
    which the op computes; the two share no matrix.
    """
    n = sum(xi)
    family = dualities.DualityFamily("moran-self-dual", N=MORAN_N, theta=MORAN_THETA, d=3)
    gen = processes.generator_matrix(processes.moran_multitype(n, 3, MORAN_THETA))
    full = tuple(k0) + (MORAN_N - sum(k0),)
    f = [dualities.evaluate_at(family, (), full + s + (n - sum(s),)) for s in gen.index.states]
    return exact.exact_expectation(gen, np.array(f), xi[:2], t).value


def mc_jump_rounds(seed: int, out: Path, toy: bool) -> Iterator[list[Op]]:
    n_paths = 100 if toy else 250
    spec = processes.moran_multitype(MORAN_N, 3, MORAN_THETA)
    family = dualities.DualityFamily("moran-self-dual", N=MORAN_N, theta=MORAN_THETA, d=3)
    states = math.comb(MORAN_N + 2, 2)
    refs = {case: _moran_dual_oracle(*case, JUMP_T) for case in MC_JUMP_CASES}
    rng = _rng(seed, 2)
    while True:
        ops = []
        for k0, xi in MC_JUMP_CASES:
            cfg = montecarlo.EstimatorConfig(n_paths=n_paths, seed=int(rng.integers(2**62)), dt=1e-3, t=JUMP_T)

            def run(k0=k0, xi=xi, cfg=cfg):
                est = montecarlo.estimate_duality_side(spec, family, k0, xi, JUMP_T, cfg)
                gen = processes.generator_matrix(spec)
                f = [dualities.evaluate_at(family, (), s + (MORAN_N - sum(s),) + xi) for s in gen.index.states]
                return est, exact.exact_expectation(gen, np.array(f), k0, JUMP_T).value

            op = Op(f"jump k0={k0} xi={xi}", run, None, n_paths=n_paths, gen_sizes=(states,))
            op.reference = {"oracle": refs[(k0, xi)]}

            def check(result, op=op) -> str | None:
                est, oracle = result
                if est.n != op.n_paths:
                    return f"estimate used {est.n} paths, not {op.n_paths}"
                return mc_verdict(op, est.mean, est.se, oracle)

            op.check = check
            ops.append(op)
        yield [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# exact-oracle: SIP self-duality across sectors, dense matrix exponentials
# ---------------------------------------------------------------------------

SIP_M = 1.0
SIP_SECTORS = ((3, 30), (4, 16), (4, 20))  # 496, 969 and 1771 states
SIP_SECTORS_TOY = ((3, 6), (4, 4), (4, 5))
SIP_DUAL_N = 2


def _exact_oracle_op(d: int, N: int, t: float) -> Op:
    size = math.comb(N + d - 1, d - 1)
    small = math.comb(SIP_DUAL_N + d - 1, d - 1)

    def run():
        K = processes.generator_matrix(processes.sip(d, SIP_M), truncation=N)
        Kh = processes.generator_matrix(processes.sip(d, SIP_M), truncation=SIP_DUAL_N)
        D = exact.sip_self_duality_matrix(K.index, Kh.index, SIP_M)
        rep = exact.check_generator_duality(K, Kh, D, name="sip self-duality across sectors")
        # the extra column of ones carries exp(tK) 1 = 1, a stochasticity check
        lhs = exact.matrix_exponential_apply(K, np.column_stack([D, np.ones(len(K.index))]), t)
        rhs = exact.matrix_exponential_apply(Kh, D.T, t).T
        return K, Kh, D, rep, lhs, rhs

    def check(result) -> str | None:
        K, Kh, D, rep, lhs, rhs = result
        if (len(K.index), len(Kh.index)) != (size, small):
            return f"sector sizes {(len(K.index), len(Kh.index))} != {(size, small)}"
        KD = K.Q @ D
        scale = float(np.abs(KD).max())
        resid = float(np.abs(KD - D @ Kh.Q.T).max())
        if resid > EXACT_TOL * scale:
            return f"generator residual {resid:.3g} > {EXACT_TOL:g} x {scale:.3g}"
        if abs(rep.max_abs_residual - resid) > EXACT_TOL * scale:
            return f"reported residual {rep.max_abs_residual:.3g} != recomputed {resid:.3g}"
        semi = float(np.abs(lhs[:, :-1] - rhs).max())
        if semi > SEMIGROUP_TOL * scale:
            return f"semigroup residual {semi:.3g} > {SEMIGROUP_TOL:g} x {scale:.3g}"
        drift = float(np.abs(lhs[:, -1] - 1.0).max())
        if drift > EXACT_TOL:
            return f"exp(tK) 1 differs from 1 by {drift:.3g}"
        return None

    return Op(f"sip d={d} N={N} ({size} states) vs n={SIP_DUAL_N}", run, check, gen_sizes=(size, small))


def exact_oracle_rounds(seed: int, out: Path, toy: bool) -> Iterator[list[Op]]:
    sectors = SIP_SECTORS_TOY if toy else SIP_SECTORS
    rng = _rng(seed, 3)
    while True:
        # t in [0.4, 0.6] keeps the scaling-and-squaring count, and so the cost, level
        ops = [_exact_oracle_op(d, N, float(rng.uniform(0.4, 0.6))) for d, N in sectors]
        yield [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# verify-suite: the check commands and the worked examples through cli.main
# ---------------------------------------------------------------------------


def _check_rows(command: str, out_dir: Path):
    def check(rc) -> str | None:
        if rc != 0:
            return f"{command} exited {rc}"
        rows = _read_report(out_dir)
        if not rows:
            return f"{command} wrote no rows"
        for row in rows:
            # recompute the verdict instead of trusting the passed column
            if row["passed"] != "true" or not float(row["value"]) <= float(row["tolerance"]):
                return f"{command}: {row['check']} ({row['params']}) value {row['value']} > {row['tolerance']}"
        return None

    return check


def _examples_check(out_dir: Path, x: float, y: float, t: float, d: int):
    want = {
        "heterozygosity": x * y * math.exp(-t),
        # the generator-level decay of the product of all d coordinates
        "d-type-product": (1.0 / d) ** d * math.exp(-d * (d - 1) * t / 2.0),
    }

    def check(rc) -> str | None:
        if rc != 0:
            return f"reproduce-examples exited {rc}"
        got = {row["id"]: float(row["oracle_value"]) for row in _read_report(out_dir)}
        for key, value in want.items():
            if key not in got or abs(got[key] - value) > EXACT_TOL:
                return f"{key} oracle {got.get(key)!r} != {value!r}"
        return None

    return check


def verify_suite_rounds(seed: int, out: Path, toy: bool) -> Iterator[list[Op]]:
    rng = _rng(seed, 4)
    while True:
        ops = []
        for command in ("check-algebra", "check-exact", "check-pointwise"):
            op_out = out / command
            argv = [command]
            if command == "check-algebra":
                argv += ["--seed", str(int(rng.integers(2**62)))]
            ops.append(_cli_op(command, argv, op_out, _check_rows(command, op_out)))
        # both values of d whose product closed form the README discusses
        for d in (3, 4):
            x, y, t = (float(v) for v in (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.0)))
            op_out = out / f"examples-d{d}"
            path = _write_config(out / f"examples-d{d}.json", {"x": x, "y": y, "t": t, "d": d})
            ops.append(
                _cli_op(f"reproduce-examples d={d}", ["reproduce-examples", "--config", path], op_out, _examples_check(op_out, x, y, t, d))
            )
        yield [ops[i] for i in rng.permutation(len(ops))]


ROUNDS = {
    "mc-diffusion": mc_diffusion_rounds,
    "mc-jump": mc_jump_rounds,
    "exact-oracle": exact_oracle_rounds,
    "verify-suite": verify_suite_rounds,
}
