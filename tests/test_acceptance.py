"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 concerns the product of all type frequencies.  The quoted
closed form lets it decay at rate d-1, which the generators reproduce only
for d = 2; for d in {3, 4} both sides of the duality decay at the
pair-counting rate d(d-1)/2.  Sub-criterion 8b therefore derives that rate
from the energy-process coefficients, checks the oracle against it, and pins
the quoted form's error as the documented finding.  See the README section
on known discrepancies.
"""

import json
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from duality_lab import algebra, cli, dualities, exact, montecarlo, processes


def _line(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_01_moran_kingman_exact_duality():
    start = time.perf_counter()
    exact_ok = all(exact.moran_kingman_residual_exact(N) == Fraction(0) for N in range(2, 11))
    worst_float = 0.0
    for N in range(2, 21):
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        worst_float = max(worst_float, float(np.abs(moran.Q @ D - D @ kingman.Q.T).max()))
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst_float <= 1e-10 and elapsed < 1.0
    _line(
        "1 moran-kingman",
        ok,
        f"rational zero N<=10: {exact_ok}, float residual N<=20: {worst_float:.2e}, {elapsed:.2f}s",
    )
    assert exact_ok
    assert worst_float <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_commutation_relations():
    start = time.perf_counter()
    worst = 0.0
    for M in (2, 3, 5, 9, 17, 32):
        for family in ("heisenberg-continuous", "heisenberg-discrete"):
            rep = algebra.build_representation(family, M)
            worst = max(worst, max(r.max_abs_residual for r in algebra.check_commutation_relations(rep)))
        for m in (0.5, 1.0, 2.0, 3.5):
            for family in ("su11-continuous", "su11-discrete"):
                rep = algebra.build_representation(family, M, m=m)
                worst = max(worst, max(r.max_abs_residual for r in algebra.check_commutation_relations(rep)))
        rep = algebra.build_representation("heisenberg-finite-N", M, N=M)
        worst = max(worst, max(r.max_abs_residual for r in algebra.check_commutation_relations(rep)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _line("2 commutation-relations", ok, f"max residual {worst:.2e} over M<=32, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_binomial_transform_identity():
    start = time.perf_counter()
    worst = 0.0
    for N in range(1, 31):
        D = algebra.falling_factorial_matrix(N)
        ks = np.arange(N + 1)
        for rho in (0.1, 0.5, 0.9):
            pmf = np.array([comb(N, k) for k in ks]) * rho**ks * (1 - rho) ** (N - ks)
            got = pmf @ D
            want = rho ** np.arange(N + 1)
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _line("3 binomial-transform", ok, f"max |mixture - power| {worst:.2e} for N<=30, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_04_pointwise_generator_dualities():
    start = time.perf_counter()
    xs = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    degrees = tuple(range(7))
    theta, sigma = 0.7, 0.4
    worst = 0.0
    cases = [
        (processes.wf_general_1d({1: 1.0, 2: -1.0}), processes.kingman_block(n_max=10)),
        (
            processes.wf_general_1d({1: 1.0, 2: -1.0}, {0: theta, 1: -theta}),
            processes.kingman_block(theta=theta, n_max=10),
        ),
        (
            processes.wf_general_1d({1: 1.0, 2: -1.0}, {1: -sigma, 2: sigma}),
            processes.kingman_block(sigma=sigma, n_max=10),
        ),
    ]
    for left, right in cases:
        rep = exact.check_pointwise_duality(left, right, dualities.Monomial(), xs, degrees)
        worst = max(worst, rep.max_abs_residual)
    grid = (-1.0, 0.0, 1.0)
    rep = exact.check_pointwise_duality(
        exact.Operator1D(alpha=lambda x: 0.5, beta=lambda x: 0.0),
        exact.Operator1D(alpha=lambda y: 0.0, beta=lambda y: 0.0, gamma=lambda y: 0.5 * y * y),
        dualities.Exponential(),
        grid,
        grid,
    )
    worst = max(worst, rep.max_abs_residual)
    c1, c2, c3 = 0.8, 0.6, 0.9
    hgrid = (0.0, 0.5, 1.5)
    rep = exact.check_pointwise_duality(
        exact.Operator1D(alpha=lambda x: c1 * x * x + c2 * x, beta=lambda x: c3 * x),
        exact.Operator1D(alpha=lambda y: c1 * y * y, beta=lambda y: c2 * y * y + c3 * y),
        dualities.Exponential(),
        hgrid,
        hgrid,
    )
    worst = max(worst, rep.max_abs_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _line("4 pointwise-dualities", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_05_wf_moran_mutation_duality_mc():
    start = time.perf_counter()
    theta, N, t, x0, dt = 0.5, 3, 0.5, 0.3, 1e-3
    spec = processes.wf_multitype(2, theta)
    family = dualities.DualityFamily("product-gamma", theta=theta, d=2)
    cfg = montecarlo.EstimatorConfig(n_paths=100_000, seed=20240601, dt=dt, t=t)
    side = montecarlo.estimate_duality_side(spec, family, (x0,), (2, 1), t, cfg)
    gen = processes.generator_matrix(processes.moran_multitype(N, 2, theta))
    f = np.array(
        [dualities.evaluate_at(family, (x0, 1 - x0), (k[0], N - k[0])) for k in gen.index.states]
    )
    oracle = exact.exact_expectation(gen, f, (2,), t).value
    report = montecarlo.compare(side, oracle, tolerance_multiplier=3.0, bias_budget=5 * dt)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 120.0
    _line(
        "5 wf-moran-mc",
        ok,
        f"mc {side.mean:.6f} +- {side.se:.1e} vs exact {oracle:.6f}, z={report.z:.2f}, {elapsed:.1f}s",
    )
    assert report.passed
    assert elapsed < 120.0


def test_criterion_06_self_duality_intertwiner():
    start = time.perf_counter()
    worst = 0.0
    for m in (1.0, 2.0, 3.0):
        for N in range(2, 7):
            gen = processes.generator_matrix(processes.sip(2, m), truncation=N)
            D = exact.sip_self_duality_matrix(gen.index, gen.index, m)
            rep = exact.check_generator_duality(gen, gen, D)
            worst = max(worst, rep.max_abs_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _line("6 self-duality", ok, f"max residual {worst:.2e} for d=2, N<=6, m in 1..3, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_07_heterozygosity():
    start = time.perf_counter()
    x0, dt = 0.3, 1e-3
    spec = processes.wf_multitype(2, 0.0)
    family = dualities.DualityFamily("limiting-sip")
    worst_oracle = 0.0
    mc_ok = True
    details = []
    for t in (0.25, 0.5, 1.0):
        rec = exact.reproduce_example("heterozygosity", x=x0, y=1 - x0, t=t)
        worst_oracle = max(worst_oracle, rec.abs_diff)
        cfg = montecarlo.EstimatorConfig(n_paths=100_000, seed=20240601 + int(t * 100), dt=dt, t=t)
        side = montecarlo.estimate_duality_side(spec, family, (x0,), (1, 1), t, cfg)
        report = montecarlo.compare(side, rec.oracle_value, bias_budget=5 * dt)
        mc_ok = mc_ok and report.passed
        details.append(f"t={t}: z={report.z:.2f}")
    elapsed = time.perf_counter() - start
    ok = worst_oracle <= 1e-10 and mc_ok and elapsed < 120.0
    _line(
        "7 heterozygosity",
        ok,
        f"oracle vs closed form {worst_oracle:.1e}; mc {'; '.join(details)}, {elapsed:.1f}s",
    )
    assert worst_oracle <= 1e-10
    assert mc_ok
    assert elapsed < 120.0


def test_criterion_08a_product_closed_form_two_types():
    rec = exact.reproduce_example("d-type-product", d=2, xs=(0.3, 0.7), t=0.5)
    ok = rec.abs_diff <= 1e-10
    _line("8a d-type-product d=2", ok, f"|closed - oracle| = {rec.abs_diff:.2e}")
    assert rec.abs_diff <= 1e-10


def _product_decay_rate(spec: processes.DiffusionModel, y: np.ndarray) -> float:
    """-L f / f for f = prod(y), with L = (1/2) sum a_ij d_i d_j + b . grad."""
    (b,), (a,) = processes._checked_coefficients(spec, y[None, :])
    d = len(y)
    grad = np.array([np.prod(np.delete(y, i)) for i in range(d)])
    hess = np.array(
        [[np.prod(np.delete(y, [i, j])) if i != j else 0.0 for j in range(d)] for i in range(d)]
    )
    return -(0.5 * float(np.sum(a * hess)) + float(b @ grad)) / float(np.prod(y))


@pytest.mark.parametrize("d", [3, 4])
def test_criterion_08b_product_closed_form_higher_types(d):
    # the product of all energies is an eigenfunction of the energy-process
    # generator; its rate, read off the diffusion coefficients at two
    # different points, is the pair count d(d-1)/2 and not the quoted d-1
    t = 0.5
    xs = np.full(d, 1.0 / d)
    uneven = np.arange(1.0, d + 1) / comb(d + 1, 2)
    spec = processes.bep(d, 0.0)
    rate, rate_uneven = (_product_decay_rate(spec, y) for y in (xs, uneven))
    rec = exact.reproduce_example("d-type-product", d=d, t=t)
    product = float(np.prod(xs))
    derived = product * np.exp(-rate * t)
    quoted = product * np.exp(-(d - 1) * t)
    # the report keeps the quoted form next to the oracle; its error is the
    # gap between the two exponentials
    gap = product * abs(np.exp(-(d - 1) * t) - np.exp(-comb(d, 2) * t))
    checks = {
        "rate is pair count": abs(rate - comb(d, 2)) <= 1e-10,
        "rate independent of y": abs(rate_uneven - rate) <= 1e-10,
        "oracle matches derived": abs(rec.oracle_value - derived) <= 1e-10,
        "report keeps quoted form": abs(rec.closed_form_value - quoted) <= 1e-12,
        "quoted error is the gap": abs(rec.abs_diff - gap) <= 1e-12,
    }
    ok = all(checks.values())
    _line(
        f"8b d-type-product d={d}",
        ok,
        f"quoted {rec.closed_form_value:.8f} (rate {d - 1}), derived {derived:.8f} (rate {rate:g}),"
        f" oracle {rec.oracle_value:.8f}",
    )
    assert checks == dict.fromkeys(checks, True)


def test_criterion_08c_report_only_examples():
    start = time.perf_counter()
    recs = [exact.reproduce_example(i) for i in ("x2y-two-type", "x2-product-d-type")]
    ok = all(np.isfinite([r.closed_form_value, r.oracle_value]).all() for r in recs)
    consistency = all(r.abs_diff == abs(r.closed_form_value - r.oracle_value) for r in recs)
    elapsed = time.perf_counter() - start
    _line(
        "8c report-only examples",
        ok and consistency,
        "; ".join(f"{r.id}: closed {r.closed_form_value:.6f} oracle {r.oracle_value:.6f}" for r in recs)
        + f", {elapsed:.2f}s",
    )
    assert ok and consistency
    assert elapsed < 5.0


def test_criterion_09_mc_rerun_is_byte_identical(tmp_path):
    cfg = {"n_paths": 2000, "t": 0.25, "dt": 0.005, "seed": 77}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["run-mc", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append((out / "report.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _line("9 determinism", ok, f"{len(outputs[0])} bytes, identical={ok}")
    assert ok


def test_criterion_10_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    row_ok = True
    for _ in range(10):
        d = int(rng.integers(2, 4))
        N = int(rng.integers(1, 6))
        m = float(rng.uniform(0.0, 4.0))
        gen = processes.generator_matrix(processes.sip(d, m), truncation=N)
        off = gen.Q.toarray()
        np.fill_diagonal(off, 0.0)
        row_ok = row_ok and off.min() >= 0.0
        row_ok = row_ok and np.abs(gen.Q.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(gen.Q).max())
    gen = processes.generator_matrix(processes.kingman_block(theta=0.4, sigma=0.2, n_max=30))
    ones = np.ones(len(gen.index))
    stoch = float(np.abs(exact.matrix_exponential_apply(gen, ones, 1.0) - 1.0).max())

    ident = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        m = float(rng.uniform(0.0, 4.0))
        N = int(rng.integers(1, 5))
        theta = m * (d - 1) / 4.0
        full = processes.generator_matrix(processes.sip(d, m), truncation=N)
        red = processes.generator_matrix(processes.moran_multitype(N, d, theta))
        perm = [full.index.pos[k + (N - sum(k),)] for k in red.index.states]
        ident = max(ident, float(np.abs(full.Q[np.ix_(perm, perm)] - red.Q).max()))
        x = rng.dirichlet(np.ones(d))
        (b_full,), (a_full,) = processes._checked_coefficients(processes.bep(d, m), x[None, :])
        (b_red,), (a_red,) = processes._checked_coefficients(processes.wf_multitype(d, theta), x[None, : d - 1])
        ident = max(ident, float(np.abs(a_full[: d - 1, : d - 1] - a_red).max()))
        ident = max(ident, float(np.abs(b_full[: d - 1] - b_red).max()))
    elapsed = time.perf_counter() - start
    ok = row_ok and stoch <= 1e-10 and ident <= 1e-12 and elapsed < 10.0
    _line(
        "10 property-suite",
        ok,
        f"rows-ok={row_ok}, stochasticity {stoch:.1e}, identification {ident:.1e}, {elapsed:.2f}s",
    )
    assert row_ok
    assert stoch <= 1e-10
    assert ident <= 1e-12
    assert elapsed < 10.0
