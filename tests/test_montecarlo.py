"""Seeded estimators: determinism, SE behaviour, statistical comparisons."""

import math

import numpy as np
import pytest

from duality_lab import exact, processes
from duality_lab.dualities import DualityFamily, evaluate_at
from duality_lab.montecarlo import (
    EstimatorConfig,
    SideEstimate,
    compare,
    estimate_duality_side,
)


def het_config(n_paths=20000, seed=11, dt=1e-3, t=0.5):
    return EstimatorConfig(n_paths=n_paths, seed=seed, dt=dt, t=t)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            EstimatorConfig(n_paths=50, seed=1, dt=1e-3, t=1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(n_paths=100, seed=1, dt=0.0, t=1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(n_paths=100, seed=1, dt=1e-3, t=-1.0)


class TestDegenerateHorizon:
    def test_diffusion_side(self):
        spec = processes.wf_multitype(2, 0.0)
        fam = DualityFamily("limiting-sip")
        side = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.0, het_config(t=0.0))
        assert side.mean == pytest.approx(0.3 * 0.7)
        assert side.se == 0.0

    def test_jump_side(self):
        spec = processes.moran_multitype(3, 2, 0.5)
        fam = DualityFamily("product-gamma", theta=0.5, d=2)
        side = estimate_duality_side(spec, fam, (2,), (0.3, 0.7), 0.0, het_config(t=0.0), endpoint_slot="second")
        assert side.mean == pytest.approx(evaluate_at(fam, (0.3, 0.7), (2, 1)))
        assert side.se == 0.0


class TestDeterminism:
    def test_identical_config_reproduces_bitwise(self):
        spec = processes.wf_multitype(2, 0.0)
        fam = DualityFamily("limiting-sip")
        cfg = het_config(n_paths=2000, dt=5e-3)
        a = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, cfg)
        b = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, cfg)
        assert a == b

    def test_jump_side_deterministic(self):
        spec = processes.sip(2, 0.0)
        fam = DualityFamily("limiting-sip")
        cfg = het_config(n_paths=500, dt=1e-2)
        a = estimate_duality_side(spec, fam, (1, 1), (0.3, 0.7), 0.5, cfg, endpoint_slot="second")
        b = estimate_duality_side(spec, fam, (1, 1), (0.3, 0.7), 0.5, cfg, endpoint_slot="second")
        assert a == b

    def test_seed_changes_result(self):
        spec = processes.wf_multitype(2, 0.0)
        fam = DualityFamily("limiting-sip")
        a = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, het_config(n_paths=500, seed=1, dt=5e-3))
        b = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, het_config(n_paths=500, seed=2, dt=5e-3))
        assert a.mean != b.mean


class TestSeScaling:
    def test_quadrupling_paths_halves_se(self):
        spec = processes.wf_multitype(2, 0.0)
        fam = DualityFamily("limiting-sip")
        small = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, het_config(n_paths=2000, dt=5e-3))
        large = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, het_config(n_paths=8000, dt=5e-3))
        ratio = small.se / large.se
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


class TestCompare:
    def test_identical_values_pass_with_zero_z(self):
        rep = compare(SideEstimate(0.5, 0.0, 10), 0.5)
        assert rep.passed and rep.z == 0.0

    def test_six_sigma_fails(self):
        rep = compare(SideEstimate(0.50, 0.01, 1000), 0.56, tolerance_multiplier=3.0, bias_budget=0.0)
        assert not rep.passed
        assert rep.z == pytest.approx(6.0)

    def test_bias_budget_rescues_small_offsets(self):
        rep = compare(SideEstimate(0.500, 0.0, 100), 0.503, bias_budget=0.005)
        assert rep.passed and rep.z == 0.0

    def test_combined_se(self):
        rep = compare(SideEstimate(0.0, 0.03, 100), SideEstimate(0.5, 0.04, 100))
        assert rep.z == pytest.approx(0.5 / 0.05)
        assert not rep.passed


class TestAgainstExactOracles:
    def test_heterozygosity_diffusion_side(self):
        spec = processes.wf_multitype(2, 0.0)
        fam = DualityFamily("limiting-sip")
        cfg = het_config()
        side = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, cfg)
        oracle = 0.21 * math.exp(-0.5)
        rep = compare(side, oracle, bias_budget=5 * cfg.dt)
        assert rep.passed, (side, oracle)

    def test_neutral_moment_vs_block_counting_value(self):
        # frozen two lineages: the dual chain falls to one at rate two
        x0, t = 0.3, 0.5
        spec = processes.wf_general_1d({1: 1.0, 2: -1.0})
        fam = DualityFamily("monomial")
        cfg = het_config(n_paths=20000, seed=21)
        side = estimate_duality_side(spec, fam, (x0,), (2,), t, cfg)
        oracle = x0 * x0 * math.exp(-2 * t) + x0 * (1 - math.exp(-2 * t))
        rep = compare(side, oracle, bias_budget=5 * cfg.dt)
        assert rep.passed, (side, oracle)

    def test_mutation_pair_mc_vs_exact_moran(self):
        theta, N, t, x0 = 0.5, 3, 0.5, 0.3
        spec = processes.wf_multitype(2, theta)
        fam = DualityFamily("product-gamma", theta=theta, d=2)
        cfg = het_config(n_paths=20000, seed=31)
        side = estimate_duality_side(spec, fam, (x0,), (2, 1), t, cfg)
        gen = processes.generator_matrix(processes.moran_multitype(N, 2, theta))
        f = np.array([evaluate_at(fam, (x0, 1 - x0), (k[0], N - k[0])) for k in gen.index.states])
        oracle = exact.exact_expectation(gen, f, (2,), t).value
        rep = compare(side, oracle, bias_budget=5 * cfg.dt)
        assert rep.passed, (side, oracle)

    def test_jump_side_estimate_vs_exact(self):
        theta, N, t, x0 = 0.5, 3, 0.5, 0.3
        spec = processes.moran_multitype(N, 2, theta)
        fam = DualityFamily("product-gamma", theta=theta, d=2)
        cfg = het_config(n_paths=4000, seed=41)
        side = estimate_duality_side(spec, fam, (2,), (x0, 1 - x0), t, cfg, endpoint_slot="second")
        gen = processes.generator_matrix(spec)
        f = np.array([evaluate_at(fam, (x0, 1 - x0), (k[0], N - k[0])) for k in gen.index.states])
        oracle = exact.exact_expectation(gen, f, (2,), t).value
        rep = compare(side, oracle)
        assert rep.passed, (side, oracle)


class TestLimitingOccupancyGuard:
    def test_rejects_initially_empty_site(self):
        spec = processes.sip(2, 0.0)
        fam = DualityFamily("limiting-sip")
        with pytest.raises(ValueError, match="occupied"):
            estimate_duality_side(spec, fam, (2, 0), (0.3, 0.7), 0.5, het_config(n_paths=100), endpoint_slot="second")

    def test_indicator_zeroes_lost_occupancy(self):
        # from (1,1) every jump empties a site, so the estimate equals the
        # duality value times the survival frequency
        spec = processes.sip(2, 0.0)
        fam = DualityFamily("limiting-sip")
        cfg = het_config(n_paths=4000, seed=51)
        x = (0.3, 0.7)
        side = estimate_duality_side(spec, fam, (1, 1), x, 1.0, cfg, endpoint_slot="second")
        survive = sum(
            1
            for i in range(cfg.n_paths)
            if processes.sample_jump(spec, (1, 1), 1.0, processes.path_rng(cfg.seed, i)) == (1, 1)
        )
        assert side.mean == pytest.approx(0.21 * survive / cfg.n_paths)


class TestBothSidesConsistency:
    def test_wf_vs_moran_replications(self):
        # diffusion-side versus jump-side estimates of the same relation;
        # at three combined errors at least 19 of 20 seeds must agree
        theta, N, t, x0 = 0.5, 3, 0.5, 0.3
        wf = processes.wf_multitype(2, theta)
        moran = processes.moran_multitype(N, 2, theta)
        fam = DualityFamily("product-gamma", theta=theta, d=2)
        passes = 0
        for seed in range(20):
            cfg_d = EstimatorConfig(n_paths=3000, seed=seed, dt=2e-3, t=t)
            lhs = estimate_duality_side(wf, fam, (x0,), (2, 1), t, cfg_d)
            cfg_j = EstimatorConfig(n_paths=3000, seed=seed + 1000, dt=2e-3, t=t)
            rhs = estimate_duality_side(moran, fam, (2,), (x0, 1 - x0), t, cfg_j, endpoint_slot="second")
            rep = compare(lhs, rhs, bias_budget=5 * cfg_d.dt)
            passes += rep.passed
        assert passes >= 19


class TestAntithetic:
    def test_runs_and_stays_deterministic(self):
        spec = processes.wf_multitype(2, 0.0)
        fam = DualityFamily("limiting-sip")
        cfg = EstimatorConfig(n_paths=2000, seed=61, dt=5e-3, t=0.5, antithetic=True)
        a = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, cfg)
        b = estimate_duality_side(spec, fam, (0.3,), (1, 1), 0.5, cfg)
        assert a == b
        plain = estimate_duality_side(
            spec, fam, (0.3,), (1, 1), 0.5, EstimatorConfig(n_paths=2000, seed=61, dt=5e-3, t=0.5)
        )
        assert a.mean != plain.mean


# ---------------------------------------------------------------------------
# reference: one lift and one _eval_pair per path, frozen converted each time
# ---------------------------------------------------------------------------


def _reference_eval_pair(family, endpoint, frozen, endpoint_slot):
    from duality_lab.dualities import EvalPoint, evaluate

    frozen_t = tuple(np.atleast_1d(frozen))
    if family.kind == "exponential":
        pair = (endpoint[0], float(frozen_t[0])) if endpoint_slot == "first" else (float(frozen_t[0]), endpoint[0])
        return evaluate(family, EvalPoint(continuous=tuple(pair)))
    cont = tuple(float(v) for v in endpoint)
    disc = tuple(int(v) for v in frozen_t)
    return evaluate(family, EvalPoint(continuous=cont, discrete=disc))


def _reference_diffusion_values(spec, family, start, frozen, t, cfg, endpoint_slot="first"):
    lift = spec.kind == "wf-multitype" and family.kind in ("product-gamma", "limiting-sip", "monomial")
    if t == 0:
        rows = [np.atleast_1d(np.asarray(start, dtype=float))]
    else:
        rows = processes.diffusion_endpoints(spec, start, t, cfg.dt, cfg.seed, cfg.n_paths, antithetic=cfg.antithetic)
    values = []
    for row in rows:
        cont = tuple(float(v) for v in row)
        if lift:
            cont = cont + (float(1.0 - row.sum()),)
        values.append(_reference_eval_pair(family, cont, frozen, endpoint_slot))
    return values


ESTIMATOR_CASES = {
    "limiting-sip": (processes.wf_multitype(2, 0.0), DualityFamily("limiting-sip"), (0.3,), (1, 1), "first"),
    "product-gamma-d2": (
        processes.wf_multitype(2, 0.5),
        DualityFamily("product-gamma", theta=0.5, d=2),
        (0.3,),
        (2, 1),
        "first",
    ),
    "product-gamma-d3": (
        processes.wf_multitype(3, 0.4),
        DualityFamily("product-gamma", theta=0.4, d=3),
        (0.2, 0.5),
        (1, 0, 2),
        "first",
    ),
    "monomial": (processes.wf_general_1d({1: 1.0, 2: -1.0}), DualityFamily("monomial"), (0.3,), (2,), "first"),
    "exponential-first": (
        processes.wf_general_1d({1: 1.0, 2: -1.0}),
        DualityFamily("exponential"),
        (0.4,),
        (0.7,),
        "first",
    ),
    "exponential-second": (
        processes.wf_general_1d({1: 1.0, 2: -1.0}),
        DualityFamily("exponential"),
        (0.4,),
        (-1.3,),
        "second",
    ),
}


class TestHoistedDiffusionLoop:
    """The estimator gives what one lift and one _eval_pair per path gave."""

    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
    def test_matches_per_path_reference(self, case, t):
        spec, fam, start, frozen, slot = ESTIMATOR_CASES[case]
        cfg = EstimatorConfig(n_paths=300, seed=17, dt=1e-2, t=t)
        got = estimate_duality_side(spec, fam, start, frozen, t, cfg, endpoint_slot=slot)
        values = _reference_diffusion_values(spec, fam, start, frozen, t, cfg, slot)
        if t == 0:
            assert got == SideEstimate(mean=values[0], se=0.0, n=cfg.n_paths)
        else:
            want_mean = math.fsum(values) / len(values)
            want_var = math.fsum((v - want_mean) ** 2 for v in values) / (len(values) * (len(values) - 1))
            assert got == SideEstimate(mean=want_mean, se=math.sqrt(want_var), n=len(values))

    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_start_outside_the_simplex_is_rejected(self, t):
        spec = processes.wf_multitype(3, 0.4)
        fam = DualityFamily("product-gamma", theta=0.4, d=3)
        cfg = EstimatorConfig(n_paths=300, seed=17, dt=1e-2, t=t)
        with pytest.raises(ValueError, match="outside the domain"):
            estimate_duality_side(spec, fam, (0.6, 0.6), (1, 0, 2), t, cfg)

    def test_lifted_last_type_is_clamped_at_zero(self):
        # a renormalised endpoint can sum to 1 + 2**-52; its lifted last
        # type used to be -2.2e-16, which product-gamma rejects
        spec = processes.wf_multitype(4, 0.4)
        fam = DualityFamily("product-gamma", theta=0.4, d=4)
        cfg = EstimatorConfig(n_paths=1000, seed=9, dt=1e-2, t=0.3, antithetic=True)
        side = estimate_duality_side(spec, fam, (0.2, 0.3, 0.1), (1, 1, 0, 2), 0.3, cfg)
        assert math.isfinite(side.mean) and math.isfinite(side.se)
        assert side.n == cfg.n_paths
