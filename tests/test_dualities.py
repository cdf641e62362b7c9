"""Duality-function catalog: values, stability, cheap self-duality."""

from math import comb, exp, lgamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from duality_lab import algebra, processes
from duality_lab.dualities import (
    DualityFamily,
    EvalPoint,
    cheap_self_duality,
    evaluate,
    evaluate_at,
    hermite_value,
    transform_by_symmetry,
)


class TestFamilyValidation:
    def test_required_parameters(self):
        with pytest.raises(ValueError):
            DualityFamily("hypergeometric-finite")
        with pytest.raises(ValueError):
            DualityFamily("gamma-weighted", m=0.0)
        with pytest.raises(ValueError):
            DualityFamily("product-gamma", theta=0.5, d=1)
        with pytest.raises(ValueError):
            DualityFamily("monomial", N=3)  # stray parameter
        with pytest.raises(ValueError):
            DualityFamily("no-such-kind")


class TestEvaluate:
    def test_hypergeometric_degree_zero_is_one(self):
        fam = DualityFamily("hypergeometric-finite", N=10)
        for k in range(11):
            assert evaluate_at(fam, (), (k, 0)) == 1.0

    def test_hypergeometric_vanishes_above_count(self):
        fam = DualityFamily("hypergeometric-finite", N=8)
        for k in range(8):
            for n in range(k + 1, 9):
                assert evaluate_at(fam, (), (k, n)) == 0.0

    def test_hypergeometric_top_row_is_one(self):
        fam = DualityFamily("hypergeometric-finite", N=8)
        for n in range(9):
            assert evaluate_at(fam, (), (8, n)) == pytest.approx(1.0)

    def test_hypergeometric_matches_binomial_ratio(self):
        fam = DualityFamily("hypergeometric-finite", N=9)
        for k in range(10):
            for n in range(k + 1):
                assert evaluate_at(fam, (), (k, n)) == pytest.approx(comb(k, n) / comb(9, n))

    def test_gamma_weighted_integer_parameter(self):
        # for m = 2 the weight is 1/n!, so the value at z = 2, n = 3 is 8/6
        fam = DualityFamily("gamma-weighted", m=2.0)
        assert evaluate_at(fam, (2.0,), (3,)) == pytest.approx(4.0 / 3.0)

    def test_hermite_weighted_base_cases(self):
        fam = DualityFamily("hermite-weighted")
        assert evaluate_at(fam, (0.0,), (0,)) == 1.0
        x = 0.7
        assert evaluate_at(fam, (x,), (0,)) == pytest.approx(exp(-x * x / 2))
        assert evaluate_at(fam, (x,), (1,)) == pytest.approx(2 * x * exp(-x * x / 2))

    def test_exponential_at_zero(self):
        fam = DualityFamily("exponential")
        for y in (-3.0, 0.0, 2.5):
            assert evaluate(fam, EvalPoint(continuous=(0.0, y))) == 1.0

    def test_monomial_products(self):
        fam = DualityFamily("monomial")
        assert evaluate_at(fam, (0.5, 2.0), (2, 3)) == pytest.approx(0.25 * 8.0)

    def test_limiting_occupancy_skips_empty_sites(self):
        fam = DualityFamily("limiting-sip")
        val = evaluate_at(fam, (0.3, 0.7), (0, 2))
        assert val == pytest.approx(0.7**2 / 1.0)
        assert evaluate_at(fam, (0.3, 0.7), (0, 0)) == 1.0

    def test_self_dual_form_vanishes_without_majorization(self):
        fam = DualityFamily("moran-self-dual", N=4, theta=0.5, d=2)
        assert evaluate_at(fam, (), (1, 3, 2, 2)) == 0.0
        val = evaluate_at(fam, (), (2, 2, 1, 1))
        a = fam.gamma_shift
        want = 2 * exp(lgamma(a) - lgamma(1 + a)) * 2 * exp(lgamma(a) - lgamma(1 + a))
        assert val == pytest.approx(want)

    def test_self_dual_counts_must_sum_to_population(self):
        fam = DualityFamily("moran-self-dual", N=4, theta=0.5, d=2)
        for k in ((1, 2), (3, 2), (0, 0)):
            with pytest.raises(ValueError, match="population size"):
                evaluate_at(fam, (), k + (1, 0))

    def test_product_gamma_requires_simplex(self):
        fam = DualityFamily("product-gamma", theta=0.5, d=2)
        with pytest.raises(ValueError):
            evaluate_at(fam, (0.4, 0.4), (1, 1))
        with pytest.raises(ValueError):
            evaluate_at(fam, (1.2, -0.2), (1, 1))

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            evaluate_at(DualityFamily("hypergeometric-finite", N=4), (), (2, 5))
        with pytest.raises(ValueError):
            EvalPoint(discrete=(-1,))
        with pytest.raises(ValueError):
            evaluate_at(DualityFamily("gamma-weighted", m=1.0), (-0.5,), (2,))


class TestBinomialMixture:
    @pytest.mark.parametrize("N", [5, 17, 30])
    def test_mixture_gives_powers(self, N):
        fam = DualityFamily("hypergeometric-finite", N=N)
        for rho in (0.1, 0.5, 0.9):
            pmf = [comb(N, k) * rho**k * (1 - rho) ** (N - k) for k in range(N + 1)]
            for n in range(N + 1):
                mixed = sum(pmf[k] * evaluate_at(fam, (), (k, n)) for k in range(N + 1))
                assert abs(mixed - rho**n) <= 1e-10


class TestLogSpaceAgreement:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["hypergeometric-finite", "gamma-weighted", "product-gamma", "limiting-sip", "monomial"]),
        data=st.data(),
    )
    def test_log_matches_direct(self, kind, data):
        if kind == "hypergeometric-finite":
            N = data.draw(st.integers(2, 20))
            fam = DualityFamily(kind, N=N)
            k = data.draw(st.integers(0, N))
            n = data.draw(st.integers(0, N))
            point = EvalPoint(discrete=(k, n))
        elif kind == "gamma-weighted":
            fam = DualityFamily(kind, m=data.draw(st.floats(0.1, 10)))
            point = EvalPoint(
                continuous=(data.draw(st.floats(0.0, 50.0)),), discrete=(data.draw(st.integers(0, 40)),)
            )
        elif kind == "product-gamma":
            fam = DualityFamily(kind, theta=data.draw(st.floats(0.1, 4.0)), d=2)
            x = data.draw(st.floats(0.0, 1.0))
            point = EvalPoint(
                continuous=(x, 1.0 - x),
                discrete=(data.draw(st.integers(0, 30)), data.draw(st.integers(0, 30))),
            )
        elif kind == "limiting-sip":
            fam = DualityFamily(kind)
            point = EvalPoint(
                continuous=(data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.0, 3.0))),
                discrete=(data.draw(st.integers(0, 25)), data.draw(st.integers(0, 25))),
            )
        else:
            fam = DualityFamily(kind)
            point = EvalPoint(
                continuous=(data.draw(st.floats(-4.0, 4.0)),), discrete=(data.draw(st.integers(0, 30)),)
            )
        direct = evaluate(fam, point, method="direct")
        logged = evaluate(fam, point, method="log")
        if direct == 0.0:
            assert logged == 0.0
        elif np.isfinite(direct):
            assert logged == pytest.approx(direct, rel=1e-12)

    def test_log_path_survives_huge_powers(self):
        # a single power leaves the double range but the weighted value is
        # representable after the gamma division
        fam = DualityFamily("monomial")
        with pytest.raises(OverflowError):
            evaluate_at(fam, (400.0,), (200,))  # the power itself overflows
        weighted = DualityFamily("limiting-sip")
        val = evaluate_at(weighted, (400.0,), (200,))
        want = exp(200 * np.log(400.0) - lgamma(200))
        assert np.isfinite(val) and val == pytest.approx(want, rel=1e-12)


class TestProductGammaReduction:
    def test_one_trivial_factor_reduces_to_gamma_weighted(self):
        # a two-site product with one empty slot equals the single-site
        # gamma-weighted function divided by the constant Gamma(m/2)^2
        m = 3.0
        theta = m / 4.0  # two types
        prod = DualityFamily("product-gamma", theta=theta, d=2)
        single = DualityFamily("gamma-weighted", m=m)
        const = exp(2 * lgamma(m / 2.0))
        for z, n in [(0.3, 0), (0.3, 2), (0.9, 5), (0.05, 1)]:
            lhs = evaluate_at(prod, (z, 1.0 - z), (n, 0)) * const
            rhs = evaluate_at(single, (z,), (n,))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCheapSelfDuality:
    def test_uniform_measure(self):
        D = cheap_self_duality(np.full(3, 1.0 / 3.0))
        assert np.allclose(D, 3.0 * np.eye(3))

    def test_binomial_half(self):
        D = cheap_self_duality(np.array([0.25, 0.5, 0.25]))
        assert np.allclose(np.diag(D), [4.0, 2.0, 4.0])

    def test_moran_reversible_measure_gives_intertwiner(self):
        # stationary law from the null space of Q^T, then detailed balance
        gen = processes.generator_matrix(processes.moran_multitype(2, 2, 0.7))
        ns = null_space(gen.Q.toarray().T)
        assert ns.shape[1] == 1
        mu = ns[:, 0]
        mu = mu / mu.sum()
        assert np.all(mu > 0)
        D = cheap_self_duality(mu)
        assert np.abs(gen.Q @ D - D @ gen.Q.T).max() <= 1e-10

    def test_rejects_bad_measures(self):
        with pytest.raises(ValueError):
            cheap_self_duality(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError):
            cheap_self_duality(np.array([0.7, 0.7]))


class TestTransformBySymmetry:
    def test_identity_leaves_duality(self):
        D = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(transform_by_symmetry(np.eye(2), D), D)

    def test_scalar_scales_and_keeps_residual_zero(self):
        N = 4
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        D2 = transform_by_symmetry(2.5 * np.eye(N + 1), D)
        assert np.allclose(D2, 2.5 * D)
        rep = algebra.check_intertwiner(moran.Q, kingman.Q, D2)
        assert rep.max_abs_residual <= 1e-10

    def test_generator_is_its_own_symmetry(self):
        N = 4
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        D2 = transform_by_symmetry(moran.Q.toarray(), D)
        rep = algebra.check_intertwiner(moran.Q, kingman.Q, D2)
        assert rep.max_abs_residual <= 1e-10

    def test_accepts_a_sparse_generator(self):
        N = 4
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        D = algebra.falling_factorial_matrix(N)
        D2 = transform_by_symmetry(moran.Q, D)
        assert isinstance(D2, np.ndarray)
        assert np.array_equal(D2, moran.Q.toarray() @ D)


class TestHermiteValue:
    def test_recurrence_against_matrix(self):
        H = algebra.hermite_coefficient_matrix(8)
        x = 0.83
        powers = x ** np.arange(9)
        for n in range(9):
            assert hermite_value(n, x) == pytest.approx(float(powers @ H[:, n]), rel=1e-12)
