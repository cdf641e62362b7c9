"""Matrix-exponential oracles, exact duality checks, worked examples."""

from fractions import Fraction
from math import exp

import numpy as np
import pytest

from duality_lab import algebra, exact, processes
from duality_lab.exact import (
    Operator1D,
    check_generator_duality,
    check_pointwise_duality,
    exact_expectation,
    exp_xy_duality,
    matrix_exponential_apply,
    mirror_monomial_duality,
    monomial_duality,
    moran_kingman_residual_exact,
    moran_ladder_product_exact,
    reproduce_example,
)


class TestMatrixExponential:
    def test_zero_time_is_identity(self):
        Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        v = np.array([0.3, 0.7])
        assert np.array_equal(matrix_exponential_apply(Q, v, 0.0), v)

    def test_single_absorbing_state(self):
        Q = np.zeros((1, 1))
        v = np.array([5.0])
        for t in (0.1, 3.0):
            assert matrix_exponential_apply(Q, v, t)[0] == 5.0

    def test_two_state_closed_form(self):
        # symmetric 1 <-> 1 chain diagonalizes explicitly
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        v = np.array([1.0, 0.0])
        out = matrix_exponential_apply(Q, v, 1.0)
        want = np.array([(1 + exp(-2.0)) / 2, (1 - exp(-2.0)) / 2])
        assert np.abs(out - want).max() <= 1e-14

    def test_transpose_flag(self):
        Q = np.array([[-2.0, 2.0], [0.5, -0.5]])
        v = np.array([1.0, 0.0])
        lhs = matrix_exponential_apply(Q, v, 0.7, transpose=True)
        from scipy.linalg import expm

        assert np.allclose(lhs, expm(0.7 * Q.T) @ v, atol=1e-14)

    def test_dimension_and_time_validation(self):
        with pytest.raises(ValueError):
            matrix_exponential_apply(np.zeros((2, 2)), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            matrix_exponential_apply(np.zeros((2, 2)), np.zeros(2), -0.1)


class TestExactExpectation:
    def test_constant_function_is_preserved(self):
        gen = processes.generator_matrix(processes.sip(2, 1.0), truncation=3)
        out = exact_expectation(gen, np.ones(len(gen.index)), (2, 1), 5.0)
        assert out.value == pytest.approx(1.0, abs=1e-10)
        assert out.method == "matrix-exponential"

    def test_block_counting_survival(self):
        gen = processes.generator_matrix(processes.kingman_block(n_max=5))
        f = np.zeros(len(gen.index))
        f[gen.index.pos[(2,)]] = 1.0
        out = exact_expectation(gen, f, (2,), 0.5)
        assert out.value == pytest.approx(exp(-1.0), abs=1e-12)

    def test_inclusion_survival_of_singles(self):
        gen = processes.generator_matrix(processes.sip(2, 0.0), truncation=2)
        f = np.zeros(len(gen.index))
        f[gen.index.pos[(1, 1)]] = 1.0
        out = exact_expectation(gen, f, (1, 1), 1.0)
        assert out.value == pytest.approx(exp(-1.0), abs=1e-12)

    def test_unknown_state(self):
        gen = processes.generator_matrix(processes.sip(2, 0.0), truncation=2)
        with pytest.raises(ValueError):
            exact_expectation(gen, np.ones(3), (5, 5), 1.0)


def _sip_cross_sector(d, N, n=2, m=1.0):
    K = processes.generator_matrix(processes.sip(d, m), truncation=N)
    Kh = processes.generator_matrix(processes.sip(d, m), truncation=n)
    return K, Kh, exact.sip_self_duality_matrix(K.index, Kh.index, m)


class TestOracleSelection:
    """The cost rule picks Krylov or dense from size, norm and sparsity of the input."""

    @pytest.mark.parametrize("d, N", [(3, 30), (4, 16), (4, 20)])
    @pytest.mark.parametrize("t", [0.4, 0.6])
    def test_sparse_sip_sectors_use_krylov(self, d, N, t):
        gen = processes.generator_matrix(processes.sip(d, 1.0), truncation=N)
        assert exact._prefers_krylov(gen.Q, t, 11)
        out = exact_expectation(gen, np.ones(len(gen.index)), gen.index.states[0], t)
        assert out.method == "expm-multiply"
        assert out.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec, truncation, t",
        [
            (processes.moran_multitype(12, 3, 0.5), None, 0.5),
            (processes.kingman_block(theta=0.7, sigma=0.3, n_max=30), None, 1.0),
            (processes.sip(2, 1.0), 200, 1.0),
            (processes.kingman_block(n_max=400), None, 1.0),
        ],
        ids=["moran-d3-N12", "kingman-30", "sip-d2-N200", "kingman-400"],
    )
    def test_small_or_stiff_chains_stay_dense(self, spec, truncation, t):
        gen = processes.generator_matrix(spec, truncation)
        assert not exact._prefers_krylov(gen.Q, t, 1)
        out = exact_expectation(gen, np.ones(len(gen.index)), gen.index.states[-1], t)
        assert out.method == "matrix-exponential"

    def test_dense_beyond_physical_memory_is_refused(self):
        gen = processes.generator_matrix(processes.kingman_block(n_max=200_000))
        with pytest.raises(ValueError, match="needs about .* bytes"):
            matrix_exponential_apply(gen, np.ones(len(gen.index)), 1.0)


class TestLargeSectors:
    def test_oracle_memory_stays_below_one_dense_matrix(self):
        import tracemalloc

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            K, Kh, D = _sip_cross_sector(4, 20)
            exact.matrix_exponential_apply(K, np.column_stack([D, np.ones(len(K.index))]), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(K.index)
        assert n == 1771
        assert peak - start < 8 * n * n

    def test_semigroup_across_sectors_at_3060_states(self):
        K, Kh, D = _sip_cross_sector(5, 14)
        assert len(K.index) == 3060
        t = 0.5
        lhs = matrix_exponential_apply(K, np.column_stack([D, np.ones(len(K.index))]), t)
        rhs = matrix_exponential_apply(Kh, D.T, t).T
        scale = float(np.abs(K.Q @ D).max())
        assert np.abs(lhs[:, :-1] - rhs).max() <= 1e-8 * scale
        assert np.abs(lhs[:, -1] - 1.0).max() <= 1e-10


class TestGeneratorDuality:
    def test_moran_vs_block_counting_n8(self):
        N = 8
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        rep = check_generator_duality(moran, kingman, algebra.falling_factorial_matrix(N))
        assert rep.max_abs_residual <= 1e-10

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_inclusion_self_duality_same_sector(self, m, N):
        gen = processes.generator_matrix(processes.sip(2, m), truncation=N)
        D = exact.sip_self_duality_matrix(gen.index, gen.index, m)
        rep = check_generator_duality(gen, gen, D, name="self-duality")
        assert rep.max_abs_residual <= 1e-10

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    def test_inclusion_self_duality_across_sectors(self, m):
        # the informative version: the dual configuration has fewer
        # particles; the same product formula intertwines the two sectors
        genN = processes.generator_matrix(processes.sip(2, m), truncation=5)
        genn = processes.generator_matrix(processes.sip(2, m), truncation=2)
        D = exact.sip_self_duality_matrix(genN.index, genn.index, m)
        rep = check_generator_duality(genN, genn, D, name="cross-sector")
        assert rep.max_abs_residual <= 1e-10

    def test_three_site_self_duality_across_sectors(self):
        genN = processes.generator_matrix(processes.sip(3, 1.5), truncation=4)
        genn = processes.generator_matrix(processes.sip(3, 1.5), truncation=2)
        D = exact.sip_self_duality_matrix(genN.index, genn.index, 1.5)
        rep = check_generator_duality(genN, genn, D)
        assert rep.max_abs_residual <= 1e-10

    def test_cheap_duality_from_reversibility(self):
        from scipy.linalg import null_space

        from duality_lab.dualities import cheap_self_duality

        gen = processes.generator_matrix(processes.moran_multitype(3, 2, 0.4))
        mu = null_space(gen.Q.toarray().T)[:, 0]
        mu = mu / mu.sum()
        rep = check_generator_duality(gen, gen, cheap_self_duality(mu))
        assert rep.max_abs_residual <= 1e-10


class TestRationalCertification:
    @pytest.mark.parametrize("N", range(2, 11))
    def test_residual_exactly_zero(self, N):
        assert moran_kingman_residual_exact(N) == Fraction(0)

    @pytest.mark.parametrize("N", range(2, 11))
    def test_ladder_product_equals_rate_matrix(self, N):
        ladder = moran_ladder_product_exact(N)
        direct = processes.rational_generator(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        assert ladder == direct

    def test_float_agrees_up_to_twenty(self):
        for N in (12, 16, 20):
            moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
            kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
            D = algebra.falling_factorial_matrix(N)
            assert np.abs(moran.Q @ D - D @ kingman.Q.T).max() <= 1e-10


class TestWfMoranExactMatrices:
    @pytest.mark.parametrize("N,theta", [(2, 0.3), (3, 0.5), (5, 0.8), (6, 1.2)])
    def test_mutation_diffusion_vs_finite_population(self, N, theta):
        L = exact.wf_monomial_matrix(theta, N)
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, theta))
        D = exact.wf_moran_duality_matrix(N, theta)
        rep = check_generator_duality(L, moran, D)
        assert rep.max_abs_residual <= 1e-12

    def test_duality_matrix_columns_are_normalized_powers(self):
        # column k holds x^k (1-x)^(N-k) / (Gamma(a+k) Gamma(a+N-k))
        from math import lgamma

        N, theta = 4, 0.5
        a = 2 * theta
        D = exact.wf_moran_duality_matrix(N, theta)
        x = 0.37
        powers = x ** np.arange(N + 1)
        for k in range(N + 1):
            want = x**k * (1 - x) ** (N - k) * exp(-lgamma(a + k) - lgamma(a + N - k))
            assert float(powers @ D[:, k]) == pytest.approx(want, rel=1e-12)


class TestSemigroupTransfer:
    def test_generator_duality_implies_semigroup_duality(self):
        N = 6
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        for t in (0.1, 1.0, 5.0):
            lhs = matrix_exponential_apply(moran, D, t)
            rhs = matrix_exponential_apply(kingman, D.T, t).T
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_semigroup_transfer_for_self_duality(self):
        m = 2.0
        gen = processes.generator_matrix(processes.sip(2, m), truncation=4)
        D = exact.sip_self_duality_matrix(gen.index, gen.index, m)
        for t in (0.1, 1.0, 5.0):
            lhs = matrix_exponential_apply(gen, D, t)
            rhs = matrix_exponential_apply(gen, D.T, t).T
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_semigroup_transfer_for_mutation_pair(self):
        N, theta = 4, 0.6
        L = exact.wf_monomial_matrix(theta, N)
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, theta))
        D = exact.wf_moran_duality_matrix(N, theta)
        for t in (0.1, 1.0, 5.0):
            lhs = matrix_exponential_apply(L, D, t)
            rhs = matrix_exponential_apply(moran, D.T, t).T
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_stochasticity_preserved(self):
        gen = processes.generator_matrix(processes.kingman_block(theta=0.7, sigma=0.3, n_max=25))
        ones = np.ones(len(gen.index))
        out = matrix_exponential_apply(gen, ones, 1.3)
        assert np.abs(out - 1.0).max() <= 1e-10

    def test_probabilities_stay_nonnegative(self):
        gen = processes.generator_matrix(processes.sip(2, 1.0), truncation=6)
        start = np.zeros(len(gen.index))
        start[2] = 1.0
        probs = matrix_exponential_apply(gen, start, 2.0, transpose=True)
        assert probs.min() >= -1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestPointwiseDuality:
    xs = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    degrees = tuple(range(7))

    def test_neutral_wf_vs_block_counting(self):
        left = processes.wf_general_1d({1: 1.0, 2: -1.0})
        gen = processes.generator_matrix(processes.kingman_block(n_max=10))
        rep = check_pointwise_duality(left, gen, monomial_duality(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_mutation_wf_vs_block_counting_with_mutation(self):
        theta = 0.7
        left = processes.wf_general_1d({1: 1.0, 2: -1.0}, {0: theta, 1: -theta})
        gen = processes.generator_matrix(processes.kingman_block(theta=theta, n_max=10))
        rep = check_pointwise_duality(left, gen, monomial_duality(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_negative_selection_vs_birth_death_dual(self):
        sigma = 0.4
        left = processes.wf_general_1d({1: 1.0, 2: -1.0}, {1: -sigma, 2: sigma})
        gen = processes.generator_matrix(processes.kingman_block(sigma=sigma, n_max=10))
        rep = check_pointwise_duality(left, gen, monomial_duality(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_positive_selection_uses_mirror_powers(self):
        sigma = 0.4
        left = Operator1D(alpha=lambda x: x * (1 - x), beta=lambda x: sigma * x * (1 - x))
        gen = processes.generator_matrix(processes.kingman_block(sigma=sigma, n_max=10))
        rep = check_pointwise_duality(left, gen, mirror_monomial_duality(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_half_laplacian_vs_quadratic_multiplication(self):
        left = Operator1D(alpha=lambda x: 0.5, beta=lambda x: 0.0)
        right = Operator1D(alpha=lambda y: 0.0, beta=lambda y: 0.0, gamma=lambda y: 0.5 * y * y)
        grid = (-1.0, 0.0, 1.0)
        rep = check_pointwise_duality(left, right, exp_xy_duality(), grid, grid)
        assert rep.max_abs_residual <= 1e-9

    def test_half_line_pair_and_self_dual_case(self):
        c1, c2, c3 = 0.8, 0.6, 0.9
        grid = (0.0, 0.5, 1.5)
        left = Operator1D(alpha=lambda x: c1 * x * x + c2 * x, beta=lambda x: c3 * x)
        right = Operator1D(alpha=lambda y: c1 * y * y, beta=lambda y: c2 * y * y + c3 * y)
        rep = check_pointwise_duality(left, right, exp_xy_duality(), grid, grid)
        assert rep.max_abs_residual <= 1e-9
        selfd = Operator1D(alpha=lambda x: c1 * x * x, beta=lambda x: c3 * x)
        rep = check_pointwise_duality(selfd, selfd, exp_xy_duality(), grid, grid)
        assert rep.max_abs_residual <= 1e-9

    def test_missing_derivative_is_rejected(self):
        from duality_lab.exact import PointwiseDuality

        left = Operator1D(alpha=lambda x: 0.5, beta=lambda x: 0.0)
        right = Operator1D(alpha=lambda y: 0.0, beta=lambda y: 0.0, gamma=lambda y: 0.5 * y * y)
        value_only = PointwiseDuality(value=lambda x, y: exp(x * y))
        with pytest.raises(ValueError, match="left-slot derivatives"):
            check_pointwise_duality(left, right, value_only, (0.3, 0.9), (0.2, 1.1))
        # the monomial duality carries only its left-slot derivatives
        with pytest.raises(ValueError, match="right-slot derivatives"):
            check_pointwise_duality(left, right, monomial_duality(), (0.3, 0.9), (0.2, 1.1))

    def test_stepping_stone_both_kernel_shapes(self):
        for kern in (
            ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
            ((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2)),
        ):
            resid = exact.stepping_stone_pointwise_residual(
                kern,
                x_points=((0.2, 0.5, 0.8), (0.4, 0.1, 0.9)),
                n_points=((1, 0, 2), (2, 1, 1), (3, 2, 0)),
            )
            assert resid <= 1e-12


class TestReproduceExamples:
    def test_heterozygosity_matches_closed_form(self):
        rec = reproduce_example("heterozygosity", x=0.3, t=0.5)
        assert rec.abs_diff <= 1e-10
        assert rec.closed_form_value == pytest.approx(0.21 * exp(-0.5) / 0.7 * 0.7)

    def test_record_consistency(self):
        rec = reproduce_example("x2y-two-type")
        assert rec.abs_diff == abs(rec.closed_form_value - rec.oracle_value)

    def test_x2y_oracle_against_independent_derivation(self):
        # two-state switch at rate one with unit absorption from each state
        x, y, t = 0.3, 0.7, 0.5
        rec = reproduce_example("x2y-two-type", x=x, y=y, t=t)
        p_stay = exp(-t) * (1 + exp(-2 * t)) / 2
        p_swap = exp(-t) * (1 - exp(-2 * t)) / 2
        want = x * x * y * p_stay + x * y * y * p_swap
        assert rec.oracle_value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_product_oracle_decays_at_pair_count_rate(self, d):
        # product of all coordinates is an eigenfunction; the decay rate is
        # the number of unordered pairs
        t = 0.4
        rec = reproduce_example("d-type-product", d=d, t=t)
        want = (1.0 / d) ** d * exp(-d * (d - 1) / 2 * t)
        assert rec.oracle_value == pytest.approx(want, abs=1e-12)

    def test_d2_product_matches_quoted_form(self):
        rec = reproduce_example("d-type-product", d=2, t=0.3)
        assert rec.abs_diff <= 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_x2_product_oracle_against_independent_derivation(self, d):
        # conditioned on no absorption (rate d(d-1)/2), the doubled site
        # walks the complete graph at rate one per target
        t = 0.35
        rec = reproduce_example("x2-product-d-type", d=d, t=t)
        xs = [1.0 / d] * d
        alive = exp(-d * (d - 1) / 2 * t)
        want = 0.0
        for i in range(d):
            loc = 1.0 / d + ((1.0 if i == 0 else 0.0) - 1.0 / d) * exp(-d * t)
            want += xs[i] ** 2 * np.prod([xs[j] for j in range(d) if j != i]) * alive * loc
        assert rec.oracle_value == pytest.approx(want, abs=1e-12)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            reproduce_example("nope")


def _reference_sip_self_duality_matrix(index_rows, index_cols, m):
    # the entry-by-entry double loop the vectorised version replaced
    from math import lgamma

    a = m / 2.0
    out = np.zeros((len(index_rows), len(index_cols)))
    for i, k in enumerate(index_rows.states):
        for j, xi in enumerate(index_cols.states):
            if len(k) != len(xi):
                raise ValueError("sector dimensions differ")
            if any(x > y for x, y in zip(xi, k)):
                continue
            val = 1.0
            for ki, xii in zip(k, xi):
                for step in range(xii):
                    val *= ki - step
                val *= exp(lgamma(a) - lgamma(a + xii))
            out[i, j] = val
    return out


class TestSipSelfDualityMatrix:
    @pytest.mark.parametrize(
        "d, N, n, m", [(3, 30, 2, 1.0), (4, 16, 2, 1.0), (4, 20, 2, 1.0), (3, 12, 5, 2.0), (2, 40, 7, 0.5)]
    )
    def test_matches_double_loop_bitwise(self, d, N, n, m):
        rows = processes.enumerate_states(d, N)
        cols = processes.enumerate_states(d, n)
        got = exact.sip_self_duality_matrix(rows, cols, m)
        assert np.array_equal(got, _reference_sip_self_duality_matrix(rows, cols, m))

    def test_rejects_sectors_of_different_dimension(self):
        with pytest.raises(ValueError, match="sector dimensions differ"):
            exact.sip_self_duality_matrix(processes.enumerate_states(3, 4), processes.enumerate_states(2, 2), 1.0)
