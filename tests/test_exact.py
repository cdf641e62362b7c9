"""Matrix-exponential oracles, exact duality checks, worked examples."""

from decimal import Decimal, getcontext
from fractions import Fraction
from math import comb, exp, lgamma

import numpy as np
import pytest
import scipy.linalg

from duality_lab import algebra, exact, processes
from duality_lab.dualities import Exponential, MirrorMonomial, Monomial
from duality_lab.exact import (
    Operator1D,
    check_generator_duality,
    check_pointwise_duality,
    exact_expectation,
    matrix_exponential_apply,
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


def _middle_indicator(n):
    """The indicator of the middle state: a vector whose span no test chain leaves invariant."""
    v = np.zeros(n)
    v[n // 2] = 1.0
    return v


class TestOracleSelection:
    """The cost rule picks uniformization or dense from size, rates and sparsity of the input."""

    @pytest.mark.parametrize("d, N", [(3, 30), (4, 16), (4, 20)])
    @pytest.mark.parametrize("t", [0.4, 0.6])
    def test_sparse_sip_sectors_are_uniformized(self, d, N, t):
        gen = processes.generator_matrix(processes.sip(d, 1.0), truncation=N)
        assert exact._prefers_uniformization(gen.Q, t, 11)
        # swapping the first two sites fixes the start (0, ..., 0, N) and
        # exchanges a and b, so E f(X_t) is still 1, yet f spans no invariant line
        start = gen.index.states[0]
        a, b = list(start), list(start)
        a[0], a[-1], b[1], b[-1] = 1, N - 1, 1, N - 1
        f = np.ones(len(gen.index))
        f[gen.index.pos[tuple(a)]] += 1.0
        f[gen.index.pos[tuple(b)]] -= 1.0
        out = exact_expectation(gen, f, start, t)
        assert out.method == "uniformization"
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
        assert not exact._prefers_uniformization(gen.Q, t, 1)
        out = exact_expectation(gen, _middle_indicator(len(gen.index)), gen.index.states[-1], t)
        assert out.method == "matrix-exponential"

    @pytest.mark.parametrize("d, N", [(3, 30), (4, 16), (4, 20)])
    @pytest.mark.parametrize("t", [0.4, 0.6])
    def test_exact_oracle_sectors_stay_uniformized(self, d, N, t):
        # the benchmark's columns: the duality against the n = 2 sector and ones
        gen = processes.generator_matrix(processes.sip(d, 1.0), truncation=N)
        assert exact._prefers_uniformization(gen.Q, t, comb(d + 1, d - 1) + 1)

    def test_mc_jump_oracle_stays_dense(self):
        gen = processes.generator_matrix(processes.moran_multitype(12, 3, 0.5))
        assert len(gen.index) == 91
        assert not exact._prefers_uniformization(gen.Q, 0.5, 1)

    @pytest.mark.parametrize(
        "spec, truncation, t, cols, uniformize",
        [
            # few nonzeros per product: the fixed cost of each product decides
            (processes.kingman_block(n_max=150), None, 0.02, 1, False),
            (processes.sip(2, 1.0), 200, 0.15, 1, False),
            # many columns: the products are cheap beside dense expm
            (processes.sip(3, 1.0), 15, 0.5, 11, True),
            (processes.sip(3, 1.0), 20, 2.0, 11, True),
        ],
        ids=["kingman-150", "sip-d2-N200", "sip-d3-N15", "sip-d3-N20"],
    )
    def test_each_product_counts_its_fixed_cost(self, spec, truncation, t, cols, uniformize):
        gen = processes.generator_matrix(spec, truncation)
        assert exact._prefers_uniformization(gen.Q, t, cols) is uniformize

    def test_dense_beyond_physical_memory_is_refused_by_the_reader(self, monkeypatch):
        gen = processes.generator_matrix(processes.kingman_block(n_max=300))
        monkeypatch.setattr(processes, "_physical_memory", lambda: 1_000_000)
        with pytest.raises(ValueError, match="dense matrix exponential of 301 states needs about"):
            matrix_exponential_apply(gen, _middle_indicator(len(gen.index)), 1.0)

    def test_dense_beyond_physical_memory_is_refused(self):
        gen = processes.generator_matrix(processes.kingman_block(n_max=200_000))
        with pytest.raises(ValueError, match="needs about .* bytes"):
            matrix_exponential_apply(gen, _middle_indicator(len(gen.index)), 1.0)


class TestUniformization:
    """The uniformized action against dense ``scipy.linalg.expm``, within 1e-12 of max|result|."""

    @staticmethod
    def _assert_matches_expm(M, v, t, transpose=False):
        A = M.toarray() if hasattr(M, "toarray") else np.asarray(M)
        want = scipy.linalg.expm(t * (A.T if transpose else A)) @ v
        got = exact._uniformized(M, np.asarray(v, dtype=float), t, transpose)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        return got

    @pytest.mark.parametrize("d, N, n", [(3, 30, 3), (4, 20, 2)], ids=["496-states", "1771-states"])
    def test_sip_sectors_eleven_columns(self, d, N, n):
        K, Kh, D = _sip_cross_sector(d, N, n)
        B = np.column_stack([D, np.ones(len(K.index))])
        assert B.shape[1] == 11
        got = self._assert_matches_expm(K.Q, B, 0.5)
        assert np.abs(got[:, -1] - 1.0).max() <= 1e-14

    def test_moran_with_mutation(self):
        gen = processes.generator_matrix(processes.moran_multitype(12, 3, 0.7))
        B = np.random.default_rng(3).random((len(gen.index), 4))
        self._assert_matches_expm(gen.Q, B, 0.8)

    def test_truncated_stepping_stone_dual(self):
        kernel = ((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2))
        gen = processes.generator_matrix(processes.stepping_stone_dual(kernel), truncation=8)
        B = np.random.default_rng(4).random((len(gen.index), 3))
        self._assert_matches_expm(gen.Q, B, 0.6)

    def test_block_counting_with_selection(self):
        gen = processes.generator_matrix(processes.kingman_block(theta=0.7, sigma=0.3, n_max=30))
        B = np.random.default_rng(5).random((len(gen.index), 2))
        self._assert_matches_expm(gen.Q, B, 0.05)

    def test_killed_sub_generator(self):
        # the d = 3 Moran chain on the states where every type is present,
        # killed when one dies out: rows that can reach the boundary sum below 0
        gen = processes.generator_matrix(processes.moran_multitype(20, 3, 0.0))
        # a state lists the counts of the first d - 1 types
        keep = [i for i, state in enumerate(gen.index.states) if min(state) > 0 and sum(state) < 20]
        Q = gen.Q.toarray()[np.ix_(keep, keep)]
        assert len(keep) == 171 and Q.sum(axis=1).min() < -1.0
        v = np.random.default_rng(6).random((len(keep), 2))
        got, method = exact._exponential_action(Q, v, 0.05, False)
        assert method == "uniformization"
        want = scipy.linalg.expm(0.05 * Q) @ v
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_transpose(self):
        gen = processes.generator_matrix(processes.kingman_block(theta=0.7, sigma=0.3, n_max=30))
        start = np.zeros(len(gen.index))
        start[gen.index.pos[(5,)]] = 1.0
        probs = self._assert_matches_expm(gen.Q, start, 0.05, transpose=True)
        assert abs(probs.sum() - 1.0) <= 1e-14

    def test_vector_argument(self):
        K, _, D = _sip_cross_sector(3, 20, 2)
        got = self._assert_matches_expm(K.Q, D[:, 2], 0.4)
        assert got.ndim == 1

    def test_every_state_absorbing(self):
        Q = np.zeros((200, 200))
        v = np.random.default_rng(7).random((200, 3))
        got, method = exact._exponential_action(Q, v, 2.0, False)
        assert method == "uniformization"
        assert np.array_equal(got, v)

    def test_long_horizon_does_not_underflow(self):
        # Lambda t of about 1,000: exp(-Lambda t) alone underflows to 0
        gen = processes.generator_matrix(processes.sip(2, 1.0), truncation=99)
        assert len(gen.index) == 100
        t = 1000.0 / -gen.Q.diagonal().min()
        B = np.column_stack([np.random.default_rng(8).random(100), np.ones(100)])
        got = self._assert_matches_expm(gen.Q, B, t)
        assert np.abs(got[:, -1] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("x", [2.5, 2000.0])
    def test_flip_flop_closed_form(self, x):
        # P = I + Q / Lambda swaps the two states, so the terms alternate:
        # exp(tQ) e_1 = ((1 + exp(-2x)) / 2, (1 - exp(-2x)) / 2) with x = Lambda t
        Q = np.array([[-3.0, 3.0], [3.0, -3.0]])
        got = exact._uniformized(Q, np.array([1.0, 0.0]), x / 3.0, False)
        want = np.array([(1 + exp(-2 * x)) / 2, (1 - exp(-2 * x)) / 2])
        assert np.abs(got - want).max() <= 1e-14

    def test_negative_off_diagonal_goes_dense(self):
        gen = processes.generator_matrix(processes.sip(3, 1.0), truncation=20)
        Q = gen.Q.toarray()
        v = _middle_indicator(len(Q))
        assert exact._exponential_action(Q, v, 0.5, False)[1] == "uniformization"
        Q[0, 1] -= 2.0 * Q[0, 1] + 1.0
        got, method = exact._exponential_action(Q, v, 0.5, False)
        assert method == "matrix-exponential"
        assert np.array_equal(got, scipy.linalg.expm(0.5 * Q) @ v)

    def test_positive_row_sum_goes_dense(self):
        gen = processes.generator_matrix(processes.sip(3, 1.0), truncation=20)
        Q = gen.Q.toarray()
        Q[0, 1] += 1.0
        assert exact._exponential_action(Q, np.ones(len(Q)), 0.5, False)[1] == "matrix-exponential"

    @pytest.mark.parametrize("x", [0.3, 7.5, 108.2, 1000.0])
    def test_poisson_weights_stop_at_the_first_small_tail_bound(self, x):
        # exact Poisson(x) probabilities to 60 digits: the kept terms end at the
        # first k > x whose bound w_k (k + 1) / (k + 1 - x) is below the unit
        # roundoff, and the terms left out carry less than that mass
        getcontext().prec = 60
        unit = Decimal(2) ** -53
        X = Decimal(x)
        k, p, kept = 0, (-X).exp(), []
        while k <= x or p * (k + 1) / (k + 1 - X) >= unit:
            kept.append(p)
            k += 1
            p = p * X / k
        weights = exact._poisson_weights(x)
        assert len(weights) == len(kept)
        assert 1 - sum(kept) < unit
        want = np.array([float(p / sum(kept)) for p in kept])
        assert np.abs(weights - want).max() <= 1e-14 * want.max()


def _reference_orthonormal_rows(B, cutoff):
    # Gram-Schmidt with pivoting: each step takes the row farthest from the
    # span so far, projects it off the span a second time and normalises
    # it, until every row is within cutoff of the span
    rest = B.copy()
    W = np.empty_like(rest)
    r = 0
    while r < len(rest):
        norms = np.einsum("ij,ij->i", rest, rest)
        j = int(norms.argmax())
        if not norms[j] > cutoff * cutoff:
            break
        q = rest[j] / np.sqrt(norms[j])
        q -= (W[:r] @ q) @ W[:r]
        q /= np.sqrt(q @ q)
        W[r] = q
        rest -= np.outer(rest @ q, q)
        r += 1
    return W[:r]


class TestOrthonormalRows:
    """The pivoted-QR basis against the Gram-Schmidt reference: the same rank and the same span."""

    @staticmethod
    def _block(case):
        if case in ("496-states", "969-states", "1771-states"):
            d, N = {"496-states": (3, 30), "969-states": (4, 16), "1771-states": (4, 20)}[case]
            K, _, D = _sip_cross_sector(d, N)
            return np.column_stack([D, np.ones(len(K.index))]).T
        B = np.random.default_rng(12).random((5, 300))
        if case == "random":
            return B
        # a repeated row, a combination and a row 1e-14 off another
        return np.vstack([B, B[1], B[0] - 2.0 * B[3], B[2] * (1.0 + 1e-14)])

    @pytest.mark.parametrize("case", ["496-states", "969-states", "1771-states", "random", "rank-deficient"])
    def test_same_rank_and_span_as_gram_schmidt(self, case):
        B = self._block(case)
        cutoff = 1e-12 * np.abs(B).max()
        got, want = exact._orthonormal_rows(B, cutoff), _reference_orthonormal_rows(B, cutoff)
        assert got.shape == want.shape
        assert np.abs(got @ got.T - np.eye(len(got))).max() <= 1e-13
        # the cosines of the principal angles between the two spans
        assert np.abs(np.linalg.svd(got @ want.T, compute_uv=False) - 1.0).max() <= 1e-12

    def test_a_nan_cutoff_keeps_no_row(self):
        B = np.random.default_rng(13).random((3, 200))
        assert exact._orthonormal_rows(B, float("nan")).shape == (0, 200)


class TestInvariantSubspace:
    """A block whose span the generator leaves invariant is exponentiated on that span, within 1e-12 of max|v|."""

    @staticmethod
    def _assert_matches_uniformized(K, B, t, method, transpose=False):
        got, used = exact._exponential_action(K, B, t, transpose)
        assert used == method
        want = exact._uniformized(K.Q, B, t, transpose)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(B).max()
        return got

    @pytest.mark.parametrize(
        "d, N, rank",
        [(3, 30, 6), (4, 16, 10), (4, 20, 10), (5, 14, 15)],
        ids=["496-states", "969-states", "1771-states", "3060-states"],
    )
    def test_duality_blocks_with_the_constants(self, d, N, rank):
        # the constants lie in the span of D, so the pivoted basis drops a direction
        K, _, D = _sip_cross_sector(d, N)
        B = np.column_stack([D, np.ones(len(K.index))])
        assert len(exact._orthonormal_rows(B.T, 1e-12 * np.abs(B).max())) == rank == B.shape[1] - 1
        got = self._assert_matches_uniformized(K, B, 0.5, "invariant-subspace")
        assert np.abs(got[:, -1] - 1.0).max() <= 1e-12

    def test_perturbed_column_falls_back(self):
        K, _, D = _sip_cross_sector(3, 30)
        D[:, 2] *= 1.0 + 1e-6 * np.random.default_rng(9).random(len(K.index))
        self._assert_matches_uniformized(K, D, 0.5, "uniformization")

    def test_random_block_falls_back(self):
        K, _, _ = _sip_cross_sector(3, 30)
        B = np.random.default_rng(10).random((len(K.index), 4))
        self._assert_matches_uniformized(K, B, 0.5, "uniformization")

    def test_stationary_distribution_under_transpose(self):
        # the reversible measure prod_i Gamma(m/2 + k_i) / k_i! spans the kernel of K^T
        K, _, _ = _sip_cross_sector(3, 30)
        logs = [sum(lgamma(0.5 + k) - lgamma(1 + k) for k in state) for state in K.index.states]
        pi = np.exp(np.array(logs) - max(logs))
        pi /= pi.sum()
        got = self._assert_matches_uniformized(K, pi, 0.5, "invariant-subspace", transpose=True)
        assert np.abs(got - pi).max() <= 1e-12 * pi.max()

    def test_constants_skip_the_dense_memory_guard(self):
        gen = processes.generator_matrix(processes.kingman_block(n_max=200_000))
        got, method = exact._exponential_action(gen, np.ones(len(gen.index)), 1.0, False)
        assert method == "invariant-subspace"
        assert np.abs(got - 1.0).max() <= 1e-12


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

        gen = processes.generator_matrix(processes.moran_multitype(3, 2, 0.4))
        mu = null_space(gen.Q.toarray().T)[:, 0]
        mu = mu / mu.sum()
        rep = check_generator_duality(gen, gen, np.diag(1 / mu))
        assert rep.max_abs_residual <= 1e-10


class TestRationalCertification:
    # at N = 40 the products' common denominators pass 2^63
    @pytest.mark.parametrize("N", [*range(2, 11), 40])
    def test_residual_exactly_zero(self, N):
        assert moran_kingman_residual_exact(N) == Fraction(0)

    @pytest.mark.parametrize("N", [*range(2, 11), 40])
    def test_ladder_product_equals_rate_matrix(self, N):
        ladder, l = moran_ladder_product_exact(N)
        direct, d = processes.rational_generator(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        # ladder / l == direct / d, cross-multiplied
        assert (d * ladder == l * direct).all()

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
        chain = processes.kingman_block(n_max=10)
        rep = check_pointwise_duality(left, chain, Monomial(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_mutation_wf_vs_block_counting_with_mutation(self):
        theta = 0.7
        left = processes.wf_general_1d({1: 1.0, 2: -1.0}, {0: theta, 1: -theta})
        chain = processes.kingman_block(theta=theta, n_max=10)
        rep = check_pointwise_duality(left, chain, Monomial(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_negative_selection_vs_birth_death_dual(self):
        sigma = 0.4
        left = processes.wf_general_1d({1: 1.0, 2: -1.0}, {1: -sigma, 2: sigma})
        chain = processes.kingman_block(sigma=sigma, n_max=10)
        rep = check_pointwise_duality(left, chain, Monomial(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_positive_selection_uses_mirror_powers(self):
        sigma = 0.4
        left = Operator1D(alpha=lambda x: x * (1 - x), beta=lambda x: sigma * x * (1 - x))
        chain = processes.kingman_block(sigma=sigma, n_max=10)
        rep = check_pointwise_duality(left, chain, MirrorMonomial(), self.xs, self.degrees)
        assert rep.max_abs_residual <= 1e-9

    def test_half_laplacian_vs_quadratic_multiplication(self):
        left = Operator1D(alpha=lambda x: 0.5, beta=lambda x: 0.0)
        right = Operator1D(alpha=lambda y: 0.0, beta=lambda y: 0.0, gamma=lambda y: 0.5 * y * y)
        grid = (-1.0, 0.0, 1.0)
        rep = check_pointwise_duality(left, right, Exponential(), grid, grid)
        assert rep.max_abs_residual <= 1e-9

    def test_half_line_pair_and_self_dual_case(self):
        c1, c2, c3 = 0.8, 0.6, 0.9
        grid = (0.0, 0.5, 1.5)
        left = Operator1D(alpha=lambda x: c1 * x * x + c2 * x, beta=lambda x: c3 * x)
        right = Operator1D(alpha=lambda y: c1 * y * y, beta=lambda y: c2 * y * y + c3 * y)
        rep = check_pointwise_duality(left, right, Exponential(), grid, grid)
        assert rep.max_abs_residual <= 1e-9
        selfd = Operator1D(alpha=lambda x: c1 * x * x, beta=lambda x: c3 * x)
        rep = check_pointwise_duality(selfd, selfd, Exponential(), grid, grid)
        assert rep.max_abs_residual <= 1e-9

    def test_missing_derivative_is_rejected(self):
        class ValueOnly:
            def value(self, x, y):
                return exp(x[0] * y[0])

        left = Operator1D(alpha=lambda x: 0.5, beta=lambda x: 0.0)
        right = Operator1D(alpha=lambda y: 0.0, beta=lambda y: 0.0, gamma=lambda y: 0.5 * y * y)
        value_only = ValueOnly()
        with pytest.raises(ValueError, match="left-slot derivatives"):
            check_pointwise_duality(left, right, value_only, (0.3, 0.9), (0.2, 1.1))
        # the monomial duality carries only its left-slot derivatives
        with pytest.raises(ValueError, match="right-slot derivatives"):
            check_pointwise_duality(left, right, Monomial(), (0.3, 0.9), (0.2, 1.1))

    def test_stepping_stone_both_kernel_shapes(self):
        for kern in (
            ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
            ((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2)),
        ):
            resid = check_pointwise_duality(
                processes.stepping_stone_forward(kern),
                processes.stepping_stone_dual(kern),
                Monomial(),
                ((0.2, 0.5, 0.8), (0.4, 0.1, 0.9)),
                ((1, 0, 2), (2, 1, 1), (3, 2, 0)),
            ).max_abs_residual
            assert resid <= 1e-12


def _reference_mono(x, n):
    out = 1.0
    for xi, ni in zip(x, n):
        out *= xi**ni
    return out


def _reference_mono_partial(x, n, *sites):
    powers, coef = list(n), 1
    for i in sites:
        coef *= powers[i]
        powers[i] -= 1
    return coef * _reference_mono(x, powers) if coef else 0.0


def _reference_stepping_stone_residual(kernel, x_points, n_points):
    # the dedicated stepping-stone check the one pointwise engine replaced:
    # model coefficients on the left, the dual chain's rates on the right
    spec = processes.stepping_stone_forward(kernel)
    dual = processes.stepping_stone_dual(kernel)
    b, a = spec.coefficients(np.asarray(x_points, dtype=float))
    sites = range(spec.dim)
    worst = 0.0
    for x, bx, ax in zip(x_points, b, a):
        for n in n_points:
            lhs = sum(bx[i] * _reference_mono_partial(x, n, i) for i in sites)
            lhs += 0.5 * sum(ax[i, j] * _reference_mono_partial(x, n, i, j) for i in sites for j in sites if ax[i, j])
            base = _reference_mono(x, n)
            rhs = 0.0
            for target, rate in dual.transitions([tuple(n)])[0]:
                rhs += rate * (_reference_mono(x, target) - base)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _central_difference(f, x, coords):
    """The derivative of ``f`` at the tuple ``x`` in the listed coordinates."""
    if not coords:
        return f(x)
    h = 1e-5 if len(coords) == 1 else 1e-4
    i, rest = coords[0], coords[1:]
    up, down = list(x), list(x)
    up[i] += h
    down[i] -= h
    return (_central_difference(f, tuple(up), rest) - _central_difference(f, tuple(down), rest)) / (2 * h)


def _assert_partials_match(D, u, w, slot):
    partial = D.u_partial if slot == "left" else D.w_partial
    at = u if slot == "left" else w
    f = (lambda v: D.value(v, w)) if slot == "left" else (lambda v: D.value(u, v))
    sites = range(len(at))
    for coords in [(i,) for i in sites] + [(i, j) for i in sites for j in sites]:
        got, want = partial(u, w, *coords), _central_difference(f, at, coords)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (u, w, coords, got, want)


class TestPointwiseEngine:
    """The one pointwise engine against the dedicated stepping-stone check it replaced."""

    X_POINTS = ((0.2, 0.5, 0.8), (0.4, 0.1, 0.9), (0.7, 0.7, 0.2))
    N_POINTS = ((0, 0, 0), (1, 0, 2), (2, 1, 1), (3, 2, 0))

    @pytest.mark.parametrize(
        "kern",
        [
            ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
            ((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2)),
        ],
    )
    def test_stepping_stone_shipped_kernels_bit_for_bit(self, kern):
        rep = check_pointwise_duality(
            processes.stepping_stone_forward(kern),
            processes.stepping_stone_dual(kern),
            Monomial(),
            self.X_POINTS,
            self.N_POINTS,
        )
        assert rep.max_abs_residual == _reference_stepping_stone_residual(kern, self.X_POINTS, self.N_POINTS)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stepping_stone_random_kernels_bit_for_bit(self, d):
        rng = np.random.default_rng(7000 + d)
        for _ in range(5):
            kern = rng.random((d, d))
            kern /= kern.sum(axis=1, keepdims=True)
            x_points = tuple(map(tuple, rng.random((4, d)).tolist()))
            n_points = tuple(map(tuple, rng.integers(0, 4, size=(5, d)).tolist()))
            rep = check_pointwise_duality(
                processes.stepping_stone_forward(kern),
                processes.stepping_stone_dual(kern),
                Monomial(),
                x_points,
                n_points,
            )
            assert rep.max_abs_residual == _reference_stepping_stone_residual(kern, x_points, n_points)

    @pytest.mark.parametrize("D", [Monomial(), MirrorMonomial()], ids=["monomial", "mirror"])
    def test_power_partials_match_central_differences_1d(self, D):
        for x in (0.2, 0.55, 0.9):
            for n in range(6):
                _assert_partials_match(D, (x,), (n,), "left")

    def test_monomial_partials_match_central_differences_3_sites(self):
        for n in ((0, 0, 0), (2, 1, 3), (1, 0, 2), (0, 3, 1)):
            _assert_partials_match(Monomial(), (0.3, 0.6, 0.8), n, "left")

    @pytest.mark.parametrize("slot", ["left", "right"])
    def test_exp_xy_partials_match_central_differences(self, slot):
        for x in (-1.0, 0.5, 1.5):
            for y in (-0.7, 0.0, 1.2):
                _assert_partials_match(Exponential(), (x,), (y,), slot)

    def test_jump_model_on_the_left_is_rejected(self):
        neutral = processes.wf_general_1d({1: 1.0, 2: -1.0})
        with pytest.raises(ValueError, match="pass it as right"):
            check_pointwise_duality(processes.kingman_block(), neutral, Monomial(), (1, 2), (0.3,))

    @pytest.mark.parametrize("slot", ["left", "right"])
    def test_generator_matrix_is_rejected(self, slot):
        neutral = processes.wf_general_1d({1: 1.0, 2: -1.0})
        gen = processes.generator_matrix(processes.kingman_block(n_max=5))
        sides = (gen, neutral) if slot == "left" else (neutral, gen)
        with pytest.raises(TypeError, match="pass the JumpModel itself"):
            check_pointwise_duality(*sides, Monomial(), (0.3,), (1, 2))


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
    # the first three are the exact-oracle benchmark's sectors
    @pytest.mark.parametrize(
        "d, N, n, m", [(3, 30, 2, 1.0), (4, 16, 2, 1.0), (4, 20, 2, 1.0), (3, 12, 5, 2.0), (2, 40, 7, 0.5)]
    )
    def test_matches_double_loop_bitwise(self, d, N, n, m):
        rows = processes.enumerate_states(d, N)
        cols = processes.enumerate_states(d, n)
        got = exact.sip_self_duality_matrix(rows, cols, m)
        assert np.array_equal(got, _reference_sip_self_duality_matrix(rows, cols, m))
        # array_equal counts -0.0 equal to the reference's +0.0 zeros
        assert not np.signbit(got).any()
        assert got.flags.c_contiguous

    def test_rejects_sectors_of_different_dimension(self):
        with pytest.raises(ValueError, match="sector dimensions differ"):
            exact.sip_self_duality_matrix(processes.enumerate_states(3, 4), processes.enumerate_states(2, 2), 1.0)
