"""Ladder-operator representations, commutation and intertwiner checks."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab import algebra, dualities, processes


def canonical(family, M, **kw):
    return algebra.build_representation(family, M, **kw)


class TestBuildRepresentation:
    def test_derivative_entry_on_monomials(self):
        # d/dx maps the x^2 coefficient to twice the x^1 coefficient
        rep = canonical("heisenberg-continuous", 3)
        assert rep.ops["lower"][1, 2] == 2.0
        v = np.zeros(4)
        v[2] = 1.0  # x^2
        out = rep.ops["lower"] @ v
        assert np.array_equal(out, [0.0, 2.0, 0.0, 0.0])

    def test_discrete_commutator_is_minus_identity_except_last(self):
        rep = canonical("heisenberg-discrete", 3)
        comm = algebra.commutator(rep.ops["lower"], rep.ops["raise"])
        assert np.allclose(comm[:3, :3], -np.eye(3))
        assert comm[3, 3] != -1.0

    def test_finite_lowering_acts_on_degree_one(self):
        N = 4
        rep = canonical("heisenberg-finite-N", N, N=N)
        D = algebra.falling_factorial_matrix(N)
        assert np.allclose(rep.ops["lower"] @ D[:, 1], 1.0 * D[:, 0], atol=1e-12)

    def test_su11_discrete_lowering_reads_previous_value(self):
        # function action: (lower f)(3) = 3 f(2), so row 3 of the matrix is
        # 3 times the indicator of n = 2
        rep = canonical("su11-discrete", 5, m=2.0)
        want = np.zeros(6)
        want[2] = 3.0
        assert np.array_equal(rep.ops["lower"][3], want)
        # equivalently, the transpose moves the indicator measure at n = 3
        f = np.zeros(6)
        f[3] = 1.0
        assert np.array_equal(rep.ops["lower"].T @ f, want)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            canonical("su11-continuous", 5)  # missing m
        with pytest.raises(ValueError):
            canonical("su11-discrete", 5, m=-1.0)
        with pytest.raises(ValueError):
            canonical("heisenberg-finite-N", 5, N=4)  # M != N
        with pytest.raises(ValueError):
            canonical("heisenberg-continuous", 0)
        with pytest.raises(ValueError):
            canonical("nonsense", 5)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        P = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(algebra.commutator(P, P), np.zeros((3, 3)))

    def test_continuous_pair_gives_identity_inside(self):
        rep = canonical("heisenberg-continuous", 6)
        comm = algebra.commutator(rep.ops["lower"], rep.ops["raise"])
        assert np.allclose(comm[:6, :6], np.eye(6))

    def test_su11_discrete_pair_gives_minus_twice_number(self):
        # the discrete family realizes the sign-flipped relations, so the
        # lower/raise commutator is -2 times the number operator inside
        rep = canonical("su11-discrete", 6, m=1.5)
        comm = algebra.commutator(rep.ops["lower"], rep.ops["raise"])
        want = -2.0 * rep.ops["number"]
        assert np.allclose(comm[:5, :5], want[:5, :5], atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            algebra.commutator(np.eye(3), np.eye(4))


class TestCommutationRelations:
    def test_finite_population_block_is_exact(self):
        rep = canonical("heisenberg-finite-N", 6, N=6)
        (report,) = algebra.check_commutation_relations(rep)
        assert report.max_abs_residual <= 1e-12

    def test_su11_continuous_reports(self):
        rep = canonical("su11-continuous", 8, m=1.0)
        for report in algebra.check_commutation_relations(rep):
            assert report.max_abs_residual <= 1e-12, report.identity

    def test_heisenberg_discrete_reports(self):
        rep = canonical("heisenberg-discrete", 5)
        (report,) = algebra.check_commutation_relations(rep)
        assert report.max_abs_residual == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(algebra.FAMILIES),
        M=st.integers(min_value=2, max_value=32),
        m=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    )
    def test_all_families_hold_to_1e10(self, family, M, m):
        kw = {}
        if family.startswith("su11"):
            kw["m"] = m
        if family == "heisenberg-finite-N":
            kw["N"] = M
        rep = algebra.build_representation(family, M, **kw)
        for report in algebra.check_commutation_relations(rep):
            assert report.max_abs_residual <= 1e-10, (family, M, report.identity)


class TestDualityMatrix:
    def test_monomial_gives_identity(self):
        fam = dualities.DualityFamily("monomial")
        basis = algebra.Basis("monomial", 6)
        cols = algebra.Basis("occupation", 6)
        assert np.array_equal(algebra.duality_matrix(fam, basis, cols), np.eye(6))

    def test_falling_factorial_column(self):
        fam = dualities.DualityFamily("hypergeometric-finite", N=3)
        basis = algebra.Basis("occupation", 4)
        D = algebra.duality_matrix(fam, basis, basis)
        assert np.allclose(D[:, 1], [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        assert D[2, 2] == pytest.approx(1.0 / 3.0)

    def test_exponential_is_not_expressible(self):
        fam = dualities.DualityFamily("exponential")
        basis = algebra.Basis("monomial", 5)
        with pytest.raises(ValueError):
            algebra.duality_matrix(fam, basis, basis)

    @pytest.mark.parametrize("N", [2, 5, 10, 15, 20])
    def test_invertible_up_to_twenty(self, N):
        D = algebra.falling_factorial_matrix(N)
        rng = np.random.default_rng(N)
        for _ in range(3):
            b = rng.normal(size=N + 1)
            x = np.linalg.solve(D, b)
            assert np.abs(D @ x - b).max() <= 1e-6 * max(1.0, np.abs(b).max())

    def test_gamma_weighted_diagonal_intertwines_su11(self):
        M, m = 9, 1.7
        cont = canonical("su11-continuous", M, m=m)
        disc = canonical("su11-discrete", M, m=m)
        D = algebra.duality_matrix(dualities.DualityFamily("gamma-weighted", m=m), cont.basis, disc.basis)
        for name in ("lower", "raise", "number"):
            rep = algebra.check_intertwiner(
                cont.ops[name], disc.ops[name], D, rows=slice(0, M - 1), cols=slice(0, M - 1)
            )
            assert rep.max_abs_residual <= 1e-12, name


class TestIntertwiner:
    def test_moran_vs_block_counting(self):
        N = 5
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        rep = algebra.check_intertwiner(moran.Q, kingman.Q, D)
        assert rep.max_abs_residual <= 1e-10

    def test_identity_duality_reads_off_symmetry(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(4, 4))
        rep = algebra.check_intertwiner(G, G, np.eye(4))
        assert rep.max_abs_residual == pytest.approx(np.abs(G - G.T).max())
        sym = (G + G.T) / 2
        assert algebra.check_intertwiner(sym, sym, np.eye(4)).max_abs_residual == 0.0

    def test_neutral_diffusion_on_monomials_vs_dual_chain(self):
        M = 8
        size = M + 1
        A = algebra._monomial_derivative(size)
        X = algebra._monomial_multiply(size)
        K = (X - X @ X) @ A @ A
        chain = processes.generator_matrix(processes.kingman_block(n_max=M))
        rep = algebra.check_intertwiner(
            K, chain.Q, np.eye(size), rows=slice(0, M - 1), cols=slice(0, M - 1)
        )
        assert rep.max_abs_residual == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            algebra.check_intertwiner(np.eye(3), np.eye(3), np.ones((4, 3)))


class TestHermiteConstruction:
    def test_first_polynomials(self):
        H = algebra.hermite_coefficient_matrix(3)
        assert np.array_equal(H[:, 0], [1, 0, 0, 0])
        assert np.array_equal(H[:, 1], [0, 2, 0, 0])
        assert np.array_equal(H[:, 2], [-2, 0, 4, 0])
        assert np.array_equal(H[:, 3], [0, -12, 0, 8])

    def test_gauged_ladder_pair_satisfies_ccr(self):
        # conjugating x - d/dx and (x + d/dx)/2 by the Gaussian weight
        # gives 2x - d/dx and (1/2) d/dx on plain polynomial coefficients
        M = 10
        size = M + 1
        A = algebra._monomial_derivative(size)
        X = algebra._monomial_multiply(size)
        low, rai = 0.5 * A, 2.0 * X - A
        comm = algebra.commutator(low, rai)
        assert np.allclose(comm[: M - 1, : M - 1], np.eye(M - 1))

    def test_hermite_matrix_intertwines_ladders(self):
        M = 10
        size = M + 1
        A = algebra._monomial_derivative(size)
        X = algebra._monomial_multiply(size)
        low, rai = 0.5 * A, 2.0 * X - A
        H = algebra.hermite_coefficient_matrix(M)
        disc = canonical("heisenberg-discrete", M)
        assert algebra.check_intertwiner(low, disc.ops["lower"], H).max_abs_residual == 0.0
        rep = algebra.check_intertwiner(rai, disc.ops["raise"], H, cols=slice(0, M))
        assert rep.max_abs_residual == 0.0


class TestBinomialTransform:
    def test_falling_factorial_column_maps_to_unit_power(self):
        N = 7
        D = algebra.falling_factorial_matrix(N)
        for n in (0, 2, 5, 7):
            c = algebra.binomial_transform(D[:, n], N)
            want = np.zeros(N + 1)
            want[n] = 1.0
            assert np.abs(c - want).max() <= 1e-10

    def test_constant_function(self):
        N = 6
        c = algebra.binomial_transform(np.ones(N + 1), N)
        want = np.zeros(N + 1)
        want[0] = 1.0
        assert np.abs(c - want).max() <= 1e-12

    def test_linear_function(self):
        # mixing f(k) = k against Binomial(3, rho) gives 3 rho
        c = algebra.binomial_transform(np.arange(4.0), 3)
        assert np.abs(c - [0.0, 3.0, 0.0, 0.0]).max() <= 1e-12

    def test_transform_intertwines_ladders(self):
        # lowering acts as d/drho, raising as multiplication by rho on
        # transforms of functions of degree at most N-1
        N = 10
        rng = np.random.default_rng(5)
        rep = canonical("heisenberg-finite-N", N, N=N)
        D = algebra.falling_factorial_matrix(N)
        coef = np.zeros(N + 1)
        coef[: N] = rng.normal(size=N)  # degree <= N-1
        f = D @ coef
        c = algebra.binomial_transform(f, N)
        c_low = algebra.binomial_transform(rep.ops["lower"] @ f, N)
        want_low = np.zeros(N + 1)
        want_low[:N] = (np.arange(1, N + 1)) * c[1:]
        assert np.abs(c_low - want_low).max() <= 1e-8
        c_rai = algebra.binomial_transform(rep.ops["raise"] @ f, N)
        want_rai = np.zeros(N + 1)
        want_rai[1:] = c[:N]
        assert np.abs(c_rai - want_rai).max() <= 1e-8

    def test_length_validation(self):
        with pytest.raises(ValueError):
            algebra.binomial_transform(np.ones(5), 5)


class TestSymmetryCharacterization:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_intertwiners_differ_by_a_symmetry(self, seed):
        # build a dual pair by conjugation, act with a polynomial symmetry,
        # and recover that the ratio of intertwiners commutes with K
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(5, 5))
        D = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        K_hat = np.linalg.solve(D, K @ D).T
        assert np.abs(K @ D - D @ K_hat.T).max() <= 1e-9
        S = 1.2 * np.eye(5) + 0.3 * K + 0.05 * K @ K
        D_prime = S @ D
        assert np.abs(K @ D_prime - D_prime @ K_hat.T).max() <= 1e-8
        S_rec = D_prime @ np.linalg.inv(D)
        assert np.abs(algebra.commutator(S_rec, K)).max() <= 1e-8


class TestExactRationalHelpers:
    def test_falling_factorial_exact_matches_float(self):
        N = 9
        exact = algebra.falling_factorial_matrix(N, Fraction)
        approx = algebra.falling_factorial_matrix(N)
        for k in range(N + 1):
            for n in range(N + 1):
                assert abs(float(exact[k][n]) - approx[k, n]) < 1e-15

    def test_raising_entries_match_binomial_ratios(self):
        N = 12
        rai = algebra.build_representation("heisenberg-finite-N", N, N=N).ops["raise"]
        for k in range(1, N + 1):
            for r in range(k):
                want = (-1) ** (k - 1 - r) * comb(N, r) / comb(N, k)
                assert rai[k, r] == pytest.approx(want, rel=1e-12)

    def test_exact_commutator_identity_large_N(self):
        # the double-precision product is ill-conditioned here; the exact
        # path certifies the identity outright
        rep = algebra.build_representation("heisenberg-finite-N", 32, N=32)
        (report,) = algebra.check_commutation_relations(rep)
        assert report.max_abs_residual == 0.0
        assert isinstance(algebra._finite_raising(4, Fraction)[2][1], Fraction)
