"""Duality-function catalog: values, stability, cheap self-duality."""

from math import comb, e, exp, ldexp, lgamma, log
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from duality_lab import algebra, exact, processes
from duality_lab.dualities import (
    KINDS,
    DualityFamily,
    EvalPoint,
    GammaWeighted,
    HermiteWeighted,
    InclusionSelfDuality,
    evaluate,
    evaluate_at,
    _hermite_scaled,
    _log_product,
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

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("hypergeometric-finite", {"N": 4.5}, "N"),
            ("hypergeometric-finite", {"N": 4.0}, "N"),
            ("hypergeometric-finite", {"N": True}, "N"),
            ("moran-self-dual", {"N": 4.5, "theta": 0.5, "d": 2}, "N"),
            ("moran-self-dual", {"N": 4, "theta": 0.5, "d": 2.5}, "d"),
            ("moran-self-dual", {"N": 4, "theta": float("nan"), "d": 2}, "theta"),
            ("product-gamma", {"theta": 0.5, "d": True}, "d"),
            ("product-gamma", {"theta": 0.5, "d": 3.0}, "d"),
            ("product-gamma", {"theta": float("inf"), "d": 2}, "theta"),
            ("product-gamma", {"theta": float("nan"), "d": 2}, "theta"),
            ("gamma-weighted", {"m": float("nan")}, "m"),
            ("gamma-weighted", {"m": float("inf")}, "m"),
            ("gamma-weighted", {"m": True}, "m"),
        ],
    )
    def test_rejects_non_integer_and_non_finite_parameters(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            DualityFamily(kind, **params)

    def test_classes_validate_without_the_factory(self):
        with pytest.raises(ValueError, match="^m must be"):
            GammaWeighted(m=float("nan"))
        with pytest.raises(ValueError, match="^a must be"):
            InclusionSelfDuality(a=0.0)
        with pytest.raises(ValueError, match="^N must be"):
            InclusionSelfDuality(a=1.0, N=2.5)

    def test_numpy_integers_and_integral_reals_are_accepted(self):
        assert DualityFamily("hypergeometric-finite", N=np.int64(4)).N == 4
        assert DualityFamily("gamma-weighted", m=3).m == 3
        assert DualityFamily("product-gamma", theta=np.float64(0.5), d=np.int32(3)).d == 3


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

    def test_mirror_monomial_is_the_monomial_of_one_minus_x(self):
        mirror, mono = DualityFamily("mirror-monomial"), DualityFamily("monomial")
        for x, n in [((0.3,), (2,)), ((0.1, 0.8), (3, 1)), ((0.0, 1.0), (0, 4))]:
            flipped = tuple(1.0 - v for v in x)
            assert evaluate_at(mirror, x, n) == evaluate_at(mono, flipped, n)
            assert mirror.value(x, n) == mono.value(flipped, n)

    def test_exponential_at_zero(self):
        fam = DualityFamily("exponential")
        for y in (-3.0, 0.0, 2.5):
            assert evaluate(fam, EvalPoint(continuous=(0.0, y))) == 1.0

    def test_monomial_products(self):
        fam = DualityFamily("monomial")
        assert evaluate_at(fam, (0.5, 2.0), (2, 3)) == pytest.approx(0.25 * 8.0)

    def test_limiting_sip_is_zero_once_a_site_is_empty(self):
        # the dual chain is killed once a site empties
        fam = DualityFamily("limiting-sip")
        assert evaluate_at(fam, (0.3, 0.7), (0, 2)) == 0.0
        assert evaluate_at(fam, (0.3, 0.7), (0, 0)) == 0.0
        assert fam.factors(EvalPoint((0.3, 0.7), (2, 0))) == [(0.0, 1.0)]
        assert evaluate_at(fam, (0.3, 0.7), (1, 2)) == pytest.approx(0.3 * 0.7**2)

    def test_self_dual_form_vanishes_without_majorization(self):
        fam = DualityFamily("moran-self-dual", N=4, theta=0.5, d=2)
        assert evaluate_at(fam, (), (1, 3, 2, 2)) == 0.0
        val = evaluate_at(fam, (), (2, 2, 1, 1))
        a = fam.a
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
        kind=st.sampled_from(
            ["hypergeometric-finite", "gamma-weighted", "product-gamma", "limiting-sip", "monomial", "hermite-weighted"]
        ),
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
        elif kind == "hermite-weighted":
            fam = DualityFamily(kind)
            point = EvalPoint(
                continuous=(data.draw(st.floats(-12.0, 12.0)),), discrete=(data.draw(st.integers(0, 40)),)
            )
        else:
            fam = DualityFamily(kind)
            point = EvalPoint(
                continuous=(data.draw(st.floats(-4.0, 4.0)),), discrete=(data.draw(st.integers(0, 30)),)
            )
        direct = evaluate(fam, point)
        logged = _log_product(fam.factors(point))
        if direct == 0.0:
            assert logged == 0.0
        elif np.isfinite(direct):
            assert logged == pytest.approx(direct, rel=1e-12)

    def test_hermite_weighted_survives_an_underflowing_gaussian(self):
        # exp(-800) underflows on its own; times H_100(40) ~ 4.1e189, here
        # from numpy's Hermite series, the value is about 1.5e-158
        H = np.polynomial.hermite.hermval(40.0, [0.0] * 100 + [1.0])
        want = exp(np.log(H) - 800.0)
        got = evaluate_at(DualityFamily("hermite-weighted"), (40.0,), (100,))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.5128829632073366e-158, rel=1e-12)

    def test_hermite_weighted_past_the_double_range_of_h_n(self):
        # H_200(40) ~ 4.7e377 overflows, and the plain recurrence gives nan;
        # exp(-800) H_200(40) ~ 2.0e30 is representable.  H_n(40) is an
        # integer, built exactly here
        H = [1, 80]
        for j in range(1, 200):
            H.append(80 * H[-1] - 2 * j * H[-2])
        want = exp(log(H[200]) - 800.0)
        got = evaluate_at(DualityFamily("hermite-weighted"), (40.0,), (200,))
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(OverflowError):
            float(H[200])

    @pytest.mark.parametrize("x", [40.0, -3.3, 0.0, 0.25, 17.5])
    def test_hermite_factors_keep_the_plain_recurrence_bits(self, x):
        fam = DualityFamily("hermite-weighted")
        for n in range(0, 181, 7):
            prev, cur = 1.0, 2.0 * x
            for j in range(1, n):
                prev, cur = cur, 2.0 * x * cur - 2.0 * j * prev
            plain = 1.0 if n == 0 else cur
            if np.isfinite(plain):
                assert fam.factors(EvalPoint((x,), (n,))) == [(e, -x * x / 2.0), (plain, 1.0)]

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


class TestEvaluateRoute:
    """``auto`` multiplies the factors directly unless one leaves [1e-300, 1e300]."""

    @staticmethod
    def _evaluate(monkeypatch, factors):
        """The value and whether the log route ran (it takes a log of each nonzero factor)."""
        from duality_lab import dualities

        logs = []

        def spy(v):
            logs.append(v)
            return log(v)

        monkeypatch.setattr(dualities, "log", spy)
        value = evaluate(SimpleNamespace(factors=lambda p: factors), EvalPoint())
        return value, bool(logs)

    def test_an_underflowing_factor_takes_the_log_route(self, monkeypatch):
        # (1e-200)^2 underflows to zero; times 1e250 the value is 1e-150
        value, logged = self._evaluate(monkeypatch, [(1e-200, 2.0), (1e250, 1.0)])
        assert logged
        assert value == pytest.approx(1e-150, rel=1e-12)

    # 1e301 is finite but past the safe range, and (1e200)^2 raises
    @pytest.mark.parametrize("big, want", [((1e301, 1.0), 10.0), ((1e200, 2.0), 1e100)], ids=["past-the-range", "raising"])
    def test_an_overflowing_factor_takes_the_log_route(self, monkeypatch, big, want):
        value, logged = self._evaluate(monkeypatch, [big, (1e-300, 1.0)])
        assert logged
        assert value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "factors",
        [[(1e300, 1.0), (1e-300, 1.0)], [(0.0, 2.0), (3.0, 1.0)], [(-2.0, 3.0), (0.5, 1.0)], [(float("nan"), 1.0)]],
        ids=["range-ends", "zero-base", "negative-base", "nan"],
    )
    def test_factors_inside_the_range_stay_direct(self, monkeypatch, factors):
        want = 1.0
        for base, power in factors:
            want *= base**power
        value, logged = self._evaluate(monkeypatch, factors)
        assert not logged
        assert np.array_equal(value, want, equal_nan=True)


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
    """``diag(1 / mu)`` is a self-duality of any chain reversible with respect to ``mu``."""

    def test_uniform_measure(self):
        # a symmetric chain is reversible with respect to the uniform law
        Q = np.array([[-1.0, 0.5, 0.5], [0.5, -0.8, 0.3], [0.5, 0.3, -0.8]])
        D = np.diag(1 / np.full(3, 1.0 / 3.0))
        assert np.allclose(D, 3.0 * np.eye(3))
        assert np.abs(Q @ D - D @ Q.T).max() <= 1e-12

    def test_binomial_half(self):
        # the two-particle Ehrenfest urn is reversible with respect to Binomial(2, 1/2)
        Q = np.array([[-2.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]])
        D = np.diag(1 / np.array([0.25, 0.5, 0.25]))
        assert np.allclose(np.diag(D), [4.0, 2.0, 4.0])
        assert np.abs(Q @ D - D @ Q.T).max() <= 1e-12

    def test_moran_reversible_measure_gives_intertwiner(self):
        # stationary law from the null space of Q^T, then detailed balance
        gen = processes.generator_matrix(processes.moran_multitype(2, 2, 0.7))
        ns = null_space(gen.Q.toarray().T)
        assert ns.shape[1] == 1
        mu = ns[:, 0]
        mu = mu / mu.sum()
        assert np.all(mu > 0)
        D = np.diag(1 / mu)
        assert np.abs(gen.Q @ D - D @ gen.Q.T).max() <= 1e-10


class TestTransformBySymmetry:
    """A symmetry S of the left generator maps a duality D to the duality ``S @ D``."""

    def test_identity_leaves_duality(self):
        D = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(np.eye(2) @ D, D)

    def test_scalar_scales_and_keeps_residual_zero(self):
        N = 4
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        D2 = 2.5 * np.eye(N + 1) @ D
        assert np.allclose(D2, 2.5 * D)
        rep = algebra.check_intertwiner(moran.Q, kingman.Q, D2)
        assert rep.max_abs_residual <= 1e-10

    def test_generator_is_its_own_symmetry(self):
        N = 4
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        kingman = processes.generator_matrix(processes.kingman_block(n_max=N))
        D = algebra.falling_factorial_matrix(N)
        D2 = moran.Q.toarray() @ D
        rep = algebra.check_intertwiner(moran.Q, kingman.Q, D2)
        assert rep.max_abs_residual <= 1e-10

    def test_accepts_a_sparse_generator(self):
        N = 4
        moran = processes.generator_matrix(processes.moran_multitype(N, 2, 0.0, rate_scale=2.0))
        D = algebra.falling_factorial_matrix(N)
        D2 = moran.Q @ D
        assert isinstance(D2, np.ndarray)
        assert np.array_equal(D2, moran.Q.toarray() @ D)


class TestHermiteValue:
    def test_recurrence_against_matrix(self):
        H = HermiteWeighted().matrix(algebra.Basis("monomial", 9), algebra.Basis("occupation", 9))
        x = 0.83
        powers = x ** np.arange(9)
        fam = DualityFamily("hermite-weighted")
        for n in range(9):
            assert evaluate_at(fam, (x,), (n,)) == pytest.approx(exp(-x * x / 2.0) * float(powers @ H[:, n]), rel=1e-12)


# ---------------------------------------------------------------------------
# reference: the kind-string switch the catalog objects replaced, verbatim
# ---------------------------------------------------------------------------

_E = exp(1.0)
_SIMPLEX_TOL = 1e-12


def _reference_factors(family, p):
    kind = family.kind
    c, n = p.continuous, p.discrete
    if kind == "monomial":
        if len(c) != len(n) or not c:
            raise ValueError("monomial needs matching continuous/discrete vectors")
        return [(x, float(k)) for x, k in zip(c, n)]
    if kind == "exponential":
        if len(c) != 2 or n:
            raise ValueError("exponential needs a continuous pair (x, y)")
        return [(exp(c[0] * c[1]), 1.0)]
    if kind == "hermite-weighted":
        if len(c) != 1 or len(n) != 1:
            raise ValueError("hermite-weighted needs one continuous and one discrete slot")
        x = c[0]
        return [(exp(-x * x / 2.0), 1.0), (ldexp(*_hermite_scaled(n[0], x)), 1.0)]
    if kind == "hypergeometric-finite":
        if c or len(n) != 2:
            raise ValueError("hypergeometric-finite needs a discrete pair (k, n)")
        k, deg = n
        assert family.N is not None
        if deg > family.N:
            raise ValueError("degree exceeds the population size")
        if k > family.N:
            raise ValueError("count exceeds the population size")
        if deg > k:
            return [(0.0, 1.0)]
        # C(k,deg)/C(N,deg) as a product of linear ratios
        return [((k - j) / (family.N - j), 1.0) for j in range(deg)] or [(1.0, 1.0)]
    if kind == "gamma-weighted":
        if len(c) != 1 or len(n) != 1:
            raise ValueError("gamma-weighted needs one continuous and one discrete slot")
        z, deg = c[0], n[0]
        if z < 0:
            raise ValueError("gamma-weighted needs z >= 0")
        a = family.m / 2.0
        # z^deg / ((a)(a+1)...(a+deg-1))
        return [(z / (a + j), 1.0) for j in range(deg)] or [(1.0, 1.0)]
    if kind == "product-gamma":
        d = family.d
        if len(c) != d or len(n) != d:
            raise ValueError("product-gamma needs d continuous and d discrete slots")
        if abs(sum(c) - 1.0) > _SIMPLEX_TOL:
            raise ValueError("product-gamma continuous coordinates must lie on the simplex")
        a = family.gamma_shift
        out: list[tuple[float, float]] = []
        for x, k in zip(c, n):
            if x < 0:
                raise ValueError("simplex coordinates must be non-negative")
            out.append((x, float(k)))
            out.append((_E, -lgamma(a + k)))
        return out
    if kind == "moran-self-dual":
        d = family.d
        if c or len(n) != 2 * d:
            raise ValueError("moran-self-dual needs 2d discrete slots (k then xi)")
        k, xi = n[:d], n[d:]
        if sum(k) != family.N:
            raise ValueError("type counts must sum to the population size")
        a = family.gamma_shift
        out = []
        for ki, xii in zip(k, xi):
            if xii > ki:
                return [(0.0, 1.0)]
            # falling factorial k(k-1)...(k-xi+1)
            out.extend((float(ki - j), 1.0) for j in range(xii))
            out.append((_E, lgamma(a) - lgamma(a + xii)))
        return out or [(1.0, 1.0)]
    if kind == "limiting-sip":
        if len(c) != len(n) or not c:
            raise ValueError("limiting-sip needs matching count and coordinate vectors")
        out = []
        for x, xi in zip(c, n):
            if xi < 1:
                return [(0.0, 1.0)]
            out.append((x, float(xi)))
            out.append((_E, -lgamma(xi)))
        return out
    raise ValueError(f"unknown duality kind {kind!r}")


def _reference_family(kind, N=None, m=None, theta=None, d=None):
    shift = None if theta is None else 2.0 * theta / (d - 1)
    return SimpleNamespace(kind=kind, N=N, m=m, theta=theta, d=d, gamma_shift=shift)


def _grid_case(kind, rng):
    """Parameters and an evaluation point of ``kind``, drawn from ``rng``."""
    if kind in ("monomial", "limiting-sip"):
        size = int(rng.integers(1, 5))
        return {}, EvalPoint(tuple(rng.uniform(-2.0, 3.0, size).tolist()), tuple(rng.integers(0, 7, size).tolist()))
    if kind == "exponential":
        return {}, EvalPoint(tuple(rng.uniform(-3.0, 3.0, 2).tolist()))
    if kind == "hermite-weighted":
        return {}, EvalPoint((float(rng.uniform(-30.0, 30.0)),), (int(rng.integers(0, 60)),))
    if kind == "hypergeometric-finite":
        N = int(rng.integers(1, 21))
        return {"N": N}, EvalPoint((), tuple(rng.integers(0, N + 1, 2).tolist()))
    if kind == "gamma-weighted":
        return {"m": float(rng.uniform(0.1, 10.0))}, EvalPoint((float(rng.uniform(0.0, 5.0)),), (int(rng.integers(0, 12)),))
    d = int(rng.integers(2, 5))
    theta = float(rng.uniform(0.1, 4.0))
    if kind == "product-gamma":
        x = rng.dirichlet(np.ones(d))
        return {"theta": theta, "d": d}, EvalPoint(tuple(x.tolist()), tuple(rng.integers(0, 9, d).tolist()))
    N = int(rng.integers(1, 9))
    k = rng.multinomial(N, np.ones(d) / d)
    xi = rng.integers(0, 4, d)
    return {"N": N, "theta": theta, "d": d}, EvalPoint((), tuple(k.tolist()) + tuple(xi.tolist()))


class TestFactorsMatchTheKindSwitch:
    """Every catalog object's factors equal the switch it replaced, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(set(KINDS) - {"mirror-monomial", "hermite-weighted"}))
    def test_factor_lists_are_identical(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(300):
            params, point = _grid_case(kind, rng)
            want = _reference_factors(_reference_family(kind, **params), point)
            got = DualityFamily(kind, **params).factors(point)
            assert got == want, (kind, params, point)

    def test_hermite_weighted_values_agree(self):
        # the Gaussian factor moved from exp(-x^2/2) to (e, -x^2/2); with
        # |x| <= 30 the old factor stays above 1e-196 and the values agree
        rng = np.random.default_rng(11)
        fam = DualityFamily("hermite-weighted")
        for _ in range(300):
            _, point = _grid_case("hermite-weighted", rng)
            (gauss, _), (hermite, _) = _reference_factors(_reference_family("hermite-weighted"), point)
            assert evaluate(fam, point) == pytest.approx(gauss * hermite, rel=1e-12, abs=0.0), point


class TestMergedSelfDuality:
    """One object, shift a: the inclusion process at a = m/2, the Moran model at a = 2 theta/(d-1)."""

    def test_moran_self_duality_intertwines_the_two_population_sizes(self):
        N, n, d, theta = 4, 2, 3, 0.7
        fam = DualityFamily("moran-self-dual", N=N, theta=theta, d=d)
        assert fam == InclusionSelfDuality(a=2.0 * theta / (d - 1), N=N)
        K = processes.generator_matrix(processes.moran_multitype(N, d, theta))
        Kh = processes.generator_matrix(processes.moran_multitype(n, d, theta))
        lift = processes.moran_multitype(N, d, theta).lift
        lift_n = processes.moran_multitype(n, d, theta).lift
        D = np.array([[evaluate_at(fam, (), lift(k) + lift_n(xi)) for xi in Kh.index.states] for k in K.index.states])
        assert np.count_nonzero(D) > len(K.index)
        scale = float(np.abs(K.Q @ D).max())
        rep = exact.check_generator_duality(K, Kh, D)
        assert rep.max_abs_residual <= 1e-12 * scale

    def test_matrix_agrees_with_factors_on_inclusion_sectors(self):
        m = 1.4
        fam = InclusionSelfDuality(a=m / 2.0)
        rows, cols = processes.enumerate_states(3, 4), processes.enumerate_states(3, 2)
        D = fam.matrix(rows, cols)
        assert np.array_equal(D, exact.sip_self_duality_matrix(rows, cols, m))
        for i, k in enumerate(rows.states):
            for j, xi in enumerate(cols.states):
                assert D[i, j] == pytest.approx(evaluate_at(fam, (), k + xi), rel=1e-12, abs=0.0)
