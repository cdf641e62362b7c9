"""Process models, generators, coefficient maps and samplers."""

import collections
import hashlib
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab import algebra, processes
from duality_lab.processes import (
    bep,
    diffusion_endpoints,
    enumerate_states,
    generator_matrix,
    kingman_block,
    moran_multitype,
    path_rng,
    rational_generator,
    sample_jump,
    sip,
    stepping_stone_dual,
    stepping_stone_forward,
    wf_general_1d,
    wf_multitype,
)


class TestSpecValidation:
    def test_accepts_the_three_named_coefficient_sets(self):
        wf_general_1d({1: 1.0, 2: -1.0})
        wf_general_1d({1: 1.0, 2: -1.0}, {0: 0.7, 1: -0.7})
        wf_general_1d({1: 1.0, 2: -1.0}, {1: -0.4, 2: 0.4})

    def test_rejects_negative_alpha_one(self):
        with pytest.raises(ValueError):
            wf_general_1d({1: -1.0, 2: 1.0})

    def test_rejects_unbalanced_coefficients(self):
        with pytest.raises(ValueError):
            wf_general_1d({1: 1.0, 2: -0.5})
        with pytest.raises(ValueError):
            wf_general_1d({1: 1.0, 2: -1.0}, {0: 0.7, 1: -0.3})

    def test_rejects_bad_kernels(self):
        with pytest.raises(ValueError):
            stepping_stone_dual(((0.5, 0.6), (0.5, 0.5)))
        with pytest.raises(ValueError):
            stepping_stone_dual(((1.0, -0.1), (0.5, 0.5)))
        with pytest.raises(ValueError):
            stepping_stone_forward(np.full((17, 17), 1.0 / 17.0))

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            sip(1, 1.0)
        with pytest.raises(ValueError):
            bep(3, -0.5)
        with pytest.raises(ValueError):
            moran_multitype(3, 2, -1.0)
        with pytest.raises(ValueError):
            kingman_block(theta=-0.1)


class TestEnumerateStates:
    def test_conserved_two_sites(self):
        idx = enumerate_states(2, 2, "conserved")
        assert idx.states == ((0, 2), (1, 1), (2, 0))

    def test_conserved_counts_stars_and_bars(self):
        assert len(enumerate_states(3, 2, "conserved")) == 6

    def test_down_closed_two_sites(self):
        idx = enumerate_states(2, 1, "down-closed")
        assert set(idx.states) == {(0, 0), (1, 0), (0, 1)}

    def test_bijection(self):
        idx = enumerate_states(3, 4, "down-closed")
        for i, s in enumerate(idx.states):
            assert idx.pos[s] == i

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            enumerate_states(8, 60, "conserved")


class TestGeneratorMatrix:
    def test_sip_exit_rates_from_singles(self):
        gen = generator_matrix(sip(2, 0.0), truncation=2)
        i = gen.index.pos[(1, 1)]
        assert gen.Q[i, i] == pytest.approx(-1.0)
        assert gen.Q[i, gen.index.pos[(2, 0)]] == pytest.approx(0.5)
        assert gen.Q[i, gen.index.pos[(0, 2)]] == pytest.approx(0.5)

    def test_block_counting_pure_coalescence(self):
        gen = generator_matrix(kingman_block(n_max=5))
        row = gen.Q.toarray()[gen.index.pos[(3,)]]
        want = np.zeros(6)
        want[gen.index.pos[(2,)]] = 6.0
        want[gen.index.pos[(3,)]] = -6.0
        assert np.allclose(row, want)

    def test_block_counting_mutation_and_selection(self):
        gen = generator_matrix(kingman_block(theta=0.5, sigma=0.25, n_max=10))
        n = 4
        row = gen.Q[gen.index.pos[(n,)]]
        assert row[gen.index.pos[(n - 1,)]] == pytest.approx(n * (n - 1) + 0.5 * n)
        assert row[gen.index.pos[(n + 1,)]] == pytest.approx(0.25 * n)
        # the up-rate is switched off at the boundary
        top = gen.Q[gen.index.pos[(10,)]]
        assert top.sum() == pytest.approx(0.0)
        assert top[gen.index.pos[(9,)]] == pytest.approx(10 * 9 + 0.5 * 10)

    def test_moment_dual_of_neutral_diffusion(self):
        gen = generator_matrix(wf_general_1d({1: 1.0, 2: -1.0}), truncation=6)
        row = gen.Q[gen.index.pos[(3,)]]
        assert row[gen.index.pos[(2,)]] == pytest.approx(6.0)
        assert row[gen.index.pos[(3,)]] == pytest.approx(-6.0)

    def test_moment_dual_with_selection_matches_block_counting(self):
        sigma = 0.4
        via_coeffs = generator_matrix(
            wf_general_1d({1: 1.0, 2: -1.0}, {1: -sigma, 2: sigma}), truncation=12
        )
        direct = generator_matrix(kingman_block(sigma=sigma, n_max=12))
        assert np.abs(via_coeffs.Q - direct.Q).max() <= 1e-12

    def test_rows_sum_to_zero_and_offdiagonals_nonneg(self):
        gens = [
            generator_matrix(sip(3, 1.7), truncation=4),
            generator_matrix(moran_multitype(5, 3, 0.9)),
            generator_matrix(kingman_block(theta=0.2, sigma=0.1, n_max=20)),
            generator_matrix(stepping_stone_dual(((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2))), truncation=3),
        ]
        for gen in gens:
            off = gen.Q.toarray()
            np.fill_diagonal(off, 0.0)
            assert off.min() >= 0.0
            assert np.abs(gen.Q.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(gen.Q).max())

    def test_sip_conserves_total_particle_number(self):
        # over the down-closed enumeration, every sector at once: no move
        # changes the total
        deltas, _ = sip(2, 1.3).moves(enumerate_states(2, 4, "down-closed").array)
        assert len(deltas) and (deltas.sum(axis=1) == 0).all()

    def test_stepping_stone_dual_rates(self):
        kern = ((0.2, 0.8), (0.6, 0.4))
        gen = generator_matrix(stepping_stone_dual(kern), truncation=3)
        row = gen.Q[gen.index.pos[(2, 1)]]
        # migration uses both kernel directions, coalescence n_i(n_i - 1)
        assert row[gen.index.pos[(1, 2)]] == pytest.approx(2 * (0.8 + 0.6))
        assert row[gen.index.pos[(3, 0)]] == pytest.approx(1 * (0.8 + 0.6))
        assert row[gen.index.pos[(1, 1)]] == pytest.approx(2 * 1)
        assert row[gen.index.pos[(2, 0)]] == pytest.approx(0.0)


class TestIdentificationLemmas:
    @pytest.mark.parametrize("m,d,N", [(0.0, 2, 2), (1.3, 3, 4), (2.0, 2, 6), (0.7, 4, 3)])
    def test_sip_equals_moran_under_coordinate_identification(self, m, d, N):
        theta = m * (d - 1) / 4.0
        full = generator_matrix(sip(d, m), truncation=N)
        reduced = generator_matrix(moran_multitype(N, d, theta))
        perm = [full.index.pos[k + (N - sum(k),)] for k in reduced.index.states]
        assert np.abs(full.Q[np.ix_(perm, perm)] - reduced.Q).max() <= 1e-12

    @pytest.mark.parametrize("m,d", [(0.0, 2), (0.0, 3), (1.5, 3), (2.4, 2), (0.9, 5)])
    def test_bep_equals_wf_on_the_simplex(self, m, d):
        theta = m * (d - 1) / 4.0
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.dirichlet(np.ones(d))
            b_full, a_full = _one_state(bep(d, m), x)
            b_red, a_red = _one_state(wf_multitype(d, theta), x[:-1])
            assert np.abs(a_full[: d - 1, : d - 1] - a_red).max() <= 1e-12
            assert np.abs(b_full[: d - 1] - b_red).max() <= 1e-12

    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_su11_ladder_construction_reproduces_sip(self, m):
        # the generator assembled from per-site raising/lowering/number
        # matrices equals the rate-built inclusion process on the sector
        N = 4
        rep = algebra.build_representation("su11-discrete", N, m=m)
        Kp, Km, K0 = rep.ops["raise"], rep.ops["lower"], rep.ops["number"]
        eye = np.eye(N + 1)
        L = 0.5 * (
            np.kron(Kp, Km)
            + np.kron(Km, Kp)
            - 2.0 * np.kron(K0, K0)
            + (m * m / 8.0) * np.kron(eye, eye)
        )
        gen = generator_matrix(sip(2, m), truncation=N)
        flat = {(a, b): a * (N + 1) + b for a in range(N + 1) for b in range(N + 1)}
        sel = [flat[s] for s in gen.index.states]
        assert np.abs(L[np.ix_(sel, sel)] - gen.Q).max() <= 1e-12


def _one_state(spec, x):
    """Drift and covariance at one state, through the checked batch coefficients."""
    (b,), (a,) = processes._checked_coefficients(spec, np.atleast_2d(np.asarray(x, dtype=float)))
    return b, a


class TestDriftDiffusion:
    def test_wf_two_types_neutral(self):
        b, a = _one_state(wf_multitype(2, 0.0), (0.3,))
        assert a[0, 0] == pytest.approx(0.21)
        assert b[0] == 0.0

    def test_wf_mutation_drift(self):
        theta, d = 0.9, 3
        x = (0.2, 0.3)
        b, _ = _one_state(wf_multitype(d, theta), x)
        want = (theta / (d - 1)) * (1.0 - d * np.asarray(x))
        assert np.allclose(b, want)

    def test_neutral_boundary_is_absorbing(self):
        spec = wf_general_1d({1: 1.0, 2: -1.0})
        for x in (0.0, 1.0):
            b, a = _one_state(spec, x)
            assert a[0, 0] == pytest.approx(0.0)
            assert b[0] == pytest.approx(0.0)

    def test_general_1d_doubles_alpha(self):
        spec = wf_general_1d({1: 1.0, 2: -1.0}, {0: 0.5, 1: -0.5})
        b, a = _one_state(spec, 0.25)
        assert a[0, 0] == pytest.approx(2 * (0.25 - 0.0625))
        assert b[0] == pytest.approx(0.5 * 0.75)

    def test_rejects_non_psd_state(self):
        with pytest.raises(ValueError):
            _one_state(wf_multitype(2, 0.0), (1.5,))

    def test_stepping_stone_coefficients(self):
        kern = ((0.0, 1.0), (1.0, 0.0))
        b, a = _one_state(stepping_stone_forward(kern), (0.25, 0.75))
        assert np.allclose(np.diag(a), [2 * 0.25 * 0.75] * 2)
        assert b[0] == pytest.approx(2 * (0.75 - 0.25))
        assert b[1] == pytest.approx(2 * (0.25 - 0.75))


def _dense_row_sample_jump(Q, index, k0, t, rng):
    """Reference sampler: uniformization over dense rows, P = I + Q/Λ.

    Λ is the largest exit rate over the states reachable from k0.  The path
    takes ``rng.poisson(Λt)`` steps; a step with uniform u moves to the
    first column j != i whose cumulative P[i, j] exceeds u, compared in
    rate units (cumulative Q[i, j] against u·Λ), and stays when none does:
    the self-loop P[i, i] takes the remaining mass.
    """
    i = index.pos[tuple(k0)]
    reach = np.zeros(len(Q), dtype=bool)
    reach[i] = True
    while True:
        grown = reach | (Q[reach] > 0).any(axis=0)
        if (grown == reach).all():
            break
        reach = grown
    lam = (-np.diag(Q))[reach].max()
    if lam <= 0:
        return index.states[i]
    for u in rng.random(rng.poisson(lam * t)):
        row = Q[i].copy()
        row[i] = 0.0
        j = int(np.searchsorted(row.cumsum(), u * lam, side="right"))
        if j < len(Q):
            i = j
    return index.states[i]


class TestSampleJump:
    @pytest.mark.parametrize(
        "spec, k0, truncation",
        [(moran_multitype(12, 3, 0.5), (4, 4), None), (sip(3, 1.0), (3, 1, 0), 4)],
        ids=["moran-d3-N12", "sip-d3-m1"],
    )
    def test_tables_match_dense_row_sampler(self, spec, k0, truncation):
        gen = generator_matrix(spec, truncation)
        Q = gen.Q.toarray()
        want = [_dense_row_sample_jump(Q, gen.index, k0, 0.5, path_rng(i, i % 7)) for i in range(500)]
        assert sample_jump(spec, k0, 0.5, [path_rng(i, i % 7) for i in range(500)]) == want

    def test_zero_horizon(self):
        assert sample_jump(sip(2, 0.0), (1, 1), 0.0, [path_rng(1, 0)])[0] == (1, 1)

    def test_absorbing_state(self):
        spec = kingman_block(n_max=6)
        assert sample_jump(spec, (1,), 50.0, [path_rng(1, 1)])[0] == (1,)

    def test_deterministic_given_stream(self):
        spec = sip(2, 1.0)
        a = [sample_jump(spec, (3, 1), 0.7, [path_rng(9, i)])[0] for i in range(50)]
        b = [sample_jump(spec, (3, 1), 0.7, [path_rng(9, i)])[0] for i in range(50)]
        assert a == b

    def test_survival_probability_matches_exponential(self):
        # two singles: total exit rate one, so survival is e^{-t}
        spec = sip(2, 0.0)
        n, t = 20000, 1.0
        hits = sum(
            1 for i in range(n) if sample_jump(spec, (1, 1), t, [path_rng(123, i)])[0] == (1, 1)
        )
        p_hat = hits / n
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - math.exp(-1.0)) <= 3 * se

    @staticmethod
    def _assert_law_matches_expm(spec, k0, t, truncation, seed):
        gen = generator_matrix(spec, truncation)
        exact = scipy.linalg.expm(t * gen.Q.toarray())[gen.index.pos[k0]]
        n = 20000
        ends = sample_jump(spec, k0, t, (path_rng(seed, i) for i in range(n)), truncation)
        freq = np.bincount([gen.index.pos[e] for e in ends], minlength=len(exact)) / n
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert (np.abs(freq - exact) <= 5 * se).all(), np.abs(freq - exact).max()

    @pytest.mark.parametrize(
        "spec, k0, truncation",
        [(moran_multitype(12, 3, 0.5), (4, 4), None), (sip(3, 1.0), (3, 1, 0), 4)],
        ids=["moran-d3-N12", "sip-d3-m1"],
    )
    def test_endpoint_law_matches_expm(self, spec, k0, truncation):
        self._assert_law_matches_expm(spec, k0, 0.5, truncation, seed=71)

    def test_rate_bound_is_taken_over_reachable_states(self):
        # from 3 blocks only 3, 2, 1 are reachable: Λ = 3·2 = 6, not the
        # 200·199 of the window's top state
        spec = kingman_block(n_max=200)
        self._assert_law_matches_expm(spec, (3,), 1.0, None, seed=72)
        for i in range(20):
            used, replay = path_rng(72, i), path_rng(72, i)
            sample_jump(spec, (3,), 1.0, [used])
            replay.random(replay.poisson(6.0))
            assert used.bit_generator.state == replay.bit_generator.state

    def test_endpoints_do_not_depend_on_the_batch(self, monkeypatch):
        spec = moran_multitype(12, 3, 0.5)
        alone = [sample_jump(spec, (4, 4), 0.5, [path_rng(5, i)])[0] for i in range(300)]
        assert sample_jump(spec, (4, 4), 0.5, [path_rng(5, i) for i in range(300)]) == alone
        # blocks of a handful of paths each
        monkeypatch.setattr(processes, "_BLOCK_FLOATS", 100)
        assert sample_jump(spec, (4, 4), 0.5, [path_rng(5, i) for i in range(300)]) == alone

    def test_long_horizon_is_refused_before_any_draw(self):
        spec = kingman_block(n_max=200)
        rngs = [path_rng(3, i) for i in range(4)]
        before = [r.bit_generator.state for r in rngs]
        with pytest.raises(ValueError, match="Λ·t"):
            sample_jump(spec, (200,), 1000.0, rngs)
        assert [r.bit_generator.state for r in rngs] == before


class TestSampleDiffusion:
    def test_zero_horizon(self):
        out = diffusion_endpoints(wf_multitype(2, 0.0), (0.3,), 0.0, 1e-3, seed=0, n_paths=1)
        assert np.array_equal(out, [[0.3]])

    def test_absorbing_corner(self):
        out = diffusion_endpoints(wf_multitype(2, 0.0), (1.0,), 0.5, 1e-3, seed=0, n_paths=2)
        assert np.array_equal(out, [[1.0], [1.0]])

    def test_step_validation(self):
        with pytest.raises(ValueError):
            diffusion_endpoints(wf_multitype(2, 0.0), (0.3,), 0.5, 0.5, seed=0, n_paths=1)
        with pytest.raises(ValueError):
            diffusion_endpoints(wf_multitype(2, 0.0), (0.3,), 0.5, -0.1, seed=0, n_paths=1)

    def test_stays_on_the_simplex(self):
        spec = wf_multitype(3, 0.4)
        ends = diffusion_endpoints(spec, (0.5, 0.3), 0.4, 5e-3, seed=5, n_paths=64)
        assert np.all(ends >= 0.0)
        assert np.all(ends.sum(axis=1) <= 1.0 + 1e-12)

    def test_bep_conserves_total_energy(self):
        spec = bep(3, 1.0)
        ends = diffusion_endpoints(spec, (0.2, 0.3, 0.5), 0.3, 5e-3, seed=6, n_paths=64)
        assert np.all(ends >= 0.0)
        assert np.abs(ends.sum(axis=1) - 1.0).max() <= 1e-10

    def test_heterozygosity_decay(self):
        # the mean of x(1-x) decays at unit rate under the half-scaled
        # neutral generator, independent oracle 0.21 e^{-1/2}
        spec = wf_multitype(2, 0.0)
        ends = diffusion_endpoints(spec, (0.3,), 0.5, 1e-3, seed=77, n_paths=10000)
        vals = ends[:, 0] * (1.0 - ends[:, 0])
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        want = 0.21 * math.exp(-0.5)
        assert abs(mean - want) <= 3 * se + 5e-3

    def test_block_partition_invariance(self):
        spec = wf_multitype(2, 0.5)
        a = diffusion_endpoints(spec, (0.3,), 0.25, 1e-2, seed=42, n_paths=100, block=7)
        b = diffusion_endpoints(spec, (0.3,), 0.25, 1e-2, seed=42, n_paths=100, block=100)
        assert np.array_equal(a, b)

    def test_stepping_stone_block_partition_invariance(self):
        # the migration drift mixes coordinates; a matrix product would
        # round a one-path block differently from a 300-path one
        spec = stepping_stone_forward(((0.2, 0.5, 0.3), (0.1, 0.3, 0.6), (0.4, 0.4, 0.2)))
        a = diffusion_endpoints(spec, (0.3, 0.5, 0.7), 1.0, 0.01, 1, 300, block=1)
        b = diffusion_endpoints(spec, (0.3, 0.5, 0.7), 1.0, 0.01, 1, 300, block=300)
        assert np.array_equal(a, b)

    def test_antithetic_pairs_mirror_increments(self):
        spec = wf_multitype(2, 0.8)
        ends = diffusion_endpoints(spec, (0.5,), 0.2, 1e-2, seed=9, n_paths=4, antithetic=True)
        assert not np.array_equal(ends[0], ends[1])
        with pytest.raises(ValueError):
            diffusion_endpoints(spec, (0.5,), 0.2, 1e-2, seed=9, n_paths=5, antithetic=True)

    def test_partial_trailing_step(self):
        spec = wf_multitype(2, 0.0)
        out = diffusion_endpoints(spec, (0.4,), 0.25, 1e-1, seed=3, n_paths=1)
        assert out.shape == (1, 1)
        assert 0.0 <= out[0, 0] <= 1.0


# ---------------------------------------------------------------------------
# reference: the path-major Euler-Maruyama block, normals (paths, steps, dim)
# ---------------------------------------------------------------------------


def _reference_em_run(spec, x0, t, dt, normals):
    from duality_lab.processes import _n_steps, _psd_sqrt_batch

    kind = spec.kind
    n_full, rem = _n_steps(t, dt)
    steps = n_full + (1 if rem > 0 else 0)
    npaths = normals.shape[0]
    x = np.tile(np.asarray(x0, dtype=float), (npaths, 1))
    dim = x.shape[1]
    assert normals.shape == (npaths, steps, dim)
    for s in range(steps):
        h = dt if s < n_full else rem
        z = normals[:, s, :]
        if kind == "wf-general-1d":
            xv = x[:, 0]
            a = 2.0 * sum(c * xv**k for k, c in spec.alpha)
            b = sum(c * xv**k for k, c in (spec.beta or ())) if spec.beta else 0.0
            xv = xv + b * h + np.sqrt(np.maximum(a, 0.0) * h) * z[:, 0]
            x[:, 0] = np.clip(xv, 0.0, 1.0)
        elif kind == "wf-multitype":
            drift = (spec.theta / (spec.d - 1)) * (1.0 - spec.d * x)
            if dim == 1:
                xv = x[:, 0]
                noise = np.sqrt(np.maximum(xv * (1.0 - xv), 0.0) * h) * z[:, 0]
                x[:, 0] = xv + drift[:, 0] * h + noise
            else:
                amat = x[:, :, None] * np.eye(dim) - x[:, :, None] * x[:, None, :]
                root = _psd_sqrt_batch(amat)
                x = x + drift * h + math.sqrt(h) * np.einsum("pij,pj->pi", root, z)
            np.clip(x, 0.0, 1.0, out=x)
            total = x.sum(axis=1)
            over = total > 1.0
            if np.any(over):
                x[over] /= total[over, None]
        elif kind == "bep":
            total = x.sum(axis=1)
            drift = (spec.m / 4.0) * (total[:, None] - spec.d * x)
            amat = total[:, None, None] * (x[:, :, None] * np.eye(dim)) - x[:, :, None] * x[:, None, :]
            root = _psd_sqrt_batch(amat)
            x = x + drift * h + math.sqrt(h) * np.einsum("pij,pj->pi", root, z)
            np.clip(x, 0.0, None, out=x)
            sums = x.sum(axis=1)
            fix = sums > 0
            x[fix] *= (total[fix] / sums[fix])[:, None]
        elif kind == "stepping-stone-forward":
            P = np.asarray(spec.kernel)
            # the migration terms summed one source site at a time, as in
            # the model, so a row's drift does not depend on the block
            mix = sum(x[:, j, None] * (P[:, j] + P[j, :]) for j in range(dim))
            drift = mix - x * (1.0 + P.sum(axis=0))
            noise = np.sqrt(np.maximum(2.0 * x * (1.0 - x), 0.0) * h) * z
            x = x + drift * h + noise
            np.clip(x, 0.0, 1.0, out=x)
    return x


def _reference_endpoints(spec, x0, t, dt, seed, n_paths, *, antithetic=False, block=20_000):
    from duality_lab.processes import _n_steps

    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    n_full, rem = _n_steps(t, dt)
    steps = n_full + (1 if rem > 0 else 0)
    dim = x0v.size
    out = np.empty((n_paths, dim))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        normals = np.empty((stop - start, steps, dim))
        for i in range(start, stop):
            if antithetic:
                base = path_rng(seed, i // 2).standard_normal((steps, dim))
                normals[i - start] = base if i % 2 == 0 else -base
            else:
                normals[i - start] = path_rng(seed, i).standard_normal((steps, dim))
        out[start:stop] = _reference_em_run(spec, x0v, t, dt, normals)
    return out


STEP_MAJOR_CASES = {
    "wf-general-1d": (wf_general_1d({1: 1.0, 2: -1.0}, {0: 0.3, 1: -0.8, 2: 0.5}), (0.3,)),
    "wf-multitype-d2": (wf_multitype(2, 0.5), (0.3,)),
    # close to the face x1 + x2 = 1, so the renormalisation runs
    "wf-multitype-d3": (wf_multitype(3, 0.05), (0.55, 0.43)),
    "bep-d3": (bep(3, 1.0), (0.2, 0.3, 0.5)),
    "stepping-stone-forward": (
        stepping_stone_forward([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]),
        (0.1, 0.5, 0.9),
    ),
}


class TestStepMajorBlocks:
    """Step-major blocks give the path-major endpoints bit for bit."""

    @pytest.mark.parametrize("block", [7, 20_000])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("case", sorted(STEP_MAJOR_CASES))
    def test_endpoints_equal_path_major_reference(self, case, antithetic, block):
        spec, x0 = STEP_MAJOR_CASES[case]
        # t is not a multiple of dt, so the trailing partial step runs too
        args = (spec, x0, 0.255, 1e-2, 2024, 60)
        got = diffusion_endpoints(*args, antithetic=antithetic, block=block)
        want = _reference_endpoints(*args, antithetic=antithetic, block=block)
        assert np.array_equal(got, want)

    def test_renormalisation_is_exercised(self):
        spec, x0 = STEP_MAJOR_CASES["wf-multitype-d3"]
        ends = diffusion_endpoints(spec, x0, 0.255, 1e-2, seed=2024, n_paths=60)
        assert np.any(ends.sum(axis=1) >= 1.0 - 1e-15)

    def test_antithetic_draws_one_stream_per_pair(self, monkeypatch):
        from duality_lab import processes

        calls = []
        real = processes.path_rng

        def counting(seed, path):
            calls.append(path)
            return real(seed, path)

        monkeypatch.setattr(processes, "path_rng", counting)
        spec, x0 = STEP_MAJOR_CASES["wf-multitype-d2"]
        diffusion_endpoints(spec, x0, 0.255, 1e-2, seed=3, n_paths=60, antithetic=True, block=7)
        assert calls == list(range(30))

    # blocks of odd width split antithetic pairs across tile and block
    # boundaries; 20,000 holds every path in one block of several tiles
    @pytest.mark.parametrize("block", [7, processes._TILE - 1, processes._TILE + 1, 20_000])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("case", sorted(STEP_MAJOR_CASES))
    def test_endpoints_equal_reference_across_tiles(self, case, antithetic, block):
        spec, x0 = STEP_MAJOR_CASES[case]
        # three whole tiles and a remainder
        args = (spec, x0, 0.255, 1e-2, 2025, 3 * processes._TILE + 10)
        got = diffusion_endpoints(*args, antithetic=antithetic, block=block)
        want = _reference_endpoints(*args, antithetic=antithetic, block=block)
        assert np.array_equal(got, want)


class TestDiffusionSizes:
    """Path counts, block sizes and the normals' memory are checked before any stream is drawn."""

    @staticmethod
    def _streams(monkeypatch):
        calls = []
        real = processes.path_rng

        def counting(seed, path):
            calls.append(path)
            return real(seed, path)

        monkeypatch.setattr(processes, "path_rng", counting)
        return calls

    @pytest.mark.parametrize(
        "sizes, name",
        [({"n_paths": -2}, "n_paths"), ({"n_paths": 0}, "n_paths"), ({"block": -3}, "block"), ({"block": 0}, "block")],
    )
    def test_sizes_below_one_are_refused(self, monkeypatch, sizes, name):
        calls = self._streams(monkeypatch)
        args = {"seed": 1, "n_paths": 4, **sizes}
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
            diffusion_endpoints(wf_multitype(2, 0.5), (0.3,), 0.255, 1e-2, **args)
        assert calls == []

    def test_normals_past_physical_memory_are_refused(self, monkeypatch):
        calls = self._streams(monkeypatch)
        monkeypatch.setattr(processes, "_physical_memory", lambda: 8 * 2**30)
        # 5 million steps of 20,000 paths: about 745 GiB of normals
        with pytest.raises(ValueError, match=r"need about \d+ bytes, more than the 8589934592 bytes of physical memory"):
            diffusion_endpoints(wf_multitype(2, 0.5), (0.3,), 50.0, 1e-5, seed=1, n_paths=100_000)
        assert calls == []

    def test_the_block_and_its_tile_are_counted(self, monkeypatch):
        calls = self._streams(monkeypatch)
        spec = wf_multitype(3, 0.5)
        # 10 paths in one block and one tile, 26 steps of 2 coordinates
        need = (10 + 10) * 26 * 2 * 8
        monkeypatch.setattr(processes, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match=f"need about {need} bytes"):
            diffusion_endpoints(spec, (0.3, 0.3), 0.255, 1e-2, seed=1, n_paths=10)
        assert calls == []
        for memory in (need, None):
            monkeypatch.setattr(processes, "_physical_memory", lambda: memory)
            assert diffusion_endpoints(spec, (0.3, 0.3), 0.255, 1e-2, seed=1, n_paths=10).shape == (10, 2)
        assert calls == list(range(10)) * 2


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(2, 3),
        N=st.integers(1, 5),
        m=st.floats(0.0, 4.0, allow_nan=False),
        theta=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_random_generators_are_conservative(self, d, N, m, theta):
        for gen in (
            generator_matrix(sip(d, m), truncation=N),
            generator_matrix(moran_multitype(N, d, theta)),
        ):
            off = gen.Q.toarray()
            np.fill_diagonal(off, 0.0)
            assert off.min() >= 0.0
            assert np.abs(gen.Q.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(gen.Q).max())


# ---------------------------------------------------------------------------
# float bits of the generators, pinned by hash
# ---------------------------------------------------------------------------

GENERATOR_GOLDEN = json.loads((Path(__file__).parent / "golden" / "generators.json").read_text())


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _fractions(ints, den):
    """The nested ``Fraction`` rows of ``ints / den``."""
    return [[Fraction(v, den) for v in row] for row in ints.tolist()]


class TestFloatFingerprints:
    """Every chain the commands and benchmark build keeps its float bits.

    ``tests/golden/generators.json`` holds the sha256 of the dense
    ``Q.toarray()`` of each distinct generator built by the five commands at
    their defaults, by the four benchmark workloads and by a truncation scan.
    The hashes come from an earlier implementation of the rates, so any
    change to a generator's float bits fails here.
    """

    @staticmethod
    def _moved():
        moved = []
        for entry in GENERATOR_GOLDEN["generators"]:
            spec = getattr(processes, entry["factory"])(**entry["kwargs"])
            gen = generator_matrix(spec, entry["truncation"])
            assert len(gen.index) == entry["states"]
            if _sha256(gen.Q.toarray()) != entry["sha256"]:
                moved.append((entry["factory"], entry["kwargs"], entry["truncation"]))
        return moved

    def test_generators_match_golden_hashes(self):
        assert len(GENERATOR_GOLDEN["generators"]) == 150
        assert self._moved() == []

    def test_generators_match_golden_hashes_with_nothing_memoised(self):
        # every window, target table and CSR plan is built afresh and dropped
        assert _unmemoised(self._moved) == []

    def test_falling_factorial_matrix_matches_golden_hashes(self):
        hashes = GENERATOR_GOLDEN["falling_factorial_matrix"]
        assert sorted(int(N) for N in hashes) == list(range(2, 21))
        for N, digest in hashes.items():
            assert _sha256(algebra.falling_factorial_matrix(int(N))) == digest


class TestRationalGenerator:
    @pytest.mark.parametrize("N", range(2, 11))
    def test_moran_and_block_counting_equal_float_entry_for_entry(self, N):
        for spec in (moran_multitype(N, 2, 0.0, rate_scale=2.0), kingman_block(n_max=N)):
            ints, den = rational_generator(spec)
            assert all(type(v) is int for v in ints.flat)
            dense = generator_matrix(spec).Q.toarray()
            assert [[Fraction(v) for v in row] for row in dense.tolist()] == _fractions(ints, den)

    def test_dyadic_parameters_are_exact_in_float(self):
        # every rate of these chains is a dyadic rational, so the float
        # generator carries it exactly
        for spec, trunc in ((kingman_block(0.5, 0.25, 10), None), (sip(3, 1.5), 3), (moran_multitype(4, 3, 0.5), None)):
            exact = _fractions(*rational_generator(spec, trunc))
            dense = generator_matrix(spec, trunc).Q.toarray()
            assert [[Fraction(v) for v in row] for row in dense.tolist()] == exact

    def test_rejects_diffusions(self):
        with pytest.raises(ValueError, match="not a jump-type process"):
            rational_generator(wf_multitype(3, 0.5))


class TestSelectionChainSampling:
    def test_block_counting_with_selection_stores_only_positive_rates(self):
        gen = generator_matrix(kingman_block(0.0, 0.4, 10))
        Q = gen.Q
        rows = np.arange(Q.shape[0]).repeat(np.diff(Q.indptr))
        assert (Q.data[Q.indices != rows] > 0).all()

    def test_sampling_raises_no_warning(self):
        # state 0 used to store an up-rate of 0.0, whose table divided 0/0
        processes._cached_chain.cache_clear()
        spec = kingman_block(0.0, 0.4, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = [sample_jump(spec, (3,), 2.0, [path_rng(1, i)])[0] for i in range(50)]
        assert all(0 <= n <= 10 for (n,) in ends)


class TestDiffusionStarts:
    BAD = {
        "wf-multitype-d3-sum": (wf_multitype(3, 0.4), (0.6, 0.6)),
        "wf-multitype-d3-negative": (wf_multitype(3, 0.4), (-0.1, 0.5)),
        "wf-multitype-d2": (wf_multitype(2, 0.0), (1.7,)),
        "wf-general-1d": (wf_general_1d({1: 1.0, 2: -1.0}), (1.7,)),
        "wf-general-1d-nan": (wf_general_1d({1: 1.0, 2: -1.0}), (float("nan"),)),
        "bep": (bep(3, 1.0), (0.2, -0.3, 0.5)),
        "stepping-stone": (stepping_stone_forward(((0.5, 0.5), (0.5, 0.5))), (0.1, 1.2)),
    }

    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejected_before_any_path_is_drawn(self, case, t, monkeypatch):
        spec, x0 = self.BAD[case]
        drawn = []
        monkeypatch.setattr(processes, "path_rng", lambda seed, path: drawn.append(path))
        with pytest.raises(ValueError, match="outside the domain") as err:
            diffusion_endpoints(spec, x0, t, 1e-2, seed=1, n_paths=4)
        assert spec.kind in str(err.value)
        assert drawn == []

    def test_wrong_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="2 coordinates"):
            diffusion_endpoints(wf_multitype(3, 0.4), (0.3,), 0.3, 1e-2, seed=1, n_paths=4)

    @pytest.mark.parametrize(
        "spec, x0",
        [
            (wf_multitype(3, 0.4), (0.5, 0.5)),
            (wf_multitype(2, 0.0), (0.0,)),
            (wf_general_1d({1: 1.0, 2: -1.0}), 1.0),
            (bep(2, 1.0), (0.0, 3.0)),
            (stepping_stone_forward(((0.5, 0.5), (0.5, 0.5))), (0.0, 1.0)),
        ],
    )
    def test_boundary_starts_are_accepted(self, spec, x0):
        ends = diffusion_endpoints(spec, x0, 0.05, 1e-2, seed=2, n_paths=4)
        assert ends.shape == (4, spec.dim)


class TestPathRng:
    """path_rng is numpy's default_rng([seed, path]) bit for bit.

    The SeedSequence hash is reimplemented for whole chunks of paths, so a
    numpy release that changes the hash turns these red rather than
    silently changing every stream.
    """

    SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**62 - 1, 2**64 - 1, 2**96 + 7]
    PATHS = [0, 1, processes._CHUNK - 1, processes._CHUNK, 99_999, 2**32 - 1, 2**32]

    @staticmethod
    def _same_stream(got, seed, path):
        want = np.random.default_rng([seed, path]).standard_normal(500)
        return np.array_equal(got.standard_normal(500).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_default_rng(self, seed):
        # 2**96 + 7 has four words, so with the path the entropy runs past
        # the pool and through SeedSequence's extra mixing loop
        for path in self.PATHS:
            assert self._same_stream(path_rng(seed, path), seed, path), (seed, path)

    @pytest.mark.parametrize(
        "seed, path",
        [(np.uint64(2**64 - 1), np.int64(5)), (np.int64(42), np.uint32(2**32 - 1)), (np.int32(7), np.uint64(2**32))],
    )
    def test_numpy_integers(self, seed, path):
        assert self._same_stream(path_rng(seed, path), int(seed), int(path))

    @pytest.mark.parametrize("seed, path", [(-1, 0), (0, -1), (np.int64(-3), 2)])
    def test_negative_ids_are_rejected(self, seed, path):
        with pytest.raises(ValueError):
            path_rng(seed, path)

    def test_matches_default_rng_across_the_chunk_schedule(self):
        # chunks of 256 paths at 0 and 256, then 512, 1,024 and 2,048
        # paths, then 4,096 each; each boundary is visited going up and
        # again coming down, after the two cached chunks have moved on
        firsts = [0, 256, 512, 1024, 2048, 4096, 8192]
        paths = sorted({p + k for p in firsts for k in (-1, 0, 1) if p + k >= 0})
        for seed in (3, 2**64 - 1):
            for path in paths + paths[::-1]:
                assert self._same_stream(path_rng(seed, path), seed, path), (seed, path)

    def test_seed_stand_in_serves_only_pcg64(self):
        seed_seq = path_rng(1, 2).bit_generator.seed_seq
        for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64)]:
            with pytest.raises(ValueError):
                seed_seq.generate_state(n_words, dtype)


# ---------------------------------------------------------------------------
# the batched assembly against the one-state view of the moves
# ---------------------------------------------------------------------------


def _dense_from_rates(spec, index, num):
    """The generator over ``index`` assembled state by state from ``transitions([k], num)``.

    A target outside ``index`` is dropped, rates to one target add up in
    the order listed, and the diagonal is minus the row's sum: ``fsum`` in
    float, exact in ``Fraction``.
    """
    n = len(index)
    Q = [[num(0)] * n for _ in range(n)]
    for i, k in enumerate(index.states):
        row = {}
        for target, rate in spec.transitions([k], num)[0]:
            j = index.pos.get(target)
            if j is not None:
                row[j] = row[j] + rate if j in row else rate
        for j, rate in row.items():
            Q[i][j] = rate
        Q[i][i] = -(math.fsum(row.values()) if num is float else sum(row.values(), Fraction(0)))
    return Q


_KERNELS = (((0.5, 0.5), (0.5, 0.5)), ((0.2, 0.8), (0.3, 0.7)), ((0.1, 0.6, 0.3), (0.25, 0.5, 0.25), (0.3, 0.3, 0.4)))
_RATES = st.floats(0.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def _jump_chains(draw):
    """A jump model and its truncation, from every model kind of the module."""
    kind = draw(st.sampled_from(["sip", "moran", "kingman", "wf", "stepping-stone"]))
    if kind == "sip":
        return sip(draw(st.integers(2, 4)), draw(_RATES)), draw(st.integers(0, 5))
    if kind == "moran":
        theta = draw(st.sampled_from([0.0, 0.3, 0.5, 1.7]))
        rate_scale = draw(st.sampled_from([1.0, 2.0]))
        return moran_multitype(draw(st.integers(1, 6)), draw(st.integers(2, 4)), theta, rate_scale=rate_scale), None
    if kind == "kingman":
        # sigma > 0 moves up out of the window at n_max
        return kingman_block(draw(_RATES), draw(st.floats(0.05, 2.0).map(lambda v: round(v, 3))), draw(st.integers(1, 12))), None
    if kind == "wf":
        # upward powers 3 and 4 leave the window at the truncation, and beta
        # power 0 and alpha power 1 both move n -> n - 1
        a1, a3, a4 = (draw(_RATES) for _ in range(3))
        b0, b3 = draw(_RATES), draw(_RATES)
        spec = wf_general_1d({1: a1, 2: -(a1 + a3 + a4), 3: a3, 4: a4}, {0: b0, 1: -(b0 + b3), 3: b3})
        return spec, draw(st.integers(0, 12))
    return stepping_stone_dual(draw(st.sampled_from(_KERNELS))), draw(st.integers(0, 4))


class TestBatchedAssembly:
    """``generator_matrix`` and ``rational_generator`` against a per-state assembly of ``rates``."""

    @staticmethod
    def _assert_matches_rates(spec, index, gen):
        Q = gen.Q
        # toarray adds each stored entry to +0.0, so a stored -0.0 reads +0.0
        want = np.array(_dense_from_rates(spec, index, float)) + 0.0
        assert Q.toarray().tobytes() == want.tobytes()
        assert Q.has_sorted_indices
        rows = np.arange(len(index)).repeat(np.diff(Q.indptr))
        # the diagonal is stored in every row, the rates only where positive
        assert (np.bincount(rows[Q.indices == rows], minlength=len(index)) == 1).all()
        assert (Q.data[Q.indices != rows] > 0).all()

    @settings(max_examples=60, deadline=None)
    @given(chain=_jump_chains())
    def test_float_bits_and_exact_fractions(self, chain):
        spec, truncation = chain
        gen = generator_matrix(spec, truncation)
        self._assert_matches_rates(spec, gen.index, gen)
        assert _fractions(*rational_generator(spec, truncation)) == _dense_from_rates(spec, gen.index, Fraction)

    @settings(max_examples=30, deadline=None)
    @given(chain=_jump_chains())
    def test_one_state_rows_equal_the_batched_rows(self, chain):
        # the pointwise checks read the batched rows; each equals its
        # one-state view, so their residuals are those of a per-state read
        spec, truncation = chain
        states = spec.index(truncation).states
        for num in (float, Fraction):
            assert spec.transitions(states, num) == [spec.transitions([k], num)[0] for k in states]

    def test_a_chain_without_moves(self):
        # alpha's pivot alone: the moment dual never jumps
        spec = wf_general_1d({2: 0.0})
        gen = generator_matrix(spec, 5)
        self._assert_matches_rates(spec, gen.index, gen)
        assert gen.Q.nnz == 6
        assert _fractions(*rational_generator(spec, 5)) == [[Fraction(0)] * 6 for _ in range(6)]

    @staticmethod
    def _assert_target_columns(spec, states):
        # each target's position among the lexicographic rows of states, or -1
        states = np.array(sorted(map(tuple, states)), dtype=np.int64)
        deltas, _ = spec.moves(states)
        pos = {k: i for i, k in enumerate(map(tuple, states.tolist()))}
        want = [[pos.get(tuple(k + delta), -1) for delta in deltas] for k in states]
        cols = processes._target_columns(states, np.asarray(deltas, dtype=np.int64))
        assert cols.tolist() == want
        return cols

    def test_targets_outside_a_sparse_window_are_dropped(self):
        # every other block count: each move lands outside the window, and a
        # target's code must not alias a listed state
        cols = self._assert_target_columns(kingman_block(0.5, 0.7, 20), np.arange(0, 21, 2)[:, None])
        assert (cols == -1).all()

    def test_a_window_cut_inside_its_box(self):
        # (2, 2) -> (1, 3) leaves the window through the last coordinate; an
        # unpadded code would carry it onto (2, 0)
        spec = stepping_stone_dual(((0.2, 0.8), (0.3, 0.7)))
        self._assert_target_columns(spec, [(x, y) for x in range(3) for y in range(3) if x + y <= 3])

    def test_window_wider_than_one_int64_code(self):
        # 32 sites padded to 4 digits each: 4**32 codes do not fit in int64
        spec = sip(32, 1.0)
        gen = generator_matrix(spec, 1)
        self._assert_matches_rates(spec, gen.index, gen)
        self._assert_target_columns(spec, gen.index.array)

    def test_enumeration_is_lexicographic_and_read_only(self):
        for d, N, mode in ((1, 4, "conserved"), (1, 4, "down-closed"), (3, 5, "conserved"), (4, 3, "down-closed")):
            index = enumerate_states(d, N, mode)
            want = sorted(
                s for s in itertools.product(range(N + 1), repeat=d) if (sum(s) == N if mode == "conserved" else sum(s) <= N)
            )
            assert list(index.states) == want
            assert not index.array.flags.writeable


class TestBuildMemoryGuard:
    """A build that would not fit in physical memory is refused before its arrays exist."""

    def test_refused_before_the_moves_run(self, monkeypatch):
        monkeypatch.setattr(processes, "_physical_memory", lambda: 1_000)
        blocks = []
        spec = sip(3, 1.0)
        monkeypatch.setattr(
            processes.Sip, "moves", lambda self, K, num=float: (blocks.append(len(K)), processes._inclusion_moves(K, 0.5, 0.5))[1]
        )
        for build in (lambda: generator_matrix(spec, 4), lambda: rational_generator(spec, 4)):
            with pytest.raises(ValueError, match=r"15 states x 6 moves needs about \d+ bytes"):
                build()
        # only the empty block that names the moves ran
        assert blocks == [0, 0]

    def test_moves_counted_once_per_model(self, monkeypatch):
        blocks = []
        moves = processes.KingmanBlock.moves

        def counted(self, K, num=float):
            blocks.append(len(K))
            return moves(self, K, num)

        monkeypatch.setattr(processes.KingmanBlock, "moves", counted)
        for _ in range(2):
            # equal models built apart share one count, in float and Fraction
            generator_matrix(kingman_block(theta=0.3, n_max=7))
            rational_generator(kingman_block(theta=0.3, n_max=7))
        generator_matrix(kingman_block(theta=0.4, n_max=7))
        assert blocks == [0, 8, 8, 8, 8, 0, 8]

    def test_fitting_builds_run(self, monkeypatch):
        monkeypatch.setattr(processes, "_physical_memory", lambda: 15 * 7 * processes._BUILD_BYTES)
        assert len(generator_matrix(sip(3, 1.0), 4).index) == 15
        monkeypatch.setattr(processes, "_physical_memory", lambda: None)
        assert len(generator_matrix(sip(3, 1.0), 4).index) == 15


class TestWindowMemo:
    """Enumerated windows and their target columns are shared by value, within a byte budget."""

    def test_repeated_enumerations_share_one_read_only_index(self):
        index = enumerate_states(3, 7, "down-closed")
        assert enumerate_states(3, 7, "down-closed") is index
        with pytest.raises(TypeError):
            index.pos[(0, 0, 0)] = 5
        a, b = generator_matrix(moran_multitype(7, 4, 0.3)), generator_matrix(moran_multitype(7, 4, 0.9))
        assert a.index is b.index is index

    def test_memo_stays_within_its_budget(self, monkeypatch):
        monkeypatch.setattr(processes, "_memo", collections.OrderedDict())
        monkeypatch.setattr(processes, "_memo_bytes", 0)
        monkeypatch.setattr(processes, "_MEMO_BYTES", 100_000)
        for N in range(5, 40, 5):
            generator_matrix(sip(3, 1.0), N)
            assert processes._memo_bytes <= processes._MEMO_BYTES
            assert processes._memo_bytes == sum(size for _, size in processes._memo.values())
        # the newest window is kept, the oldest went first
        assert ("states", 3, 35, "conserved") in processes._memo
        assert ("states", 3, 5, "conserved") not in processes._memo
        gen = generator_matrix(sip(3, 1.0), 5)
        TestBatchedAssembly._assert_matches_rates(sip(3, 1.0), gen.index, gen)


def _unmemoised(build):
    """``build()`` with nothing memoised before it or kept after it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "_memo", collections.OrderedDict())
        mp.setattr(processes, "_memo_bytes", 0)
        mp.setattr(processes, "_MEMO_BYTES", 0)
        return build()


def _csr_bytes(gen):
    Q = gen.Q
    return Q.shape, Q.data.tobytes(), Q.indices.dtype, Q.indices.tobytes(), Q.indptr.dtype, Q.indptr.tobytes()


class TestCsrPlan:
    """Builds on one window share a rate-free CSR plan while they store the same entries."""

    def test_alternating_stored_entries_rebuild_the_plan(self, monkeypatch):
        monkeypatch.setattr(processes, "_memo", collections.OrderedDict())
        monkeypatch.setattr(processes, "_memo_bytes", 0)
        # at m = 0 a particle never jumps onto an empty site, so m = 0 stores
        # fewer entries than m = 1 on the same window
        nnz = set()
        for spec in [sip(3, 0.0), sip(3, 1.0)] * 3:
            gen = generator_matrix(spec, 6)
            assert _csr_bytes(gen) == _csr_bytes(_unmemoised(lambda: generator_matrix(spec, 6)))
            nnz.add(gen.Q.nnz)
        assert len(nnz) == 2
        (key,) = [key for key in processes._memo if key[:4] == ("states", 3, 6, "conserved") and len(key) == 5]
        targets, size = processes._memo[key]
        assert targets.plan is not None and size == targets.nbytes
        assert processes._memo_bytes == sum(size for _, size in processes._memo.values())

    def test_equal_stored_entries_share_the_read_only_pattern(self):
        a, b = generator_matrix(sip(4, 1.0), 5), generator_matrix(sip(4, 3.0), 5)
        assert np.shares_memory(a.Q.indices, b.Q.indices) and np.shares_memory(a.Q.indptr, b.Q.indptr)
        assert not a.Q.indices.flags.writeable and not a.Q.indptr.flags.writeable
        assert not np.shares_memory(a.Q.data, b.Q.data) and a.Q.data.flags.writeable
        with pytest.raises(ValueError):
            a.Q.indices[0] = 1


class TestRowSums:
    """``_row_sums`` gives each row's correctly rounded sum, as ``math.fsum`` does."""

    @staticmethod
    def _assert_fsum_bits(rates):
        got = processes._row_sums(rates)
        want = np.array([math.fsum(row) for row in rates.tolist()])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.integers(-4, 80),
        rows=st.lists(
            st.tuples(st.integers(-12, 2), st.lists(st.integers(0, 3), min_size=1, max_size=6), st.integers(0, 6)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_dyadic_rates_about_the_bound(self, s, rows):
        # rates on multiples of 2**-s: one near 2**(53 - s) and a few small
        # ones, so a row's total sits just below or just above the bound,
        # past which several of its additions can round
        width = 1 + max(len(small) for _, small, _ in rows)
        rates = np.zeros((len(rows), width))
        for i, (offset, small, at) in enumerate(rows):
            units = list(small)
            units.insert(at % (len(units) + 1), 2**53 + offset)
            rates[i, : len(units)] = np.ldexp(np.array(units, dtype=float), -s)
        self._assert_fsum_bits(rates)

    @settings(max_examples=100, deadline=None)
    @given(
        s=st.integers(0, 60),
        rates=st.lists(st.lists(st.integers(0, 2**20), min_size=3, max_size=3), min_size=1, max_size=5),
    )
    def test_small_dyadic_rates(self, s, rates):
        self._assert_fsum_bits(np.ldexp(np.array(rates, dtype=float), -s))

    def test_a_row_that_rounds_goes_through_fsum(self, monkeypatch):
        calls = []

        def fsum(values):
            calls.append(values)
            return math.fsum(values)

        monkeypatch.setattr(processes, "fsum", fsum)
        # the left-to-right sum loses both ones; the correctly rounded sum keeps them
        rates = np.array([[2.0**53, 1.0, 1.0], [0.5, 1.5, 2.0]])
        assert processes._row_sums(rates).tolist() == [2.0**53 + 2, 4.0]
        assert calls == [[2.0**53, 1.0, 1.0]]

    def test_the_scan_is_skipped_where_no_addition_can_round(self):
        # every rate of the m = 1 inclusion process is a half-integer
        rates = processes._window_moves(sip(4, 1.0), enumerate_states(4, 20), float)[0]
        assert processes._cannot_round(rates.T, np.add.reduce(rates.T))
        rates = processes._window_moves(kingman_block(0.3, 0.2, 50), enumerate_states(1, 50, "down-closed"), float)[0]
        assert not processes._cannot_round(rates.T, np.add.reduce(rates.T))
