"""Process models, generators, coefficient maps and samplers."""

import hashlib
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab import algebra, processes
from duality_lab.processes import (
    bep,
    diffusion_endpoints,
    drift_diffusion,
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
        # scan nonzeros over the down-closed enumeration: no transition
        # changes the total
        idx = enumerate_states(2, 4, "down-closed")
        gen = generator_matrix(sip(2, 1.3), index=idx)
        for i, s in enumerate(idx.states):
            for j, tgt in enumerate(idx.states):
                if i != j and gen.Q[i, j] != 0.0:
                    assert sum(s) == sum(tgt)

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
            b_full, a_full = drift_diffusion(bep(d, m), x)
            b_red, a_red = drift_diffusion(wf_multitype(d, theta), x[:-1])
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


class TestDriftDiffusion:
    def test_wf_two_types_neutral(self):
        b, a = drift_diffusion(wf_multitype(2, 0.0), (0.3,))
        assert a[0, 0] == pytest.approx(0.21)
        assert b[0] == 0.0

    def test_wf_mutation_drift(self):
        theta, d = 0.9, 3
        x = (0.2, 0.3)
        b, _ = drift_diffusion(wf_multitype(d, theta), x)
        want = (theta / (d - 1)) * (1.0 - d * np.asarray(x))
        assert np.allclose(b, want)

    def test_neutral_boundary_is_absorbing(self):
        spec = wf_general_1d({1: 1.0, 2: -1.0})
        for x in (0.0, 1.0):
            b, a = drift_diffusion(spec, x)
            assert a[0, 0] == pytest.approx(0.0)
            assert b[0] == pytest.approx(0.0)

    def test_general_1d_doubles_alpha(self):
        spec = wf_general_1d({1: 1.0, 2: -1.0}, {0: 0.5, 1: -0.5})
        b, a = drift_diffusion(spec, 0.25)
        assert a[0, 0] == pytest.approx(2 * (0.25 - 0.0625))
        assert b[0] == pytest.approx(0.5 * 0.75)

    def test_rejects_non_psd_state(self):
        with pytest.raises(ValueError):
            drift_diffusion(wf_multitype(2, 0.0), (1.5,))

    def test_stepping_stone_coefficients(self):
        kern = ((0.0, 1.0), (1.0, 0.0))
        b, a = drift_diffusion(stepping_stone_forward(kern), (0.25, 0.75))
        assert np.allclose(np.diag(a), [2 * 0.25 * 0.75] * 2)
        assert b[0] == pytest.approx(2 * (0.75 - 0.25))
        assert b[1] == pytest.approx(2 * (0.25 - 0.75))


def _dense_row_sample_jump(Q, index, k0, t, rng):
    """Reference sampler: dense rows and ``rng.choice`` per jump."""
    i = index.pos[tuple(k0)]
    clock = 0.0
    while True:
        rate = -Q[i, i]
        if rate <= 0:
            return index.states[i]
        clock += rng.exponential(1.0 / rate)
        if clock > t:
            return index.states[i]
        row = Q[i].copy()
        row[i] = 0.0
        i = int(rng.choice(Q.shape[0], p=row / row.sum()))


class TestSampleJump:
    @pytest.mark.parametrize(
        "spec, k0, truncation",
        [(moran_multitype(12, 3, 0.5), (4, 4), None), (sip(3, 1.0), (3, 1, 0), 4)],
        ids=["moran-d3-N12", "sip-d3-m1"],
    )
    def test_tables_match_dense_row_sampler(self, spec, k0, truncation):
        gen = generator_matrix(spec, truncation)
        Q = gen.Q.toarray()
        for i in range(500):
            want = _dense_row_sample_jump(Q, gen.index, k0, 0.5, path_rng(i, i % 7))
            assert sample_jump(spec, k0, 0.5, path_rng(i, i % 7)) == want

    def test_zero_horizon(self):
        assert sample_jump(sip(2, 0.0), (1, 1), 0.0, path_rng(1, 0)) == (1, 1)

    def test_absorbing_state(self):
        spec = kingman_block(n_max=6)
        assert sample_jump(spec, (1,), 50.0, path_rng(1, 1)) == (1,)

    def test_deterministic_given_stream(self):
        spec = sip(2, 1.0)
        a = [sample_jump(spec, (3, 1), 0.7, path_rng(9, i)) for i in range(50)]
        b = [sample_jump(spec, (3, 1), 0.7, path_rng(9, i)) for i in range(50)]
        assert a == b

    def test_survival_probability_matches_exponential(self):
        # two singles: total exit rate one, so survival is e^{-t}
        spec = sip(2, 0.0)
        n, t = 20000, 1.0
        hits = sum(
            1 for i in range(n) if sample_jump(spec, (1, 1), t, path_rng(123, i)) == (1, 1)
        )
        p_hat = hits / n
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - math.exp(-1.0)) <= 3 * se


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
            drift = x @ P.T + x @ P - x * (1.0 + P.sum(axis=0))
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


class TestFloatFingerprints:
    """Every chain the commands and benchmark build keeps its float bits.

    ``tests/golden/generators.json`` holds the sha256 of the dense
    ``Q.toarray()`` of each distinct generator built by the five commands at
    their defaults, by the four benchmark workloads and by a truncation scan.
    The hashes come from an earlier implementation of the rates, so any
    change to a generator's float bits fails here.
    """

    def test_generators_match_golden_hashes(self):
        moved = []
        for entry in GENERATOR_GOLDEN["generators"]:
            spec = getattr(processes, entry["factory"])(**entry["kwargs"])
            gen = generator_matrix(spec, entry["truncation"])
            assert len(gen.index) == entry["states"]
            if _sha256(gen.Q.toarray()) != entry["sha256"]:
                moved.append((entry["factory"], entry["kwargs"], entry["truncation"]))
        assert len(GENERATOR_GOLDEN["generators"]) == 150
        assert moved == []

    def test_falling_factorial_matrix_matches_golden_hashes(self):
        hashes = GENERATOR_GOLDEN["falling_factorial_matrix"]
        assert sorted(int(N) for N in hashes) == list(range(2, 21))
        for N, digest in hashes.items():
            assert _sha256(algebra.falling_factorial_matrix(int(N))) == digest


class TestRationalGenerator:
    @pytest.mark.parametrize("N", range(2, 11))
    def test_moran_and_block_counting_equal_float_entry_for_entry(self, N):
        for spec in (moran_multitype(N, 2, 0.0, rate_scale=2.0), kingman_block(n_max=N)):
            exact = rational_generator(spec)
            assert all(isinstance(v, Fraction) for row in exact for v in row)
            dense = generator_matrix(spec).Q.toarray()
            assert [[Fraction(v) for v in row] for row in dense.tolist()] == exact

    def test_dyadic_parameters_are_exact_in_float(self):
        # every rate of these chains is a dyadic rational, so the float
        # generator carries it exactly
        for spec, trunc in ((kingman_block(0.5, 0.25, 10), None), (sip(3, 1.5), 3), (moran_multitype(4, 3, 0.5), None)):
            exact = rational_generator(spec, trunc)
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
            ends = [sample_jump(spec, (3,), 2.0, path_rng(1, i)) for i in range(50)]
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
