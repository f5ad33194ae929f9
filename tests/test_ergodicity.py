"""Decay fitting, sliced transport distance, equilibrium diagnostics."""

import math

import numpy as np
import pytest

from levyham import ergodicity as erg
from levyham import model as md
from levyham import simulate as sim
from levyham.errors import EmptyMeasure, InsufficientDecay
from levyham.generator import ProductPairFn
from levyham.pair import PairState


class TestExponentialFit:
    def test_synthetic_injection(self):
        t = np.linspace(0.0, 10.0, 101)
        means = 5.0 * np.exp(-2.0 * t)
        rate, intercept, r2, *_ = erg.fit_exponential_decay(t, means, np.zeros_like(means))
        assert rate == pytest.approx(2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_scale_equivariance(self):
        t = np.linspace(0.0, 10.0, 101)
        means = np.exp(-0.7 * t)
        ses = 0.001 * means
        r1, i1, *_ = erg.fit_exponential_decay(t, means, ses)
        r2, i2, *_ = erg.fit_exponential_decay(t, 7.3 * means, 7.3 * ses)
        assert abs(r1 - r2) <= 1e-10
        assert i2 - i1 == pytest.approx(math.log(7.3), abs=1e-10)

    def test_snr_window_excludes_noise_floor(self):
        t = np.linspace(0.0, 10.0, 101)
        means = np.exp(-1.0 * t)
        ses = np.full_like(means, np.exp(-6.0))  # drowns the tail
        rate, _, _, start, stop = erg.fit_exponential_decay(t, means, ses)
        assert t[stop - 1] < 7.0
        assert rate == pytest.approx(1.0, rel=1e-6)

    def test_empty_window_raises(self):
        t = np.linspace(0.0, 10.0, 11)
        with pytest.raises(InsufficientDecay):
            erg.fit_exponential_decay(t, np.zeros(11), np.zeros(11))


class TestSlicedDistance:
    def test_identical_samples(self):
        A = erg.EmpiricalMeasure(np.arange(10.0)[:, None])
        assert erg.sliced_wasserstein(A, A) == 0.0

    def test_point_masses(self):
        A = erg.EmpiricalMeasure(np.zeros((5, 1)))
        B = erg.EmpiricalMeasure(np.ones((5, 1)))
        assert erg.sliced_wasserstein(A, B) == pytest.approx(1.0)

    def test_translation_formula(self, rng):
        # translating a cloud by c moves each projection by <e, c>
        base = rng.normal(size=(200, 3))
        c = np.array([0.7, -0.2, 0.4])
        A = erg.EmpiricalMeasure(base)
        B = erg.EmpiricalMeasure(base + c)
        seed = 5
        got = erg.sliced_wasserstein(A, B, n_projections=128, seed=seed)
        rng2 = np.random.default_rng(seed)
        g = rng2.standard_normal((128, 3))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        expected = float(np.mean(np.abs(dirs @ c)))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_symmetry_exact(self, rng):
        A = erg.EmpiricalMeasure(rng.normal(size=(50, 2)))
        B = erg.EmpiricalMeasure(rng.normal(size=(50, 2)) + 0.3)
        assert erg.sliced_wasserstein(A, B, seed=9) == erg.sliced_wasserstein(B, A, seed=9)

    def test_triangle_inequality(self, rng):
        for trial in range(5):
            A, B, C = (erg.EmpiricalMeasure(rng.normal(loc=mu, size=(40, 2)))
                       for mu in rng.normal(0, 1, 3))
            dab = erg.sliced_wasserstein(A, B, seed=trial)
            dac = erg.sliced_wasserstein(A, C, seed=trial)
            dcb = erg.sliced_wasserstein(C, B, seed=trial)
            assert dab <= dac + dcb + 1e-12

    def test_subsampling_path(self, rng):
        A = erg.EmpiricalMeasure(rng.normal(size=(64, 1)))
        B = erg.EmpiricalMeasure(rng.normal(size=(100, 1)))
        assert erg.sliced_wasserstein(A, B, seed=0) >= 0.0

    def test_empty_measure(self):
        with pytest.raises(EmptyMeasure):
            erg.EmpiricalMeasure(np.empty((0, 1)))
        # np.atleast_2d turns an empty list into shape (1, 0): still no sample
        with pytest.raises(EmptyMeasure):
            erg.EmpiricalMeasure([])


class TestEstimateDecay:
    def test_diagonal_start_insufficient(self, benchmark_bundle):
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=2.0, n_save=5, seed=1,
                            n_replicas=4)
        with pytest.raises(InsufficientDecay):
            erg.estimate_decay(benchmark_bundle, cfg,
                               PairState([1.0], [0.0], [1.0], [0.0]), n_boot=5)

    def test_report_reproducible_bitwise(self, benchmark_bundle):
        cfg = sim.SimConfig(h=0.05, delta=5e-3, horizon=5.0, n_save=11, seed=7,
                            n_replicas=40)
        p0 = PairState([2.0], [0.0], [-2.0], [0.0])
        a = erg.estimate_decay(benchmark_bundle, cfg, p0, n_boot=20)
        b = erg.estimate_decay(benchmark_bundle, cfg, p0, n_boot=20)
        assert np.array_equal(a.means, b.means)
        assert a.lambda_fit == b.lambda_fit
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_positive_rate_small_run(self, benchmark_bundle):
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=10.0, n_save=21, seed=13,
                            n_replicas=150)
        rep = erg.estimate_decay(benchmark_bundle, cfg,
                                 PairState([2.0], [0.0], [-2.0], [0.0]), n_boot=60)
        assert rep.lambda_fit > 0
        assert rep.ci_low > 0
        assert rep.monitor_is_fallback
        assert rep.n_blowups == 0


class TestEquilibrium:
    def test_identical_runs_zero_distance(self, benchmark_levy, benchmark_langevin):
        sys_ = benchmark_langevin
        cfg = sim.SimConfig(h=0.05, delta=5e-3, horizon=3.0, n_save=7, seed=11,
                            n_replicas=30)
        out = erg.equilibrium_diagnostics(sys_, benchmark_levy, cfg,
                                          ([0.5], [0.0]), ([0.5], [0.0]),
                                          independent_streams=False)
        assert out["cross_distance"] == 0.0

    def test_every_replica_blown_raises(self, benchmark_levy):
        # no survivor leaves no cloud to compare: fail, never report zero distances
        runaway = md.HamiltonianSystemSpec(
            0.0, 1.0, lambda x, v: np.asarray(x, dtype=float) ** 3, dim=1)
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=30.0, n_save=7, seed=2,
                            n_replicas=4, blowup_norm=1e6)
        with pytest.raises(EmptyMeasure):
            erg.equilibrium_diagnostics(runaway, benchmark_levy, cfg,
                                        ([3.0], [3.0]), ([3.0], [3.0]))

    def test_benchmark_probe(self, benchmark_levy, benchmark_langevin):
        sys_ = benchmark_langevin
        cfg = sim.SimConfig(h=0.02, delta=5e-3, horizon=40.0, n_save=21, seed=19,
                            n_replicas=300)
        out = erg.equilibrium_diagnostics(sys_, benchmark_levy, cfg,
                                          ([2.0], [0.0]), ([-2.0], [0.0]))
        assert out["n_blowups"] == 0
        moments = list(out["velocity_moment_theta"].values())
        assert all(math.isfinite(m) for m in moments)
        # fractional moment settles: late checkpoints stay within a band
        late = moments[-2:]
        assert max(late) <= 3.0 * max(min(late), 1e-9)
        # ensembles from far-apart starts agree within 3x the sampling noise
        assert out["cross_distance"] <= 3.0 * out["noise_floor"]


class TestStackedCost:
    """One cost evaluation over stacked snapshots equals the per-state values."""

    def test_stacked_matches_per_state(self, benchmark_bundle, rng):
        hhat, g = benchmark_bundle.monitor_fns()
        prod = ProductPairFn(hhat, g)
        alpha, alpha0 = benchmark_bundle.report.alpha, benchmark_bundle.monitor_alpha0
        arrs = [rng.normal(0.0, 2.0, (6, 9, 1)) for _ in range(4)]
        arrs[2][0], arrs[3][0] = arrs[0][0], arrs[1][0]  # one replica on the diagonal
        stacked = PairState(*arrs)
        r, psi = stacked.r(alpha, alpha0), prod.value(stacked)
        assert r.shape == psi.shape == (6, 9)
        assert np.all(psi[0] == 0.0) and np.all(psi[1:] > 0.0)
        for i in range(6):
            for k in range(9):
                one = PairState(*(a[i, k] for a in arrs))
                assert r[i, k] == one.r(alpha, alpha0)
                assert psi[i, k] == pytest.approx(prod.value(one), rel=1e-15, abs=0.0)

    def test_matrix_skips_blown_runs(self, benchmark_bundle, rng):
        times = np.linspace(0.0, 1.0, 4)
        trs = [sim.PairTrajectory(times, *(rng.normal(size=(4, 1)) for _ in range(4)),
                                  blown_up=blown) for blown in (False, True, False)]
        hhat, g = benchmark_bundle.monitor_fns()
        vals, n_blow = erg._psi_tilde_matrix(trs, hhat, g)
        assert n_blow == 1 and vals.shape == (2, 4)
        prod = ProductPairFn(hhat, g)
        for row, tr in zip(vals, (trs[0], trs[2])):
            for k in range(4):
                one = PairState(tr.x[k], tr.v[k], tr.xp[k], tr.vp[k])
                assert row[k] == pytest.approx(prod.value(one), rel=1e-15, abs=0.0)

    def test_matrix_drops_non_finite_costs(self, benchmark_bundle, rng):
        # a weight that overflows to inf leaves a non-finite cost that the
        # blow-up screen never saw: the replica counts as a blow-up
        times = np.linspace(0.0, 1.0, 4)
        trs = [sim.PairTrajectory(times, *(rng.normal(size=(4, 1)) for _ in range(4)))
               for _ in range(3)]
        trs[1].x[2, 0] = 1e200
        trs[2].v[3, 0] = np.nan
        hhat, g = benchmark_bundle.monitor_fns()
        vals, n_blow = erg._psi_tilde_matrix(trs, hhat, g)
        assert n_blow == 2 and vals.shape == (1, 4) and np.all(np.isfinite(vals))
        assert np.array_equal(vals, erg._psi_tilde_matrix(trs[:1], hhat, g)[0])
        with pytest.raises(InsufficientDecay, match="every replica"):
            erg._psi_tilde_matrix(trs[1:], hhat, g)
