"""Decay fitting, sliced transport distance, equilibrium diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ForceSystem
from levyham import ergodicity as erg
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


def lstsq_fit(times, means, ses):
    # the earlier fit, one np.linalg.lstsq solve per curve, kept as the oracle
    ok = (times >= 0.1 * times[-1]) & (means > 0.0) & (means > 10.0 * ses)
    idx = np.nonzero(ok)[0]
    if idx.size < 3:
        raise InsufficientDecay(f"only {idx.size} usable points in the fit window")
    t, y = times[idx], np.log(means[idx])
    wgt = 1.0 / np.where(ses[idx] > 0, ses[idx] / means[idx], 1.0) ** 2
    A = np.vstack([np.ones_like(t), t]).T
    sol, *_ = np.linalg.lstsq(A * np.sqrt(wgt)[:, None], y * np.sqrt(wgt), rcond=None)
    ybar = np.average(y, weights=wgt)
    ss_res, ss_tot = np.sum(wgt * (y - A @ sol) ** 2), np.sum(wgt * (y - ybar) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -sol[1], sol[0], r2, int(idx[0]), int(idx[-1]) + 1


def loop_ci(vals, times, n_boot=200):
    # the earlier bootstrap: one resample, mean, spread and fit per iteration
    rng, n, boots = np.random.default_rng(424242), vals.shape[0], []
    for _ in range(n_boot):
        pick = rng.integers(0, n, n)
        try:
            boots.append(lstsq_fit(times, vals[pick].mean(axis=0),
                                   vals[pick].std(axis=0, ddof=1) / math.sqrt(n))[0])
        except InsufficientDecay:
            continue
    return np.percentile(boots, [2.5, 97.5])


def decaying_costs(rng, n, n_save, horizon=20.0):
    # replica costs that decay at spread rates from spread amplitudes
    times = np.linspace(0.0, horizon, n_save)
    vals = (rng.lognormal(0.0, 0.3, (n, 1)) * np.exp(-rng.uniform(0.2, 0.6, (n, 1)) * times)
            * (1.0 + 0.3 * rng.uniform(size=(n, n_save))))
    return times, vals


class TestFitOracle:
    """The closed-form fit and count-matrix bootstrap against the earlier lstsq loop."""

    @staticmethod
    def assert_same_fit(times, means, ses):
        try:
            want = lstsq_fit(times, means, ses)
        except InsufficientDecay as exc:
            with pytest.raises(InsufficientDecay, match=str(exc)):
                erg.fit_exponential_decay(times, means, ses)
            return False
        got = erg.fit_exponential_decay(times, means, ses)
        assert got[3:] == want[3:]
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[2] == pytest.approx(want[2], rel=1e-12)
        # intercept = ybar - slope * tbar cancels, so its error floor is
        # absolute: about 1e-16 of |slope * tbar|, whatever the intercept
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)
        return True

    def test_random_curves(self, rng):
        fitted = 0
        for _ in range(300):
            n_save = int(rng.integers(4, 60))
            times = np.linspace(0.0, rng.uniform(1.0, 30.0), n_save)
            means = (rng.uniform(0.5, 20.0) * np.exp(-rng.uniform(0.05, 2.0) * times)
                     * (1.0 + 0.05 * rng.normal(size=n_save)))
            ses = np.abs(rng.normal(size=n_save)) * means * rng.choice([0.0, 0.01, 0.1, 0.3])
            fitted += self.assert_same_fit(times, means, ses)
        assert 100 < fitted < 300  # both branches seen

    def test_edge_windows(self):
        times = np.linspace(0.0, 10.0, 11)
        means = 3.0 * np.exp(-0.8 * times)
        ses = 0.01 * means
        holes = ses.copy()
        holes[[3, 5, 6]] = means[[3, 5, 6]]  # mean under ten ses: left out of the window
        three = ses.copy()
        three[4:] = means[4:]  # exactly three usable points, t = 1, 2, 3
        two = ses.copy()
        two[3:] = means[3:]
        cases = [(ses, True), (holes, True), (three, True), (np.zeros(11), True), (two, False)]
        for s, fits in cases:
            assert self.assert_same_fit(times, means, s) == fits
        assert erg.fit_exponential_decay(times, means, holes)[3:] == (1, 11)
        assert erg.fit_exponential_decay(times, means, three)[3:] == (1, 4)
        # rows fitted together are fitted alone; a row under three points is flagged
        usable, *rows = erg._fit_rows(times, np.tile(means, (5, 1)),
                                      np.stack([s for s, _ in cases]))
        assert usable.tolist() == [10, 7, 3, 10, 2]
        for k, (s, _) in enumerate(cases[:4]):
            assert tuple(a[k] for a in rows) == erg.fit_exponential_decay(times, means, s)

    @pytest.mark.parametrize("n", [25, 300])
    def test_ci_equals_the_resampling_loop(self, rng, n):
        times, vals = decaying_costs(rng, n, 41)
        means = vals.mean(axis=0)
        got = np.percentile(erg._bootstrap_rates(vals, means, times, 200), [2.5, 97.5])
        assert got == pytest.approx(loop_ci(vals, times), rel=1e-12)

    def test_ci_memory_stays_near_the_cost_matrix(self, rng):
        # resampled copies of the costs would need n_boot * vals.nbytes = 1.28 GB
        times, vals = decaying_costs(rng, 2000, 401)
        means = vals.mean(axis=0)
        tracemalloc.start()
        try:
            erg._bootstrap_rates(vals, means, times, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counts_nbytes = 200 * 2000 * 8
        assert peak <= 3 * (vals.nbytes + counts_nbytes)


class TestSlicedDistance:
    def test_identical_samples(self):
        A = np.arange(10.0)[:, None]
        assert erg.sliced_wasserstein(A, A) == 0.0

    def test_point_masses(self):
        A = np.zeros((5, 1))
        B = np.ones((5, 1))
        assert erg.sliced_wasserstein(A, B) == pytest.approx(1.0)

    def test_translation_formula(self, rng):
        # translating a cloud by c moves each projection by <e, c>
        base = rng.normal(size=(200, 3))
        c = np.array([0.7, -0.2, 0.4])
        A, B = base, base + c
        seed = 5
        got = erg.sliced_wasserstein(A, B, n_projections=128, seed=seed)
        rng2 = np.random.default_rng(seed)
        g = rng2.standard_normal((128, 3))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        expected = float(np.mean(np.abs(dirs @ c)))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_symmetry_exact(self, rng):
        A = rng.normal(size=(50, 2))
        B = rng.normal(size=(50, 2)) + 0.3
        assert erg.sliced_wasserstein(A, B, seed=9) == erg.sliced_wasserstein(B, A, seed=9)

    def test_triangle_inequality(self, rng):
        for trial in range(5):
            A, B, C = (rng.normal(loc=mu, size=(40, 2)) for mu in rng.normal(0, 1, 3))
            dab = erg.sliced_wasserstein(A, B, seed=trial)
            dac = erg.sliced_wasserstein(A, C, seed=trial)
            dcb = erg.sliced_wasserstein(C, B, seed=trial)
            assert dab <= dac + dcb + 1e-12

    def test_subsampling_path(self, rng):
        A = rng.normal(size=(64, 1))
        B = rng.normal(size=(100, 1))
        assert erg.sliced_wasserstein(A, B, seed=0) >= 0.0

    def test_empty_measure(self):
        one = np.zeros((3, 1))
        with pytest.raises(EmptyMeasure):
            erg.sliced_wasserstein(np.empty((0, 1)), one)
        # np.atleast_2d turns an empty list into shape (1, 0): still no sample
        with pytest.raises(EmptyMeasure):
            erg.sliced_wasserstein(one, [])


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
    def test_second_half_blowup_counted_once(self, benchmark_levy):
        # force x**3 - 4x - 3v: from x = 1.9 one of B's replicas is kicked past
        # the unstable point x = 2 and runs away; A settles in the well at 0
        system = ForceSystem(lambda x, v: x ** 3 - 4.0 * x - 3.0 * v)
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=5.0, n_save=5, seed=1, n_replicas=8,
                            blowup_norm=1e6)
        ens_b = sim.run_single_ensemble(system, benchmark_levy, cfg, [1.9], [0.0],
                                        replica_offset=8)
        assert [tr.blown_up for tr in ens_b].count(True) == 1
        got = erg.equilibrium_diagnostics(system, benchmark_levy, cfg, ([0.0], [0.0]),
                                          ([1.9], [0.0]))
        got.pop("timings")
        assert got["n_blowups"] == 1
        # A's clouds do not depend on what B does
        calm = erg.equilibrium_diagnostics(system, benchmark_levy, cfg, ([0.0], [0.0]),
                                           ([0.0], [0.0]))
        assert calm["n_blowups"] == 0
        for key in ("stationarity_distance", "noise_floor", "velocity_moment_theta"):
            assert got[key] == calm[key]

    def test_every_replica_blown_raises(self, benchmark_levy):
        # no survivor leaves no cloud to compare: fail, never report zero distances
        runaway = ForceSystem(lambda x, v: np.asarray(x, dtype=float) ** 3)
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

    @staticmethod
    def stacked(rng, blown_up):
        # a pair ensemble of 4 snapshots per replica, built from stacked arrays
        n = len(blown_up)
        x, v, xp, vp = (rng.normal(size=(n, 4, 1)) for _ in range(4))
        return sim.Ensemble(np.linspace(0.0, 1.0, 4), x, v, np.array(blown_up), np.zeros(n),
                            xp, vp)

    def test_matrix_skips_blown_runs(self, benchmark_bundle, rng):
        trs = self.stacked(rng, [False, True, False])
        hhat, g = benchmark_bundle.monitor_fns()
        vals, keep = erg._psi_tilde_matrix(trs, hhat, g)
        assert keep.tolist() == [True, False, True] and vals.shape == (2, 4)
        prod = ProductPairFn(hhat, g)
        for row, tr in zip(vals, (trs[0], trs[2])):
            for k in range(4):
                one = PairState(tr.x[k], tr.v[k], tr.xp[k], tr.vp[k])
                assert row[k] == pytest.approx(prod.value(one), rel=1e-15, abs=0.0)

    def test_matrix_drops_non_finite_costs(self, benchmark_bundle, rng):
        # a weight that overflows to inf leaves a non-finite cost that the
        # blow-up screen never saw: the replica counts as a blow-up
        trs = self.stacked(rng, [False, False, False])
        trs.x[1, 2, 0] = 1e200
        trs.v[2, 3, 0] = np.nan
        hhat, g = benchmark_bundle.monitor_fns()
        vals, keep = erg._psi_tilde_matrix(trs, hhat, g)
        assert keep.tolist() == [True, False, False] and vals.shape == (1, 4)
        assert np.all(np.isfinite(vals))
        assert np.array_equal(vals, erg._psi_tilde_matrix(trs[:1], hhat, g)[0])
        with pytest.raises(InsufficientDecay, match="every replica"):
            erg._psi_tilde_matrix(trs[1:], hhat, g)
