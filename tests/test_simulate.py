"""Path simulation: steppers, jump classification, coupling behaviour."""

import math

import numpy as np
from scipy import stats

from levyham import measures as ms
from levyham import model as md
from levyham import simulate as sim
from levyham.pair import PairState


def free_system():
    return md.HamiltonianSystemSpec(
        0.0, 1.0, lambda x, v: np.zeros_like(np.asarray(v, dtype=float)), dim=1)


def damping_system():
    return md.HamiltonianSystemSpec(
        0.0, 1.0, lambda x, v: -np.asarray(v, dtype=float), dim=1)


class TestStepSingle:
    def test_pure_transport(self):
        x, v = sim.step_single(free_system(), (np.array([1.0]), np.array([2.0])),
                               0.5, [], np.zeros(1))
        np.testing.assert_allclose(x, [2.0])
        np.testing.assert_allclose(v, [2.0])

    def test_jump_adds_exactly(self):
        x, v = sim.step_single(free_system(), (np.zeros(1), np.zeros(1)),
                               0.1, [np.array([0.7])], np.zeros(1))
        np.testing.assert_array_equal(v, [0.7])

    def test_hand_euler(self):
        x, v = sim.step_single(damping_system(), (np.array([1.0]), np.array([2.0])),
                               0.1, [], np.zeros(1))
        np.testing.assert_allclose(x, [1.2])
        np.testing.assert_allclose(v, [1.8])


class TestClassify:
    def test_zero_gap_synchronous(self, benchmark_levy):
        u = np.array([0.5])
        out = sim.classify_jump(benchmark_levy, u, np.zeros(1), 1.0, 0.25, 0.0)
        np.testing.assert_array_equal(out, u)

    def test_certain_first_branch(self, benchmark_levy):
        # negative gap makes the first thinning probability one on (|s|, 1]
        Q = np.array([-0.4])
        shift = 1.0 * ms.truncate(Q, 0.25)
        u = np.array([0.5])
        rho_m = float(ms.overlap_ratio(benchmark_levy, -shift, u[None, :]))
        assert rho_m == 1.0
        out = sim.classify_jump(benchmark_levy, u, Q, 1.0, 0.25, 0.3)
        np.testing.assert_allclose(out, u + shift)

    def test_branch_frequencies(self, benchmark_levy):
        u = np.array([0.5])
        Q = np.array([0.4])
        alpha, kappa = 1.0, 0.25
        s = float(alpha * ms.truncate(Q, kappa)[0])
        p_plus = 0.5 * float(ms.overlap_ratio(benchmark_levy, np.array([-s]), u[None, :]))
        p_minus = 0.5 * float(ms.overlap_ratio(benchmark_levy, np.array([s]), u[None, :]))
        n = 100_000
        ls = np.random.default_rng(17).uniform(size=n)
        outs = np.array([float(sim.classify_jump(benchmark_levy, u, Q, alpha, kappa,
                                                 float(l))[0]) for l in ls])
        f_plus = np.mean(np.isclose(outs, 0.5 + s))
        f_minus = np.mean(np.isclose(outs, 0.5 - s))
        f_sync = np.mean(np.isclose(outs, 0.5))
        for freq, p in ((f_plus, p_plus), (f_minus, p_minus), (f_sync, 1 - p_plus - p_minus)):
            assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_scalar_matches_array_path(self, benchmark_levy, rng):
        for _ in range(200):
            u = float(rng.uniform(0.01, 1.0))
            Q = float(rng.uniform(-1.0, 1.0))
            l = float(rng.uniform())
            a = sim.classify_jump(benchmark_levy, np.array([u]), np.array([Q]),
                                  1.0, 0.25, l)
            b = sim._classify_scalar(benchmark_levy, u, Q, 1.0, 0.25, l)
            assert float(a[0]) == b


class TestPairSimulation:
    def test_diagonal_absorption(self, benchmark_levy, benchmark_langevin):
        sys_ = benchmark_langevin.system()
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=5)
        for rep in range(5):
            tr = sim.simulate_pair(sys_, benchmark_levy, cfg,
                                   PairState([1.3], [-0.4], [1.3], [-0.4]),
                                   1.0, 0.25, replica=rep)
            assert np.array_equal(tr.x, tr.xp)
            assert np.array_equal(tr.v, tr.vp)

    def test_zero_horizon(self, benchmark_levy, benchmark_langevin):
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=0.0, n_save=1, seed=5)
        tr = sim.simulate_pair(benchmark_langevin.system(), benchmark_levy, cfg,
                               PairState([1.0], [0.0], [0.0], [0.0]), 1.0, 0.25)
        assert len(tr.times) == 1
        np.testing.assert_array_equal(tr.x[0], [1.0])

    def test_synchronous_limit(self, benchmark_levy, benchmark_langevin):
        # kappa -> 0: both copies receive identical kicks; the first marginal
        # reproduces the single-process path bitwise on the shared stream
        sys_ = benchmark_langevin.system()
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=4.0, n_save=9, seed=21)
        tr = sim.simulate_pair(sys_, benchmark_levy, cfg,
                               PairState([1.0], [2.0], [0.0], [0.0]), 1.0, 0.0)
        single = sim.simulate_single(sys_, benchmark_levy, cfg, [1.0], [2.0])
        assert np.array_equal(tr.x, single.x)
        assert np.array_equal(tr.v, single.v)

    def test_determinism(self, benchmark_levy, benchmark_langevin):
        sys_ = benchmark_langevin.system()
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=33)
        p0 = PairState([2.0], [0.0], [-2.0], [0.0])
        a = sim.simulate_pair(sys_, benchmark_levy, cfg, p0, 1.0, 0.25)
        b = sim.simulate_pair(sys_, benchmark_levy, cfg, p0, 1.0, 0.25)
        for arr_a, arr_b in ((a.x, b.x), (a.v, b.v), (a.xp, b.xp), (a.vp, b.vp)):
            assert np.array_equal(arr_a, arr_b)

    def test_scalar_and_generic_paths_agree(self, benchmark_levy, benchmark_langevin):
        fast = benchmark_langevin.system()
        slow = md.HamiltonianSystemSpec(0.0, 1.0, force=benchmark_langevin.force, dim=1)
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=8)
        p0 = PairState([2.0], [0.0], [-2.0], [0.0])
        a = sim.simulate_pair(fast, benchmark_levy, cfg, p0, 1.0, 0.25)
        b = sim.simulate_pair(slow, benchmark_levy, cfg, p0, 1.0, 0.25)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.vp, b.vp)

    def test_marginal_law_equality_every_snapshot(self, benchmark_levy):
        # pure noise: both components share the marginal law at every
        # sampled time, not only at the horizon
        cfg = sim.SimConfig(h=0.01, delta=1e-3, horizon=1.0, n_save=3, seed=123,
                            n_replicas=1500)
        trs = sim.run_pair_ensemble(free_system(), benchmark_levy, cfg,
                                    PairState([1.0], [0.0], [0.0], [0.0]), 1.0, 0.25)
        crit = 1.628 * math.sqrt(2.0 / len(trs))
        for k in (1, 2):
            VT = np.array([t.v[k, 0] for t in trs])
            VpT = np.array([t.vp[k, 0] for t in trs])
            assert stats.ks_2samp(VT, VpT).statistic < crit

    def test_role_reversal_statistics(self, benchmark_levy, benchmark_langevin):
        # swapping the copies changes paths but not the decay curve in law
        sys_ = benchmark_langevin.system()
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=8.0, n_save=5, seed=77,
                            n_replicas=300)
        fwd = sim.run_pair_ensemble(sys_, benchmark_levy, cfg,
                                    PairState([2.0], [0.0], [-2.0], [0.0]), 1.0, 0.25)
        cfg_rev = sim.SimConfig(h=0.02, delta=1e-3, horizon=8.0, n_save=5, seed=177,
                                n_replicas=300)
        rev = sim.run_pair_ensemble(sys_, benchmark_levy, cfg_rev,
                                    PairState([-2.0], [0.0], [2.0], [0.0]), 1.0, 0.25)

        def gap_curve(trs):
            vals = np.array([[abs(t.x[k, 0] - t.xp[k, 0]) + abs(t.v[k, 0] - t.vp[k, 0])
                              for k in range(len(t.times))] for t in trs])
            return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(len(trs))

        m1, s1 = gap_curve(fwd)
        m2, s2 = gap_curve(rev)
        joint = np.sqrt(s1 ** 2 + s2 ** 2)
        assert np.all(np.abs(m1 - m2)[1:] <= 2.0 * joint[1:])

    def test_blowup_detected_and_flagged(self, benchmark_levy):
        runaway = md.HamiltonianSystemSpec(
            0.0, 1.0, lambda x, v: np.asarray(x, dtype=float) ** 3, dim=1)
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=30.0, n_save=31, seed=2,
                            blowup_norm=1e6)
        tr = sim.simulate_pair(runaway, benchmark_levy, cfg,
                               PairState([3.0], [3.0], [0.0], [0.0]), 1.0, 0.25)
        assert tr.blown_up
        assert np.isnan(tr.x[-1, 0])


class TestWindows:
    def test_plan_hits_save_times(self):
        times = np.linspace(0.0, 1.0, 5)
        ends = [t0 + dt for _, t0, dt in sim._window_plan(times, 0.075)]
        for t in times[1:]:
            assert any(abs(e - t) < 1e-12 for e in ends)

    def test_worker_env(self, monkeypatch):
        monkeypatch.setenv("LEVYHAM_WORKERS", "3")
        assert sim.worker_count() == 3
        monkeypatch.delenv("LEVYHAM_WORKERS")
        assert sim.worker_count() == 1
