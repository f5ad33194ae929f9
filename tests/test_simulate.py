"""Path simulation: steppers, jump classification, coupling behaviour."""

import dataclasses
import math
import types

import numpy as np
import pytest
from scipy import stats

from conftest import ZERO_FORCE, ForceSystem, displacements
from levyham import measures as ms
from levyham import model as md
from levyham import simulate as sim
from levyham.pair import DEGENERATE_GAP, PairState


def free_system():
    return ZERO_FORCE


def damping_system():
    return ForceSystem(lambda x, v: -np.asarray(v, dtype=float))


def runaway_system():
    return ForceSystem(lambda x, v: np.asarray(x, dtype=float) ** 3)


def well_runaway_system():
    # x**3 - 4x - 3v: replicas kicked past the unstable point x = 2 run away,
    # the others settle in the well at 0
    def force(x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        return x ** 3 - 4.0 * x - 3.0 * v
    return ForceSystem(force)


def free_scalar_system():
    # zero force built from a potential, as acceptance criterion 7 uses
    return md.KineticLangevinSpec(0.0, 0.0, md.Quadratic(1.0), dim=1)


def constant_density(levy, den):
    # the noise with its slab but driving density den at every mark: reaches
    # the den <= 0 guard of the rule on the slab
    measure = types.SimpleNamespace(density=lambda marks: np.full(len(marks), den))
    return types.SimpleNamespace(dim=1, measure=measure, slice_part=levy.slice_part)


def single_window(system, state: tuple, dt: float, marks, comp: np.ndarray, rows=None) -> tuple:
    # one window of the single-process kernel: mark i kicks flat leading-axis
    # row rows[i] (row 0 by default) of the state (x, v) of shape (..., d)
    stacked = np.array(state, dtype=float)
    marks = np.asarray(marks, dtype=float).reshape(-1, stacked.shape[-1])
    (x, v), _ = sim._window(system, stacked, dt, comp,
                            np.zeros(len(marks), dtype=int) if rows is None else rows, marks)
    return x, v


def solo_runs(system, levy, cfg, x0, v0, replica_offset=0):
    # one one-replica ensemble per replica of cfg
    one = dataclasses.replace(cfg, n_replicas=1)
    return [sim.run_single_ensemble(system, levy, one, x0, v0,
                                    replica_offset=replica_offset + k)[0]
            for k in range(cfg.n_replicas)]


def assert_same_paths(a, b):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb, equal_nan=True), f.name
        else:
            assert va == vb, f.name


BEYOND_SLICE = {
    "stable": lambda: ms.LevyMeasureSpec(ms.IsotropicStable(0.8), theta=0.5),
    # stable noise strictly above its slab sub-measure
    "dominated": lambda: ms.LevyMeasureSpec(ms.IsotropicStable(0.8), theta=0.5,
                                            slice_part=ms.SliceMeasure(1.0, 0.4, 1)),
}


@pytest.fixture(scope="module", params=sorted(BEYOND_SLICE))
def beyond_slice_levy(request):
    return BEYOND_SLICE[request.param]()


# ---------------------------------------------------------------------------
# Reference: the per-jump thinning rule and pair window of the earlier
# implementation (one helper call per ratio, np.add.at kicks), kept verbatim
# as the oracle for the float walk of the pair window.
# ---------------------------------------------------------------------------


def _ratio_1d(sl, shift: float, u: float, den: float) -> float:
    # min(q(u), q(u - shift)) / den for the slice density q, capped at 1; q
    # decreases on its support (0, 1], so the minimum sits at the larger point
    w = u - shift
    if not (0.0 < u <= 1.0 and 0.0 < w <= 1.0 and den > 0.0):
        return 0.0
    return min(sl.c * max(u, w) ** (-1.0 - sl.theta0) / den, 1.0)


def ref_classify_jump(levy, u: float, Q: float, alpha: float, kappa: float, l: float,
                      den: float) -> float:
    aq = abs(Q)
    if aq <= DEGENERATE_GAP:
        return u
    shift = alpha * (Q if aq <= kappa else Q * (kappa / aq))
    rho_m = _ratio_1d(levy.slice_part, -shift, u, den)
    if l <= 0.5 * rho_m:
        return u + shift
    rho_p = _ratio_1d(levy.slice_part, shift, u, den)
    if l <= 0.5 * (rho_m + rho_p):
        return u - shift
    return u


def ref_step_single(system, state: tuple, dt: float, jumps, comp: np.ndarray,
                    rows=None) -> tuple:
    x, v = state
    xdot = system.a * x + system.b * v
    force = np.asarray(system.force(x, v), dtype=float)
    x_new = x + xdot * dt
    v_new = np.array(v, dtype=float)
    marks = np.asarray(jumps, dtype=float).reshape(-1, v_new.shape[-1])
    np.add.at(v_new.reshape(-1, marks.shape[1]),
              np.zeros(len(marks), dtype=int) if rows is None else rows, marks)
    v_new = v_new + (force + comp) * dt
    return x_new, v_new


def ref_pair_window(system, levy, state: tuple, dt: float, marks, unif, dens, rows,
                    alpha: float, kappa: float, comp: np.ndarray) -> tuple:
    x, v = state
    disp = []
    last = -1
    for r, u, l, den, z, v_r, vp_r in zip(rows.tolist(), marks[:, 0].tolist(), unif.tolist(),
                                          dens.tolist(), (x[0, rows, 0] - x[1, rows, 0]).tolist(),
                                          v[0, rows, 0].tolist(), v[1, rows, 0].tolist()):
        if r != last:
            last, v_now, vp_now = r, v_r, vp_r
        d = ref_classify_jump(levy, u, z + (v_now - vp_now) / alpha, alpha, kappa, l, den)
        v_now += u
        vp_now += d
        disp.append(d)
    return ref_step_single(system, state, dt, np.concatenate([marks[:, 0], disp]), comp,
                           np.concatenate([rows, rows + x.shape[1]]))


def ref_step_pair(system, levy, pair: PairState, dt: float, jumps, unifs,
                  alpha: float, kappa: float, comp: np.ndarray, rows=None) -> PairState:
    x, v = (np.stack([a.reshape(-1, 1), b.reshape(-1, 1)])
            for a, b in ((pair.x, pair.xp), (pair.v, pair.vp)))
    marks = np.asarray(jumps, dtype=float).reshape(-1, 1)
    rows = np.zeros(len(marks), dtype=int) if rows is None else np.asarray(rows, dtype=int)
    order = np.argsort(rows, kind="stable")
    dens = levy.measure.density(marks)
    x, v = ref_pair_window(system, levy, (x, v), dt, marks[order],
                           np.asarray(unifs, dtype=float)[order], dens[order], rows[order],
                           alpha, kappa, comp)
    return PairState(*(a.reshape(pair.x.shape) for a in (x[0], v[0], x[1], v[1])))


LEVIES = {"slice": lambda: ms.LevyMeasureSpec(ms.SliceMeasure(1.0, 0.4, 1), theta=1.0),
          **BEYOND_SLICE}


def random_window(rng, n_rep: int, n_jumps: int):
    """Pair states and one window of jumps that reach every branch of the rule.

    Gaps: exactly zero, at most DEGENERATE_GAP, inside and beyond kappa.
    Marks: on the slab, at its edge 1.0, negative and above 1. Uniforms:
    some exactly 0.0. Replicas' jumps come interleaved.
    """
    x, v = rng.normal(size=(2, n_rep, 1))
    gap = rng.choice([0.0, 1e-13, -4e-13, 0.05, -0.1, 0.3, -2.0, 5.0], size=(n_rep, 1))
    xp = x - gap * rng.choice([0.0, 0.5, 1.0], size=(n_rep, 1))
    vp = v - (gap - (x - xp))
    marks = np.where(rng.uniform(size=n_jumps) < 0.7, rng.uniform(0.0, 1.0, n_jumps),
                     rng.choice([1.0, -0.3, -1.5, 1.2, 2.5], size=n_jumps))
    unif = np.where(rng.uniform(size=n_jumps) < 0.2, 0.0, rng.uniform(size=n_jumps))
    rows = rng.integers(0, n_rep, n_jumps)
    return PairState(x, v, xp, vp), marks, unif, rows


def edge_window(alpha: float, kappa: float, l: float):
    """Pair states and one window of jumps on the rule's float edges.

    Every replica but the last takes one jump at a transformed gap set
    exactly (``alpha`` a power of two): ``|q|`` equal to ``kappa``, ``u +/-
    shift`` landing exactly on 0.0 and on 1.0, and a NaN gap of each sign.
    The last replica takes twelve jumps, interleaved with the others. Every
    single jump has classification uniform ``l``.
    """
    q = 0.25 / alpha  # shift = alpha * q = 0.25 whenever |q| <= kappa
    # (q = x - xp with equal velocities, u): the gap and the mark
    cases = [(kappa, 0.6), (-kappa, 0.6), (q, 0.75), (-q, 0.25), (q, 0.25), (-q, 0.75),
             (np.nan, 0.5), (-np.nan, 0.5), (np.copysign(np.nan, -1.0), 0.5)]
    rng = np.random.default_rng(int(l * 100))
    n = len(cases) + 1
    xp = np.zeros((n, 1))
    x = np.array([[g] for g, _ in cases] + [[0.1]])
    v = rng.normal(size=(n, 1))
    vp = v.copy()
    vp[-1] += 0.05
    many = 12
    rows = np.concatenate([np.arange(n - 1), np.full(many, n - 1)])
    marks = np.concatenate([[u for _, u in cases], rng.uniform(0.0, 1.0, many)])
    unif = np.concatenate([np.full(n - 1, l), rng.uniform(size=many)])
    shuffle = rng.permutation(len(rows))  # the window's jumps arrive interleaved
    return PairState(x, v, xp, vp), marks[shuffle], unif[shuffle], rows[shuffle]


class TestFloatWalkParity:
    """The pair window's float walk against the earlier per-jump implementation."""

    @pytest.mark.parametrize("alpha, kappa", [(1.0, 0.25), (1.0, 0.5), (2.0, 0.25), (0.5, 1.0)])
    @pytest.mark.parametrize("l", [0.0, 0.2, 0.45, 0.7, 0.99])
    def test_edges_bitwise_equal_to_reference(self, alpha, kappa, l, benchmark_levy,
                                              benchmark_langevin):
        # the landing points are exact: u + shift and u - shift hit 0.0 and 1.0
        assert 0.75 + 0.25 == 1.0 and 0.25 - 0.25 == 0.0 and 0.25 + -0.25 == 0.0
        assert 0.75 - -0.25 == 1.0
        pair, marks, unif, rows = edge_window(alpha, kappa, l)
        assert np.count_nonzero(rows == rows.max()) >= 10
        q = pair.q(alpha)[:, 0]
        assert np.abs(q[:2]).tolist() == [kappa, kappa]
        assert np.isnan(q[6:9]).all() and len({np.signbit(g) for g in pair.x[6:9, 0]}) == 2
        comp = benchmark_levy.measure.compensation_drift(1e-3)
        args = (benchmark_langevin, benchmark_levy, pair, 0.01, marks, unif, alpha, kappa, comp,
                rows)
        with np.errstate(invalid="ignore"):
            got, want = sim.step_pair(*args), ref_step_pair(*args)
        for f in ("x", "v", "xp", "vp"):
            # a NaN's sign bit carries nothing: CPython's float multiply takes
            # it from either NaN operand, depending on whether the interpreter
            # has specialized the instruction yet
            a, b = (np.where(np.isnan(getattr(s, f)), np.nan, getattr(s, f)) for s in (got, want))
            assert a.tobytes() == b.tobytes(), f

    @pytest.mark.parametrize("name", sorted(LEVIES))
    def test_window_bitwise_equal_to_reference(self, name, benchmark_langevin):
        levy = LEVIES[name]()
        system = benchmark_langevin
        comp = levy.measure.compensation_drift(1e-3)
        rng = np.random.default_rng(sorted(LEVIES).index(name))
        branches = set()
        for trial in range(60):
            alpha, kappa = [(1.0, 0.25), (2.5, 0.7), (0.3, 0.1)][trial % 3]
            pair, marks, unif, rows = random_window(rng, 6, 20)
            got = sim.step_pair(system, levy, pair, 0.01, marks, unif, alpha, kappa, comp, rows)
            want = ref_step_pair(system, levy, pair, 0.01, marks, unif, alpha, kappa, comp, rows)
            for f in ("x", "v", "xp", "vp"):
                assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), (trial, f)
            dens = levy.measure.density(marks[:, None])
            q = pair.q(alpha)[rows, 0]
            disp = displacements(levy, marks, q, alpha, kappa, unif)
            for u, l, den, qi, d in zip(marks, unif, dens, q, disp):
                assert d == ref_classify_jump(levy, float(u), float(qi), alpha, kappa, float(l),
                                              float(den))
                branches.add("sync" if d == u else "plus" if d > u else "minus")
        assert branches == {"sync", "plus", "minus"}

    def test_zero_uniform_takes_the_plus_branch_at_zero_ratio(self, benchmark_levy):
        # rho = 0 off the slab and where den <= 0, and l = 0.0 still passes
        # l <= 0.5 * rho
        for u, den in ((-0.5, 0.0), (1.5, 0.0), (0.5, 0.0), (0.5, -1.0)):
            levy = constant_density(benchmark_levy, den)
            for l, want in ((0.0, u + 0.1), (1e-300, u)):
                assert displacements(levy, u, 0.1, 1.0, 0.25, l) == want
                assert ref_classify_jump(benchmark_levy, u, 0.1, 1.0, 0.25, l, den) == want


class TestStepSingle:
    """The single-process window body against the per-window oracle."""

    def test_pure_transport(self):
        state = (np.array([1.0]), np.array([2.0]))
        x, v = single_window(free_system(), state, 0.5, [], np.zeros(1))
        np.testing.assert_allclose(x, [2.0])
        np.testing.assert_allclose(v, [2.0])
        for got, want in zip((x, v), ref_step_single(free_system(), state, 0.5, [], np.zeros(1))):
            np.testing.assert_array_equal(got, want)

    def test_jump_adds_exactly(self):
        x, v = single_window(free_system(), (np.zeros(1), np.zeros(1)),
                             0.1, [np.array([0.7])], np.zeros(1))
        np.testing.assert_array_equal(v, [0.7])

    def test_hand_euler(self):
        state = (np.array([1.0]), np.array([2.0]))
        x, v = single_window(damping_system(), state, 0.1, [], np.zeros(1))
        np.testing.assert_allclose(x, [1.2])
        np.testing.assert_allclose(v, [1.8])
        for got, want in zip((x, v), ref_step_single(damping_system(), state, 0.1, [],
                                                     np.zeros(1))):
            np.testing.assert_array_equal(got, want)

    def test_rows_step_like_unbatched_states(self):
        # one batched window equals each row stepped alone with its own marks,
        # and the oracle's window, bit for bit
        xs, vs = np.array([[1.0], [-0.5], [2.0]]), np.array([[0.3], [0.0], [-1.0]])
        rows, marks = np.array([2, 0, 2, 2]), np.array([[0.7], [0.1], [-0.2], [0.05]])
        comp = np.array([0.4])
        x, v = single_window(damping_system(), (xs, vs), 0.1, marks, comp, rows)
        ref_x, ref_v = ref_step_single(damping_system(), (xs, vs), 0.1, marks, comp, rows)
        np.testing.assert_array_equal(x, ref_x)
        np.testing.assert_array_equal(v, ref_v)
        for k in range(3):
            xk, vk = single_window(damping_system(), (xs[k], vs[k]), 0.1, marks[rows == k], comp)
            np.testing.assert_array_equal(x[k], xk)
            np.testing.assert_array_equal(v[k], vk)


class TestClassify:
    """The thinning rule, one jump per replica of a ``step_pair`` window."""

    def test_zero_gap_synchronous(self, benchmark_levy):
        assert displacements(benchmark_levy, 0.5, 0.0, 1.0, 0.25, 0.0) == 0.5

    def test_certain_first_branch(self, benchmark_levy):
        # negative gap makes the first thinning probability one on (|s|, 1]
        Q = -0.4
        shift = 1.0 * ms.truncate(np.array([Q]), 0.25)
        u = 0.5
        rho_m = float(ms.overlap_ratio(benchmark_levy, -shift, np.array([u])))
        assert rho_m == 1.0
        out = displacements(benchmark_levy, u, Q, 1.0, 0.25, 0.3)
        np.testing.assert_allclose(out, u + float(shift[0]))

    def test_branch_frequencies(self, benchmark_levy):
        u = 0.5
        Q = 0.4
        alpha, kappa = 1.0, 0.25
        s = float(alpha * ms.truncate(np.array([Q]), kappa)[0])
        p_plus = 0.5 * float(ms.overlap_ratio(benchmark_levy, np.array([-s]), np.array([u])))
        p_minus = 0.5 * float(ms.overlap_ratio(benchmark_levy, np.array([s]), np.array([u])))
        n = 100_000
        ls = np.random.default_rng(17).uniform(size=n)
        outs = displacements(benchmark_levy, u, Q, alpha, kappa, ls)
        f_plus = np.mean(np.isclose(outs, 0.5 + s))
        f_minus = np.mean(np.isclose(outs, 0.5 - s))
        f_sync = np.mean(np.isclose(outs, 0.5))
        for freq, p in ((f_plus, p_plus), (f_minus, p_minus), (f_sync, 1 - p_plus - p_minus)):
            assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / n) + 1e-9


class TestPairSimulation:
    def test_diagonal_absorption(self, benchmark_levy, benchmark_langevin):
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=5, n_replicas=5)
        for tr in sim.run_pair_ensemble(benchmark_langevin, benchmark_levy, cfg,
                                        PairState([1.3], [-0.4], [1.3], [-0.4]), 1.0, 0.25):
            assert np.array_equal(tr.x, tr.xp)
            assert np.array_equal(tr.v, tr.vp)

    def test_zero_horizon(self, benchmark_levy, benchmark_langevin):
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=0.0, n_save=1, seed=5)
        tr, = sim.run_pair_ensemble(benchmark_langevin, benchmark_levy, cfg,
                                    PairState([1.0], [0.0], [0.0], [0.0]), 1.0, 0.25)
        assert len(tr.times) == 1
        np.testing.assert_array_equal(tr.x[0], [1.0])

    def test_synchronous_limit(self, benchmark_levy):
        # kappa -> 0: both copies receive identical kicks; the first copy
        # reproduces the single-process path bitwise on the shared stream. Both
        # ensembles evaluate one array force, so this holds on every potential,
        # also where libm and numpy powers differ in the last bit (l = 1.7, exp)
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=4.0, n_save=9, seed=21, n_replicas=10)
        for potential in (md.DoubleWellPoly(1.0, 2.0, 2.0), md.DoubleWellPoly(1.0, 2.0, 1.7),
                          md.DoubleWellExp(0.5, 1.1, 1.0)):
            sys_ = md.KineticLangevinSpec(1.0, 1.0, potential, dim=1)
            pairs = sim.run_pair_ensemble(sys_, benchmark_levy, cfg,
                                          PairState([1.0], [0.5], [0.0], [0.0]), 1.0, 0.0)
            singles = sim.run_single_ensemble(sys_, benchmark_levy, cfg, [1.0], [0.5])
            for tr, single in zip(pairs, singles):
                assert np.array_equal(tr.x, single.x), potential
                assert np.array_equal(tr.v, single.v), potential

    def test_determinism(self, benchmark_levy, benchmark_langevin):
        sys_ = benchmark_langevin
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=33, n_replicas=3)
        p0 = PairState([2.0], [0.0], [-2.0], [0.0])
        a = sim.run_pair_ensemble(sys_, benchmark_levy, cfg, p0, 1.0, 0.25)
        b = sim.run_pair_ensemble(sys_, benchmark_levy, cfg, p0, 1.0, 0.25)
        for tr_a, tr_b in zip(a, b):
            assert_same_paths(tr_a, tr_b)

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
        sys_ = benchmark_langevin
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
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=30.0, n_save=31, seed=2,
                            blowup_norm=1e6)
        tr, = sim.run_pair_ensemble(runaway_system(), benchmark_levy, cfg,
                                    PairState([3.0], [3.0], [0.0], [0.0]), 1.0, 0.25)
        assert tr.blown_up
        assert np.isnan(tr.x[-1, 0])

    def test_step_pair_is_one_window_of_the_ensemble(self, benchmark_levy, benchmark_langevin):
        sys_ = benchmark_langevin
        cfg = sim.SimConfig(h=0.2, delta=1e-3, horizon=0.2, n_save=2, seed=3, n_replicas=3)
        p0 = PairState([0.5], [0.2], [-0.5], [0.1])
        trs = sim.run_pair_ensemble(sys_, benchmark_levy, cfg, p0, 1.0, 0.25)
        comp = benchmark_levy.measure.compensation_drift(1e-3)
        batches = [ms.sample_large_jumps(benchmark_levy.measure, 0.2, 1e-3,
                                         np.random.SeedSequence(3), [k]) for k in range(3)]
        assert all(len(b) > 0 for b in batches)
        # unbatched: replica 0 alone
        st = sim.step_pair(sys_, benchmark_levy, p0, 0.2, list(batches[0].marks),
                           list(batches[0].unif), 1.0, 0.25, comp)
        for got, want in ((st.x, trs[0].x), (st.v, trs[0].v), (st.xp, trs[0].xp),
                          (st.vp, trs[0].vp)):
            np.testing.assert_array_equal(got, want[1])
        # batched: all three replicas, their jumps interleaved in time order
        times = np.concatenate([b.times for b in batches])
        order = np.argsort(times, kind="stable")
        rows = np.repeat(np.arange(3), [len(b) for b in batches])[order]
        marks = np.concatenate([b.marks for b in batches])[order]
        unif = np.concatenate([b.unif for b in batches])[order]
        p3 = PairState(*(np.tile(a, (3, 1)) for a in (p0.x, p0.v, p0.xp, p0.vp)))
        st3 = sim.step_pair(sys_, benchmark_levy, p3, 0.2, marks, unif, 1.0, 0.25, comp, rows)
        for k, tr in enumerate(trs):
            for got, want in ((st3.x, tr.x), (st3.v, tr.v), (st3.xp, tr.xp), (st3.vp, tr.vp)):
                np.testing.assert_array_equal(got[k], want[1])

    def test_second_jump_sees_the_gap_left_by_the_first(self, benchmark_levy, monkeypatch):
        # two jumps of one replica in one window: the first takes the +shift
        # branch, so the second is classified at the velocity gap it left, with
        # positions frozen at the window start
        cfg = sim.SimConfig(h=0.1, delta=1e-2, horizon=0.1, n_save=2, seed=1)
        u, l = [0.4, 0.5], [0.01, 0.01]
        batch = ms.JumpBatch(np.array([0.02, 0.05]), np.array([[u[0]], [u[1]]]), np.array(l),
                             np.zeros(2, dtype=int))
        monkeypatch.setattr(ms, "sample_large_jumps", lambda *args: batch)
        tr, = sim.run_pair_ensemble(free_scalar_system(), benchmark_levy, cfg,
                                    PairState([0.0], [0.0], [-0.3], [0.0]), 1.0, 0.25)
        q1 = 0.0 - (-0.3)
        d1 = displacements(benchmark_levy, u[0], q1, 1.0, 0.25, l[0])
        assert d1 == u[0] + 0.25  # the +shift branch at the truncated shift kappa
        q2 = q1 + (u[0] - d1) / 1.0
        d2 = displacements(benchmark_levy, u[1], q2, 1.0, 0.25, l[1])
        assert d2 != displacements(benchmark_levy, u[1], q1, 1.0, 0.25, l[1])
        comp = benchmark_levy.measure.compensation_drift(1e-2)
        np.testing.assert_array_equal(tr.v[1], (0.0 + u[0] + u[1]) + comp * 0.1)
        np.testing.assert_array_equal(tr.vp[1], (0.0 + d1 + d2) + comp * 0.1)


class TestSingleBlowup:
    def test_nan_fill_after_last_finite_snapshot(self, benchmark_levy):
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=30.0, n_save=31, seed=2,
                            blowup_norm=1e6)
        tr, = sim.run_single_ensemble(runaway_system(), benchmark_levy, cfg, [3.0], [3.0])
        assert tr.blown_up
        finite = np.isfinite(tr.x[:, 0]) & np.isfinite(tr.v[:, 0])
        last = int(np.nonzero(finite)[0][-1])
        assert last < len(tr.times) - 1
        assert finite[:last + 1].all()
        assert np.isnan(tr.x[last + 1:]).all() and np.isnan(tr.v[last + 1:]).all()


def zero_force_system(dim):
    return ForceSystem(ZERO_FORCE.force, dim)


def nan_force_system(dim):
    # zero force that turns NaN once a position passes 10
    return ForceSystem(lambda x, v: np.where(np.asarray(x, dtype=float) > 10.0, np.nan, 0.0),
                       dim)


def exact_blowup_path(system, levy, cfg, x0, v0):
    # one copy stepped window by window with no jumps under the exact rule: a
    # state whose position or velocity norm exceeds blowup_norm or is NaN is
    # flagged, and its snapshots from that window on are NaN; every window is
    # a save
    comp = levy.measure.compensation_drift(cfg.delta)
    x, v = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    xs, vs = np.full((2, cfg.n_save, len(x)), np.nan)
    xs[0], vs[0] = x, v
    for k, (_, _, dt) in enumerate(sim._window_plan(cfg.save_times(), cfg.h), start=1):
        x, v = ref_step_single(system, (x, v), dt, [], comp)
        with np.errstate(over="ignore"):  # an overflowing or NaN norm is a blow-up
            if not (np.linalg.norm(x) <= cfg.blowup_norm and np.linalg.norm(v) <= cfg.blowup_norm):
                return xs, vs, True, k
        xs[k], vs[k] = x, v
    return xs, vs, False, None


BLOWUP_CASES = {
    # name: (blowup_norm, force, (x0, v0) in d = 1, (x0, v0) in d = 2, flagged at)
    "component-above-screen": (1e6, zero_force_system, ([7e5], [0.0]),
                               ([6e5, 6e5], [0.0, 0.0]), None),
    # in d = 2 every component stays below the norm bound
    "just-above-norm": (1e6, zero_force_system, ([1e6 - 12.5], [100.0]),
                        ([707095.0, 707095.0], [100.0, 100.0]), 3),
    "norm-overflows": (1e300, zero_force_system, ([1e200], [0.0]),
                       ([1e200, 0.0], [0.0, 0.0]), 1),
    # the force turns NaN in window 4, which the rule flags like a blow-up
    "nan-state": (1e6, nan_force_system, ([0.0], [100.0]), ([0.0, 0.0], [100.0, 0.0]), 4),
}


class TestBlowupScreen:
    """The per-window screen flags exactly what the exact norm test flags."""

    @pytest.mark.parametrize("kind", ["pair-1d", "single-2d"])
    @pytest.mark.parametrize("case", sorted(BLOWUP_CASES))
    def test_screen_keeps_the_exact_rule(self, case, kind, monkeypatch):
        norm, force, start1, start2, flagged_at = BLOWUP_CASES[case]
        d = 1 if kind == "pair-1d" else 2
        x0, v0 = start1 if d == 1 else start2
        levy = ms.LevyMeasureSpec(ms.SliceMeasure(1.0, 0.4, d), theta=1.0)
        system = force(d)
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=0.5, n_save=11, seed=1,
                            blowup_norm=norm)
        batch = ms.JumpBatch(np.empty(0), np.empty((0, d)), np.empty(0), np.empty(0, dtype=int))
        monkeypatch.setattr(ms, "sample_large_jumps", lambda *args: batch)
        if kind == "pair-1d":
            tr, = sim.run_pair_ensemble(system, levy, cfg, PairState(x0, v0, [0.0], [0.0]),
                                        1.0, 0.25)
        else:
            tr, = sim.run_single_ensemble(system, levy, cfg, x0, v0)
        xs, vs, blown, at = exact_blowup_path(system, levy, cfg, x0, v0)
        assert (tr.blown_up, blown, at) == (flagged_at is not None, flagged_at is not None,
                                            flagged_at)
        assert np.array_equal(tr.x, xs, equal_nan=True)
        assert np.array_equal(tr.v, vs, equal_nan=True)
        if case == "component-above-screen":
            assert np.all(np.abs(tr.x) > 0.5 * norm / math.sqrt(d))
        if case == "nan-state":
            # flagged, not stepped on with NaN: the snapshots before are finite
            assert np.isfinite(tr.v[:flagged_at]).all() and np.isnan(tr.v[flagged_at:]).all()


    def test_overflowing_force_is_flagged_without_warnings(self, benchmark_levy):
        # explicit Euler at h = 0.05 drives some replicas of the exponential well
        # to where its force overflows; the screen flags them, and no warning
        # escapes the ensembles (tier-1 turns warnings into errors)
        system = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellExp(0.1, 2.0, 1.0), dim=1)
        cfg = sim.SimConfig(h=0.05, delta=1e-3, horizon=2.0, n_save=5, seed=99,
                            n_replicas=50)
        single = sim.run_single_ensemble(system, benchmark_levy, cfg, [2.0], [0.0])
        pair = sim.run_pair_ensemble(system, benchmark_levy, cfg,
                                     PairState([2.0], [0.0], [-2.0], [0.0]), 1.0, 0.25)
        for trs in (single, pair):
            assert 0 < sum(tr.blown_up for tr in trs) < len(trs)
        assert all(math.isfinite(tr.stability_indicator) for tr in pair)


class TestPairDimension:
    def test_pair_runs_raise_outside_dim_one(self):
        levy2 = ms.LevyMeasureSpec(ms.SliceMeasure(1.0, 0.4, 2), theta=1.0)
        sys2 = ForceSystem(damping_system().force, dim=2)
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=1.0, n_save=3, seed=1, n_replicas=4)
        p0 = PairState([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(NotImplementedError, match="system dim 2"):
            sim.run_pair_ensemble(sys2, levy2, cfg, p0, 1.0, 0.25)
        with pytest.raises(NotImplementedError, match="system dim 2"):
            sim.step_pair(sys2, levy2, p0, 0.05, [], [], 1.0, 0.25, np.zeros(2))
        with pytest.raises(NotImplementedError, match="noise dim 2"):
            sim.run_pair_ensemble(free_system(), levy2, cfg,
                                  PairState([1.0], [0.0], [0.0], [0.0]), 1.0, 0.25)
        for tr in sim.run_single_ensemble(sys2, levy2, cfg, [1.0, 0.0], [0.0, 0.0]):
            assert tr.x.shape == (3, 2) and not tr.blown_up
            assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.v))


class TestPairKernelBeyondSlice:
    """Coupling invariants when the driving measure is more than the slice."""

    def test_marginal_law_per_copy(self, beyond_slice_levy):
        cfg = sim.SimConfig(h=0.05, delta=2e-2, horizon=1.0, n_save=3, seed=404,
                            n_replicas=600)
        trs = sim.run_pair_ensemble(free_scalar_system(), beyond_slice_levy, cfg,
                                    PairState([1.0], [0.0], [0.0], [0.0]), 1.0, 0.25)
        assert any(not np.array_equal(t.v, t.vp) for t in trs)  # the coupling acted
        crit = 1.628 * math.sqrt(2.0 / len(trs))
        for k in (1, 2):
            v, vp = (np.array([t.v[k, 0] for t in trs]), np.array([t.vp[k, 0] for t in trs]))
            dx, dxp = (np.array([t.x[k, 0] - 1.0 for t in trs]),
                       np.array([t.xp[k, 0] for t in trs]))
            assert stats.ks_2samp(v, vp).statistic < crit
            assert stats.ks_2samp(dx, dxp).statistic < crit

    def test_displacement_law_on_the_slab(self, beyond_slice_levy):
        # the second copy's jumps share the law of the first's: on the slab
        # 0 < u <= 1 the two modified channels trade equal mass (up to a
        # cutoff-edge term of order delta), off it every jump is synchronous
        batch = ms.sample_large_jumps(beyond_slice_levy.measure, 1000.0, 2e-2,
                                      np.random.SeedSequence(505), [0])
        u, l = batch.marks[:, 0], batch.unif
        disp = displacements(beyond_slice_levy, u, 0.4, 1.0, 0.25, l)
        slab = (u > 0.0) & (u <= 1.0)
        np.testing.assert_array_equal(disp[~slab], u[~slab])
        assert np.mean(disp[slab] != u[slab]) > 0.02  # the coupling acted
        crit = 1.628 * math.sqrt(2.0 / slab.sum())
        assert stats.ks_2samp(disp[slab], u[slab]).statistic < crit

    def test_diagonal_absorption(self, beyond_slice_levy, benchmark_langevin):
        # heavy tails blow explicit Euler up on some seeds; both copies are
        # then flagged and NaN-filled alike
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=5, n_replicas=10)
        for tr in sim.run_pair_ensemble(benchmark_langevin, beyond_slice_levy, cfg,
                                        PairState([1.3], [-0.4], [1.3], [-0.4]), 1.0, 0.25):
            assert np.array_equal(tr.x, tr.xp, equal_nan=True)
            assert np.array_equal(tr.v, tr.vp, equal_nan=True)

    def test_cutoff_refinement_shares_streams(self, beyond_slice_levy):
        # the jumps a replica's pair run draws from its stream: halving the
        # cutoff keeps every coarser jump with its classification uniform
        for rep in range(3):
            coarse = ms.sample_large_jumps(beyond_slice_levy.measure, 5.0, 2e-2,
                                           np.random.SeedSequence(11), [rep])
            fine = ms.sample_large_jumps(beyond_slice_levy.measure, 5.0, 1e-2,
                                         np.random.SeedSequence(11), [rep])
            keep = np.abs(fine.marks[:, 0]) > 2e-2
            assert 0 < keep.sum() < len(fine)
            np.testing.assert_array_equal(fine.times[keep], coarse.times)
            np.testing.assert_array_equal(fine.marks[keep], coarse.marks)
            np.testing.assert_array_equal(fine.unif[keep], coarse.unif)


class TestPairBatch:
    """Replicas of one pair batch never mix, blow-ups included."""

    def test_first_replicas_equal_a_smaller_run(self, benchmark_langevin):
        levy = BEYOND_SLICE["stable"]()
        cfg = sim.SimConfig(h=0.02, delta=1e-3, horizon=5.0, n_save=11, seed=3, n_replicas=12)
        args = (benchmark_langevin, levy)
        p0 = PairState([2.0], [0.0], [-2.0], [0.0])
        big = sim.run_pair_ensemble(*args, cfg, p0, 1.0, 0.25)
        small = sim.run_pair_ensemble(*args, dataclasses.replace(cfg, n_replicas=5), p0,
                                      1.0, 0.25)
        assert len(big) == 12 and len(small) == 5
        assert 0 < sum(tr.blown_up for tr in small) < 5
        assert any(tr.stability_indicator > 0 for tr in small)
        for a, b in zip(big, small):
            assert_same_paths(a, b)


SINGLE_BATCHES = {
    # (system, levy, x0, v0) factories; the second blows some replicas up
    "benchmark": lambda: (
        md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1),
        ms.LevyMeasureSpec(ms.SliceMeasure(1.0, 0.4, 1), theta=1.0), [2.0], [0.0]),
    "stable-2d": lambda: (
        md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=2),
        ms.LevyMeasureSpec(ms.IsotropicStable(0.8, dim=2), theta=0.5), [1.0, -0.5], [0.0, 0.2]),
}


class TestSingleBatch:
    """Replicas of one batch never mix: each equals its own one-replica run."""

    @pytest.mark.parametrize("case", sorted(SINGLE_BATCHES))
    def test_replica_equals_solo_run(self, case):
        system, levy, x0, v0 = SINGLE_BATCHES[case]()
        cfg = sim.SimConfig(h=0.02, delta=1e-2, horizon=3.0, n_save=7, seed=4, n_replicas=12)
        batch = sim.run_single_ensemble(system, levy, cfg, x0, v0, replica_offset=8)
        assert len(batch) == 12
        for a, b in zip(batch, solo_runs(system, levy, cfg, x0, v0, replica_offset=8)):
            assert_same_paths(a, b)
        if case == "stable-2d":
            assert 0 < sum(tr.blown_up for tr in batch) < len(batch)

    def test_window_rule_matches_pair_path_at_window_ends(self, benchmark_levy, monkeypatch):
        # jumps within 1e-15 of a window end kick the next window (or none after
        # the last), as in the pair path; its first copy is the single path at kappa 0
        cfg = sim.SimConfig(h=0.1, delta=1e-2, horizon=0.3, n_save=4, seed=1)
        ends = [t0 + dt for _, t0, dt in sim._window_plan(cfg.save_times(), cfg.h)]
        times = np.array([ends[0] - 2e-15, ends[0], ends[1] - 1e-15, ends[2] - 1e-16])
        batch = ms.JumpBatch(times, np.array([[0.5], [0.25], [0.125], [0.0625]]),
                             np.full(4, 0.5), np.zeros(4, dtype=int))
        monkeypatch.setattr(ms, "sample_large_jumps", lambda *args: batch)
        single, = sim.run_single_ensemble(free_system(), benchmark_levy, cfg, [0.0], [0.0])
        pair, = sim.run_pair_ensemble(free_scalar_system(), benchmark_levy, cfg,
                                      PairState([0.0], [0.0], [0.0], [0.0]), 1.0, 0.0)
        np.testing.assert_array_equal(single.x, pair.x)
        np.testing.assert_array_equal(single.v, pair.v)
        # the injected kicks arrived: one per window, the last jump dropped
        drift = benchmark_levy.measure.compensation_drift(cfg.delta)[0] * cfg.save_times()
        np.testing.assert_allclose(single.v[:, 0] - drift, [0.0, 0.5, 0.75, 0.875], atol=1e-12)

    def test_mixed_blowups_leave_survivors_alone(self, benchmark_levy):
        cfg = sim.SimConfig(h=0.05, delta=1e-2, horizon=5.0, n_save=11, seed=2, n_replicas=20,
                            blowup_norm=1e6)
        batch = sim.run_single_ensemble(well_runaway_system(), benchmark_levy, cfg, [2.0], [0.0])
        blown = np.array([tr.blown_up for tr in batch])
        assert 0 < blown.sum() < len(batch)
        solos = solo_runs(well_runaway_system(), benchmark_levy, cfg, [2.0], [0.0])
        # the first copy of the pair at kappa 0 as a second reference
        refs = sim.run_pair_ensemble(well_runaway_system(), benchmark_levy, cfg,
                                     PairState([2.0], [0.0], [2.0], [0.0]), 1.0, 0.0)
        for tr, solo, ref in zip(batch, solos, refs):
            assert_same_paths(tr, solo)
            assert np.isnan(tr.x[-1]).all() == tr.blown_up
            if not tr.blown_up:
                assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.v))
            assert ref.blown_up == tr.blown_up
            assert np.array_equal(ref.x, tr.x, equal_nan=True)
            assert np.array_equal(ref.v, tr.v, equal_nan=True)


class TestWindows:
    def test_plan_hits_save_times(self):
        times = np.linspace(0.0, 1.0, 5)
        plan = list(sim._window_plan(times, 0.075))
        ends = [t0 + dt for _, t0, dt in plan]
        for t in times[1:]:
            assert any(abs(e - t) < 1e-12 for e in ends)
        # exactly the window that closes interval k saves, as snapshot k + 1
        saves = [(k, e) for (k, _, _), e in zip(plan, ends) if k]
        assert [k for k, _ in saves] == [1, 2, 3, 4]
        assert all(abs(e - times[k]) < 1e-12 for k, e in saves)
