"""Constant chain: scalar formulas, distance profiles, cost functionals."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from conftest import ForceSystem, ref_compute_lipschitz
from levyham import constants as cn
from levyham import generator as gen
from levyham import measures as ms
from levyham import model as md
from levyham.errors import NoRoot, SigmaNotIntegrable
from levyham.pair import PairState


class TestTransformWeights:
    def test_zero_a_branch(self):
        assert cn.compute_alpha_alpha0(0.0, 1.0, 1.0) == (1.0, 17.0)

    def test_positive_a_branch(self):
        assert cn.compute_alpha_alpha0(2.0, 16.0, 4.0) == (2.0, 6.0)

    def test_degenerate_boundary(self):
        alpha, alpha0 = cn.compute_alpha_alpha0(0.0, 1.0, 0.0)
        assert (alpha, alpha0) == (1.0, 1.0)  # caller flags the dead rate


class TestFarField:
    def test_linear_case(self):
        geom = cn.far_field_sublevel(2.0, 3.0, 0.0, 1.0, 1.0, 0.3)
        assert geom.S_star == pytest.approx(6.0)

    def test_quadratic_balance_oracle(self):
        # 2 + 4 sqrt(S/2) = S/2 has the closed-form root S = 20 + 8 sqrt(6)
        geom = cn.far_field_sublevel(1.0, 1.0, 1.0, 1.0, 1.0, 0.3)
        assert geom.S_star == pytest.approx(20.0 + 8.0 * math.sqrt(6.0), rel=1e-10)

    @pytest.mark.parametrize("c0", [1e-3, 0.2, 1.0, 30.0])
    @pytest.mark.parametrize("C0", [1e-6, 0.5, 3.0, 1e4])
    @pytest.mark.parametrize("c_star", [0.0, 1e-3, 1.0, 50.0])
    def test_balance_point_solves_the_balance(self, c0, C0, c_star):
        # S* is the root of 2 C0 + 4 c* sqrt(S/2) = c0 S / 2 above the floor 4;
        # at the floor the linear term already wins at S = 4
        S = cn.far_field_sublevel(c0, C0, c_star, 1.0, 1.0, 0.3).S_star
        lhs, rhs = 2.0 * C0 + 4.0 * c_star * math.sqrt(S / 2.0), c0 * S / 2.0
        if S == 4.0:
            assert lhs <= rhs * (1.0 + 1e-12)
        else:
            assert S > 4.0
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_balance_grid_reaches_the_floor(self):
        assert cn.far_field_sublevel(30.0, 1e-6, 0.0, 1.0, 1.0, 0.3).S_star == 4.0
        assert cn.far_field_sublevel(30.0, 1e-6, 1e-3, 1.0, 1.0, 0.3).S_star == 4.0

    def test_radius_monotone_in_C0(self):
        vals = []
        for C0 in (1.0, 2.0, 4.0):
            geom = cn.far_field_sublevel(1.0, C0, 1.0, 1.0, 1.0, 0.3)
            vals.append(cn.compute_R0(geom, 1.0, 5.0, 0.25))
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("c0", [0.0, -1.0])
    def test_no_root_for_bad_drift(self, c0):
        with pytest.raises(NoRoot):
            cn.far_field_sublevel(c0, 1.0, 1.0, 1.0, 1.0, 0.3)

    def test_no_root_after_a_failed_drift_fit(self):
        # a failed weight-drift fit leaves C0 = inf: the balance has no finite root
        with pytest.raises(NoRoot, match="no finite balance point"):
            cn.far_field_sublevel(1e-6, math.inf, 1.0, 1.0, 1.0, 0.3)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_sublevel_set_lies_inside_the_radii(self, flat_lyap, benchmark_lyap, theta, rng):
        # W + W' <= S* with W' >= 1 leaves V <= V_max = (S* - 2)^(2/theta) for
        # one copy; the radii must hold every (x, v) of that sublevel set
        for lyap in (flat_lyap, benchmark_lyap):
            geom = cn.far_field_sublevel(2.0, 3.0, 0.0, theta, lyap.r, lyap.r0_cross)
            V_max = max(geom.S_star - 2.0, 1.0) ** (2.0 / theta)
            x = rng.uniform(-1.2, 1.2, (100_000, 1)) * geom.x_max
            v = rng.uniform(-1.2, 1.2, (100_000, 1)) * geom.v_max
            inside = lyap.V(x, v) <= V_max
            assert inside.sum() > 1000
            assert np.all(np.abs(x[inside]) <= geom.x_max)
            assert np.all(np.abs(v[inside]) <= geom.v_max)


class TestScrambledSobol:
    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("m", [1, 11, 17])
    @pytest.mark.parametrize("seed", [777, 5])
    def test_equals_scipy_bitwise(self, dim, m, seed):
        from scipy.stats import qmc

        want = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)
        got = cn._scrambled_sobol(dim, m, seed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_read_only(self):
        pts = cn._scrambled_sobol(4, 3, 777)
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5

    def test_untabulated_dimension_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            cn._scrambled_sobol(9, 3, 777)


class TestLipschitz:
    def test_pure_damping_exact(self):
        sys_ = ForceSystem(lambda x, v: -np.asarray(v, dtype=float))
        assert cn.compute_lipschitz(sys_, 5.0, n_pairs=4096, inflate=1.0) \
            == pytest.approx(1.0, rel=1e-9)

    def test_damping_plus_position(self):
        sys_ = ForceSystem(lambda x, v: -np.asarray(v, dtype=float) - np.asarray(x, dtype=float))
        lam = cn.compute_lipschitz(sys_, 5.0, n_pairs=4096, inflate=1.0)
        assert 1.0 - 1e-9 <= lam <= math.sqrt(2.0) + 1e-9

    def test_radius_monotone(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)
        sys_ = kl
        vals = [cn.compute_lipschitz(sys_, r, n_pairs=2048, inflate=1.0)
                for r in (2.0, 4.0, 8.0)]
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("pot", [md.DoubleWellPoly(1.0, 2.0, 2.0), md.DoubleWellPoly(1.0, 2.0, 1.5),
                                     md.DoubleWellPoly(1.0, 2.0, 2.7),
                                     md.DoubleWellPoly(1.0, 2.0, 1.3), md.DoubleWellExp(0.1, 2.0, 0.3),
                                     md.DoubleWellExp(0.1, 2.0, 0.5), md.DoubleWellExp(0.1, 2.0, 1.0),
                                     md.Quadratic(1.0)], ids=repr)
    def test_blocked_equals_one_shot_oracle(self, pot, dim):
        # bit for bit, inf against inf where the exponential well overflows
        kl = md.KineticLangevinSpec(1.0, 1.0, pot, dim=dim)
        for radius in (3.0, 7.5, 50.0, 266.03):
            assert cn.compute_lipschitz(kl, radius) == ref_compute_lipschitz(kl, radius)

    @pytest.mark.parametrize("block", [1000, 4096, 5000])
    def test_block_size_does_not_move_the_result(self, monkeypatch, block):
        # these sizes put block edges inside both axis-aligned blocks (13107 rows)
        monkeypatch.setattr(cn, "_LIPSCHITZ_BLOCK", block)
        for pot, dim in ((md.DoubleWellPoly(1.0, 2.0, 2.0), 1), (md.DoubleWellPoly(1.0, 2.0, 1.5), 2)):
            kl = md.KineticLangevinSpec(1.0, 1.0, pot, dim=dim)
            assert cn.compute_lipschitz(kl, 7.5) == ref_compute_lipschitz(kl, 7.5)

    def test_tied_quotients_refine_from_the_first_argmax(self, monkeypatch):
        # under pure damping every zero-position-gap pair has quotient 1, the
        # maximum; the shrink refinement must start from the first of them
        monkeypatch.setattr(cn, "_LIPSCHITZ_BLOCK", 5000)
        starts = {}
        for name, fn in (("blocked", cn.compute_lipschitz), ("oracle", ref_compute_lipschitz)):
            calls = []

            def force(x, v):
                if x.shape[0] == 1:
                    calls.append((x.tobytes(), v.tobytes()))
                return -np.asarray(v, dtype=float)

            assert fn(ForceSystem(force, dim=2), 5.0, inflate=1.0) == 1.0
            starts[name] = calls
        assert len(starts["blocked"]) == 12
        assert starts["blocked"] == starts["oracle"]

    def test_peak_memory_bounded(self, benchmark_langevin):
        # the one-shot sampler peaked at 12.7 MB at this radius
        cn.compute_lipschitz(benchmark_langevin, 266.03)   # warms the Sobol table
        tracemalloc.start()
        try:
            cn.compute_lipschitz(benchmark_langevin, 266.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_overflowing_force_flagged_without_warnings(self, benchmark_levy):
        # the exponential well overflows the force on the sampled ball; the
        # chain reports that as a flag, and no numpy warning escapes
        langevin = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellExp(0.1, 2.0, 1.0), dim=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = cn.build_constants(langevin, benchmark_levy)
        assert {"lipschitz_unbounded", "degenerate_rate"} <= set(bundle.report.flags)


class TestSigmaAndProfile:
    def test_unit_scaling_branch(self):
        # kappa >= R0 leaves the activity floor unscaled
        coef = cn.activity_coef(0.7, 0.4, 1.0, 12.0, 10.0)
        s = np.linspace(0.01, 5, 50)
        np.testing.assert_allclose(coef * s ** 0.6, 0.7 * s ** 0.6, rtol=1e-12)

    def test_power_composition_hand_formula(self):
        c0, theta0, alpha, kappa, R0 = 0.6, 0.4, 2.0, 0.25, 10.0
        m = kappa / R0
        coef = cn.activity_coef(c0, theta0, alpha, kappa, R0)
        expected = (1.0 / alpha) * m * c0 * (alpha * m * 1.0) ** (1 - theta0)
        assert coef == pytest.approx(expected, rel=1e-12)

    def test_monotone_concave(self):
        coef = cn.activity_coef(0.6, 0.4, 1.0, 0.25, 10.0)
        s = np.linspace(1e-4, 20.0, 200)
        vals = coef * s ** (1.0 - 0.4)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 1e-12)

    @pytest.mark.parametrize("theta0", [0.0, 1.0, 1.5])
    def test_profile_needs_an_integrable_floor(self, theta0):
        with pytest.raises(SigmaNotIntegrable):
            cn.build_profile(0.5, theta0, 2.0, 1.0, 2.0, 10.0, 1.0, 1.0)

    def test_zero_reshaping_profile_is_linear(self):
        prof = cn.DistanceProfile(log_c1=0.0, c2=1.0, g_coef=0.0, theta0=0.4, cap=20.0)
        s = np.linspace(0.0, 20.0, 11)
        np.testing.assert_allclose(prof.value(s), 2.0 * s, rtol=1e-14)
        np.testing.assert_allclose(prof.slope(s), 2.0, rtol=1e-14)
        assert prof.c1 == 1.0

    def test_slope_band(self, live_profile):
        s = np.geomspace(1e-8, live_profile.cap, 512)
        sl = live_profile.slope(s)
        c1 = live_profile.c1
        assert np.all(sl >= c1 - 1e-12)
        assert np.all(sl <= 1.0 + c1 + 1e-12)

    def test_integral_against_adaptive_quadrature(self, live_profile):
        B = live_profile.rate_coef
        for s in (0.3, 2.0, 9.5):
            oracle = integrate.quad(lambda l: math.exp(-B * l ** live_profile.theta0),
                                    0.0, s, epsrel=1e-12, points=[min(1e-4, s / 2)])[0]
            got = live_profile.value(s) - live_profile.c1 * s
            assert got == pytest.approx(oracle, rel=1e-10)

    def test_property_suite_live(self, live_profile):
        rep = cn.profile_property_report(live_profile)
        assert rep["passed"], rep["checks"]

    def test_bounded_extension(self, live_profile):
        # the clamp is the one rule past a radius: value held at f(R0), and
        # the left slope clamps to zero beyond the far-field radius
        clamped = cn.ClampedProfile(live_profile, 5.0)
        assert clamped.slope(7.0) == 0.0
        assert clamped.value(7.0) == live_profile.value(5.0)

    def test_doubling_bound(self, live_profile):
        s = np.linspace(1e-6, live_profile.cap / 2, 300)
        assert np.all(live_profile.value(2 * s) <= 2 * live_profile.value(s) + 1e-12)


def gammainc_integral(prof, s):
    # the closed form DistanceProfile._integral evaluates, always through gammainc
    s = np.asarray(s, dtype=float)
    a, B = 1.0 / prof.theta0, prof.rate_coef
    log_scale = -a * math.log(B) + math.lgamma(a) - math.log(prof.theta0)
    return math.exp(log_scale) * special.gammainc(a, B * np.maximum(s, 0.0) ** prof.theta0)


def assert_same_bits(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


def saturation_point(a):
    """Smallest ``x >= 2 max(a - 1, 0) + 1`` with ``2 x^(a-1) e^-x / Gamma(a) < e^-40``.

    On that half line the expression bounds ``Q(a, x) = 1 - P(a, x)`` and
    falls with ``x``, so from the returned point on ``P(a, x)`` lies within
    ``e^-40`` of 1, far inside the half ulp below 1.
    """
    def log_bound(x):
        return math.log(2.0) + (a - 1.0) * math.log(x) - x - math.lgamma(a)

    lo = hi = 2.0 * max(a - 1.0, 0.0) + 1.0
    while log_bound(hi) >= -40.0:
        lo, hi = hi, 2.0 * hi
    # bisect down to adjacent floats: log_bound(lo) >= -40 > log_bound(hi), or lo == hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if log_bound(mid) < -40.0:
            hi = mid
        else:
            lo = mid
    return hi


def assert_within_gammainc_bound(got, want):
    # relative 1e-13 where scipy's value is at least 1e-290, absolute 1e-300
    # below, where scipy flushes subnormals to 0. Both evaluate the prefactor
    # exp(a ln x - x - lgamma(a)), and one ulp of an exponent past 450 in
    # magnitude is already 1e-13 relative, so there the bound is two ulps of
    # ln P: at x = 1.86e-61, a = 4.09 scipy is 1.3e-13 off the exact value
    big = want >= 1e-290
    logs = np.abs(np.log(np.where(big, want, 1.0)))
    rel_bound = np.maximum(1e-13, 2.0 * np.finfo(float).eps * logs)
    assert np.all(np.abs(got[big] - want[big]) <= rel_bound[big] * want[big])
    assert np.all(np.abs(got[~big] - want[~big]) <= 1e-300)


@pytest.fixture()
def gammainc_calls(monkeypatch):
    calls, real = [], special.gammainc

    def spy(a, x):
        calls.append(a)
        return real(a, x)

    monkeypatch.setattr(special, "gammainc", spy)
    return calls


class TestGammainc:
    # the numpy P(a, x) of DistanceProfile._integral against scipy's gammainc
    THETA0 = np.linspace(0.05, 1.99, 12)
    LIVE_THETA0 = np.linspace(0.05, 0.99, 20)

    @staticmethod
    def grid(a, seed):
        # zero, both sides of the branch switch at a + 1, random and dense
        # arguments, and a geometric sweep through the series' deep tail
        switch = a + 1.0
        near = switch + np.arange(-4, 5) * np.spacing(switch)
        rng = np.random.default_rng(seed)
        return np.concatenate([[0.0], near, switch * (1.0 + np.array([-1e-9, 1e-9])),
                               rng.uniform(0.0, 3.0 * a + 50.0, 4000),
                               np.linspace(0.0, 3.0 * a + 50.0, 4001),
                               np.geomspace(1e-300, 1e3, 2000)])

    @pytest.mark.parametrize("theta0", np.concatenate([THETA0, LIVE_THETA0]))
    def test_within_bound_of_scipy(self, theta0):
        a = 1.0 / theta0
        x = self.grid(a, seed=int(1e4 * theta0))
        assert_within_gammainc_bound(cn._gammainc(a, x), special.gammainc(a, x))

    @pytest.mark.parametrize("theta0", THETA0)
    def test_non_decreasing_on_sorted_grids(self, theta0):
        # grids coarse against the rounding noise of the prefactor, which
        # can reorder arguments a few ulps apart
        a = 1.0 / theta0
        rng = np.random.default_rng(7)
        for x in (np.sort(rng.uniform(0.0, 3.0 * a + 50.0, 20_000)),
                  np.linspace(0.0, 3.0 * a + 50.0, 20_001),
                  np.geomspace(1e-300, 1e3, 5000),
                  a + 1.0 + np.linspace(-1e-6, 1e-6, 2001)):
            assert np.all(np.diff(cn._gammainc(a, x)) >= 0.0)

    @pytest.mark.parametrize("theta0", np.concatenate([THETA0, LIVE_THETA0]))
    def test_exactly_one_from_the_saturation_point(self, theta0):
        # what keeps saturated stacks bitwise equal to scipy's gammainc, which
        # returns 1.0 here too
        a = 1.0 / theta0
        big = saturation_point(a)
        x = np.concatenate([big + np.arange(64) * np.spacing(big),
                            big * (1.0 + np.geomspace(1e-15, 1e6, 4000)), [1e300, np.inf]])
        assert np.all(cn._gammainc(a, x) == 1.0)
        assert np.all(special.gammainc(a, x) == 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 20.0])
    def test_saturation_point_is_the_first_below_the_bound(self, a):
        big = saturation_point(a)

        def log_bound(x):
            return math.log(2.0) + (a - 1.0) * math.log(x) - x - math.lgamma(a)

        start = 2.0 * max(a - 1.0, 0.0) + 1.0
        assert big > start and log_bound(big) < -40.0
        assert log_bound(np.nextafter(big, 0.0)) >= -40.0

    def test_exact_values_and_shapes(self):
        got = cn._gammainc(2.5, np.array([[0.0, np.inf], [np.nan, 1e300]]))
        assert got.shape == (2, 2) and got[0, 0] == 0.0 and got[0, 1] == 1.0
        assert np.isnan(got[1, 0]) and got[1, 1] == 1.0
        assert cn._gammainc(2.5, np.empty((0, 3))).shape == (0, 3)
        assert cn._gammainc(2.5, 1.0).shape == ()

    @staticmethod
    def series_terms(a, x):
        # terms of P's series summed at x: up to the first that leaves the sum unchanged
        n, t, total = 1, 1.0 / a, 1.0 / a
        while total + (t := t * x / (a + n)) != total:
            n, total = n + 1, total + t
        return n

    @staticmethod
    def fraction_steps(a, x):
        # modified-Lentz steps of Q's fraction at x until the factor is within an ulp of 1
        b, c, d = x + 1.0 - a, 1e300, 1.0 / (x + 1.0 - a)
        for i in itertools.count(1):
            an, b = -i * (i - a), b + 2.0
            d, c = (v if abs(v) >= 1e-300 else 1e-300 for v in (an * d + b, b + an / c))
            d = 1.0 / d
            if abs(c * d - 1.0) <= np.finfo(float).eps:
                return i

    @pytest.mark.parametrize("branch,x,needed", [
        # the series takes the terms of its branch edge a + 1 at every x below it
        (cn._gammainc_series, [0.5, 2.0, 3.0], lambda a, x: TestGammainc.series_terms(a, a + 1.0)),
        (cn._gammainc_fraction, [3.5, 6.0, 40.0],
         lambda a, x: max(TestGammainc.fraction_steps(a, v) for v in x))],
        ids=["series", "fraction"])
    def test_iteration_cap(self, monkeypatch, branch, x, needed):
        # a cap of n terms admits a stack that needs exactly n, and raises below
        a, x = 2.5, np.array(x)
        want, n = branch(a, x), needed(a, x)
        monkeypatch.setattr(cn, "_GAMMAINC_MAX_TERMS", n)
        assert np.array_equal(branch(a, x), want)
        monkeypatch.setattr(cn, "_GAMMAINC_MAX_TERMS", n - 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            branch(a, x)


    @pytest.mark.parametrize("theta0", [0.05, 0.4, 0.99, 1.5])
    def test_stacked_values_equal_one_element_calls(self, theta0):
        # an element's value does not depend on the stack it comes in, on either branch
        a = 1.0 / theta0
        rng = np.random.default_rng(int(1e4 * theta0))
        x = np.concatenate([rng.uniform(0.0, a + 1.0, 300), rng.uniform(a + 1.0, 3.0 * a + 50.0, 100)])
        one = np.concatenate([cn._gammainc(a, x[i:i + 1]) for i in range(x.size)])
        assert np.array_equal(cn._gammainc(a, x), one)

    def test_live_profile_stack_equals_one_gap_calls(self):
        # one-element arrays, as a 0-d gap takes numpy's scalar power, not its array loop
        s = np.random.default_rng(5).uniform(0.0, 12.0, 500)
        prof = cn.REFERENCE_LIVE_PROFILE
        one = np.concatenate([prof.value(s[i:i + 1]) for i in range(s.size)])
        assert np.array_equal(prof.value(s), one)


class TestSaturatedIntegral:
    # the certified profiles are saturated: there _integral must stay
    # gammainc's, bit for bit, and elsewhere within the kernel's bound
    THETA0 = TestGammainc.THETA0

    @staticmethod
    def profile(theta0):
        return cn.DistanceProfile(log_c1=-1.0, c2=1.5, g_coef=0.4, theta0=float(theta0),
                                  cap=10.0)

    @staticmethod
    def gaps(prof, x):
        # gaps s whose x = B s^theta0 lies within a few ulps of x
        return (np.asarray(x, dtype=float) / prof.rate_coef) ** (1.0 / prof.theta0)

    def first_saturated_gap(self, prof, big):
        # the smallest float gap whose x is at least big
        def x(s):
            return prof.rate_coef * s ** prof.theta0

        s = float(self.gaps(prof, big))
        while x(s) < big:
            s = np.nextafter(s, np.inf)
        while x(np.nextafter(s, 0.0)) >= big:
            s = np.nextafter(s, 0.0)
        return s

    @pytest.mark.parametrize("theta0", THETA0)
    def test_saturated_stacks_equal_gammainc(self, theta0, gammainc_calls):
        prof = self.profile(theta0)
        big = saturation_point(1.0 / prof.theta0)
        first = self.first_saturated_gap(prof, big)
        ulps = first + np.arange(8) * np.spacing(first)
        ulps = ulps[prof.rate_coef * ulps ** prof.theta0 >= big]  # s^theta0 is not monotone in ulps
        cases = [np.float64(first), ulps,
                 self.gaps(prof, big * (1.0 + 1e-12)), self.gaps(prof, big * 2.0),
                 np.append(self.gaps(prof, big * 1e6), [1e150, np.inf]),
                 self.gaps(prof, np.geomspace(big * 1.5, big * 1e3, 4).reshape(2, 2))]
        for s in cases:
            assert np.all(prof.rate_coef * s ** prof.theta0 >= big)
            assert_same_bits(prof._integral(s), gammainc_integral(prof, s))
        assert len(gammainc_calls) == len(cases)  # the reference's calls only

    @pytest.mark.parametrize("theta0", THETA0)
    def test_unsaturated_stacks_match_gammainc(self, theta0, gammainc_calls):
        prof = self.profile(theta0)
        big = saturation_point(1.0 / prof.theta0)
        first = self.first_saturated_gap(prof, big)
        below = np.nextafter(first, 0.0)
        mixed = np.array([first, self.gaps(prof, big * 0.5), first * 4.0])
        cases = [np.array([below]), np.array([below, first]),
                 np.array([self.gaps(prof, big * (1.0 - 1e-12))]), mixed,
                 np.geomspace(1e-12, first, 500)]
        scale = gammainc_integral(prof, np.inf)  # the integral's limit, where P = 1
        for s in cases:
            assert_within_gammainc_bound(prof._integral(s) / scale,
                                         gammainc_integral(prof, s) / scale)
        assert len(gammainc_calls) == len(cases) + 1  # the reference's calls only

    @pytest.mark.parametrize("s", [0.0, 1e30, np.inf, np.nan, np.empty(0), np.empty((0, 3)),
                                   np.array([1e30, np.nan])], ids=repr)
    def test_scalar_empty_and_nan_inputs(self, s):
        prof = self.profile(0.4)
        assert_same_bits(prof._integral(s), gammainc_integral(prof, s))


class TestTiltAndRate:
    # arguments: log_c1, alpha0, b, alpha, C0, c_star, c0

    def test_tilt_hand_case(self):
        log_eps, _ = cn.tilt_and_rate_log(0.0, 2.0, 1.0, 1.0, 0.5, 0.0, 1.0)
        assert math.exp(log_eps) == pytest.approx(3.0 / 64.0, rel=1e-12)

    def test_tilt_decreasing_in_C0(self):
        vals = [cn.tilt_and_rate_log(0.0, 2.0, 1.0, 1.0, C0, 0.5, 1.0)[0]
                for C0 in (0.5, 1.0, 2.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_tilt_positive(self):
        assert cn.tilt_and_rate_log(-3.0, 1.5, 1.0, 0.5, 1.0, 2.0, 0.2)[0] > -math.inf

    @pytest.mark.parametrize("c_star, c0", [(0.5, 1.0), (2.0, 0.2), (1e-3, 30.0)])
    def test_tilt_bracket_is_the_half_exponent_young_bound(self, c_star, c0):
        # (1 - eta) (2 c* (eta / c0)^eta)^(1 / (1 - eta)) at eta = 1/2 is c*^2 / c0
        eta = 0.5
        young = (1.0 - eta) * (2.0 * c_star * (eta / c0) ** eta) ** (1.0 / (1.0 - eta))
        bracket = 2.0 * 0.7 + young
        log_eps, _ = cn.tilt_and_rate_log(-1.0, 3.0, 1.0, 2.0, 0.7, c_star, c0)
        c1 = math.exp(-1.0)
        want = 3.0 * (1.0 - 1.0 / 3.0) * 2.0 / 16.0 * c1 / (1.0 + c1) / bracket
        assert math.exp(log_eps) == pytest.approx(want, rel=1e-12)

    def test_rate_first_term(self):
        # eps = 3/64 and bracket 1: c0 eps / (1 + 2 eps) = 3/70 < 2 eps = 3/32
        _, log_rate = cn.tilt_and_rate_log(0.0, 2.0, 1.0, 1.0, 0.5, 0.0, 1.0)
        assert math.exp(log_rate) == pytest.approx(3.0 / 70.0, rel=1e-12)

    def test_rate_profile_route(self):
        # a strong weight drift leaves the profile route 2 bracket eps =
        # 3 (1 - 1/alpha0) b alpha c1 / (8 (1 + c1))
        _, log_rate = cn.tilt_and_rate_log(-2.0, 4.0, 1.5, 0.5, 0.3, 0.4, 50.0)
        c1 = math.exp(-2.0)
        want = 3.0 * (1.0 - 1.0 / 4.0) * 1.5 * 0.5 / 8.0 * c1 / (1.0 + c1)
        assert math.exp(log_rate) == pytest.approx(want, rel=1e-12)

    def test_rate_degenerate_weight(self):
        assert cn.tilt_and_rate_log(0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0) == (-math.inf, -math.inf)

    @pytest.mark.parametrize("C0", [1e-3, 0.5, 50.0])
    def test_rate_below_weight_drift(self, C0):
        log_eps, log_rate = cn.tilt_and_rate_log(0.0, 2.0, 1.0, 1.0, C0, 0.5, 0.7)
        eps = math.exp(log_eps)
        assert math.exp(log_rate) < 0.7
        assert math.exp(log_rate) <= 0.7 * eps / (1.0 + 2.0 * eps) * (1.0 + 1e-12)


def psi_tilde_fn(profile, lyap, eps: float, alpha: float, alpha0: float):
    """Contraction cost: profile of the blended gap times the Lyapunov tilt."""
    w = gen.lyapunov_test_function(lyap)
    return gen.ProductPairFn(gen.ProfilePairFn(profile, alpha, alpha0),
                             gen.SeparablePairFn(w, w, eps, 1.0))


class TestCostFunctionals:
    def test_vanish_on_diagonal(self, flat_lyap, live_profile):
        pair = PairState([0.3], [0.4], [0.3], [0.4])
        assert cn.psi(pair, flat_lyap) == 0.0
        cost = psi_tilde_fn(cn.ClampedProfile(live_profile, 5.0), flat_lyap, 0.1, 1.0, 2.0)
        assert cost.value(pair) == 0.0

    def test_distance_clamp(self, flat_lyap):
        pair = PairState([2.0], [0.0], [-2.0], [0.0])
        W_sum = float(flat_lyap.W(pair.x, pair.v) + flat_lyap.W(pair.xp, pair.vp))
        assert cn.psi(pair, flat_lyap) == pytest.approx(W_sum)

    def test_positive_off_diagonal(self, flat_lyap, live_profile, rng):
        cost = psi_tilde_fn(cn.ClampedProfile(live_profile, 5.0), flat_lyap, 0.1, 1.0, 2.0)
        for _ in range(50):
            pair = PairState(rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1))
            if np.array_equal(pair.x, pair.xp) and np.array_equal(pair.v, pair.vp):
                continue
            assert cn.psi(pair, flat_lyap) > 0
            assert cost.value(pair) > 0

    def test_comparability_on_live_chain(self, flat_lyap, live_profile, rng):
        # fitted two-sided bounds between the base and tilted costs, on 10 000
        # states drawn state by state as (x, v, xp, vp) and evaluated in one call
        cost = psi_tilde_fn(cn.ClampedProfile(live_profile, 5.0), flat_lyap, 0.1, 1.0, 2.0)
        x, v, xp, vp = np.moveaxis(rng.normal(0, 2, (10_000, 4, 1)), 1, 0)
        pair = PairState(x, v, xp, vp)
        p, pt = cn.psi(pair, flat_lyap), cost.value(pair)
        assert p.shape == pt.shape == (10_000,)
        for k in range(20):
            row = PairState(x[k:k + 1], v[k:k + 1], xp[k:k + 1], vp[k:k + 1])
            assert np.array_equal(p[k:k + 1], cn.psi(row, flat_lyap))
        ratios = pt[p > 0] / p[p > 0]
        c_fit = max(ratios.max(), 1.0 / ratios.min())
        assert math.isfinite(c_fit)
        assert np.all(ratios <= c_fit + 1e-12)
        assert np.all(ratios >= 1.0 / c_fit - 1e-12)
        # the spread is moderate for a live chain
        assert ratios.max() / ratios.min() < 1e3


class TestPipeline:
    def test_report_invariants(self, benchmark_bundle):
        rep = benchmark_bundle.report
        assert rep.positivity_violations() == []
        assert rep.kappa == pytest.approx(rep.r0_jump / (2 * rep.alpha))
        assert rep.alpha0 > 1.0
        assert rep.c_star_profile > 1.0
        assert rep.log_c1 <= 0.0
        assert rep.log_rate > -math.inf

    def test_weight_drift_fit(self, benchmark_bundle, benchmark_levy):
        rep = benchmark_bundle.report
        assert rep.c0_lyap >= 0.01
        assert math.isfinite(rep.C0_lyap)
        lyap = benchmark_bundle.lyap
        c0, C0 = cn.fit_lyapunov_drift(benchmark_bundle.system, benchmark_levy, lyap)
        # the fit holds on every point of its own grid
        x, v = md.grid_pairs(20.0, 21, 1, include_origin=True)
        LW = gen.apply_generator(benchmark_bundle.system, benchmark_levy,
                                 gen.lyapunov_test_function(lyap), x, v)
        assert float(np.max(LW + c0 * lyap.W(x, v) - C0)) <= 0.0

    def test_log_constants_below_float_range(self, benchmark_bundle):
        # the benchmark's c1, eps and rate underflow float64, so only their
        # logs are stored
        rep = benchmark_bundle.report
        for log_value in (rep.log_c1, rep.log_eps, rep.log_rate):
            assert math.isfinite(log_value) and log_value < -745.0

    def test_monitor_fallback_engaged(self, benchmark_bundle):
        assert benchmark_bundle.monitor_is_fallback
        assert benchmark_bundle.monitor.right.eps > 0.0
        pair = PairState([1.0], [0.0], [-1.0], [0.0])
        assert benchmark_bundle.monitor.value(pair) > 0

    def test_costs_are_built_from_the_report(self, benchmark_bundle):
        # the certified cost reads the report's profile and eps; the fallback
        # monitor, the linear member at a 2:1 blend and the eps of log c1 = 0
        bundle, rep = benchmark_bundle, benchmark_bundle.report
        assert bundle.cost.left.profile.base is bundle.profile
        assert bundle.cost.left.alpha0 == rep.alpha0
        assert bundle.cost.right.eps == math.exp(rep.log_eps)
        assert bundle.monitor.left.alpha0 == 2.0
        log_eps = cn.tilt_and_rate_log(0.0, rep.alpha0, rep.b, rep.alpha, rep.C0_lyap,
                                       rep.c_star_A2, rep.c0_lyap)[0]
        assert bundle.monitor.right.eps == math.exp(log_eps)

    def test_alpha0_of_one_is_degenerate(self, benchmark_langevin, benchmark_levy,
                                         monkeypatch):
        # a finite Lipschitz bound of 1e-20 at a = 0, b = 1 rounds alpha0 to
        # 1: no rate is certified, and nothing divides by alpha0 - 1
        monkeypatch.setattr(cn, "compute_lipschitz", lambda *args: 1e-20)
        rep = cn.build_constants(benchmark_langevin, benchmark_levy).report
        assert rep.alpha0 == 1.0 and rep.lambda_star_R0 == 1e-20
        assert rep.flags == ("degenerate_rate", "profile_unavailable")
        assert rep.log_rate == rep.log_eps == -math.inf
        assert rep.k0 == rep.lambda0 == rep.c_star_profile == math.inf

    def test_profile_suite_on_certified_chain(self, benchmark_bundle):
        rep = cn.profile_property_report(benchmark_bundle.profile)
        assert rep["passed"], rep["checks"]

    def test_slice_exponent_reaches_the_profile_exactly(self, benchmark_langevin):
        levy = ms.LevyMeasureSpec(measure=ms.SliceMeasure(c=1.0, theta0=0.3, dim=1), theta=1.0)
        bundle = cn.build_constants(benchmark_langevin, levy)
        assert bundle.report.theta0 == 0.3
        assert bundle.profile.theta0 == 0.3
        assert bundle.monitor.left.profile.base.theta0 == 0.3
