"""Measure layer: truncation, overlap quantities, moments, and jump sampling."""

import hashlib
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from levyham import measures as ms
from levyham.errors import CutoffTooSmall, NonPositiveRadius, ShiftIsZero

SL = ms.SliceMeasure(c=1.0, theta0=0.5, dim=1)


class TestTruncate:
    def test_identity_below_cap(self):
        np.testing.assert_allclose(ms.truncate(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])

    def test_rescale_to_cap(self):
        np.testing.assert_allclose(ms.truncate(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(ms.truncate(np.array([0.0, 0.0]), 1.0), [0.0, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=4),
           st.floats(1e-3, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_norm_capped_direction_kept(self, vec, kappa):
        x = np.asarray(vec)
        y = ms.truncate(x, kappa)
        assert np.linalg.norm(y) <= kappa * (1 + 1e-12)
        if np.linalg.norm(x) > 0:
            cross = np.linalg.norm(x) * y - np.linalg.norm(y) * x
            assert np.linalg.norm(cross) <= 1e-9 * max(1.0, np.linalg.norm(x))

    def test_negative_cap_rejected(self):
        for kappa in (-1.0, 0.0):
            with pytest.raises(NonPositiveRadius):
                ms.truncate(np.array([1.0]), kappa)

    def test_leading_axes_are_rows(self):
        x = np.array([[[3.0, 4.0], [0.3, 0.4]], [[0.0, 0.0], [-6.0, 8.0]]])
        got = ms.truncate(x, 1.0)
        assert got.shape == x.shape
        for idx in np.ndindex(x.shape[:-1]):
            assert np.array_equal(got[idx], ms.truncate(x[idx], 1.0))


class TestLeadingAxes:
    """Densities and overlap ratios keep the leading axes, one point included."""

    STABLE = ms.LevyMeasureSpec(measure=ms.IsotropicStable(1.5, 1.0, 1), theta=1.0,
                                slice_part=ms.SliceMeasure(0.8, 0.4, 1))
    # stable noise strictly above its slab sub-measure
    DOMINATED = ms.LevyMeasureSpec(ms.IsotropicStable(0.8), theta=0.5,
                                   slice_part=ms.SliceMeasure(1.0, 0.4, 1))

    @pytest.mark.parametrize("measure", [SL, STABLE.measure, DOMINATED.measure])
    def test_density_shapes(self, measure):
        assert measure.density(np.array([[0.5]])).shape == (1,)
        assert measure.density(np.full((2, 3, 1), 0.5)).shape == (2, 3)
        one = measure.density(np.array([0.5]))
        assert isinstance(one, float) and np.ndim(one) == 0
        assert one == measure.density(np.array([[0.5]]))[0]

    def test_overlap_ratio_shapes(self):
        shift = np.array([0.3])
        for spec in (ms.LevyMeasureSpec(measure=SL, theta=1.0), self.STABLE, self.DOMINATED):
            assert ms.overlap_ratio(spec, shift, np.array([[0.5]])).shape == (1,)
            assert ms.overlap_ratio(spec, shift, np.full((2, 3, 1), 0.5)).shape == (2, 3)
            one = ms.overlap_ratio(spec, shift, np.array([0.5]))
            assert isinstance(one, float) and np.ndim(one) == 0


class TestOverlapRatio:
    def setup_method(self):
        self.spec = ms.LevyMeasureSpec(measure=SL, theta=1.0)

    def test_same_sign_min_is_unshifted(self):
        assert ms.overlap_ratio(self.spec, np.array([0.5]), np.array([0.75])) == 1.0

    def test_shift_negative_ratio(self):
        got = ms.overlap_ratio(self.spec, np.array([-0.5]), np.array([0.25]))
        assert got == pytest.approx((1.0 / 3.0) ** 1.5, rel=1e-12)

    def test_outside_support(self):
        assert ms.overlap_ratio(self.spec, np.array([0.5]), np.array([1.2])) == 0.0

    def test_zero_shift_raises(self):
        with pytest.raises(ShiftIsZero):
            ms.overlap_ratio(self.spec, np.array([0.0]), np.array([0.5]))

    @given(st.floats(-0.95, 0.95).filter(lambda s: abs(s) > 1e-3),
           st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_ratio_in_unit_interval(self, shift, u):
        r = ms.overlap_ratio(self.spec, np.array([shift]), np.array([u]))
        assert 0.0 <= r <= 1.0


class TestOverlapMass:
    def test_closed_form_half(self):
        assert ms.overlap_mass(SL, [0.5]) == pytest.approx(2 * math.sqrt(2) - 2, rel=1e-12)

    def test_closed_form_quarter(self):
        assert ms.overlap_mass(SL, [0.25]) == pytest.approx(2.0, rel=1e-12)

    def test_reflection_symmetry(self):
        assert ms.overlap_mass(SL, [-0.5]) == pytest.approx(ms.overlap_mass(SL, [0.5]), rel=1e-14)

    def test_zero_shift_raises(self):
        with pytest.raises(ShiftIsZero):
            ms.overlap_mass(SL, [0.0])

    def test_mass_equals_integral_of_ratio(self):
        # quadrature of rho against the driving measure reproduces the mass
        spec = ms.LevyMeasureSpec(measure=SL, theta=1.0)
        shift = np.array([0.3])
        val = integrate.quad(
            lambda u: float(ms.overlap_ratio(spec, shift, np.array([u])))
            * float(SL.density(np.array([u]))), 1e-12, 1.0, points=[0.3], limit=200)[0]
        assert val == pytest.approx(ms.overlap_mass(SL, shift), rel=1e-6)

    def test_section_mass_bound(self):
        # mass(x) <= 8 int (1 ^ |u|^2) nu(du) (1 ^ |x|)^-2 at 50 shifts
        small = SL.moment_pair(1.0).small_jump
        for x in np.linspace(-0.98, 0.98, 50):
            if abs(x) < 1e-6:
                continue
            bound = 8.0 * small * min(1.0, abs(x)) ** -2
            assert ms.overlap_mass(SL, [x]) <= 1.01 * bound

    def test_monotone_decreasing_along_direction(self):
        radii = np.linspace(0.05, 0.95, 12)
        masses = [ms.overlap_mass(SL, [r]) for r in radii]
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    def test_two_dim_quadrature_symmetry(self):
        sl2 = ms.SliceMeasure(c=1.0, theta0=0.5, dim=2)
        m1 = ms.overlap_mass(sl2, [0.3, 0.1])
        m2 = ms.overlap_mass(sl2, [-0.3, -0.1])
        assert m1 == pytest.approx(m2, rel=1e-6)
        # bound also holds in dim 2
        small = sl2.moment_pair(1.0).small_jump
        assert m1 <= 8.0 * small * min(1.0, math.hypot(0.3, 0.1)) ** -2

    @pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 2, -2.4])
    def test_two_dim_monotone_along_rays(self, angle):
        # overlap_mass_lower_bound searches only |x| = s, which relies on this
        sl2 = ms.SliceMeasure(c=1.0, theta0=0.5, dim=2)
        e = np.array([math.cos(angle), math.sin(angle)])
        masses = [ms.overlap_mass(sl2, r * e) for r in np.geomspace(0.02, 0.6, 6)]
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_three_dims_raise(self):
        sl3 = ms.SliceMeasure(c=1.0, theta0=0.5, dim=3)
        with pytest.raises(NotImplementedError, match="dim = 3"):
            ms.overlap_mass(sl3, [0.3, 0.1, 0.2])


class TestReflectionIdentity:
    def test_pointwise_100_random(self, rng):
        for _ in range(100):
            x = rng.uniform(-0.9, 0.9)
            while abs(x) < 1e-3:
                x = rng.uniform(-0.9, 0.9)
            u = rng.uniform(-1.5, 1.5)
            lhs = float(ms.overlap_density(SL, np.array([-x]), np.array([u - x])))
            rhs = float(ms.overlap_density(SL, np.array([x]), np.array([u])))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestOverlapFloor:
    def test_quarter(self):
        assert ms.overlap_mass_lower_bound(SL, 0.25) == pytest.approx(2.0, rel=1e-9)

    def test_small_radius(self):
        assert ms.overlap_mass_lower_bound(SL, 0.04) == pytest.approx(8.0, rel=1e-9)

    def test_asymptotic_constant(self):
        # J(s) * s^(1/2) -> c/theta0 = 2 within 1%
        for s in (1e-5, 1e-6):
            val = ms.overlap_mass_lower_bound(SL, s) * math.sqrt(s)
            assert val == pytest.approx(2.0, rel=0.01)

    def test_nonpositive_radius(self):
        with pytest.raises(NonPositiveRadius):
            ms.overlap_mass_lower_bound(SL, 0.0)

    @pytest.mark.parametrize("s", [1e-4, 0.04, 0.25, 0.9, 1.5])
    def test_one_dim_bound_is_the_grid_minimum(self, s):
        # the direction x radius grid (both signs, 32 radii up to s) that the
        # closed form replaces in d = 1 finds its minimum at |x| = s
        grid = [ms.overlap_mass(SL, [r * e]) for e in (1.0, -1.0)
                for r in np.linspace(s / 32, s, 32)]
        assert ms.overlap_mass_lower_bound(SL, s) == min(grid)

    def test_floor_fit_bounds_everywhere(self):
        c0, theta0 = ms.fit_overlap_floor(SL, 0.5), SL.theta0
        assert theta0 == 0.5
        for s in np.geomspace(5e-4, 0.5, 40):
            assert ms.overlap_mass_lower_bound(SL, float(s)) >= c0 * s ** -theta0 * (1 - 1e-9)


class TestCompensation:
    def test_slice_closed_form(self):
        np.testing.assert_allclose(SL.compensation_drift(0.25), [-1.0], rtol=1e-12)

    def test_symmetric_stable_zero(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        np.testing.assert_array_equal(st_m.compensation_drift(0.3), [0.0])

    def test_delta_one_empty_region(self):
        np.testing.assert_allclose(SL.compensation_drift(1.0), [0.0], atol=1e-15)


class TestMoments:
    def test_slice_theta_moment(self):
        rep = SL.moment_pair(1.0)
        assert rep.small_jump == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rep.theta_moment == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert not rep.divergent

    def test_stable_finite(self):
        rep = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1).moment_pair(1.0)
        assert math.isfinite(rep.small_jump) and math.isfinite(rep.theta_moment)
        assert not rep.divergent

    def test_stable_divergent(self):
        rep = ms.IsotropicStable(alpha0=0.8, scale=1.0, dim=1).moment_pair(1.0)
        assert rep.divergent and math.isinf(rep.theta_moment)

    def test_stable_tail_mass(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        assert st_m.mass_above(1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def _slab_share(dim, r, power=0):
    # E[e_1^power; 0 < e_1 <= min(1, 1/r)] for e uniform on the unit sphere:
    # the arc angle in d = 2, Archimedes' m / 2 in d = 3, else a quadrature
    # over the law of e_1, whose density is proportional to (1 - t^2)^((d-3)/2)
    m = min(1.0, 1.0 / r)
    if dim == 2:
        return math.asin(m) / math.pi if power == 0 else (1.0 - math.sqrt(1.0 - m * m)) / math.pi
    if dim == 3:
        return m ** (power + 1) / (2.0 * (power + 1))
    w = lambda t: (1.0 - t * t) ** ((dim - 3) / 2.0)  # noqa: E731
    num = integrate.quad(lambda t: t ** power * w(t), 0.0, m, epsabs=0.0, epsrel=1e-12)[0]
    return num / integrate.quad(w, -1.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]


def _radial_reference(sl, f, lo, hi, power=0):
    # omega c * integral over (lo, hi] of f(r) r^(-1-theta0) E[e_1^power; slab at r]
    omega = 2.0 * math.pi ** (sl.dim / 2.0) / math.gamma(sl.dim / 2.0)

    def piece(a, b):
        if a >= b:
            return 0.0
        return integrate.quad(
            lambda r: f(r) * r ** (-1.0 - sl.theta0) * _slab_share(sl.dim, r, power),
            a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    return omega * sl.c * (piece(lo, min(hi, 1.0)) + piece(max(lo, 1.0), hi))


def _cartesian_mass_2d(sl, a, b):
    # the density integrated over {0 < u_1 <= 1, a < |u| <= b} in Cartesian
    # coordinates, u_2 of both signs
    def inner(u1):
        lo = math.sqrt(max(a * a - u1 * u1, 0.0))
        hi = math.sqrt(b * b - u1 * u1) if math.isfinite(b) else math.inf
        return integrate.quad(lambda u2: (u1 * u1 + u2 * u2) ** (-1.0 - sl.theta0 / 2.0),
                              lo, hi, epsabs=0.0, epsrel=1e-12)[0]

    top = min(1.0, b)
    return 2.0 * sl.c * integrate.quad(inner, 0.0, top, points=[a] if a < top else None,
                                       epsabs=0.0, epsrel=1e-11, limit=200)[0]


SLABS = [ms.SliceMeasure(1.3, theta0, dim) for dim in (2, 3, 4, 5) for theta0 in (0.3, 1.0, 1.5)]


class TestSlabClosedForms:
    """The incomplete-beta closed forms of the slab measure against quadrature references."""

    @pytest.mark.parametrize("sl", SLABS, ids=repr)
    def test_masses(self, sl):
        one = lambda r: 1.0  # noqa: E731
        for a in (0.05, 0.5, 1.0, 3.0):
            assert sl.mass_above(a) == pytest.approx(
                _radial_reference(sl, one, a, math.inf), rel=1e-8)
        for a, b in ((0.05, 0.1), (0.3, 2.0), (1.0, 4.0), (2.0, 16.0)):
            want = _radial_reference(sl, one, a, b)
            assert sl.annulus_mass(a, b) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("theta0", [0.5, 1.5])
    def test_mass_at_zero_is_infinite(self, dim, theta0):
        sl = ms.SliceMeasure(1.0, theta0, dim)
        assert sl.mass_above(0.0) == sl.annulus_mass(0.0, 0.5) == math.inf
        assert sl.annulus_mass(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("a, b", [(0.05, 0.5), (0.3, 2.0), (1.5, math.inf), (0.2, math.inf)])
    def test_two_dim_masses_match_cartesian_integral(self, a, b):
        for theta0 in (0.3, 1.5):
            sl = ms.SliceMeasure(1.3, theta0, 2)
            assert sl.annulus_mass(a, b) == pytest.approx(_cartesian_mass_2d(sl, a, b), rel=1e-8)

    @pytest.mark.parametrize("sl", SLABS, ids=repr)
    def test_moments(self, sl):
        inner = _radial_reference(sl, lambda r: r * r, 0.0, 1.0)
        small = inner + _radial_reference(sl, lambda r: 1.0, 1.0, math.inf)
        # theta = theta0 is the digamma limit of the closed form; theta a
        # rounding error away from theta0 must not lose digits to cancellation
        t0 = min(sl.theta0, 1.0)
        near = {t0 * (1.0 - 1e-12)} | ({t0 * (1.0 + 1e-12)} if t0 < 1.0 else set())
        for theta in sorted({0.2, 0.7, 1.0, t0} | near):
            rep = sl.moment_pair(theta)
            theta_m = inner + _radial_reference(sl, lambda r: r ** theta, 1.0, math.inf)
            assert rep.small_jump == pytest.approx(small, rel=1e-8)
            assert rep.theta_moment == pytest.approx(theta_m, rel=1e-8)
            assert not rep.divergent

    @pytest.mark.parametrize("sl", SLABS, ids=repr)
    def test_compensation_drift(self, sl):
        for delta in (1e-3, 0.1, 0.9):
            got = sl.compensation_drift(delta)
            want = _radial_reference(sl, lambda r: r, delta, 1.0, power=1)
            assert got[0] == pytest.approx(-want, rel=1e-10)
            assert got.shape == (sl.dim,) and np.all(got[1:] == 0.0)

    @pytest.mark.parametrize("sl", SLABS[:3], ids=repr)
    def test_second_moment_within(self, sl):
        for rho in (1e-6, 0.5, 1.0, 3.0):
            want = _radial_reference(sl, lambda r: r * r, 0.0, rho)
            assert sl.second_moment_within(rho) == pytest.approx(want, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("method, arg", [("mass_above", 0.5), ("second_moment_within", 2.0),
                                             ("compensation_drift", 1e-3), ("moment_pair", 1.0)])
    def test_formulas_import_scipy_special_on_first_use(self, dim, method, arg):
        # each d >= 2 formula imports scipy.special itself: run cold, in a fresh
        # interpreter that has not loaded it, it gives the in-process value
        text = "repr(out.tolist() if isinstance(out, np.ndarray) else out)"
        code = (f"import sys\nimport numpy as np\nfrom levyham import measures as ms\n"
                f"assert 'scipy.special' not in sys.modules\n"
                f"out = ms.SliceMeasure(1.0, 0.4, dim={dim}).{method}({arg!r})\n"
                f"assert 'scipy.special' in sys.modules\nprint({text})")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ms.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cold = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.strip()
        out = getattr(ms.SliceMeasure(1.0, 0.4, dim=dim), method)(arg)
        assert cold == eval(text, {"np": np, "out": out})


class TestSampling:
    def test_four_dim_marks_lie_in_the_slab_at_the_closed_form_rate(self):
        sl4 = ms.SliceMeasure(1.0, 0.8, dim=4)
        horizon, delta = 50.0, 0.05
        batch = ms.sample_large_jumps(sl4, horizon, delta, np.random.SeedSequence(17), [0])
        first, norm = batch.marks[:, 0], np.linalg.norm(batch.marks, axis=1)
        assert batch.marks.shape[1] == 4
        assert np.all((first > 0.0) & (first <= 1.0)) and np.all(norm > delta)
        expected = sl4.mass_above(delta) * horizon
        assert abs(len(batch) - expected) <= 4.0 * math.sqrt(expected)
        # the mark radii follow the normalised tail of the closed-form masses
        tail = np.vectorize(sl4.mass_above)
        res = stats.kstest(norm, lambda r: 1.0 - tail(r) / sl4.mass_above(delta))
        assert res.statistic < 1.628 / math.sqrt(len(batch))

    def test_no_mass_above_support(self):
        batch = ms.sample_large_jumps(SL, 50.0, 1.0, np.random.SeedSequence(0), [0])
        assert len(batch) == 0

    def test_rate_matches_mass(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        rate = st_m.mass_above(1.0)
        horizon = 2000.0
        batch = ms.sample_large_jumps(st_m, horizon, 1.0, np.random.SeedSequence(7), [0])
        expected = rate * horizon
        assert abs(len(batch) - expected) <= 3.0 * math.sqrt(expected)

    def test_slice_support_constraint(self):
        batch = ms.sample_large_jumps(SL, 200.0, 0.25, np.random.SeedSequence(3), [0])
        assert np.all((batch.marks > 0.25) & (batch.marks <= 1.0))

    def test_mark_distribution_ks(self):
        # empirical CDF of restricted marks vs the closed-form CDF
        delta, n_target = 0.25, 10_000
        horizon = n_target / SL.mass_above(delta)
        batch = ms.sample_large_jumps(SL, horizon, delta, np.random.SeedSequence(11), [0])
        lo_p, hi_p = delta ** -0.5, 1.0

        def cdf(u):
            return (lo_p - np.asarray(u) ** -0.5) / (lo_p - hi_p)

        res = stats.kstest(batch.marks[:, 0], cdf)
        crit = 1.628 / math.sqrt(len(batch))
        assert res.statistic < crit

    def test_deterministic_given_stream(self):
        b1 = ms.sample_large_jumps(SL, 100.0, 0.1, np.random.SeedSequence(42), [0])
        b2 = ms.sample_large_jumps(SL, 100.0, 0.1, np.random.SeedSequence(42), [0])
        np.testing.assert_array_equal(b1.times, b2.times)
        np.testing.assert_array_equal(b1.marks, b2.marks)
        np.testing.assert_array_equal(b1.unif, b2.unif)

    def test_cutoff_refinement_nested(self):
        coarse = ms.sample_large_jumps(SL, 100.0, 1e-2, np.random.SeedSequence(9), [0])
        fine = ms.sample_large_jumps(SL, 100.0, 5e-3, np.random.SeedSequence(9), [0])
        keep = fine.marks[:, 0] > 1e-2
        np.testing.assert_array_equal(fine.times[keep], coarse.times)
        np.testing.assert_array_equal(fine.marks[keep], coarse.marks)
        np.testing.assert_array_equal(fine.unif[keep], coarse.unif)

    def test_budget_guard(self):
        with pytest.raises(CutoffTooSmall):
            ms.sample_large_jumps(SL, 1e9, 1e-6, np.random.SeedSequence(0), [0], budget=1e5)


class TestEnsembleBudget:
    """The budget bounds the whole ensemble's expected jump count, before any draw."""

    STABLE = ms.IsotropicStable(1.5)

    def test_replicas_count_against_the_budget(self, monkeypatch):
        # one replica's 8.4e5 expected jumps fit the 2e7 budget; 200 replicas'
        # 1.7e8 do not, and the sampler stops before computing a stream state
        monkeypatch.setattr(ms, "_pcg64_states", None)
        assert self.STABLE.mass_above(1e-3) * 20.0 < 2e7
        with pytest.raises(CutoffTooSmall) as err:
            ms.sample_large_jumps(self.STABLE, 20.0, 1e-3, np.random.SeedSequence(0), range(200))
        expected = 200 * self.STABLE.mass_above(1e-3) * 20.0
        gb = expected * ms.JUMP_BYTES / 1e9
        assert str(err.value) == (
            f"expected {expected:.3g} jumps above cutoff 0.001 over 200 replicas "
            f"(about {gb:.3g} GB at {ms.JUMP_BYTES} bytes per jump), budget 2e+07 jumps; "
            f"the smallest cutoff that fits is 0.00415")

    @pytest.mark.parametrize("measure, horizon, cutoff, n, budget", [
        (STABLE, 20.0, 1e-3, 200, 2e7), (STABLE, 3.0, 1e-4, 7, 1e3), (SL, 50.0, 1e-6, 40, 1e5),
        (ms.SliceMeasure(2.0, 1.3, 1), 10.0, 1e-8, 1000, 2e7)])
    def test_the_named_cutoff_is_the_smallest_that_fits(self, measure, horizon, cutoff, n,
                                                         budget, monkeypatch):
        monkeypatch.setattr(ms, "_pcg64_states", None)  # no stream state, so no draw
        with pytest.raises(CutoffTooSmall, match="smallest cutoff that fits") as err:
            ms.sample_large_jumps(measure, horizon, cutoff, np.random.SeedSequence(0), range(n),
                                  budget=budget)
        named = float(str(err.value).rsplit(" ", 1)[1])
        # the named cutoff fits, and one unit less in its third digit does not
        assert n * measure.mass_above(named) * horizon <= budget
        below = named - 10.0 ** (math.floor(math.log10(named)) - 2)
        assert n * measure.mass_above(below) * horizon > budget

    def test_an_ensemble_inside_the_budget_samples(self):
        batch = ms.sample_large_jumps(self.STABLE, 1.0, 0.05, np.random.SeedSequence(0), range(3),
                                      budget=3 * self.STABLE.mass_above(0.05))
        assert len(batch) > 0

    def test_long_runs_stay_far_inside_the_default_budget(self):
        # acceptance criterion 9 (2000 replicas over horizon 20 at cutoffs
        # 1e-3 and 5e-4) and the benchmark's rate-jumpy ensemble (12 replicas,
        # cutoff 1e-5) expect at most 2.0e6 jumps, a tenth of the budget
        budget = inspect.signature(ms.sample_large_jumps).parameters["budget"].default
        slice_m = ms.SliceMeasure(1.0, 0.4, 1)
        for n, cutoff in ((2000, 1e-3), (2000, 5e-4), (12, 1e-5)):
            assert n * slice_m.mass_above(cutoff) * 20.0 <= budget / 8


SAMPLED = {
    "slice": ms.SliceMeasure(1.0, 0.4, 1),
    # the rejection sampler, which draws a varying number of normals per annulus
    "slice-2d": ms.SliceMeasure(1.0, 0.7, 2),
    # two-sided, and with the unbounded annulus (63, 1, inf)
    "stable": ms.IsotropicStable(0.8),
}


def per_annulus_batch(measure, horizon, cutoff, seed, r, counts=None):
    # one replica's jumps with one generator built per annulus from
    # SeedSequence(entropy, spawn_key=spawn_key + (r, k)), the stream the
    # sampler must reproduce; each annulus's (poisson mean, count) goes to counts
    parts = [(np.empty(0), np.empty((0, measure.dim)), np.empty(0))]
    for k, lo, hi in ms._annulus_edges(cutoff, measure.support_radius()):
        mass = measure.annulus_mass(lo, hi)
        if mass <= 0:
            continue
        child = np.random.default_rng(
            np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (r, k)))
        n = int(child.poisson(mass * horizon))
        if counts is not None:
            counts.append((mass * horizon, n))
        t = child.uniform(0.0, horizon, size=n)
        if isinstance(measure, ms.SliceMeasure) and measure.dim == 1:
            # the 1-d inverse CDF with Python-float edge powers, apart from batch_marks
            lo_p, hi_p = lo ** -measure.theta0, min(hi, 1.0) ** -measure.theta0
            m = ((lo_p - child.random(n) * (lo_p - hi_p)) ** (-1.0 / measure.theta0))[:, None]
        else:
            m = measure.sample_annulus(lo, hi, n, child)
        u = child.uniform(size=n)
        keep = np.linalg.norm(m, axis=1) > cutoff
        parts.append((t[keep], m[keep], u[keep]))
    times, marks, unifs = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(times, kind="stable")
    return times[order], marks[order], unifs[order]


class OddWordStable(ms.IsotropicStable):
    """A 1-d stable measure whose marks take an odd count of 32-bit draws.

    Each stream that samples marks then leaves a buffered 32-bit half in
    PCG64's state, which the next stream must not read.
    """

    def sample_annulus(self, a, b, n, rng):
        words = rng.integers(0, 2**32, size=2 * n + 1, dtype=np.uint32)
        hi = min(b, 2.0 * a)
        r = a + (hi - a) * (words[:n] + 0.5) / 2.0**32
        return (r * np.where(words[n:2 * n] & 1, 1.0, -1.0))[:, None]


def assert_same_jumps(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rows_of(batch, row):
    sel = batch.rows == row
    return batch.times[sel], batch.marks[sel], batch.unif[sel]


class TestSamplerStreams:
    """Annulus ``k`` of replica ``r`` draws from ``SeedSequence(seed, spawn_key=(r, k))``."""

    @pytest.mark.parametrize("entropy", [0, 3, 99, 2**32 - 1, 2**40 + 17, 2**130])
    @pytest.mark.parametrize("spawn_key", [(), (4,), (2**33 + 1, 0)])
    def test_hashed_states_equal_numpy(self, entropy, spawn_key):
        seed = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        rows = np.array([0, 1, 2, 31, 1000, 2**31 + 5, 2**32 - 1, 5], dtype=np.int64)
        keys = np.array([0, 63, 1, 9, 17, 63, 0, 60], dtype=np.int64)
        states = ms._pcg64_states(seed, rows, keys)
        assert states.shape == (len(rows), 4) and states.dtype == np.uint64
        for (s_lo, s_hi, i_lo, i_hi), r, k in zip(states.tolist(), rows, keys):
            want = np.random.PCG64(np.random.SeedSequence(
                entropy, spawn_key=spawn_key + (int(r), int(k)))).state["state"]
            assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (want["state"], want["inc"])

    @pytest.mark.parametrize("row", [-1, 2**32])
    def test_replica_index_outside_one_word_raises(self, row):
        with pytest.raises(ValueError):
            ms.sample_large_jumps(SL, 1.0, 0.1, np.random.SeedSequence(0), [0, row])

    @pytest.mark.parametrize("spawned_before", [0])
    @pytest.mark.parametrize("name,horizon,cutoff", [
        *(pytest.param(name, 20.0, 1e-3, id=name) for name in sorted(SAMPLED)),
        # the 1-d slice's marks are one array transform over the ensemble: short
        # horizons leave annuli with no or one jump, long ones and small cutoffs
        # annuli with poisson means of 10 or more (numpy's other poisson branch)
        ("slice", 1.0, 1e-3), ("slice", 1.0, 1e-5), ("slice", 20.0, 1e-5),
    ])
    def test_equal_to_spawn_construction(self, name, horizon, cutoff, spawned_before,
                                         monkeypatch):
        seed = np.random.SeedSequence(21, spawn_key=(4,))
        replicas = [0, 3, 1, 2**31 + 5]
        built = []

        def counted(cls):
            real = getattr(np.random, cls)

            def build(*args, **kwargs):
                built.append(cls)
                return real(*args, **kwargs)
            return build

        ms._state_word_order()  # once per process, with a generator of its own
        for cls in ("SeedSequence", "Generator", "PCG64"):
            monkeypatch.setattr(np.random, cls, counted(cls))
        batch = ms.sample_large_jumps(SAMPLED[name], horizon, cutoff, seed, replicas)
        monkeypatch.undo()
        # one reused generator for every stream, and no seed sequence built
        assert sorted(built) == ["Generator", "PCG64"]
        assert seed.n_children_spawned == spawned_before
        assert len(batch) > 100 and np.all(np.diff(batch.rows) >= 0)
        counts = []
        for i, r in enumerate(replicas):
            got = rows_of(batch, i)
            assert np.all(np.diff(got[0]) >= 0)
            assert_same_jumps(got, per_annulus_batch(SAMPLED[name], horizon, cutoff, seed, r,
                                                     counts))
        if horizon == 1.0:
            assert {0, 1} <= {n for _, n in counts}
        if cutoff == 1e-5:
            assert max(lam for lam, _ in counts) >= 10.0
        if name == "stable":
            assert np.any(np.abs(batch.marks) > 1.0)  # annulus 63 sampled

    def test_raw_write_reads_back_through_the_getter(self):
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        raw, words = ms._raw_state(bitgen)
        order = list(ms._state_word_order())
        rng = np.random.default_rng(7)
        for state, inc in rng.integers(0, 2**64, size=(50, 2, 2), dtype=np.uint64).tolist():
            gen.integers(0, 2**32, 3, dtype=np.uint32)  # leaves a buffered 32-bit half
            assert bitgen.state["has_uint32"] == 1
            words[:] = np.array([*state, *inc], dtype=np.uint64)[order]
            raw.has_uint32 = raw.uinteger = 0
            want = {"state": state[1] << 64 | state[0], "inc": inc[1] << 64 | inc[0]}
            assert bitgen.state == {"bit_generator": "PCG64", "state": want,
                                    "has_uint32": 0, "uinteger": 0}
            # and the stream draws as one set through the public setter; an even
            # count, so the next round starts with no buffered half
            ref = np.random.PCG64(0)
            ref.state = bitgen.state
            assert (gen.integers(0, 2**32, 4, dtype=np.uint32).tolist()
                    == np.random.Generator(ref).integers(0, 2**32, 4, dtype=np.uint32).tolist())

    @pytest.mark.skipif(sys.platform == "win32" or sys.byteorder != "little",
                        reason="MSVC and big-endian builds store the high word first")
    def test_word_order_probe_reads_this_build(self):
        # a native little-endian __uint128_t stores its low word first
        assert ms._state_word_order() == (0, 1, 2, 3)

    def test_streams_set_without_the_state_setter(self, monkeypatch):
        ms._state_word_order()  # the setter's one caller, once per process

        class NoSetter(np.random.PCG64):
            @property
            def state(self):
                return super().state

            @state.setter
            def state(self, value):
                raise AssertionError("a stream set through the public setter")

        monkeypatch.setattr(np.random, "PCG64", NoSetter)
        assert len(ms.sample_large_jumps(SAMPLED["stable"], 3.0, 1e-2,
                                         np.random.SeedSequence(3), range(4))) > 0

    def test_buffered_half_does_not_leak_into_the_next_stream(self):
        measure = OddWordStable(0.8)
        seed = np.random.SeedSequence(17, spawn_key=(1,))
        replicas = [0, 5, 2**32 - 1]
        batch = ms.sample_large_jumps(measure, 3.0, 1e-2, seed, replicas)
        counts = []
        for i, r in enumerate(replicas):
            assert_same_jumps(rows_of(batch, i),
                              per_annulus_batch(measure, 3.0, 1e-2, seed, r, counts))
        # consecutive streams with marks, each leaving a buffered half
        assert sum(n > 0 for _, n in counts) > 10


class TestSamplerBatches:
    """A replica's jumps depend on its index alone, and cutoff refinements nest per row."""

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_one_call_equals_one_replica_calls(self, name):
        seed = np.random.SeedSequence(8)
        batch = ms.sample_large_jumps(SAMPLED[name], 3.0, 1e-2, seed, range(6))
        for r in range(6):
            solo = ms.sample_large_jumps(SAMPLED[name], 3.0, 1e-2, seed, [r])
            assert np.all(solo.rows == 0)
            assert_same_jumps(rows_of(batch, r), (solo.times, solo.marks, solo.unif))

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_offset_range_equals_matching_rows(self, name):
        seed = np.random.SeedSequence(8)
        big = ms.sample_large_jumps(SAMPLED[name], 3.0, 1e-2, seed, range(10))
        part = ms.sample_large_jumps(SAMPLED[name], 3.0, 1e-2, seed, range(4, 7))
        for i in range(3):
            assert_same_jumps(rows_of(part, i), rows_of(big, 4 + i))

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_halving_the_cutoff_keeps_every_row_s_jumps(self, name):
        seed = np.random.SeedSequence(13)
        coarse = ms.sample_large_jumps(SAMPLED[name], 3.0, 2e-2, seed, range(5))
        fine = ms.sample_large_jumps(SAMPLED[name], 3.0, 1e-2, seed, range(5))
        for r in range(5):
            t, m, u = rows_of(fine, r)
            keep = np.linalg.norm(m, axis=1) > 2e-2
            assert keep.sum() < len(t)
            assert_same_jumps((t[keep], m[keep], u[keep]), rows_of(coarse, r))

    @staticmethod
    def stably_sorted(*args):
        # the batch as a stable sort of each replica's times orders it
        real = np.argsort
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "argsort", lambda a, kind=None: real(a, kind="stable"))
            return ms.sample_large_jumps(*args)

    @pytest.mark.parametrize("replicas,cutoff,horizon", [
        (12, 1e-5, 20.0), (25, 1e-3, 20.0), (2000, 1e-3, 20.0), (100, 1e-3, 1.0)],
        ids=["rate-jumpy", "rate-bench", "2000-replicas", "equilibrium-short"])
    def test_equal_to_the_stable_sort(self, replicas, cutoff, horizon):
        args = (SAMPLED["slice"], horizon, cutoff, np.random.SeedSequence(99), range(replicas))
        batch = ms.sample_large_jumps(*args)
        want = self.stably_sorted(*args)
        assert_same_jumps((batch.times, batch.marks, batch.unif, batch.rows),
                          (want.times, want.marks, want.unif, want.rows))

    def test_tied_times_keep_the_annulus_order(self, monkeypatch):
        class Coarse(np.random.Generator):
            # uniforms on a grid of 1/64, so a replica's jump times tie
            def random(self, size=None):
                return np.floor(super().random(size) * 64.0) / 64.0

        monkeypatch.setattr(np.random, "Generator", Coarse)
        args = (SAMPLED["slice"], 3.0, 1e-2, np.random.SeedSequence(5), range(4))
        batch = ms.sample_large_jumps(*args)
        assert np.sum((np.diff(batch.times) == 0.0) & (np.diff(batch.rows) == 0)) > 10
        want = self.stably_sorted(*args)
        assert_same_jumps((batch.times, batch.marks, batch.unif, batch.rows),
                          (want.times, want.marks, want.unif, want.rows))

    def test_empty_ensemble(self):
        batch = ms.sample_large_jumps(SL, 3.0, 1e-2, np.random.SeedSequence(0), [])
        assert len(batch) == 0 and batch.marks.shape == (0, 1) and batch.rows.shape == (0,)


class TestLevySpec:
    def test_default_slice_for_slice(self):
        spec = ms.LevyMeasureSpec(measure=SL, theta=1.0)
        assert spec.slice_part is SL

    def test_default_slice_for_stable(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        spec = ms.LevyMeasureSpec(measure=st_m, theta=1.0)
        assert spec.slice_part.theta0 == 1.5
        assert spec.slice_part.c == 1.0

    def test_domination_violation_rejected(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        with pytest.raises(ValueError):
            ms.LevyMeasureSpec(measure=st_m, theta=1.0,
                               slice_part=ms.SliceMeasure(c=5.0, theta0=0.4, dim=1))

    # the probe points of _check_domination, recorded at the driving measure's density
    PROBE_POINTS = {
        1: ((32, 1), "3644723a2c98ff7072e295f7bea614bcc9c2e6c525c60fb4eb246f75b3a023df"),
        2: ((512, 2), "ae06e537ed05c90263d087dfba86b7d3c00e261df921e1f6b5e57f4ab759b50b"),
        3: ((512, 3), "e1507dcb38ad83f6cd18fc48eb95cb3caf651a36b2127944817a26a71f881cd7"),
    }

    @pytest.mark.parametrize("dim", sorted(PROBE_POINTS))
    def test_domination_probe_points_are_pinned(self, dim):
        seen = []

        class Recording(ms.IsotropicStable):
            def density(self, u):
                seen.append(np.array(u, dtype=float))
                return super().density(u)

        ms.LevyMeasureSpec(measure=Recording(alpha0=1.5, scale=1.0, dim=dim), theta=1.0)
        (pts,) = seen
        shape, digest = self.PROBE_POINTS[dim]
        assert pts.shape == shape
        assert hashlib.sha256(np.ascontiguousarray(pts, dtype="<f8").tobytes()).hexdigest() \
            == digest

    def test_one_dimensional_probe_draws_nothing(self, monkeypatch):
        def no_rng(*args):
            raise AssertionError("the d = 1 probe is a fixed grid")

        monkeypatch.setattr(ms.np.random, "default_rng", no_rng)
        ms.LevyMeasureSpec(measure=ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1), theta=1.0)

    def test_valid_sub_slice_accepted(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        spec = ms.LevyMeasureSpec(measure=st_m, theta=1.0,
                                  slice_part=ms.SliceMeasure(c=1.0, theta0=0.4, dim=1))
        assert spec.slice_part.theta0 == 0.4
