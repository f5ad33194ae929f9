"""Measure layer: truncation, overlap quantities, moments, and jump sampling."""

import math

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

    @pytest.mark.parametrize("measure", [SL, STABLE.measure,
                                         ms.SumMeasure((SL, STABLE.measure))])
    def test_density_shapes(self, measure):
        assert measure.density(np.array([[0.5]])).shape == (1,)
        assert measure.density(np.full((2, 3, 1), 0.5)).shape == (2, 3)
        one = measure.density(np.array([0.5]))
        assert isinstance(one, float) and np.ndim(one) == 0
        assert one == measure.density(np.array([[0.5]]))[0]

    def test_overlap_ratio_shapes(self):
        shift = np.array([0.3])
        for spec in (ms.LevyMeasureSpec(measure=SL, theta=1.0), self.STABLE):
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
        c0, theta0 = ms.fit_overlap_floor(SL, 0.5)
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


class TestSampling:
    def test_no_mass_above_support(self):
        rng = np.random.default_rng(0)
        batch = ms.sample_large_jumps(SL, 50.0, 1.0, rng)
        assert len(batch) == 0

    def test_rate_matches_mass(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        rate = st_m.mass_above(1.0)
        horizon = 2000.0
        batch = ms.sample_large_jumps(st_m, horizon, 1.0, np.random.default_rng(7))
        expected = rate * horizon
        assert abs(len(batch) - expected) <= 3.0 * math.sqrt(expected)

    def test_slice_support_constraint(self):
        batch = ms.sample_large_jumps(SL, 200.0, 0.25, np.random.default_rng(3))
        assert np.all((batch.marks > 0.25) & (batch.marks <= 1.0))

    def test_mark_distribution_ks(self):
        # empirical CDF of restricted marks vs the closed-form CDF
        delta, n_target = 0.25, 10_000
        horizon = n_target / SL.mass_above(delta)
        batch = ms.sample_large_jumps(SL, horizon, delta, np.random.default_rng(11))
        lo_p, hi_p = delta ** -0.5, 1.0

        def cdf(u):
            return (lo_p - np.asarray(u) ** -0.5) / (lo_p - hi_p)

        res = stats.kstest(batch.marks[:, 0], cdf)
        crit = 1.628 / math.sqrt(len(batch))
        assert res.statistic < crit

    def test_deterministic_given_stream(self):
        b1 = ms.sample_large_jumps(SL, 100.0, 0.1, np.random.default_rng(42))
        b2 = ms.sample_large_jumps(SL, 100.0, 0.1, np.random.default_rng(42))
        np.testing.assert_array_equal(b1.times, b2.times)
        np.testing.assert_array_equal(b1.marks, b2.marks)
        np.testing.assert_array_equal(b1.unif, b2.unif)

    def test_cutoff_refinement_nested(self):
        coarse = ms.sample_large_jumps(SL, 100.0, 1e-2, np.random.default_rng(9))
        fine = ms.sample_large_jumps(SL, 100.0, 5e-3, np.random.default_rng(9))
        keep = fine.marks[:, 0] > 1e-2
        np.testing.assert_array_equal(fine.times[keep], coarse.times)
        np.testing.assert_array_equal(fine.marks[keep], coarse.marks)
        np.testing.assert_array_equal(fine.unif[keep], coarse.unif)

    def test_budget_guard(self):
        with pytest.raises(CutoffTooSmall):
            ms.sample_large_jumps(SL, 1e9, 1e-6, np.random.default_rng(0), budget=1e5)

    def test_sum_measure_merges_sorted(self):
        total = ms.SumMeasure((SL, ms.IsotropicStable(alpha0=1.2, scale=0.5, dim=1)))
        batch = ms.sample_large_jumps(total, 50.0, 0.2, np.random.default_rng(5))
        assert np.all(np.diff(batch.times) >= 0)
        assert total.mass_above(0.2) == pytest.approx(
            SL.mass_above(0.2) + ms.IsotropicStable(1.2, 0.5, 1).mass_above(0.2), rel=1e-12)


def spawn_children():
    # a sampler child rule that takes every generator's children from one real
    # rng.spawn(65); the generator is kept so that its id stays unique
    spawned = {}

    def child(rng, k):
        if id(rng) not in spawned:
            spawned[id(rng)] = (rng, rng.spawn(65))
        return spawned[id(rng)][1][k]
    return child


SAMPLED = {
    "slice": ms.SliceMeasure(1.0, 0.4, 1),
    "slice+stable": ms.SumMeasure((ms.SliceMeasure(1.0, 0.4, 1), ms.IsotropicStable(0.8))),
}


class TestSamplerStreams:
    """Building only the used child streams changes no jump."""

    @pytest.mark.parametrize("spawned_before", [0, 3])
    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_equal_to_spawn_construction(self, name, spawned_before, monkeypatch):
        def fresh():
            rng = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(4,)))
            rng.spawn(spawned_before)
            return rng

        rng = fresh()
        direct = ms.sample_large_jumps(SAMPLED[name], 20.0, 1e-3, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == spawned_before
        monkeypatch.setattr(ms, "_spawned_child", spawn_children())
        spawned = ms.sample_large_jumps(SAMPLED[name], 20.0, 1e-3, fresh())
        assert len(direct) > 100
        np.testing.assert_array_equal(direct.times, spawned.times)
        np.testing.assert_array_equal(direct.marks, spawned.marks)
        np.testing.assert_array_equal(direct.unif, spawned.unif)


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

    def test_valid_sub_slice_accepted(self):
        st_m = ms.IsotropicStable(alpha0=1.5, scale=1.0, dim=1)
        spec = ms.LevyMeasureSpec(measure=st_m, theta=1.0,
                                  slice_part=ms.SliceMeasure(c=1.0, theta0=0.4, dim=1))
        assert spec.slice_part.theta0 == 0.4
