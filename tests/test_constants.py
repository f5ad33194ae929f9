"""Constant chain: scalar formulas, distance profiles, cost functionals."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from levyham import constants as cn
from levyham import generator as gen
from levyham import model as md
from levyham.errors import NoRoot
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
        geom = cn.far_field_sublevel(2.0, 3.0, 0.0, 0.5, 1.0, 1.0, 0.3)
        assert geom.S_star == pytest.approx(6.0)

    def test_quadratic_balance_oracle(self):
        # 2 + 4 sqrt(S/2) = S/2 has the closed-form root S = 20 + 8 sqrt(6)
        geom = cn.far_field_sublevel(1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.3)
        assert geom.S_star == pytest.approx(20.0 + 8.0 * math.sqrt(6.0), rel=1e-10)

    def test_radius_monotone_in_C0(self):
        vals = []
        for C0 in (1.0, 2.0, 4.0):
            geom = cn.far_field_sublevel(1.0, C0, 1.0, 0.5, 1.0, 1.0, 0.3)
            vals.append(cn.compute_R0(geom, 1.0, 5.0, 0.25))
        assert vals[0] <= vals[1] <= vals[2]

    def test_no_root_for_bad_drift(self):
        with pytest.raises(NoRoot):
            cn.far_field_sublevel(0.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.3)


class TestLipschitz:
    def test_pure_damping_exact(self):
        sys_ = md.HamiltonianSystemSpec(0.0, 1.0,
                                        lambda x, v: -np.asarray(v, dtype=float), dim=1)
        assert cn.compute_lipschitz(sys_, 5.0, n_pairs=4096, inflate=1.0) \
            == pytest.approx(1.0, rel=1e-9)

    def test_damping_plus_position(self):
        sys_ = md.HamiltonianSystemSpec(
            0.0, 1.0,
            lambda x, v: -np.asarray(v, dtype=float) - np.asarray(x, dtype=float), dim=1)
        lam = cn.compute_lipschitz(sys_, 5.0, n_pairs=4096, inflate=1.0)
        assert 1.0 - 1e-9 <= lam <= math.sqrt(2.0) + 1e-9

    def test_radius_monotone(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)
        sys_ = kl
        vals = [cn.compute_lipschitz(sys_, r, n_pairs=2048, inflate=1.0)
                for r in (2.0, 4.0, 8.0)]
        assert vals[0] <= vals[1] <= vals[2]

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
        sig = cn.build_sigma(0.7, 0.4, 1.0, 12.0, 10.0)
        s = np.linspace(0.01, 5, 50)
        np.testing.assert_allclose(sig(s), 0.7 * s ** 0.6, rtol=1e-12)

    def test_power_composition_hand_formula(self):
        c0, theta0, alpha, kappa, R0 = 0.6, 0.4, 2.0, 0.25, 10.0
        m = kappa / R0
        sig = cn.build_sigma(c0, theta0, alpha, kappa, R0)
        expected = (1.0 / alpha) * m * c0 * (alpha * m * 1.0) ** (1 - theta0)
        assert sig(1.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_concave(self):
        sig = cn.build_sigma(0.6, 0.4, 1.0, 0.25, 10.0)
        s = np.linspace(1e-4, 20.0, 200)
        vals = sig(s)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 1e-12)

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
        cap = live_profile.cap
        f_cap = live_profile.value(cap)
        fp_cap = live_profile.slope(cap)
        assert live_profile.value(1e9) <= f_cap + fp_cap + 1e-9
        assert live_profile.value(cap + 1e-9) >= f_cap
        # left slope clamps to zero beyond the far-field radius
        clamped = cn.ClampedProfile(live_profile, 5.0)
        assert clamped.slope(7.0) == 0.0
        assert clamped.value(7.0) == live_profile.value(5.0)

    def test_doubling_bound(self, live_profile):
        s = np.linspace(1e-6, live_profile.cap / 2, 300)
        assert np.all(live_profile.value(2 * s) <= 2 * live_profile.value(s) + 1e-12)


class TestTiltAndRate:
    def test_tilt_hand_case(self):
        log_eps = cn.compute_eps_log(0.0, 2.0, 1.0, 1.0, 0.5, 0.0, 0.5, 1.0)
        assert math.exp(log_eps) == pytest.approx(3.0 / 64.0, rel=1e-12)

    def test_tilt_decreasing_in_C0(self):
        vals = [cn.compute_eps_log(0.0, 2.0, 1.0, 1.0, C0, 0.5, 0.5, 1.0)
                for C0 in (0.5, 1.0, 2.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_tilt_positive(self):
        assert cn.compute_eps_log(-3.0, 1.5, 1.0, 0.5, 1.0, 2.0, 0.5, 0.2) > -math.inf

    def test_rate_first_term(self):
        t1, _ = cn.rate_terms_log(1.0, 0.0, 0.0, 2.0, 1.0, 1.0)
        assert math.exp(t1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_rate_degenerate_weight(self):
        _, t2 = cn.rate_terms_log(1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert t2 == -math.inf

    def test_rate_below_weight_drift(self):
        for eps_log in (-2.0, 0.0, 3.0):
            t1, _ = cn.rate_terms_log(0.7, eps_log, 0.0, 2.0, 1.0, 1.0)
            assert math.exp(t1) < 0.7


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
            if pair.is_diagonal():
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
        assert 0.0 <= rep.c1 <= 1.0 and rep.log_c1 <= 0.0
        assert rep.log_rate > -math.inf

    def test_weight_drift_fit(self, benchmark_bundle, benchmark_levy):
        rep = benchmark_bundle.report
        assert rep.c0_lyap >= 0.01
        assert math.isfinite(rep.C0_lyap)
        c0, C0, info = cn.fit_lyapunov_drift(benchmark_bundle.system, benchmark_levy,
                                             benchmark_bundle.lyap)
        assert info["worst_excess_after"] <= 0.0

    def test_underflow_notes_present(self, benchmark_bundle):
        notes = benchmark_bundle.report.notes
        assert any(n.startswith("float_underflow") for n in notes)

    def test_monitor_fallback_engaged(self, benchmark_bundle):
        assert benchmark_bundle.monitor_is_fallback
        assert benchmark_bundle.monitor_eps > 0.0
        hhat, gfn = benchmark_bundle.monitor_fns()
        pair = PairState([1.0], [0.0], [-1.0], [0.0])
        assert gen.ProductPairFn(hhat, gfn).value(pair) > 0

    def test_profile_suite_on_certified_chain(self, benchmark_bundle):
        rep = cn.profile_property_report(benchmark_bundle.profile)
        assert rep["passed"], rep["checks"]

    def test_provisional_weight_recorded(self, benchmark_bundle):
        rep = benchmark_bundle.report
        assert rep.alpha0_provisional == 1.0
        assert rep.alpha0 >= rep.alpha0_provisional
