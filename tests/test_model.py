"""Model layer: drift, certificates, Lyapunov weights, and drift verifiers."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import ForceSystem
from levyham import measures as ms
from levyham import model as md
from levyham.quadtools import log_gauss_panels
from levyham.errors import (EmptyWindow, GrowthTestFailed, InvalidCross,
                            MomentFailure, NonFiniteForce)


class TestDrift:
    def test_quadratic_hand_case(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.Quadratic(1.0), dim=1)
        xdot, vdot = md.drift(kl, np.array([1.0]), np.array([2.0]))
        np.testing.assert_allclose(xdot, [2.0])
        np.testing.assert_allclose(vdot, [-3.0])

    def test_symmetric_origin(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)
        xdot, vdot = md.drift(kl, np.zeros(1), np.zeros(1))
        np.testing.assert_array_equal(xdot, [0.0])
        np.testing.assert_array_equal(vdot, [0.0])

    def test_double_well_gradient_hand_case(self):
        # d/dx [(1+x^2)^2 - 2 x^2] at 1: 4x(1+x^2) - 4x = 4
        kl = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)
        _, vdot = md.drift(kl, np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(vdot, [-4.0], rtol=1e-14)

    def test_double_well_l2_gradient_equals_power_form(self):
        # at l = 2 the gradient skips (1 + s) ** 1.0; the power form must
        # agree bit for bit, NaN payloads and signed zeros included
        edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308])
        rng = np.random.default_rng(7)
        pot = md.DoubleWellPoly(1.3, 2.0, 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.concatenate([edge, 1.0 + edge * edge, rng.lognormal(sigma=5.0, size=10 ** 6)])
            assert (base ** 1.0).tobytes() == base.tobytes()
            for x in (rng.normal(scale=3.0, size=(1000, 1)), rng.normal(size=(2, 2, 25, 1)),
                      rng.normal(size=(500, 3)), edge[:, None]):
                s = np.add.reduce(x * x, axis=-1, keepdims=True)
                want = (2.0 * pot.c1 * pot.l * (1.0 + s) ** (pot.l - 1.0) - 2.0 * pot.c2) * x
                assert pot.grad(x).tobytes() == want.tobytes()

    def test_non_finite_force(self):
        bad = ForceSystem(lambda x, v: np.array([np.nan]))
        with pytest.raises(NonFiniteForce):
            md.drift(bad, np.zeros(1), np.zeros(1))


class TestCertificates:
    def test_quadratic_exact(self):
        rep = md.verify_certificate(md.Quadratic(1.0), md.PotentialCertificate(lam1=1.0),
                                    alpha_damp=1.0, beta=1.0)
        assert rep.passed
        assert rep.growth_slack == pytest.approx(0.0, abs=1e-12)

    def test_auto_certificate_double_well_poly(self):
        pot = md.DoubleWellPoly(1.0, 2.0, 2.0)
        cert = md.auto_certificate(pot)
        assert cert.lam4 == 0.0
        assert md.verify_certificate(pot, cert, alpha_damp=1.0, beta=1.0).passed

    def test_auto_certificate_double_well_exp(self):
        pot = md.DoubleWellExp(1.0, 1.0, 1.0)
        cert = md.auto_certificate(pot, grid_radius=4.0)
        assert cert.lam4 == 0.0
        assert md.verify_certificate(pot, cert, grid_radius=4.0,
                                     alpha_damp=1.0, beta=1.0).passed

    def test_quadratic_growth_rejected(self):
        with pytest.raises(GrowthTestFailed):
            md.auto_certificate(md.Quadratic(1.0))

    def test_concave_potential_fails(self):
        rep = md.verify_certificate(md.Quadratic(-2.0), md.PotentialCertificate(lam1=1.0),
                                    alpha_damp=1.0, beta=1.0)
        assert not rep.passed
        assert rep.growth_slack < 0

    def test_builtin_margins_strictly_positive(self):
        for pot in (md.DoubleWellPoly(1.0, 2.0, 2.0), md.DoubleWellExp(1.0, 1.0, 1.0)):
            radius = 4.0 if isinstance(pot, md.DoubleWellExp) else 20.0
            cert = md.auto_certificate(pot, grid_radius=radius)
            rep = md.verify_certificate(pot, cert, grid_radius=radius,
                                        alpha_damp=1.0, beta=1.0)
            assert rep.passed and rep.damping_margin > 0


class TestLyapunovWeight:
    def test_origin_value(self):
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.0, theta=1.0, v0=md.Quadratic(0.0), dim=1)
        assert float(ly.W(np.zeros(1), np.zeros(1))) == pytest.approx(2.0)

    def test_hand_value_2d(self):
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.0, theta=1.0, v0=md.Quadratic(0.0), dim=2)
        got = float(ly.W(np.zeros(2), np.array([2.0, 0.0])))
        assert got == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-14)

    def test_invalid_cross(self):
        with pytest.raises(InvalidCross):
            md.LyapunovSpec(r=0.5, r0_cross=0.5, theta=1.0, v0=md.Quadratic(0.0), dim=1)

    def test_gradients_match_finite_differences(self):
        pot = md.DoubleWellPoly(1.0, 2.0, 2.0)
        kl = md.KineticLangevinSpec(1.0, 1.0, pot, dim=1)
        cert = md.auto_certificate(pot)
        v0 = md.PositionWeight(kl.beta, pot, cert.lam4, cert.lam5)
        ly = md.LyapunovSpec(r=0.9, r0_cross=0.4, theta=1.0, v0=v0, dim=1)
        x, v = np.array([0.7]), np.array([-1.2])
        h = 1e-6
        for fn, grad_x, grad_v in ((ly.V, ly.grad_x_V, ly.grad_v_V),
                                   (ly.W, ly.grad_x_W, ly.grad_v_W)):
            fd_x = (fn(x + h, v) - fn(x - h, v)) / (2 * h)
            fd_v = (fn(x, v + h) - fn(x, v - h)) / (2 * h)
            assert float(grad_x(x, v)[0]) == pytest.approx(float(fd_x), rel=1e-6)
            assert float(grad_v(x, v)[0]) == pytest.approx(float(fd_v), rel=1e-6)

    def test_stacked_hessian_matches_points(self, benchmark_lyap):
        xs = md.ball_grid(20.0, 5, 1, include_origin=True)
        vs = md.ball_grid(20.0, 7, 1, include_origin=True)
        x, v = np.broadcast_arrays(xs[:, None, :], vs[None, :, :])
        hess = benchmark_lyap.hess_v_W(x, v)
        assert hess.shape == (5, 7, 1, 1)
        for i, j in np.ndindex(5, 7):
            one = benchmark_lyap.hess_v_W(xs[i], vs[j])
            assert one.shape == (1, 1)
            assert one[0, 0] == hess[i, j, 0, 0]

    def test_stacked_hessian_2d(self):
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.3, theta=1.0, v0=md.Quadratic(0.0), dim=2)
        x = np.array([[0.5, -1.0], [2.0, 0.0]])
        v = np.array([[1.0, 2.0], [-0.5, 0.25]])
        hess = ly.hess_v_W(x, v)
        assert hess.shape == (2, 2, 2)
        for k in range(2):
            assert np.array_equal(ly.hess_v_W(x[k], v[k]), hess[k])


class TestGammaDrift:
    def _setup(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.Quadratic(1.0), dim=1)
        cert = md.PotentialCertificate(lam1=1.0)
        v0 = md.PositionWeight(kl.beta, kl.potential, cert.lam4, cert.lam5)
        ly = md.LyapunovSpec(r=0.9, r0_cross=0.5, theta=1.0, v0=v0, dim=1)
        return kl, ly

    def test_zero_at_origin(self):
        kl, ly = self._setup()
        assert md.gamma_drift(ly, kl, np.zeros(1), np.zeros(1)) == 0.0

    def test_hand_case(self):
        kl, ly = self._setup()
        got = md.gamma_drift(ly, kl, np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(-0.5, rel=1e-14)

    def test_grid_drift_excess_matches_points(self, benchmark_langevin, benchmark_setup):
        system = benchmark_langevin
        lyap, c = benchmark_setup.lyap, benchmark_setup.choice.c
        xs = md.ball_grid(20.0, 61, 1)
        worst = max(md.gamma_drift(lyap, system, x, v)
                    + c * float(lyap.v0.value(x) + x @ x + v @ v)
                    for x in xs for v in xs)
        got = md._grid_drift_excess(lyap, system, c, 20.0, 61)
        assert got == worst

    def test_grid_gamma_rejects_nonfinite_force(self, benchmark_lyap):
        system = ForceSystem(lambda x, v: np.where(x > 5.0, np.inf, -v))
        with pytest.raises(NonFiniteForce):
            md._grid_drift_excess(benchmark_lyap, system, 0.1, 20.0, 11)

    def test_grid_drift_bound(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.Quadratic(1.0), dim=1)
        cert = md.PotentialCertificate(lam1=1.0)
        choice, ly = md.choose_quadratic_form(kl, cert)
        rep = md.verify_gamma_drift(md.LyapunovSetup("manual", choice, ly), kl)
        assert rep["passed"]


class TestQuadraticFormChoice:
    def test_build_lyapunov_builds_the_weight_once(self, benchmark_langevin):
        setup = md.build_lyapunov(benchmark_langevin, theta=0.5)
        cert, _ = md.certificate_with_fallback(benchmark_langevin.potential)
        # the weight the form choice validated at theta = 1, with the requested theta
        assert setup.lyap.v0 == md.PositionWeight(benchmark_langevin.beta,
                                                  benchmark_langevin.potential,
                                                  cert.lam4, cert.lam5)
        assert setup.lyap.theta == 0.5
        assert (setup.lyap.r, setup.lyap.r0_cross) == (setup.choice.r, setup.choice.r0_cross)
        assert md.build_lyapunov(benchmark_langevin, theta=0.5) == setup

    def test_hand_window(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.Quadratic(1.0), dim=1)
        choice, ly = md.choose_quadratic_form(kl, md.PotentialCertificate(lam1=1.0))
        assert (ly.r, ly.r0_cross, ly.theta) == (choice.r, choice.r0_cross, 1.0)
        assert choice.r0_cross == pytest.approx(0.5)
        lo, hi = choice.r_window
        assert lo == pytest.approx(0.5, rel=1e-12)
        assert hi == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert choice.r == pytest.approx(0.5 * (0.5 + math.sqrt(1.5)), rel=1e-12)
        assert abs(choice.r0_cross) < choice.r

    def test_boundary_empty_window(self):
        # lam4 at the compatibility boundary: margin 0, no window
        # 2 beta lam4 = alpha^2/4 + sqrt(beta (lam1 - lam2 lam4)) alpha
        lam1, lam2 = 1.0, 0.0
        alpha = beta = 1.0
        lam4 = (0.25 + math.sqrt(beta * lam1) * alpha) / (2.0 * beta)
        kl = md.KineticLangevinSpec(alpha, beta, md.Quadratic(1.0), dim=1)
        cert = md.PotentialCertificate(lam1=lam1, lam2=lam2, lam4=lam4)
        with pytest.raises(EmptyWindow):
            md.choose_quadratic_form(kl, cert)

    def test_drift_constant_sized_on_the_given_system(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)
        cert = md.auto_certificate(kl.potential)
        wide = md.KineticLangevinSpec(1.0, 1.0, kl.potential, dim=1, b=2.0)
        choice, ly = md.choose_quadratic_form(wide, cert)
        assert choice.C > md.choose_quadratic_form(kl, cert)[0].C
        setup = md.LyapunovSetup("auto", choice, ly)
        # C covers the sizing ball, not the far field beyond it
        assert md.verify_gamma_drift(setup, wide)["passed"]
        assert not md.verify_gamma_drift(setup, wide, 40.0, 121)["passed"]

    def test_young_split_positive(self):
        kl = md.KineticLangevinSpec(1.0, 1.0, md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)
        cert = md.auto_certificate(kl.potential)
        choice, _ = md.choose_quadratic_form(kl, cert)
        lam_eff = cert.lam1 - cert.lam2 * cert.lam4
        K = choice.r ** 2 + 2.0 * cert.lam4 - 0.5
        assert 1.0 - choice.r0_cross - choice.eps_young * K ** 2 / 4.0 > 0
        assert choice.r0_cross * lam_eff - 1.0 / choice.eps_young > 0
        assert choice.c > 0 and choice.C >= 0


class TestJumpRegularity:
    def test_moment_oracle(self):
        # int (u^(1/2) + u) u^(-1.4) du over (0,1] = 10 + 5/3
        val = integrate.quad(lambda u: (u ** 0.5 + u) * u ** -1.4, 0, 1, points=[1e-6])[0]
        assert val == pytest.approx(1.0 / 0.1 + 1.0 / 0.6, rel=1e-9)

    def test_fit_on_benchmark(self, benchmark_levy):
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.0, theta=1.0, v0=md.Quadratic(0.0), dim=1)
        c_star, sup_ratio = md.verify_jump_regularity(ly, benchmark_levy.slice_part,
                                                      grid_radius=8.0, n_grid=7)
        assert c_star > 0 and math.isfinite(c_star)
        assert c_star == pytest.approx(1.1 * sup_ratio)
        # the exponent is 1/2: the supremum is taken against W^(1/2)
        x, v = md.grid_pairs(8.0, 7, 1, include_origin=True)
        ratio = (md._abs_increment_integral(ly, benchmark_levy.slice_part, x, v)
                 / np.sqrt(ly.W(x, v)))
        assert sup_ratio == pytest.approx(float(np.max(ratio)), rel=1e-12)

    def test_ratio_below_fit_on_fresh_points(self, benchmark_levy, rng):
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.2, theta=1.0, v0=md.Quadratic(0.0), dim=1)
        c_star, _ = md.verify_jump_regularity(ly, benchmark_levy.slice_part,
                                              grid_radius=8.0, n_grid=9)
        for _ in range(25):
            x = rng.uniform(-8, 8, 1)
            v = rng.uniform(-8, 8, 1)
            val = md._abs_increment_integral(ly, benchmark_levy.slice_part, x, v)
            assert val <= c_star * float(ly.W(x, v)) ** 0.5 * (1 + 1e-9)

    def test_grid_integral_matches_points(self, benchmark_levy, benchmark_lyap):
        # the A2 grid of the constant chain: radius 10, 9 points per axis
        sl = benchmark_levy.slice_part
        xs = md.ball_grid(10.0, 9, 1, include_origin=True)
        x, v = np.broadcast_arrays(xs[:, None, :], xs[None, :, :])
        got = md._abs_increment_integral(benchmark_lyap, sl, x, v)
        assert got.shape == (9, 9)
        u, _ = log_gauss_panels(1e-12, 1.0, panels_per_decade=4, nodes_per_panel=12)
        increment = benchmark_lyap.W(x[..., None, :], v[..., None, :] + u[:, None]) \
            - benchmark_lyap.W(x, v)[..., None]
        changes_sign = np.any(np.diff(np.sign(increment), axis=-1) != 0, axis=-1)
        assert changes_sign.any() and not changes_sign.all()
        for i, j in np.ndindex(9, 9):
            one = md._abs_increment_integral(benchmark_lyap, sl, xs[i], xs[j])
            assert isinstance(one, float)
            assert one == got[i, j]

    def test_exponent_hypothesis_guard(self):
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.0, theta=1.0, v0=md.Quadratic(0.0), dim=1)
        with pytest.raises(MomentFailure):
            md.verify_jump_regularity(ly, ms.SliceMeasure(c=1.0, theta0=0.6, dim=1))

    def test_increment_bound_two_scales(self, rng):
        # |W(x, v+u) - W(x, v)| <= c2 W^(1/2) (|u|^(theta/2) + |u|^theta)
        ly = md.LyapunovSpec(r=1.0, r0_cross=0.3, theta=1.0, v0=md.Quadratic(0.0), dim=1)
        fit_pts = rng.uniform(-10, 10, (500, 3))
        ratios = []
        for x, v, u in fit_pts:
            num = abs(float(ly.W(np.array([x]), np.array([v + u])))
                      - float(ly.W(np.array([x]), np.array([v]))))
            den = float(ly.W(np.array([x]), np.array([v]))) ** 0.5 \
                * (abs(u) ** 0.5 + abs(u))
            if den > 0:
                ratios.append(num / den)
        c2 = 1.05 * max(ratios)
        fresh = rng.uniform(-10, 10, (1000, 3))
        for x, v, u in fresh:
            num = abs(float(ly.W(np.array([x]), np.array([v + u])))
                      - float(ly.W(np.array([x]), np.array([v]))))
            den = float(ly.W(np.array([x]), np.array([v]))) ** 0.5 \
                * (abs(u) ** 0.5 + abs(u))
            assert num <= c2 * den + 1e-12
