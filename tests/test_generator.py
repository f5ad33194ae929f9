"""Operator quadrature: generator values, identity checks, cross-validation."""

import math

import numpy as np
import pytest

from conftest import ZERO_FORCE, ForceSystem, displacements
from levyham import generator as gen
from levyham import measures as ms
from levyham import model as md
from levyham.pair import DEGENERATE_GAP, PairState


def zero_force_system():
    return ZERO_FORCE


def damping_system():
    return ForceSystem(lambda x, v: -np.asarray(v, dtype=float))


def const_fn():
    return gen.TestFunction(
        value=lambda x, v: (np.zeros(np.asarray(x).shape[:-1])
                            if np.asarray(x).ndim > 1 else 0.0),
        grad_x=lambda x, v: np.zeros_like(np.asarray(x, dtype=float)),
        grad_v=lambda x, v: np.zeros_like(np.asarray(v, dtype=float)),
        hess_v=lambda x, v: np.zeros((1, 1)))


def vsq_fn():
    return gen.TestFunction(
        value=lambda x, v: np.sum(np.asarray(v, dtype=float) ** 2, axis=-1),
        grad_x=lambda x, v: np.zeros_like(np.asarray(x, dtype=float)),
        grad_v=lambda x, v: 2.0 * np.asarray(v, dtype=float),
        hess_v=lambda x, v: 2.0 * np.eye(1))


def linear_fn(c):
    return gen.TestFunction(
        value=lambda x, v: np.sum(c * np.asarray(v, dtype=float), axis=-1),
        grad_x=lambda x, v: np.zeros_like(np.asarray(x, dtype=float)),
        grad_v=lambda x, v: c * np.ones_like(np.asarray(v, dtype=float)),
        hess_v=lambda x, v: np.zeros((1, 1)))


bump = gen.velocity_bump


class ConcaveProfile:
    """Smooth strictly concave test profile f(s) = s / (1 + s)."""

    cap = math.inf

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = s / (1.0 + s)
        return out if out.ndim else float(out)

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        out = 1.0 / (1.0 + s) ** 2
        return out if out.ndim else float(out)


class PowerProfile:
    """Concave profile f(s) = s^0.7. At one point ``s`` is a numpy scalar,
    whose ``**`` differs from the array ``**`` in the last bit on about 5%
    of arguments."""

    def value(self, s):
        return s ** 0.7

    def slope(self, s):
        return 0.7 * s ** -0.3


class LinearProfile:
    def value(self, s):
        return 2.0 * np.asarray(s, dtype=float)

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        return 2.0 * np.ones_like(s)


def tilt(lyap, eps):
    """The Lyapunov tilt ``1 + eps (W + W')`` as a pair observable."""
    w = gen.lyapunov_test_function(lyap)
    return gen.SeparablePairFn(w, w, eps, 1.0)


ALPHA, ALPHA0, KAPPA = 1.0, 2.0, 0.25


class TestApplyGenerator:
    def test_kills_constants(self, half_slice_levy, scheme):
        val = gen.apply_generator(zero_force_system(), half_slice_levy, const_fn(),
                                  np.array([0.3]), np.array([0.2]), scheme)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_velocity_square_slice(self, half_slice_levy, scheme):
        # jump part = int u^2 nu(du) = 2/3 over the unit slice
        val = gen.apply_generator(zero_force_system(), half_slice_levy, vsq_fn(),
                                  np.array([0.0]), np.array([0.0]), scheme)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_linear_symmetric_stable(self, scheme):
        spec = ms.LevyMeasureSpec(measure=ms.IsotropicStable(1.5, 1.0, 1), theta=1.0,
                                  slice_part=ms.SliceMeasure(1.0, 0.4, 1))
        val = gen.apply_generator(damping_system(), spec, linear_fn(3.0),
                                  np.array([0.5]), np.array([2.0]), scheme)
        assert val == pytest.approx(-6.0, rel=1e-9)

    def test_linearity(self, half_slice_levy, scheme):
        x, v = np.array([0.4]), np.array([-0.7])
        sys_ = damping_system()
        f1, f2 = vsq_fn(), linear_fn(1.5)
        combo = gen.TestFunction(
            value=lambda xx, vv: 2.0 * f1.value(xx, vv) - 3.0 * f2.value(xx, vv),
            grad_x=lambda xx, vv: 2.0 * f1.grad_x(xx, vv) - 3.0 * f2.grad_x(xx, vv),
            grad_v=lambda xx, vv: 2.0 * f1.grad_v(xx, vv) - 3.0 * f2.grad_v(xx, vv),
            hess_v=lambda xx, vv: 2.0 * f1.hess_v(xx, vv) - 3.0 * f2.hess_v(xx, vv))
        lhs = gen.apply_generator(sys_, half_slice_levy, combo, x, v, scheme)
        a1 = gen.apply_generator(sys_, half_slice_levy, f1, x, v, scheme)
        a2 = gen.apply_generator(sys_, half_slice_levy, f2, x, v, scheme)
        assert lhs == pytest.approx(2.0 * a1 - 3.0 * a2, rel=1e-10, abs=1e-10)

    def test_grid_call_matches_points(self, benchmark_langevin, benchmark_levy,
                                      benchmark_lyap, scheme):
        # one call on an (n, m, 1) grid equals the per-point calls that take the
        # same numpy array route (one leading axis) exactly; a float call at one
        # point evaluates W's power with numpy's scalar ** and may differ from
        # the array ** in the last bits, which the value carries as a few ulps
        system = benchmark_langevin
        f = gen.lyapunov_test_function(benchmark_lyap)
        xs = md.ball_grid(20.0, 5, 1, include_origin=True)
        vs = md.ball_grid(20.0, 7, 1, include_origin=True)
        x, v = np.broadcast_arrays(xs[:, None, :], vs[None, :, :])
        val = gen.apply_generator(system, benchmark_levy, f, x, v, scheme)
        assert val.shape == (5, 7)
        for i, j in np.ndindex(5, 7):
            one_val = gen.apply_generator(system, benchmark_levy, f, xs[i][None], vs[j][None],
                                          scheme)
            assert one_val.shape == (1,)
            assert one_val[0] == val[i, j]
            point_val = gen.apply_generator(system, benchmark_levy, f, xs[i], vs[j], scheme)
            assert isinstance(point_val, float)
            assert point_val == pytest.approx(val[i, j], rel=8 * np.finfo(float).eps, abs=0.0)


def fd_grads(fn, pair, step=1e-6):
    """Central differences of ``fn.value`` in x, v, xp and vp."""
    parts = {k: getattr(pair, k) for k in ("x", "v", "xp", "vp")}
    out = []
    for name in parts:
        up = PairState(**dict(parts, **{name: parts[name] + step}))
        down = PairState(**dict(parts, **{name: parts[name] - step}))
        out.append((float(fn.value(up)) - float(fn.value(down))) / (2 * step))
    return out


def fd_sync_hess(fn, pair, step=1e-3):
    """Second central difference along the synchronous move (v + u, vp + u)."""
    def at(u):
        return float(fn.value(PairState(pair.x, pair.v + u, pair.xp, pair.vp + u)))
    return (at(step) + at(-step) - 2.0 * at(0.0)) / step ** 2


class TestPairObservables:
    """``grads`` and ``sync_hess`` of every pair observable against finite differences."""

    def observables(self, lyap):
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(lyap, 0.07)
        bumps = gen.SeparablePairFn(bump(0.3), bump(-0.5))
        # the profile's synchronous slope is 0, so only the second product
        # exercises the cross term of sync_hess
        return {"profile": h, "tilt": g, "bumps": bumps, "product": gen.ProductPairFn(h, g),
                "tilt_bumps": gen.ProductPairFn(g, bumps)}

    def test_grads_match_finite_differences(self, benchmark_lyap, rng):
        fns = self.observables(benchmark_lyap)
        for _ in range(10):
            pair = PairState(*rng.normal(0, 1.5, (4, 1)))
            for name, fn in fns.items():
                got = [float(np.asarray(g)[0]) for g in fn.grads(pair)]
                want = fd_grads(fn, pair)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-7), name

    def test_sync_hess_matches_finite_differences(self, benchmark_lyap, rng):
        fns = self.observables(benchmark_lyap)
        for _ in range(10):
            pair = PairState(*rng.normal(0, 1.5, (4, 1)))
            assert fns["profile"].sync_hess(pair) == 0.0
            for name, fn in fns.items():
                assert float(fn.sync_hess(pair)) == pytest.approx(
                    fd_sync_hess(fn, pair), rel=1e-5, abs=1e-6), name

    def test_stacked_states_match_per_state_calls(self, benchmark_bundle, benchmark_lyap, rng):
        # one call on 7 stacked states equals, bit for bit, the per-state calls
        # that take the same numpy array route (a leading axis of length 1); a
        # call at one 0-d point evaluates W's power with numpy's scalar ** and
        # may differ from the array ** in the last bits
        fns = self.observables(benchmark_lyap)
        monitor, monitor_tilt = benchmark_bundle.monitor_fns()
        fns.update(monitor=monitor, monitor_product=gen.ProductPairFn(monitor, monitor_tilt))
        parts = rng.normal(0, 1.5, (4, 7, 1))
        stacked = PairState(*parts)
        for name, fn in fns.items():
            grads, hess = fn.grads(stacked), fn.sync_hess(stacked)
            assert [np.shape(g) for g in grads] == [(7, 1)] * 4, name
            assert np.shape(hess) == (7,), name
            for k in range(7):
                row = PairState(*parts[:, k:k + 1])
                for g, g_row in zip(grads, fn.grads(row)):
                    assert np.array_equal(g[k:k + 1], g_row), name
                assert np.array_equal(hess[k:k + 1], fn.sync_hess(row)), name
                point = PairState(*parts[:, k])
                for g, g_point in zip(grads, fn.grads(point)):
                    np.testing.assert_allclose(g_point, g[k], rtol=1e-13, atol=1e-300)
                assert fn.sync_hess(point) == pytest.approx(hess[k], rel=1e-13, abs=1e-300)

    def test_profile_sync_slope_is_exactly_zero(self, rng):
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        for _ in range(10):
            _, gv, _, gvp = h.grads(PairState(*rng.normal(0, 1.5, (4, 1))))
            assert (gv + gvp)[0] == 0.0


class TestClosedFormCrossValidation:
    def test_diagonal_is_zero(self, half_slice_levy):
        pair = PairState([0.4], [0.2], [0.4], [0.2])
        got = gen.coupling_profile_drift(ConcaveProfile(), pair, zero_force_system(),
                                         half_slice_levy, ALPHA, ALPHA0, KAPPA)
        assert got == 0.0

    def test_linear_profile_jump_part_vanishes(self, half_slice_levy, scheme):
        # midpoint identity for linear profiles: only the drift part remains
        pair = PairState([0.7], [0.1], [-0.2], [0.5])
        h = gen.ProfilePairFn(LinearProfile(), ALPHA, ALPHA0)
        full = gen.apply_coupling_operator(h, gen.pair_quadrature(
            pair, zero_force_system(), half_slice_levy, ALPHA, KAPPA, scheme))
        closed = gen.coupling_profile_drift(LinearProfile(), pair, zero_force_system(),
                                            half_slice_levy, ALPHA, ALPHA0, KAPPA)
        assert full == pytest.approx(closed, rel=1e-10)

    def test_matches_quadrature_20_states(self, half_slice_levy, scheme, rng):
        worst = 0.0
        for _ in range(20):
            pair = PairState(rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1))
            h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
            full = gen.apply_coupling_operator(h, gen.pair_quadrature(
                pair, damping_system(), half_slice_levy, ALPHA, KAPPA, scheme))
            closed = gen.coupling_profile_drift(ConcaveProfile(), pair, damping_system(),
                                                half_slice_levy, ALPHA, ALPHA0, KAPPA)
            worst = max(worst, abs(full - closed) / max(abs(closed), 1e-12))
        assert worst <= 1e-5

    def test_finite_difference_drift_oracle(self, half_slice_levy, rng):
        # drift part equals the flow derivative of f(r); jump part is the
        # closed-form second difference times the overlap mass
        sys_ = zero_force_system()
        for _ in range(5):
            pair = PairState(rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1))
            dt = 1e-7
            xd1 = sys_.a * pair.x + sys_.b * pair.v
            xd2 = sys_.a * pair.xp + sys_.b * pair.vp
            moved = PairState(pair.x + dt * xd1, pair.v, pair.xp + dt * xd2, pair.vp)
            prof = ConcaveProfile()
            fd = (prof.value(moved.r(ALPHA, ALPHA0)) - prof.value(pair.r(ALPHA, ALPHA0))) / dt
            q = pair.q(ALPHA)
            step = min(KAPPA, float(np.linalg.norm(q)))
            r = pair.r(ALPHA, ALPHA0)
            shift = ALPHA * ms.truncate(q, KAPPA)
            jump = 0.5 * (prof.value(r + step) + prof.value(r - step) - 2 * prof.value(r)) \
                * ms.overlap_mass(half_slice_levy.slice_part, shift)
            closed = gen.coupling_profile_drift(prof, pair, sys_, half_slice_levy,
                                                ALPHA, ALPHA0, KAPPA)
            assert closed == pytest.approx(fd + jump, rel=1e-6, abs=1e-8)


class TestDegenerateGap:
    """The simulator and the pair operator share one degenerate-gap rule on ``|q|``."""

    def test_tiny_gap_is_synchronous_in_both(self, benchmark_levy, scheme):
        # alpha = 2 puts the shift alpha |q| = 1.5e-12 above the gap |q| = 0.75e-12
        alpha, kappa = 2.0, 0.25
        diagonal = PairState([0.0], [0.1], [0.0], [0.1])
        tiny = PairState([0.75e-12], [0.1], [0.0], [0.1])
        q = float(tiny.q(alpha)[0])
        assert q == 0.75e-12
        for u in (0.05, 0.5):
            assert displacements(benchmark_levy, u, q, alpha, kappa, 0.0) == u
        fn = gen.SeparablePairFn(bump(0.2), bump(-0.3))
        on_diagonal, near_diagonal = (
            gen.apply_coupling_operator(fn, gen.pair_quadrature(
                pair, zero_force_system(), benchmark_levy, alpha, kappa, scheme), drift_part=False)
            for pair in (diagonal, tiny))
        assert on_diagonal == near_diagonal


class TestMarginalIdentity:
    def test_constants_give_zero(self, half_slice_levy, scheme):
        pair = PairState([0.5], [0.1], [-0.3], [0.9])
        res = gen.marginal_identity_residual(const_fn(), const_fn(), gen.pair_quadrature(
            pair, zero_force_system(), half_slice_levy, ALPHA, KAPPA, scheme))
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_synchronous_regime(self, half_slice_levy, scheme):
        pair = PairState([0.5], [0.1], [0.5], [0.1])
        res = gen.marginal_identity_residual(bump(0.2), bump(-0.4), gen.pair_quadrature(
            pair, zero_force_system(), half_slice_levy, ALPHA, KAPPA, scheme))
        assert res <= 1e-10

    def test_twenty_random_configurations(self, half_slice_levy, scheme, rng):
        stable = ms.LevyMeasureSpec(measure=ms.IsotropicStable(1.5, 1.0, 1), theta=1.0,
                                    slice_part=ms.SliceMeasure(0.8, 0.4, 1))
        for k in range(20):
            spec = half_slice_levy if k % 2 == 0 else stable
            x, xp, v, vp = rng.normal(0, 1, (4, 1))
            g, h = bump(float(rng.normal())), bump(float(rng.normal()))
            res = gen.marginal_identity_residual(g, h, gen.pair_quadrature(
                PairState(x, v, xp, vp), damping_system(), spec, ALPHA, KAPPA, scheme))
            assert res <= 1e-4


class TestProductRule:
    def test_equal_states_zero(self, half_slice_levy, scheme, flat_lyap):
        pair = PairState([0.4], [0.1], [0.4], [0.1])
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.05)
        lhs = gen.apply_coupling_operator(gen.ProductPairFn(h, g), gen.pair_quadrature(
            pair, damping_system(), half_slice_levy, ALPHA, KAPPA, scheme))
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_unit_tilt_degenerates(self, half_slice_levy, scheme, flat_lyap, rng):
        pair = PairState(rng.normal(size=1), rng.normal(size=1),
                         rng.normal(size=1), rng.normal(size=1))
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g0 = tilt(flat_lyap, 0.0)
        quad = gen.pair_quadrature(pair, damping_system(), half_slice_levy, ALPHA, KAPPA, scheme)
        assert gen.product_correction_term(h, g0, quad) == 0.0
        res = gen.product_rule_residual(h, g0, quad)
        assert res <= 1e-10

    def test_twenty_random_states(self, half_slice_levy, scheme, flat_lyap, rng):
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.07)
        for _ in range(20):
            pair = PairState(rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1))
            res = gen.product_rule_residual(h, g, gen.pair_quadrature(
                pair, damping_system(), half_slice_levy, ALPHA, KAPPA, scheme))
            assert res <= 1e-6

    def test_correction_term_within_envelope(self, benchmark_levy, scheme, flat_lyap, rng):
        c_star, _ = md.verify_jump_regularity(flat_lyap, benchmark_levy.slice_part,
                                              grid_radius=8.0, n_grid=7)
        eps = 0.05
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, eps)
        # 15 states, drawn state by state as (x, v, xp, vp), in one call per function
        x, v, xp, vp = np.moveaxis(rng.uniform(-4, 4, (15, 4, 1)), 1, 0)
        pair = PairState(x, v, xp, vp)
        pi = gen.product_correction_term(h, g, gen.pair_quadrature(
            pair, damping_system(), benchmark_levy, ALPHA, KAPPA, scheme))
        bound = gen.correction_bound(pair, h, flat_lyap, eps, c_star)
        assert pi.shape == bound.shape == (15,)
        assert np.all(np.abs(pi) <= bound + 1e-12)
        for k in range(15):
            row = PairState(x[k:k + 1], v[k:k + 1], xp[k:k + 1], vp[k:k + 1])
            assert np.array_equal(bound[k:k + 1],
                                  gen.correction_bound(row, h, flat_lyap, eps, c_star))


class TestContractionCheck:
    def test_equal_states_pass(self, half_slice_levy, scheme, flat_lyap):
        pair = PairState([1.0], [0.5], [1.0], [0.5])
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.05)
        chk = gen.contraction_inequality_check(h, g, 0.1, gen.pair_quadrature(
            pair, damping_system(), half_slice_levy, ALPHA, KAPPA, scheme))
        assert chk.passed
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)

    def test_stack_matches_per_state_calls(self, benchmark_levy, scheme, flat_lyap, rng):
        # one call on a (2, 4) stack, the diagonal among it, equals the calls
        # on each state as a one-row stack, field by field
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.05)
        x, v, xp, vp = rng.normal(0, 1.5, (4, 8, 1))
        xp[0], vp[0] = x[0], v[0]
        pair = PairState(*(a.reshape(2, 4, 1) for a in (x, v, xp, vp)))
        args = (damping_system(), benchmark_levy, ALPHA, KAPPA, scheme)
        chk = gen.contraction_inequality_check(h, g, 0.1, gen.pair_quadrature(pair, *args))
        fields = ("lhs", "rhs", "slack", "passed")
        assert all(np.shape(getattr(chk, f)) == (2, 4) for f in fields)
        assert chk.lhs.flat[0] == 0.0 and chk.passed.flat[0]
        for k in range(8):
            one = gen.contraction_inequality_check(h, g, 0.1, gen.pair_quadrature(
                PairState(x[k:k + 1], v[k:k + 1], xp[k:k + 1], vp[k:k + 1]), *args))
            for f in fields:
                assert np.array_equal(getattr(chk, f).flat[k:k + 1], getattr(one, f)), (f, k)


# ---------------------------------------------------------------------------
# Reference: the per-state pair operator of the earlier implementation (one
# state per call, each with its own node table), kept verbatim as the oracle
# for the broadcast operator.
# ---------------------------------------------------------------------------


def _ref_branch_weights(levy_spec, shift, u_pts):
    if shift is None:
        zeros = np.zeros(u_pts.shape[0])
        return zeros, zeros
    return ms.overlap_ratio(levy_spec, -shift, u_pts), ms.overlap_ratio(levy_spec, shift, u_pts)


def _ref_shifted(pair, dv, dvp):
    return PairState(*np.broadcast_arrays(pair.x, pair.v + dv, pair.xp, pair.vp + dvp))


def _ref_pair_nodes(pair, levy_spec, alpha, kappa, scheme, nodes=None):
    shift = None
    if not float(np.linalg.norm(pair.q(alpha))) <= DEGENERATE_GAP:
        shift = gen.coupling_shift(pair, alpha, kappa)
    if nodes is None:
        bp = ()
        if shift is not None:
            s = float(np.linalg.norm(shift))
            bp = (s, 1.0 - s, 1.0 + s, abs(1.0 - s))
        nodes = gen.build_nodes_1d(levy_spec.measure, scheme or gen.QuadratureScheme(),
                                   breakpoints=bp)
    return shift, nodes


def ref_apply_coupling_operator(fn, pair, system, levy_spec, alpha, kappa, scheme=None,
                                nodes=None, drift_part=True):
    shift, nodes = _ref_pair_nodes(pair, levy_spec, alpha, kappa, scheme, nodes)
    base = float(fn.value(pair))
    gx, gv, gxp, gvp = (np.asarray(g, dtype=float) for g in fn.grads(pair))
    val = 0.0
    if drift_part:
        xdot = system.a * pair.x + system.b * pair.v
        xpdot = system.a * pair.xp + system.b * pair.vp
        u1 = np.asarray(system.force(pair.x, pair.v), dtype=float)
        u2 = np.asarray(system.force(pair.xp, pair.vp), dtype=float)
        val += float(np.sum(gx * xdot) + np.sum(gxp * xpdot)
                     + np.sum(gv * u1) + np.sum(gvp * u2))

    du = nodes.points
    mask = nodes.sync_mask
    ind = (np.abs(nodes.u) <= 1.0)
    comp_v = np.where(ind, du[:, 0] * gv[0], 0.0)
    comp_both = comp_v + np.where(ind, du[:, 0] * gvp[0], 0.0)

    rho_minus, rho_plus = _ref_branch_weights(levy_spec, shift, du)
    sync_w = 1.0 - 0.5 * rho_minus - 0.5 * rho_plus

    sync_vals = fn.value(_ref_shifted(pair, du[mask], du[mask])) - base
    sync_int = sync_vals - comp_both[mask]
    total = np.sum(nodes.w[mask] * nodes.dens[mask] * sync_w[mask] * sync_int)
    hess = float(fn.sync_hess(pair))
    total += 0.5 * hess * nodes.inner_moment2

    if shift is not None:
        up, down = du + shift, du - shift
        plus_vals = fn.value(_ref_shifted(pair, du, up)) - base
        ind_p = np.linalg.norm(up, axis=-1) <= 1.0
        plus_int = plus_vals - comp_v - np.where(ind_p, up @ gvp, 0.0)
        minus_vals = fn.value(_ref_shifted(pair, du, down)) - base
        ind_m = np.linalg.norm(down, axis=-1) <= 1.0
        minus_int = minus_vals - comp_v - np.where(ind_m, down @ gvp, 0.0)
        total += np.sum(nodes.w * nodes.dens * 0.5 * rho_minus * plus_int)
        total += np.sum(nodes.w * nodes.dens * 0.5 * rho_plus * minus_int)
    return val + float(total)


def ref_product_correction_term(pair, h_fn, g_fn, levy_spec, alpha, kappa, scheme=None,
                                nodes=None):
    shift, nodes = _ref_pair_nodes(pair, levy_spec, alpha, kappa, scheme, nodes)
    if shift is None:
        return 0.0
    du = nodes.points
    rho_minus, rho_plus = _ref_branch_weights(levy_spec, shift, du)
    hb = h_fn.value(pair)
    gb = g_fn.value(pair)
    plus, minus = _ref_shifted(pair, du, du + shift), _ref_shifted(pair, du, du - shift)
    dh_p = h_fn.value(plus) - hb
    dg_p = g_fn.value(plus) - gb
    dh_m = h_fn.value(minus) - hb
    dg_m = g_fn.value(minus) - gb
    return float(np.sum(nodes.w * nodes.dens * 0.5 * (rho_minus * dh_p * dg_p
                                                      + rho_plus * dh_m * dg_m)))


class OneRow:
    """A pair observable that evaluates a 0-d state as a one-row stack.

    A 0-d state takes numpy's scalar ``**`` and a stack its array ``**``;
    the two differ in the last bit on some inputs, and the cancellation in
    the synchronous integrand at the smallest nodes amplifies that to 3e-12
    of the value's scale (100 stacks), over ``PARITY_RTOL``. Through this
    wrapper the oracle sees the values a stacked call sees.
    """

    def __init__(self, fn):
        self.fn = fn

    def _at(self, method, pair):
        if pair.x.ndim > 1:
            return getattr(self.fn, method)(pair)
        out = getattr(self.fn, method)(PairState(pair.x[None], pair.v[None], pair.xp[None],
                                                 pair.vp[None]))
        return tuple(g[0] for g in out) if method == "grads" else out[0]

    def value(self, pair):
        return self._at("value", pair)

    def grads(self, pair):
        return self._at("grads", pair)

    def sync_hess(self, pair):
        return self._at("sync_hess", pair)


PARITY_MEASURES = {
    "slice": lambda: ms.LevyMeasureSpec(ms.SliceMeasure(1.0, 0.4, 1), theta=1.0),
    "stable": lambda: ms.LevyMeasureSpec(ms.IsotropicStable(0.8), theta=0.5),
    # stable noise strictly above its slab sub-measure
    "dominated": lambda: ms.LevyMeasureSpec(ms.IsotropicStable(0.8), theta=0.5,
                                            slice_part=ms.SliceMeasure(1.0, 0.4, 1)),
}

# transformed gaps q: the diagonal, a degenerate gap, 0 < |q| < KAPPA (each
# with its own breakpoints, so tables of different lengths) and |q| > KAPPA
PARITY_GAPS = (0.0, 0.75e-12, 0.03, -0.11, 0.2, -0.24, 0.9, 1.6, -2.5)
# the stack matches the per-state oracle in the last bits only: rows of
# different lengths are padded with zero-weight nodes, and the off-mask nodes
# of the synchronous channel count with weight zero, so numpy's pairwise sums
# group their terms differently. Over 100 random stacks the values differed
# by at most 1.6e-13 relative, where drift and jump parts cancel to 1e-3 of
# their size (0.8128 - 0.8121); against the larger of the value and its jump
# part every value differed by under 1.5e-15. The tolerance is relative to
# that scale.
PARITY_RTOL = 1e-13


def parity_stack(rng):
    """Nine pair states with the gaps PARITY_GAPS, as a (3, 3) stack."""
    x, v, xp = rng.normal(0, 1.5, (3, len(PARITY_GAPS), 1))
    q = np.array(PARITY_GAPS)[:, None]
    vp = v - ALPHA * (q - (x - xp))
    xp[0], vp[0] = x[0], v[0]
    pair = PairState(*(a.reshape(3, 3, 1) for a in (x, v, xp, vp)))
    gaps = np.linalg.norm(pair.q(ALPHA), axis=-1).ravel()
    assert gaps[0] == 0.0 and gaps[1] <= DEGENERATE_GAP
    assert np.all((gaps[2:6] > 0) & (gaps[2:6] < KAPPA)) and np.all(gaps[6:] > KAPPA)
    return pair


def state(pair, k):
    """State ``k`` of a stack as a 0-d pair."""
    return PairState(*(a.reshape(-1, pair.dim)[k] for a in (pair.x, pair.v, pair.xp, pair.vp)))


class TestBroadcastOperatorParity:
    """One stacked call equals the per-state oracle at every state."""

    def observables(self, lyap, centres):
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(lyap, 0.07)
        return {"profile": (h, lambda k: h), "tilt": (g, lambda k: g),
                "product": (gen.ProductPairFn(h, g), lambda k: gen.ProductPairFn(h, g)),
                "bumps": (gen.SeparablePairFn(bump(centres[0]), bump(centres[1])),
                          lambda k: gen.SeparablePairFn(bump(centres[0, k]),
                                                        bump(centres[1, k])))}

    @pytest.mark.parametrize("measure", sorted(PARITY_MEASURES))
    def test_stack_matches_per_state_oracle(self, measure, benchmark_lyap, scheme, rng):
        levy = PARITY_MEASURES[measure]()
        pair = parity_stack(rng)
        centres = rng.normal(0, 1, (2, len(PARITY_GAPS)))
        args = (damping_system(), levy, ALPHA, KAPPA, scheme)
        for name, (fn, fn_at) in self.observables(benchmark_lyap, centres).items():
            val = gen.apply_coupling_operator(fn, gen.pair_quadrature(pair, *args))
            assert val.shape == (3, 3), name
            for k in range(len(PARITY_GAPS)):
                ref_fn = OneRow(fn_at(k))
                want = ref_apply_coupling_operator(ref_fn, state(pair, k), *args)
                jump = ref_apply_coupling_operator(ref_fn, state(pair, k), *args,
                                                   drift_part=False)
                tol = PARITY_RTOL * max(abs(want), abs(jump))
                one = gen.apply_coupling_operator(fn_at(k), gen.pair_quadrature(state(pair, k),
                                                                                *args))
                assert np.ndim(one) == 0
                for got in (val.flat[k], one):
                    assert abs(got - want) <= tol, (name, k)

    @pytest.mark.parametrize("measure", sorted(PARITY_MEASURES))
    def test_correction_term_matches_per_state_oracle(self, measure, benchmark_lyap, scheme,
                                                      rng):
        levy = PARITY_MEASURES[measure]()
        pair = parity_stack(rng)
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(benchmark_lyap, 0.07)
        pi = gen.product_correction_term(h, g, gen.pair_quadrature(
            pair, damping_system(), levy, ALPHA, KAPPA, scheme))
        assert pi.shape == (3, 3)
        for k in range(len(PARITY_GAPS)):
            want = ref_product_correction_term(state(pair, k), OneRow(h), OneRow(g), levy,
                                               ALPHA, KAPPA, scheme)
            assert pi.flat[k] == pytest.approx(want, rel=PARITY_RTOL, abs=0.0), k
        assert pi.flat[0] == pi.flat[1] == 0.0

    def test_pads_are_inert(self, scheme, rng):
        # rows of different lengths: each state's row is its own table followed
        # by zero-weight copies of the last node
        levy = PARITY_MEASURES["dominated"]()
        pair = parity_stack(rng)
        nodes = gen.pair_quadrature(pair, damping_system(), levy, ALPHA, KAPPA, scheme).nodes
        assert nodes.u.shape[0] == len(PARITY_GAPS)
        sizes = set()
        for k in range(len(PARITY_GAPS)):
            own = _ref_pair_nodes(state(pair, k), levy, ALPHA, KAPPA, scheme)[1]
            n = own.u.size
            sizes.add(n)
            row = (nodes.u[k], nodes.w[k])
            assert np.array_equal(row[0][:n], own.u) and np.array_equal(row[1][:n], own.w)
            assert np.all(row[0][n:] == own.u[-1]) and np.all(row[1][n:] == 0.0)
        assert len(sizes) > 1


def quadrature_arrays(quad):
    """Every array a PairQuadrature holds, in field order."""
    return [*(getattr(quad.pair, k) for k in ("x", "v", "xp", "vp")),
            *(getattr(quad.nodes, k) for k in ("u", "w", "dens", "sync_mask")),
            quad.shift, quad.live, quad.rho_minus, quad.rho_plus, quad.xdot, quad.xpdot,
            quad.force, quad.force_p]


class TestPairQuadrature:
    """One quadrature, built once per stack of states, serves every observable."""

    @pytest.mark.parametrize("measure", sorted(PARITY_MEASURES))
    def test_shared_quadrature_equals_a_fresh_one_per_call(self, measure, benchmark_lyap,
                                                           scheme, rng):
        levy = PARITY_MEASURES[measure]()
        pair = parity_stack(rng)
        args = (pair, damping_system(), levy, ALPHA, KAPPA, scheme)
        shared = gen.pair_quadrature(*args)
        before = [a.copy() for a in quadrature_arrays(shared)]
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(benchmark_lyap, 0.07)
        fns = {"profile": h, "separable": gen.SeparablePairFn(bump(0.3), bump(-0.5)),
               "product": gen.ProductPairFn(h, g)}
        for name, fn in fns.items():
            for drift_part in (True, False):
                got = gen.apply_coupling_operator(fn, shared, drift_part)
                want = gen.apply_coupling_operator(fn, gen.pair_quadrature(*args), drift_part)
                assert got.shape == (3, 3) and np.array_equal(got, want), (name, drift_part)
        assert np.array_equal(gen.product_correction_term(h, g, shared),
                              gen.product_correction_term(h, g, gen.pair_quadrature(*args)))
        # no call writes into the quadrature
        for a, b in zip(quadrature_arrays(shared), before):
            assert np.array_equal(a, b)

    def test_degenerate_stack_is_synchronous_only(self, benchmark_lyap, scheme, rng):
        # gaps |q| at or below DEGENERATE_GAP: no state is live, both
        # thinning weights vanish, and each value is the oracle's with only
        # the synchronous channel (its shift is None)
        levy = PARITY_MEASURES["dominated"]()
        gaps = np.array([0.0, 0.75e-12, -0.5e-12, DEGENERATE_GAP])[:, None]
        v = rng.normal(0, 1.5, gaps.shape)
        pair = PairState(gaps, v, np.zeros_like(gaps), v)
        assert np.array_equal(pair.q(ALPHA), gaps)
        args = (damping_system(), levy, ALPHA, KAPPA, scheme)
        quad = gen.pair_quadrature(pair, *args)
        assert not quad.live.any()
        assert not quad.rho_minus.any() and not quad.rho_plus.any()
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(benchmark_lyap, 0.07)
        for fn in (g, gen.SeparablePairFn(bump(0.3), bump(-0.5)), gen.ProductPairFn(h, g)):
            val = gen.apply_coupling_operator(fn, quad)
            for k in range(len(gaps)):
                want = ref_apply_coupling_operator(OneRow(fn), state(pair, k), *args)
                jump = ref_apply_coupling_operator(OneRow(fn), state(pair, k), *args,
                                                   drift_part=False)
                assert abs(val[k] - want) <= PARITY_RTOL * max(abs(want), abs(jump)), k
        assert np.all(gen.product_correction_term(h, g, quad) == 0.0)

    def test_one_state_takes_the_stacked_route(self, benchmark_lyap, scheme, rng):
        # a 0-d state is evaluated as a one-row stack on both sides of the
        # product rule and the contraction check, so its values equal the
        # one-row call bit for bit (numpy's scalar ** is never taken)
        h = gen.ProfilePairFn(PowerProfile(), ALPHA, ALPHA0)
        g = tilt(benchmark_lyap, 0.07)
        args = (damping_system(), PARITY_MEASURES["slice"](), ALPHA, KAPPA, scheme)
        for _ in range(40):
            parts = rng.normal(0, 1.5, (4, 1))
            point = gen.pair_quadrature(PairState(*parts), *args)
            row = gen.pair_quadrature(PairState(*parts[:, None]), *args)
            assert point.lead == () and row.lead == (1,)
            res = gen.product_rule_residual(h, g, point)
            assert np.ndim(res) == 0 and res == gen.product_rule_residual(h, g, row)[0]
            one, stacked = (gen.contraction_inequality_check(h, g, 0.1, q) for q in (point, row))
            for f in ("lhs", "rhs", "slack", "passed"):
                assert np.ndim(getattr(one, f)) == 0 and getattr(one, f) == getattr(stacked, f)[0]
