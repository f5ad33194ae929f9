"""Operator quadrature: generator values, identity checks, cross-validation."""

import math

import numpy as np
import pytest

from levyham import generator as gen
from levyham import measures as ms
from levyham import model as md
from levyham.pair import PairState


def zero_force_system():
    return md.HamiltonianSystemSpec(
        0.0, 1.0, lambda x, v: np.zeros_like(np.asarray(v, dtype=float)), dim=1)


def damping_system():
    return md.HamiltonianSystemSpec(
        0.0, 1.0, lambda x, v: -np.asarray(v, dtype=float), dim=1)


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


def bump_dict(c):
    return {"value": lambda v, c=c: np.exp(-np.sum((np.asarray(v, dtype=float) - c) ** 2,
                                                   axis=-1)),
            "grad": lambda v, c=c: -2.0 * (np.asarray(v, dtype=float) - c)
            * np.exp(-np.sum((np.asarray(v, dtype=float) - c) ** 2, axis=-1)),
            "hess": lambda v, c=c: (-2.0 + 4.0 * (float(v[0]) - c) ** 2)
            * math.exp(-(float(v[0]) - c) ** 2)}


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
        val, err = gen.apply_generator(zero_force_system(), half_slice_levy, const_fn(),
                                       np.array([0.3]), np.array([0.2]), scheme)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_velocity_square_slice(self, half_slice_levy, scheme):
        # jump part = int u^2 nu(du) = 2/3 over the unit slice
        val, err = gen.apply_generator(zero_force_system(), half_slice_levy, vsq_fn(),
                                       np.array([0.0]), np.array([0.0]), scheme)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert err < 1e-8

    def test_linear_symmetric_stable(self, scheme):
        spec = ms.LevyMeasureSpec(measure=ms.IsotropicStable(1.5, 1.0, 1), theta=1.0,
                                  slice_part=ms.SliceMeasure(1.0, 0.4, 1))
        val, _ = gen.apply_generator(damping_system(), spec, linear_fn(3.0),
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
        lhs, _ = gen.apply_generator(sys_, half_slice_levy, combo, x, v, scheme)
        a1, _ = gen.apply_generator(sys_, half_slice_levy, f1, x, v, scheme)
        a2, _ = gen.apply_generator(sys_, half_slice_levy, f2, x, v, scheme)
        assert lhs == pytest.approx(2.0 * a1 - 3.0 * a2, rel=1e-10, abs=1e-10)

    def test_grid_call_matches_points(self, benchmark_langevin, benchmark_levy,
                                      benchmark_lyap, scheme):
        # one call on an (n, m, 1) grid equals the per-point calls that take the
        # same numpy array route (one leading axis) exactly; a float call at one
        # point evaluates W's power with numpy's scalar ** and may differ from
        # the array ** in the last bits, which the value carries as a few ulps
        system = benchmark_langevin.system()
        f = gen.lyapunov_test_function(benchmark_lyap)
        xs = md.ball_grid(20.0, 5, 1, include_origin=True)
        vs = md.ball_grid(20.0, 7, 1, include_origin=True)
        x, v = np.broadcast_arrays(xs[:, None, :], vs[None, :, :])
        val, err = gen.apply_generator(system, benchmark_levy, f, x, v, scheme)
        assert val.shape == err.shape == (5, 7)
        for i, j in np.ndindex(5, 7):
            one_val, one_err = gen.apply_generator(system, benchmark_levy, f, xs[i][None],
                                                   vs[j][None], scheme)
            assert one_val.shape == one_err.shape == (1,)
            assert one_val[0] == val[i, j] and one_err[0] == err[i, j]
            point_val, point_err = gen.apply_generator(system, benchmark_levy, f, xs[i], vs[j],
                                                       scheme)
            assert isinstance(point_val, float) and isinstance(point_err, float)
            assert point_val == pytest.approx(val[i, j], rel=8 * np.finfo(float).eps, abs=0.0)

    def test_derivative_validation(self, flat_lyap):
        tf = gen.lyapunov_test_function(flat_lyap)
        assert tf.check_derivatives(np.array([0.7]), np.array([-0.9]))


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
        bumps = gen.SeparablePairFn(gen._velocity_fn(bump_dict(0.3)),
                                    gen._velocity_fn(bump_dict(-0.5)))
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
        full, _ = gen.apply_coupling_operator(h, pair, zero_force_system(),
                                              half_slice_levy, ALPHA, KAPPA, scheme)
        closed = gen.coupling_profile_drift(LinearProfile(), pair, zero_force_system(),
                                            half_slice_levy, ALPHA, ALPHA0, KAPPA)
        assert full == pytest.approx(closed, rel=1e-10)

    def test_matches_quadrature_20_states(self, half_slice_levy, scheme, rng):
        worst = 0.0
        for _ in range(20):
            pair = PairState(rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1))
            h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
            full, _ = gen.apply_coupling_operator(h, pair, damping_system(),
                                                  half_slice_levy, ALPHA, KAPPA, scheme)
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


class TestMarginalIdentity:
    def test_constants_give_zero(self, half_slice_levy, scheme):
        zero = {"value": lambda v: (np.zeros(np.asarray(v).shape[:-1])
                                    if np.asarray(v).ndim > 1 else 0.0),
                "grad": lambda v: np.zeros_like(np.asarray(v, dtype=float)),
                "hess": lambda v: 0.0}
        res = gen.marginal_identity_residual(np.array([0.5]), np.array([-0.3]), zero, zero,
                                             np.array([0.1]), np.array([0.9]),
                                             zero_force_system(), half_slice_levy,
                                             ALPHA, KAPPA, scheme)
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_synchronous_regime(self, half_slice_levy, scheme):
        res = gen.marginal_identity_residual(np.array([0.5]), np.array([0.5]),
                                             bump_dict(0.2), bump_dict(-0.4),
                                             np.array([0.1]), np.array([0.1]),
                                             zero_force_system(), half_slice_levy,
                                             ALPHA, KAPPA, scheme)
        assert res <= 1e-10

    def test_twenty_random_configurations(self, half_slice_levy, scheme, rng):
        stable = ms.LevyMeasureSpec(measure=ms.IsotropicStable(1.5, 1.0, 1), theta=1.0,
                                    slice_part=ms.SliceMeasure(0.8, 0.4, 1))
        for k in range(20):
            spec = half_slice_levy if k % 2 == 0 else stable
            x, xp, v, vp = rng.normal(0, 1, (4, 1))
            res = gen.marginal_identity_residual(x, xp, bump_dict(float(rng.normal())),
                                                 bump_dict(float(rng.normal())), v, vp,
                                                 damping_system(), spec, ALPHA, KAPPA, scheme)
            assert res <= 1e-4


class TestProductRule:
    def test_equal_states_zero(self, half_slice_levy, scheme, flat_lyap):
        pair = PairState([0.4], [0.1], [0.4], [0.1])
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.05)
        lhs, _ = gen.apply_coupling_operator(gen.ProductPairFn(h, g), pair,
                                             damping_system(), half_slice_levy,
                                             ALPHA, KAPPA, scheme)
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_unit_tilt_degenerates(self, half_slice_levy, scheme, flat_lyap, rng):
        pair = PairState(rng.normal(size=1), rng.normal(size=1),
                         rng.normal(size=1), rng.normal(size=1))
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g0 = tilt(flat_lyap, 0.0)
        pi = gen.product_correction_term(pair, h, g0, half_slice_levy, ALPHA, KAPPA, scheme)
        assert pi == 0.0
        res = gen.product_rule_residual(pair, h, g0, damping_system(), half_slice_levy,
                                        ALPHA, KAPPA, scheme)
        assert res <= 1e-10

    def test_twenty_random_states(self, half_slice_levy, scheme, flat_lyap, rng):
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.07)
        for _ in range(20):
            pair = PairState(rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1))
            res = gen.product_rule_residual(pair, h, g, damping_system(),
                                            half_slice_levy, ALPHA, KAPPA, scheme)
            assert res <= 1e-6

    def test_correction_term_within_envelope(self, benchmark_levy, scheme, flat_lyap, rng):
        eta, c_star, _ = md.verify_jump_regularity(flat_lyap, benchmark_levy.slice_part,
                                                   grid_radius=8.0, n_grid=7)
        eps = 0.05
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, eps)
        for _ in range(15):
            pair = PairState(rng.uniform(-4, 4, 1), rng.uniform(-4, 4, 1),
                             rng.uniform(-4, 4, 1), rng.uniform(-4, 4, 1))
            pi = gen.product_correction_term(pair, h, g, benchmark_levy,
                                             ALPHA, KAPPA, scheme)
            bound = gen.correction_bound(pair, h, flat_lyap, eps, c_star, eta)
            assert abs(pi) <= bound + 1e-12


class TestContractionCheck:
    def test_equal_states_pass(self, half_slice_levy, scheme, flat_lyap):
        pair = PairState([1.0], [0.5], [1.0], [0.5])
        h = gen.ProfilePairFn(ConcaveProfile(), ALPHA, ALPHA0)
        g = tilt(flat_lyap, 0.05)
        chk = gen.contraction_inequality_check(pair, h, g, rate=0.1,
                                               system=damping_system(),
                                               levy_spec=half_slice_levy,
                                               alpha=ALPHA, kappa=KAPPA, scheme=scheme)
        assert chk.passed
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
