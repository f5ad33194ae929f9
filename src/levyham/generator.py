"""Numerical application of the jump generators and operator-identity checks.

The single-process generator combines the deterministic drift with a
compensated jump integral in the velocity. The pair operator routes each
jump through three channels: a synchronous copy, and two modified channels
where the second velocity is displaced by ``+/- alpha (q)_kappa`` with
thinning probabilities read off the overlap density ratio.

The pair operator acts on pair observables with three methods:
``value(pair)`` broadcasts over leading axes (one row per jump node),
``grads(pair)`` returns ``(d/dx, d/dv, d/dxp, d/dvp)`` at one pair state,
and ``sync_hess(pair)`` is the second derivative along the synchronous
move ``(v, vp) -> (v + u, vp + u)``. Three observables implement it: the
distance ``ProfilePairFn``, the separable ``SeparablePairFn`` (the Lyapunov
tilt, and the marginal identity's ``g(v) + h(vp)``) and ``ProductPairFn``.

Identity checks (marginal consistency, product rule) evaluate both sides on
one shared node table so the residual isolates algebra rather than
quadrature; cross-validation of the closed-form profile drift uses genuinely
different evaluation points and is the real discretisation test.

Node tables are one-dimensional: the operator quadrature targets the
scalar benchmark models. The measure layer and single-process simulation
are dimension-generic; coupled pair simulation is one-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import QuadratureBudgetExceeded
from .pair import PairState
from .quadtools import log_gauss_panels

__all__ = [
    "QuadratureScheme",
    "TestFunction",
    "MeasureNodes",
    "build_nodes_1d",
    "apply_generator",
    "lyapunov_test_function",
    "ProfilePairFn",
    "SeparablePairFn",
    "ProductPairFn",
    "apply_coupling_operator",
    "coupling_profile_drift",
    "marginal_identity_residual",
    "product_rule_residual",
    "product_correction_term",
    "correction_bound",
    "contraction_inequality_check",
    "ContractionCheck",
]

_DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class QuadratureScheme:
    """Node-table layout for the jump integrals.

    Below ``rho_in`` the compensated (synchronous) integrand is replaced by
    its second-order Taylor value against the closed-form inner second
    moment; evaluating it numerically there would drown in float
    cancellation against the singular density. The modified jump channels
    have bounded effective densities and are integrated on nodes all the way
    down to ``node_floor``. ``rho_out`` truncates unbounded supports; the
    neglected tail is folded into the reported error. ``max_nodes`` caps the
    table size.
    """

    rho_in: float = 1e-6
    rho_out: float = 1e6
    panels_per_decade: int = 4
    nodes_per_panel: int = 12
    node_floor: float = 1e-9
    max_nodes: int = 40_000


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable with the derivatives the generator needs.

    ``value(x, v)``, ``grad_x``, ``grad_v`` and ``hess_v`` broadcast over
    leading axes, so the generator takes a whole grid in one call. ``hess_v``
    (any shape that reshapes to ``x.shape[:-1]`` in d = 1) feeds the analytic
    inner-zone term (without it the zone is dropped and its bound lands in
    the reported error).
    """

    value: object
    grad_x: object
    grad_v: object
    hess_v: object = None

    def check_derivatives(self, x, v, step: float = 1e-6, rtol: float = 1e-5) -> bool:
        """Finite-difference consistency probe of both gradients."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        ok = True
        for idx in range(x.shape[-1]):
            e = np.zeros_like(x)
            e[..., idx] = step
            fd = (self.value(x + e, v) - self.value(x - e, v)) / (2 * step)
            an = np.asarray(self.grad_x(x, v))[..., idx]
            ok &= bool(np.all(np.abs(fd - an) <= rtol * (1.0 + np.abs(an))))
            fd = (self.value(x, v + e) - self.value(x, v - e)) / (2 * step)
            an = np.asarray(self.grad_v(x, v))[..., idx]
            ok &= bool(np.all(np.abs(fd - an) <= rtol * (1.0 + np.abs(an))))
        return ok


def lyapunov_test_function(lyap) -> TestFunction:
    """Wrap a Lyapunov weight as a TestFunction for the generator."""
    return TestFunction(
        value=lambda x, v: lyap.W(x, v),
        grad_x=lambda x, v: lyap.grad_x_W(x, v),
        grad_v=lambda x, v: lyap.grad_v_W(x, v),
        hess_v=lambda x, v: lyap.hess_v_W(x, v),
    )


# ---------------------------------------------------------------------------
# node tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureNodes:
    """Signed 1-d nodes ``u``, Lebesgue weights ``w``, and density values.

    ``sync_mask`` marks nodes outside the Taylor zone: the compensated
    integrand is only evaluated there, while ``inner_moment2`` carries the
    measure's second moment below ``rho_in`` for the analytic inner term.
    """

    u: np.ndarray          # (n,) signed positions
    w: np.ndarray          # (n,) panel weights
    dens: np.ndarray       # (n,) driving density at u
    sync_mask: np.ndarray  # (n,) bool: participates in compensated sums
    inner_moment2: float   # second moment of the measure below rho_in
    inner_moment3: float   # third absolute moment below rho_in (error term)
    tail_mass: float       # measure mass beyond rho_out
    rho_in: float
    rho_out: float

    @property
    def points(self) -> np.ndarray:
        return self.u[:, None]


def _side_support(measure) -> tuple[bool, float]:
    # (two_sided, positive support radius)
    if isinstance(measure, ms.SliceMeasure) and measure.dim == 1:
        return False, 1.0
    if isinstance(measure, ms.IsotropicStable):
        return True, math.inf
    if isinstance(measure, ms.SumMeasure):
        sides = [_side_support(p) for p in measure.parts]
        return any(s[0] for s in sides), max(s[1] for s in sides)
    raise NotImplementedError(f"node tables support 1-d measures, got {type(measure).__name__}")


def build_nodes_1d(measure, scheme: QuadratureScheme, breakpoints=()) -> MeasureNodes:
    """Panel Gauss-Legendre table for a one-dimensional jump measure."""
    if measure.dim != 1:
        raise NotImplementedError("operator quadrature implemented for dim == 1")
    two_sided, sup = _side_support(measure)
    hi = min(sup, scheme.rho_out)
    bp = sorted({abs(b) for b in breakpoints if scheme.node_floor < abs(b) < hi}
                | {scheme.rho_in} | ({1.0} if hi > 1.0 else set()))
    x, w = log_gauss_panels(scheme.node_floor, hi, scheme.panels_per_decade,
                            scheme.nodes_per_panel, breakpoints=bp)
    if two_sided:
        u = np.concatenate([-x[::-1], x])
        wts = np.concatenate([w[::-1], w])
    else:
        u, wts = x, w
    if u.size > scheme.max_nodes:
        raise QuadratureBudgetExceeded(f"{u.size} nodes exceed the budget {scheme.max_nodes}")
    dens = np.asarray(measure.density(u[:, None]), dtype=float)
    mask = np.abs(u) >= scheme.rho_in
    m2 = measure.second_moment_within(scheme.rho_in)
    # crude third-moment bound: m3 <= rho_in * m2
    m3 = scheme.rho_in * m2
    tail = measure.mass_above(scheme.rho_out) if math.isinf(sup) else 0.0
    return MeasureNodes(u, wts, dens, mask, m2, m3, tail, scheme.rho_in, hi)


# ---------------------------------------------------------------------------
# single-process generator
# ---------------------------------------------------------------------------


def apply_generator(system, levy_spec, f: TestFunction, x, v,
                    scheme: QuadratureScheme | None = None):
    """Evaluate the full generator on ``f`` at ``(x, v)``.

    ``x`` and ``v`` may carry leading axes (a whole grid in one call).
    Returns ``(value, error_bound)`` of shape ``x.shape[:-1]``, plain floats
    for one point, where the bound covers the dropped inner zone, the
    truncated tail, and accumulation noise.
    """
    scheme = scheme or QuadratureScheme()
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nodes = build_nodes_1d(levy_spec.measure, scheme)
    xdot = system.a * x + system.b * v
    u_force = np.asarray(system.force(x, v), dtype=float)
    val = (np.sum(np.asarray(f.grad_x(x, v)) * xdot, axis=-1)
           + np.sum(np.asarray(f.grad_v(x, v)) * u_force, axis=-1))
    jump, integrand, base, hess = _jump_sum(f, x, v, nodes)
    val, err = val + jump, _error_bound(nodes, integrand, base, hess)
    return (val, err) if val.ndim else (float(val), float(err))


def _jump_sum(f: TestFunction, x, v, nodes: MeasureNodes):
    # compensated velocity-jump integral of f, broadcast over leading axes;
    # returns (value, integrand on the sync nodes, f(x, v), velocity Hessian)
    mask = nodes.sync_mask
    um = nodes.u[mask]
    base = np.asarray(f.value(x, v), dtype=float)
    shifted_v = v[..., None, :] + nodes.points[mask]
    shifted = np.asarray(f.value(np.broadcast_to(x[..., None, :], shifted_v.shape), shifted_v),
                         dtype=float)
    gv = np.asarray(f.grad_v(x, v), dtype=float)[..., 0]
    comp = np.where(np.abs(um) <= 1.0, gv[..., None] * um, 0.0)
    integrand = shifted - base[..., None] - comp
    jump = np.sum(nodes.w[mask] * nodes.dens[mask] * integrand, axis=-1)
    hess = 0.0
    if f.hess_v is not None:
        hess = np.reshape(f.hess_v(x, v), x.shape[:-1])
        jump = jump + 0.5 * hess * nodes.inner_moment2
    return jump, integrand, base, hess


def _error_bound(nodes: MeasureNodes, sync_integrand: np.ndarray, scale, hess=0.0):
    # Taylor remainder in the inner zone, scaled by the local curvature drift;
    # broadcast over the leading axes of sync_integrand
    mask = nodes.sync_mask
    um = nodes.u[mask]
    small = np.argsort(np.abs(um))[:4]
    err_inner = 0.0
    if small.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = 2.0 * np.abs(sync_integrand[..., small]) / np.maximum(um[small] ** 2, 1e-300)
        curv = np.max(curv, axis=-1)
        err_inner = nodes.inner_moment2 * np.abs(curv - np.abs(hess))
        err_inner += nodes.inner_moment3 * curv
    err_tail = 0.0
    if nodes.tail_mass > 0:
        edge = np.argmax(np.abs(um))
        err_tail = nodes.tail_mass * np.abs(sync_integrand[..., edge])
    err_float = 1e-16 * (np.abs(scale) + 1.0) * float(np.sum(nodes.w[mask] * nodes.dens[mask]))
    return err_inner + err_tail + err_float


# ---------------------------------------------------------------------------
# pair observables
# ---------------------------------------------------------------------------


def _unit(vec: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(vec))
    return vec / n if n > _DEGENERATE_NORM else np.zeros_like(vec)


def _hess(f: TestFunction, x, v) -> float:
    # velocity Hessian of a 1-d test function at one point (0 without one)
    return 0.0 if f.hess_v is None else float(np.reshape(f.hess_v(x, v), ()))


@dataclass(frozen=True)
class ProfilePairFn:
    """Distance observable ``f(alpha0 |z| + |q|)`` for a concave profile.

    ``profile`` exposes ``value(s)`` and ``slope(s)`` (left derivative);
    gradients use the zero convention at degenerate norms.
    """

    profile: object
    alpha: float
    alpha0: float

    def value(self, pair: PairState):
        return self.profile.value(pair.r(self.alpha, self.alpha0))

    def grads(self, pair: PairState):
        fp = float(self.profile.slope(pair.r(self.alpha, self.alpha0)))
        qh = _unit(pair.q(self.alpha))
        gx = fp * (self.alpha0 * _unit(pair.z) + qh)
        gv = fp * qh / self.alpha
        return gx, gv, -gx, -gv

    def sync_hess(self, pair: PairState):
        # synchronous moves leave the pair distance invariant
        return 0.0


@dataclass(frozen=True)
class SeparablePairFn:
    """Separable observable ``offset + eps (f(x, v) + g(xp, vp))``.

    With ``f = g = lyapunov_test_function(lyap)`` and offset 1 it is the
    Lyapunov tilt ``1 + eps (W + W')``; with two velocity functions, eps 1
    and offset 0 it is the marginal identity's ``g(v) + h(vp)``.
    """

    f: TestFunction
    g: TestFunction
    eps: float = 1.0
    offset: float = 0.0

    def value(self, pair: PairState):
        return self.offset + self.eps * (self.f.value(pair.x, pair.v)
                                         + self.g.value(pair.xp, pair.vp))

    def grads(self, pair: PairState):
        f, g, eps = self.f, self.g, self.eps
        return (eps * f.grad_x(pair.x, pair.v), eps * f.grad_v(pair.x, pair.v),
                eps * g.grad_x(pair.xp, pair.vp), eps * g.grad_v(pair.xp, pair.vp))

    def sync_hess(self, pair: PairState):
        return self.eps * (_hess(self.f, pair.x, pair.v) + _hess(self.g, pair.xp, pair.vp))


@dataclass(frozen=True)
class ProductPairFn:
    """Pointwise product of two pair observables."""

    left: object
    right: object

    def value(self, pair):
        return self.left.value(pair) * self.right.value(pair)

    def grads(self, pair):
        lv, rv = self.left.value(pair), self.right.value(pair)
        return tuple(lv * rg + rv * lg
                     for lg, rg in zip(self.left.grads(pair), self.right.grads(pair)))

    def sync_hess(self, pair):
        lv, rv = self.left.value(pair), self.right.value(pair)
        _, lgv, _, lgvp = self.left.grads(pair)
        _, rgv, _, rgvp = self.right.grads(pair)
        return (lv * self.right.sync_hess(pair) + rv * self.left.sync_hess(pair)
                + 2.0 * float((lgv + lgvp)[0]) * float((rgv + rgvp)[0]))


# ---------------------------------------------------------------------------
# pair operator
# ---------------------------------------------------------------------------


def _branch_weights(levy_spec, shift: np.ndarray, u_pts: np.ndarray):
    s = float(np.linalg.norm(shift))
    if s <= _DEGENERATE_NORM:
        zeros = np.zeros(u_pts.shape[0])
        return zeros, zeros
    rho_minus = np.asarray(ms.overlap_ratio(levy_spec, -shift, u_pts), dtype=float)
    rho_plus = np.asarray(ms.overlap_ratio(levy_spec, shift, u_pts), dtype=float)
    return rho_minus, rho_plus


def _shifted(pair: PairState, dv: np.ndarray, dvp: np.ndarray) -> PairState:
    # the pair after velocity jumps dv and dvp, one row per jump
    return PairState(*np.broadcast_arrays(pair.x, pair.v + dv, pair.xp, pair.vp + dvp))


def _pair_nodes(pair: PairState, levy_spec, alpha: float, kappa: float,
                scheme: QuadratureScheme | None, nodes: MeasureNodes | None = None):
    # the coupling shift, its norm, and (unless given) a node table with
    # breakpoints where the shifted channels change shape
    shift = coupling_shift(pair, alpha, kappa)
    s = float(np.linalg.norm(shift))
    if nodes is None:
        bp = (s, 1.0 - s, 1.0 + s, abs(1.0 - s)) if s > _DEGENERATE_NORM else ()
        nodes = build_nodes_1d(levy_spec.measure, scheme or QuadratureScheme(), breakpoints=bp)
    return shift, s, nodes


def coupling_shift(pair: PairState, alpha: float, kappa: float) -> np.ndarray:
    """Displacement ``alpha (q)_kappa`` fed to the modified jump channels."""
    return alpha * ms.truncate(pair.q(alpha), kappa)


def apply_coupling_operator(fn, pair: PairState, system, levy_spec, alpha: float,
                            kappa: float, scheme: QuadratureScheme | None = None,
                            nodes: MeasureNodes | None = None,
                            drift_part: bool = True) -> tuple[float, float]:
    """Full pair operator on a pair observable: drift plus three jump channels.

    Returns ``(value, error_bound)``. Pass ``drift_part=False`` for the pure
    jump component (used by the marginal identity).
    """
    shift, s, nodes = _pair_nodes(pair, levy_spec, alpha, kappa, scheme, nodes)
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

    rho_minus, rho_plus = _branch_weights(levy_spec, shift, du)
    sync_w = 1.0 - 0.5 * rho_minus - 0.5 * rho_plus

    # synchronous channel: evaluated outside the Taylor zone, analytic inside
    sync_vals = fn.value(_shifted(pair, du[mask], du[mask])) - base
    sync_int = sync_vals - comp_both[mask]
    total = np.sum(nodes.w[mask] * nodes.dens[mask] * sync_w[mask] * sync_int)
    hess = float(fn.sync_hess(pair))
    total += 0.5 * hess * nodes.inner_moment2

    if s > _DEGENERATE_NORM:
        up, down = du + shift, du - shift
        plus_vals = fn.value(_shifted(pair, du, up)) - base
        ind_p = np.linalg.norm(up, axis=-1) <= 1.0
        plus_int = plus_vals - comp_v - np.where(ind_p, up @ gvp, 0.0)
        minus_vals = fn.value(_shifted(pair, du, down)) - base
        ind_m = np.linalg.norm(down, axis=-1) <= 1.0
        minus_int = minus_vals - comp_v - np.where(ind_m, down @ gvp, 0.0)
        total += np.sum(nodes.w * nodes.dens * 0.5 * rho_minus * plus_int)
        total += np.sum(nodes.w * nodes.dens * 0.5 * rho_plus * minus_int)
        err_mod = _modified_inner_error(levy_spec, s, nodes, plus_int, minus_int)
        # the analytic inner term ignores the thinning weight deficit there
        err_mod += 0.5 * abs(hess) * nodes.inner_moment2 * float(
            np.max((rho_minus + rho_plus)[~mask], initial=0.0))
    else:
        err_mod = 0.0

    err = _error_bound(nodes, sync_int, base, hess) + err_mod
    return val + float(total), err


def _modified_inner_error(levy_spec, s, nodes, plus_int, minus_int):
    # the modified channels keep O(1) integrands down to u = 0; bound the
    # contribution dropped below the node floor by sup-density x width x size
    sl = levy_spec.slice_part
    if sl.dim != 1:
        return 0.0
    sup_dens = sl.c * max(s, 1e-6) ** (-1.0 - sl.theta0)
    floor = float(np.min(np.abs(nodes.u)))
    small = np.argsort(np.abs(nodes.u))[:2]
    scale = max(float(np.max(np.abs(plus_int[small]))), float(np.max(np.abs(minus_int[small]))))
    return sup_dens * 2.0 * floor * scale


def coupling_profile_drift(profile, pair: PairState, system, levy_spec, alpha: float,
                           alpha0: float, kappa: float) -> float:
    """Closed form of the pair operator acting on the distance observable.

    Drift part through the left slope of the profile; jump part through the
    symmetric second difference of the profile times the overlap mass at the
    current displacement. Degenerate gaps use their one-sided limits, with
    the convention that a vanishing transformed gap disables the modified
    channel entirely.
    """
    z = pair.z
    w = pair.w
    q = pair.q(alpha)
    nz = float(np.linalg.norm(z))
    nq = float(np.linalg.norm(q))
    if nz <= _DEGENERATE_NORM and nq <= _DEGENERATE_NORM:
        return 0.0
    r = alpha0 * nz + nq
    fp = float(profile.slope(r))

    a, b = system.a, system.b
    zdot = a * z + b * w
    du = (np.asarray(system.force(pair.x, pair.v), dtype=float)
          - np.asarray(system.force(pair.xp, pair.vp), dtype=float))
    qdot = zdot + du / alpha

    if nz > _DEGENERATE_NORM:
        zterm = alpha0 * (a - b * alpha) * nz + (b * alpha * alpha0 / nz) * float(z @ q)
    else:
        zterm = alpha0 * float(np.linalg.norm(zdot))
    if nq > _DEGENERATE_NORM:
        qterm = float(q @ qdot) / nq
    else:
        qterm = float(np.linalg.norm(qdot))
    value = fp * (zterm + qterm)

    shift = alpha * ms.truncate(q, kappa)
    s = float(np.linalg.norm(shift))
    if s > _DEGENERATE_NORM:
        step = min(kappa, nq)
        second_diff = (float(profile.value(r + step)) + float(profile.value(r - step))
                       - 2.0 * float(profile.value(r)))
        mass = ms.overlap_mass(levy_spec.slice_part, shift)
        value += 0.5 * second_diff * mass
    return value


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def _velocity_fn(fn: dict) -> TestFunction:
    # a {"value", "grad", "hess"} dict of velocity functions as a TestFunction
    hess = fn.get("hess")
    return TestFunction(lambda x, v: fn["value"](v), lambda x, v: np.zeros_like(x),
                        lambda x, v: fn["grad"](v), None if hess is None else lambda x, v: hess(v))


def marginal_identity_residual(x, xp, g, h, v, vp, system, levy_spec, alpha: float,
                               kappa: float, scheme: QuadratureScheme | None = None) -> float:
    """Absolute gap between the pair jump operator on ``g(v) + h(vp)`` and the
    sum of single-process jump generators, on shared nodes."""
    pair = PairState(x, v, xp, vp)
    fn = SeparablePairFn(_velocity_fn(g), _velocity_fn(h))
    _, _, nodes = _pair_nodes(pair, levy_spec, alpha, kappa, scheme)
    lhs, _ = apply_coupling_operator(fn, pair, system, levy_spec, alpha, kappa,
                                     nodes=nodes, drift_part=False)
    rhs = (float(_jump_sum(fn.f, pair.x, pair.v, nodes)[0])
           + float(_jump_sum(fn.g, pair.xp, pair.vp, nodes)[0]))
    return abs(lhs - rhs)


def product_correction_term(pair: PairState, h_fn, g_fn, levy_spec, alpha: float,
                            kappa: float, scheme: QuadratureScheme | None = None,
                            nodes: MeasureNodes | None = None) -> float:
    """Cross term of the product rule: both channels of jump covariation."""
    shift, s, nodes = _pair_nodes(pair, levy_spec, alpha, kappa, scheme, nodes)
    if s <= _DEGENERATE_NORM:
        return 0.0
    du = nodes.points
    rho_minus, rho_plus = _branch_weights(levy_spec, shift, du)
    hb = h_fn.value(pair)
    gb = g_fn.value(pair)
    plus, minus = _shifted(pair, du, du + shift), _shifted(pair, du, du - shift)
    dh_p = h_fn.value(plus) - hb
    dg_p = g_fn.value(plus) - gb
    dh_m = h_fn.value(minus) - hb
    dg_m = g_fn.value(minus) - gb
    return float(np.sum(nodes.w * nodes.dens * 0.5 * (rho_minus * dh_p * dg_p
                                                      + rho_plus * dh_m * dg_m)))


def correction_bound(pair: PairState, h_fn, lyap, eps: float, c_star: float,
                     eta: float) -> float:
    """Two-sided envelope for the product-rule cross term."""
    h = h_fn.value(pair)
    return (2.0 * c_star * eps * h
            * (float(lyap.W(pair.x, pair.v)) ** eta + float(lyap.W(pair.xp, pair.vp)) ** eta))


def product_rule_residual(pair: PairState, h_fn, g_fn, system, levy_spec, alpha: float,
                          kappa: float, scheme: QuadratureScheme | None = None) -> float:
    """Relative gap of ``L(HG) = H LG + G LH + Pi`` on shared nodes."""
    _, _, nodes = _pair_nodes(pair, levy_spec, alpha, kappa, scheme)
    lhs, _ = apply_coupling_operator(ProductPairFn(h_fn, g_fn), pair, system, levy_spec,
                                     alpha, kappa, nodes=nodes)
    lh, _ = apply_coupling_operator(h_fn, pair, system, levy_spec, alpha, kappa, nodes=nodes)
    lg, _ = apply_coupling_operator(g_fn, pair, system, levy_spec, alpha, kappa, nodes=nodes)
    pi = product_correction_term(pair, h_fn, g_fn, levy_spec, alpha, kappa, nodes=nodes)
    rhs = h_fn.value(pair) * lg + g_fn.value(pair) * lh + pi
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class ContractionCheck:
    lhs: float
    rhs: float
    quad_error: float
    slack: float
    passed: bool

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "quad_error": self.quad_error,
                "slack": self.slack, "passed": self.passed}


def contraction_inequality_check(pair: PairState, hhat_fn, g_fn, rate: float, system,
                                 levy_spec, alpha: float, kappa: float,
                                 scheme: QuadratureScheme | None = None) -> ContractionCheck:
    """Spot check ``L(HG) <= -rate * HG`` with quadrature error and 5% slack.

    Constants are inputs; a failure is reported, not raised.
    """
    prod = ProductPairFn(hhat_fn, g_fn)
    lhs, err = apply_coupling_operator(prod, pair, system, levy_spec, alpha, kappa, scheme)
    rhs = -rate * prod.value(pair)
    slack = 0.05 * max(abs(lhs), abs(rhs))
    passed = lhs <= rhs + err + slack + 1e-30
    return ContractionCheck(float(lhs), float(rhs), float(err), float(slack), bool(passed))
