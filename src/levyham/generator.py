"""Numerical application of the jump generators and operator-identity checks.

The single-process generator combines the deterministic drift with a
compensated jump integral in the velocity. The pair operator routes each
jump through three channels: a synchronous copy, and two modified channels
where the second velocity is displaced by ``+/- alpha (q)_kappa`` with
thinning probabilities read off the overlap density ratio.

Every evaluator takes arrays of shape ``(..., d)`` and returns results over
the same leading axes; one point is the 0-d case. The two operators,
``apply_generator`` and ``apply_coupling_operator``, return the quadrature
value only; an error bar would come from comparing two schemes (for
example, doubled ``panels_per_decade``). A ``TestFunction``
carries ``value``, ``grad_x``, ``grad_v`` and the required ``hess_v``. The
pair operator acts on pair observables with three methods, all of which
broadcast over leading axes: ``value(pair)``, ``grads(pair)`` (the tuple
``(d/dx, d/dv, d/dxp, d/dvp)``) and ``sync_hess(pair)``, the second
derivative along the synchronous move ``(v, vp) -> (v + u, vp + u)``. Three
observables implement it: the distance ``ProfilePairFn``, the separable
``SeparablePairFn`` (the Lyapunov tilt, and the marginal identity's
``g(v) + h(vp)``) and ``ProductPairFn``. ``pair_quadrature`` takes a
``PairState`` with leading axes and builds, once, the half of the operator
that no observable enters: the node rows, the coupling shifts, the
thinning weights and the drift. Each state keeps its own node table, with
breakpoints at its coupling shift, padded into rows of one length. The
operator and the identity checks take that ``PairQuadrature`` and evaluate
every state in one call.

Identity checks (marginal consistency, product rule) evaluate both sides on
one shared quadrature so the residual isolates algebra rather than
quadrature; cross-validation of the closed-form profile drift uses genuinely
different evaluation points and is the real discretisation test.

Node tables are one-dimensional: the operator quadrature targets the
scalar benchmark models. The measure layer and single-process simulation
are dimension-generic; coupled pair simulation is one-dimensional.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import QuadratureBudgetExceeded
from .pair import DEGENERATE_GAP, PairState, row_norm
from .quadtools import log_gauss_panels

__all__ = [
    "QuadratureScheme",
    "TestFunction",
    "MeasureNodes",
    "build_nodes_1d",
    "apply_generator",
    "lyapunov_test_function",
    "velocity_bump",
    "ProfilePairFn",
    "SeparablePairFn",
    "ProductPairFn",
    "PairQuadrature",
    "pair_quadrature",
    "apply_coupling_operator",
    "coupling_profile_drift",
    "marginal_identity_residual",
    "product_rule_residual",
    "product_correction_term",
    "correction_bound",
    "contraction_inequality_check",
    "ContractionCheck",
]

# smallest node radius of every table, and the largest table a scheme may build
NODE_FLOOR = 1e-9
MAX_NODES = 40_000


@dataclass(frozen=True)
class QuadratureScheme:
    """Node-table layout for the jump integrals.

    Below ``rho_in`` the compensated (synchronous) integrand is replaced by
    its second-order Taylor value against the closed-form inner second
    moment; evaluating it numerically there would drown in float
    cancellation against the singular density. The modified jump channels
    have bounded effective densities and are integrated on nodes all the way
    down to ``NODE_FLOOR``. ``rho_out`` truncates unbounded supports, and the
    mass beyond it is neglected. Each table has ``panels_per_decade`` log
    panels per decade of ``nodes_per_panel`` Gauss-Legendre nodes, at most
    ``MAX_NODES`` in all.
    """

    rho_in: float = 1e-6
    rho_out: float = 1e6
    panels_per_decade: int = 4
    nodes_per_panel: int = 12


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable with the derivatives the generator needs.

    ``value(x, v)``, ``grad_x``, ``grad_v`` and ``hess_v`` broadcast over
    leading axes, so the generator takes a whole grid in one call. ``hess_v``
    (any shape that reshapes to ``x.shape[:-1]`` in d = 1) feeds the analytic
    inner-zone term.
    """

    value: object
    grad_x: object
    grad_v: object
    hess_v: object


def lyapunov_test_function(lyap) -> TestFunction:
    """The Lyapunov weight ``W`` and its derivatives as a TestFunction for the generator."""
    return TestFunction(lyap.W, lyap.grad_x_W, lyap.grad_v_W, lyap.hess_v_W)


def velocity_bump(c) -> TestFunction:
    """The velocity bump ``exp(-|v - c|^2)`` in d = 1. An array of centres
    gives each state along the leading axes of ``v`` its own centre."""
    c = np.asarray(c, dtype=float)

    def gap(v):
        return v - c.reshape(c.shape + (1,) * (np.ndim(v) - c.ndim))

    def value(x, v):
        return np.exp(-np.sum(gap(v) ** 2, axis=-1))

    return TestFunction(value, lambda x, v: np.zeros_like(x),
                        lambda x, v: -2.0 * gap(v) * value(x, v)[..., None],
                        lambda x, v: (-2.0 + 4.0 * gap(v)[..., 0] ** 2) * value(x, v))


# ---------------------------------------------------------------------------
# node tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureNodes:
    """Signed 1-d nodes ``u``, Lebesgue weights ``w``, and density values.

    ``sync_mask`` marks nodes outside the Taylor zone: the compensated
    integrand is only counted there, while ``inner_moment2`` carries the
    measure's second moment below ``rho_in`` for the analytic inner term.
    The modified channels run over every node. A stacked table
    (``pair_quadrature``) has one row per pair state.
    """

    u: np.ndarray          # (..., n) signed positions
    w: np.ndarray          # (..., n) panel weights
    dens: np.ndarray       # (..., n) driving density at u
    sync_mask: np.ndarray  # (..., n) bool: participates in compensated sums
    inner_moment2: float   # second moment of the measure below rho_in

    @property
    def points(self) -> np.ndarray:
        return self.u[..., None]


def build_nodes_1d(measure, scheme: QuadratureScheme, breakpoints=()) -> MeasureNodes:
    """Panel Gauss-Legendre table for a one-dimensional jump measure: the
    slice on ``(0, 1]``, a stable measure on both sides out to ``rho_out``."""
    if measure.dim != 1:
        raise NotImplementedError("operator quadrature implemented for dim == 1")
    two_sided = isinstance(measure, ms.IsotropicStable)
    hi = min(measure.support_radius(), scheme.rho_out)
    bp = sorted({abs(b) for b in breakpoints if NODE_FLOOR < abs(b) < hi}
                | {scheme.rho_in} | ({1.0} if hi > 1.0 else set()))
    x, w = log_gauss_panels(NODE_FLOOR, hi, scheme.panels_per_decade,
                            scheme.nodes_per_panel, breakpoints=bp)
    if two_sided:
        u = np.concatenate([-x[::-1], x])
        wts = np.concatenate([w[::-1], w])
    else:
        u, wts = x, w
    if u.size > MAX_NODES:
        raise QuadratureBudgetExceeded(f"{u.size} nodes exceed the budget {MAX_NODES}")
    dens = np.asarray(measure.density(u[:, None]), dtype=float)
    mask = np.abs(u) >= scheme.rho_in
    return MeasureNodes(u, wts, dens, mask, measure.second_moment_within(scheme.rho_in))


# ---------------------------------------------------------------------------
# single-process generator
# ---------------------------------------------------------------------------


def apply_generator(system, levy_spec, f: TestFunction, x, v,
                    scheme: QuadratureScheme | None = None):
    """Evaluate the full generator on ``f`` at ``(x, v)``: the drift part
    plus the compensated velocity-jump integral.

    ``x`` and ``v`` may carry leading axes (a whole grid in one call); the
    value has shape ``x.shape[:-1]``.
    """
    scheme = scheme or QuadratureScheme()
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nodes = build_nodes_1d(levy_spec.measure, scheme)
    xdot = system.a * x + system.b * v
    u_force = np.asarray(system.force(x, v), dtype=float)
    val = (np.sum(np.asarray(f.grad_x(x, v)) * xdot, axis=-1)
           + np.sum(np.asarray(f.grad_v(x, v)) * u_force, axis=-1))
    return val + _jump_sum(f, x, v, nodes)


def _jump_sum(f: TestFunction, x, v, nodes: MeasureNodes):
    # compensated velocity-jump integral of f, broadcast over leading axes (a
    # stacked table's rows over the states). The position keeps a length-1
    # node axis, so terms of x alone run once per state; a value without the
    # node axis (a function of x alone) is broadcast by the subtraction below
    um, wd = _sync_nodes(nodes)
    base = np.asarray(f.value(x, v), dtype=float)
    shifted = np.asarray(f.value(x[..., None, :], v[..., None, :] + um[..., None]), dtype=float)
    gv = np.asarray(f.grad_v(x, v), dtype=float)[..., 0]
    comp = np.where(np.abs(um) <= 1.0, gv[..., None] * um, 0.0)
    jump = np.sum(wd * (shifted - base[..., None] - comp), axis=-1)
    return jump + 0.5 * _hess(f, x, v) * nodes.inner_moment2


def _sync_nodes(nodes: MeasureNodes):
    # the nodes a compensated integrand runs over: positions and weight x
    # density (zero off the sync mask). A 1-d table keeps only the masked
    # nodes; a stacked table keeps every node, so rows stay aligned
    mask = nodes.sync_mask
    if nodes.u.ndim == 1:
        return nodes.u[mask], (nodes.w * nodes.dens)[mask]
    return nodes.u, np.where(mask, nodes.w * nodes.dens, 0.0)


def _hess(f: TestFunction, x, v):
    # velocity Hessian of a 1-d test function over the leading axes
    return np.reshape(f.hess_v(x, v), np.shape(x)[:-1])


# ---------------------------------------------------------------------------
# pair observables
# ---------------------------------------------------------------------------


def _unit(vec: np.ndarray) -> np.ndarray:
    # vec / |vec| over the leading axes, zero at degenerate norms
    n = row_norm(vec, keepdims=True)
    return np.divide(vec, n, out=np.zeros_like(vec), where=n > DEGENERATE_GAP)


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
        fp = np.asarray(self.profile.slope(pair.r(self.alpha, self.alpha0)))[..., None]
        qh = _unit(pair.q(self.alpha))
        gx = fp * (self.alpha0 * _unit(pair.z) + qh)
        gv = fp * qh / self.alpha
        return gx, gv, -gx, -gv

    def sync_hess(self, pair: PairState):
        # synchronous moves leave the pair distance invariant
        return np.zeros(pair.x.shape[:-1])[()]


@dataclass(frozen=True)
class SeparablePairFn:
    """Separable observable ``offset + eps (f(x, v) + g(xp, vp))``.

    With ``f = g = lyapunov_test_function(lyap)``, which holds the weight's
    own ``W``, ``grad_x_W``, ``grad_v_W`` and ``hess_v_W``, and offset 1 it is
    the Lyapunov tilt ``1 + eps (W + W')``; with two velocity functions, eps 1
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
        return _local(self, pair)[1]

    def sync_hess(self, pair):
        return _local(self, pair)[2]


def _local(fn, pair):
    # fn's value, grads and sync_hess at the states; a product evaluates each
    # factor once
    if isinstance(fn, ProductPairFn):
        return _product_local(_local(fn.left, pair), _local(fn.right, pair))
    return fn.value(pair), fn.grads(pair), fn.sync_hess(pair)


def _product_local(left, right):
    # the product's value, grads and sync_hess from its factors' own
    (lv, lg, lh), (rv, rg, rh) = left, right
    lvx, rvx = np.asarray(lv)[..., None], np.asarray(rv)[..., None]
    return (lv * rv, tuple(lvx * r + rvx * l for l, r in zip(lg, rg)),
            lv * rh + rv * lh + 2.0 * (lg[1] + lg[3])[..., 0] * (rg[1] + rg[3])[..., 0])


# ---------------------------------------------------------------------------
# pair operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairQuadrature:
    """The part of the pair operator that does not depend on the observable.

    Built by ``pair_quadrature`` for one stack of states and applied to any
    number of observables. ``pair`` holds the states as one ``(S, d)``
    stack, their leading axes flattened in C order; ``lead`` is that leading
    shape, which every result takes back (0-d for one state). ``nodes`` has
    one padded row per state. The thinning weights ``rho(-shift, u)`` and
    ``rho(shift, u)`` of the two modified channels are zero at states that
    are not ``live`` (a degenerate gap).
    """

    pair: PairState
    lead: tuple
    nodes: MeasureNodes
    shift: np.ndarray      # (S, d) coupling shift alpha (q)_kappa
    live: np.ndarray       # (S,) bool: the gap |q| is not degenerate
    rho_minus: np.ndarray  # (S, n) rho(-shift, u)
    rho_plus: np.ndarray   # (S, n) rho(shift, u)
    xdot: np.ndarray       # (S, d) position velocities of both copies
    xpdot: np.ndarray
    force: np.ndarray      # (S, d) forces on both copies
    force_p: np.ndarray

    def shaped(self, a):
        # a value over the stack, reshaped to the leading shape of the states
        return np.reshape(a, self.lead)[()]


def _shifted(pair: PairState, dv: np.ndarray, dvp: np.ndarray) -> PairState:
    # the (S, d) pair after velocity jumps dv and dvp, one (n, d) row per state
    return PairState(*np.broadcast_arrays(pair.x[:, None], pair.v[:, None] + dv,
                                          pair.xp[:, None], pair.vp[:, None] + dvp))


def pair_quadrature(pair: PairState, system, levy_spec, alpha: float, kappa: float,
                    scheme: QuadratureScheme | None = None) -> PairQuadrature:
    """The pair operator's quadrature at every state of ``pair``.

    Each state gets the 1-d table with breakpoints where its shifted channels
    change shape (none at a degenerate gap, where every jump is synchronous).
    States with equal breakpoints share one build, as do most states with
    ``|q| >= kappa``: their shifts are ``alpha kappa`` up to rounding.
    Shorter rows are padded by repeating their last node with weight zero,
    so a pad adds nothing to any sum.
    """
    lead = pair.x.shape[:-1]
    pair = PairState(*(a.reshape(-1, pair.dim) for a in (pair.x, pair.v, pair.xp, pair.vp)))
    scheme = scheme or QuadratureScheme()
    shift = coupling_shift(pair, alpha, kappa)
    live = ~(row_norm(pair.q(alpha)) <= DEGENERATE_GAP)
    users = {}  # breakpoints -> the states whose table they make
    for i, (s, on) in enumerate(zip(row_norm(shift).tolist(), live.tolist())):
        users.setdefault((s, 1.0 - s, 1.0 + s, abs(1.0 - s)) if on else (), []).append(i)
    built = {bp: build_nodes_1d(levy_spec.measure, scheme, breakpoints=bp) for bp in users}
    n = max(t.u.size for t in built.values())
    u, w, dens, mask = (np.empty((len(live), n), dtype=t) for t in (float, float, float, bool))
    for bp, t in built.items():
        rows, k = users[bp], t.u.size
        for table, row, pad in ((u, t.u, t.u[-1]), (w, t.w, 0.0), (dens, t.dens, t.dens[-1]),
                                (mask, t.sync_mask, t.sync_mask[-1])):
            table[rows, :k] = row
            table[rows, k:] = pad
    nodes = dataclasses.replace(next(iter(built.values())), u=u, w=w, dens=dens, sync_mask=mask)
    rho_minus = rho_plus = np.zeros(u.shape)
    if live.any():
        s, on = shift[:, None, :], live[:, None]
        rho_minus = np.where(on, ms.overlap_ratio(levy_spec, -s, nodes.points), 0.0)
        rho_plus = np.where(on, ms.overlap_ratio(levy_spec, s, nodes.points), 0.0)
    return PairQuadrature(pair, lead, nodes, shift, live, rho_minus, rho_plus,
                          system.a * pair.x + system.b * pair.v,
                          system.a * pair.xp + system.b * pair.vp,
                          np.asarray(system.force(pair.x, pair.v), dtype=float),
                          np.asarray(system.force(pair.xp, pair.vp), dtype=float))


def coupling_shift(pair: PairState, alpha: float, kappa: float) -> np.ndarray:
    """Displacement ``alpha (q)_kappa`` fed to the modified jump channels."""
    return alpha * ms.truncate(pair.q(alpha), kappa)


def _jumped_values(fns, quad: PairQuadrature, signs) -> list:
    # each observable's values on the (S, n) stack of jumped states of each
    # channel in ``signs``: 0 the synchronous one, +1 and -1 the modified ones
    # whose second velocity jumps by u +/- the coupling shift
    du, vals = quad.nodes.points, [[] for _ in fns]
    for sign in signs:
        dvp = du if sign == 0 else du + quad.shift[:, None] if sign > 0 else du - quad.shift[:, None]
        states = _shifted(quad.pair, du, dvp)
        for out, fn in zip(vals, fns):
            out.append(fn.value(states))
        del states  # so one channel's stack lives at a time
    return vals


def apply_coupling_operator(fn, quad: PairQuadrature, drift_part: bool = True):
    """Full pair operator on a pair observable: drift plus three jump channels.

    Returns the value at every state of ``quad``, over their leading axes.
    Pass ``drift_part=False`` for the pure jump component (used by the
    marginal identity).
    """
    (jumped,) = _jumped_values((fn,), quad, (0, 1, -1) if quad.live.any() else (0,))
    return _coupling_operator(quad, _local(fn, quad.pair), jumped.__getitem__, drift_part)


def _coupling_operator(quad: PairQuadrature, local, jumped, drift_part: bool = True):
    # the operator from an observable's ``local`` value, grads and sync_hess at
    # the states and ``jumped(k)``, its values on the synchronous (0), +shift
    # (1) and -shift (2) stacks; 1 and 2 are read only if a state is live
    nodes = quad.nodes
    value, grads, hess = local
    base = np.asarray(value, dtype=float)[:, None]
    gx, gv, gxp, gvp = (np.asarray(g, dtype=float) for g in grads)
    val = 0.0
    if drift_part:
        val = (np.sum(gx * quad.xdot, axis=-1) + np.sum(gxp * quad.xpdot, axis=-1)
               + np.sum(gv * quad.force, axis=-1) + np.sum(gvp * quad.force_p, axis=-1))

    du = nodes.points
    wd = nodes.w * nodes.dens
    ind = np.abs(nodes.u) <= 1.0
    comp_v = np.where(ind, nodes.u * gv[:, :1], 0.0)
    comp_both = comp_v + np.where(ind, nodes.u * gvp[:, :1], 0.0)
    sync_w = 1.0 - 0.5 * quad.rho_minus - 0.5 * quad.rho_plus

    # synchronous channel: counted outside the Taylor zone, analytic inside
    sync_int = jumped(0) - base - comp_both
    total = np.sum(_sync_nodes(nodes)[1] * sync_w * sync_int, axis=-1)
    total += 0.5 * np.asarray(hess, dtype=float) * nodes.inner_moment2

    if quad.live.any():
        up, down = du + quad.shift[:, None], du - quad.shift[:, None]
        plus_int = (jumped(1) - base - comp_v - np.where(
            row_norm(up) <= 1.0, np.sum(up * gvp[:, None], axis=-1), 0.0))
        minus_int = (jumped(2) - base - comp_v - np.where(
            row_norm(down) <= 1.0, np.sum(down * gvp[:, None], axis=-1), 0.0))
        total += np.sum(wd * 0.5 * quad.rho_minus * plus_int, axis=-1)
        total += np.sum(wd * 0.5 * quad.rho_plus * minus_int, axis=-1)
    return quad.shaped(val + total)


def coupling_profile_drift(profile, pair: PairState, system, levy_spec, alpha: float,
                           alpha0: float, kappa: float) -> float:
    """Closed form of the pair operator acting on the distance observable.

    Drift part through the left slope of the profile; jump part through the
    symmetric second difference of the profile times the overlap mass at the
    current displacement. Degenerate gaps use their one-sided limits, with
    the convention that a degenerate transformed gap (``|q| <= DEGENERATE_GAP``)
    disables the modified channels entirely.
    """
    z = pair.z
    w = pair.w
    q = pair.q(alpha)
    nz = float(np.linalg.norm(z))
    nq = float(np.linalg.norm(q))
    if nz <= DEGENERATE_GAP and nq <= DEGENERATE_GAP:
        return 0.0
    r = alpha0 * nz + nq
    fp = float(profile.slope(r))

    a, b = system.a, system.b
    zdot = a * z + b * w
    du = (np.asarray(system.force(pair.x, pair.v), dtype=float)
          - np.asarray(system.force(pair.xp, pair.vp), dtype=float))
    qdot = zdot + du / alpha

    if nz > DEGENERATE_GAP:
        zterm = alpha0 * (a - b * alpha) * nz + (b * alpha * alpha0 / nz) * float(z @ q)
    else:
        zterm = alpha0 * float(np.linalg.norm(zdot))
    if nq <= DEGENERATE_GAP:
        return fp * (zterm + float(np.linalg.norm(qdot)))
    value = fp * (zterm + float(q @ qdot) / nq)

    step = min(kappa, nq)
    second_diff = (float(profile.value(r + step)) + float(profile.value(r - step))
                   - 2.0 * float(profile.value(r)))
    mass = ms.overlap_mass(levy_spec.slice_part, alpha * ms.truncate(q, kappa))
    return value + 0.5 * second_diff * mass


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def marginal_identity_residual(g: TestFunction, h: TestFunction, quad: PairQuadrature):
    """Absolute gap between the pair jump operator on ``g(x, v) + h(xp, vp)``
    and the sum of single-process jump generators, on shared nodes, at every
    state of ``quad``."""
    pair, nodes = quad.pair, quad.nodes
    lhs = apply_coupling_operator(SeparablePairFn(g, h), quad, drift_part=False)
    rhs = _jump_sum(g, pair.x, pair.v, nodes) + _jump_sum(h, pair.xp, pair.vp, nodes)
    return np.abs(lhs - quad.shaped(rhs))


def product_correction_term(h_fn, g_fn, quad: PairQuadrature):
    """Cross term of the product rule: both channels of jump covariation, at
    every state of ``quad`` (zero at a degenerate gap)."""
    return _correction_term(quad, h_fn.value(quad.pair), g_fn.value(quad.pair),
                            *_jumped_values((h_fn, g_fn), quad, (1, -1)))


def _correction_term(quad: PairQuadrature, h, g, hs, gs):
    # the cross term from the values of h and g at the states and on the
    # +shift and -shift stacks
    nodes = quad.nodes
    hb = np.asarray(h, dtype=float)[:, None]
    gb = np.asarray(g, dtype=float)[:, None]
    dh_p = hs[0] - hb
    dg_p = gs[0] - gb
    dh_m = hs[1] - hb
    dg_m = gs[1] - gb
    pi = np.sum(nodes.w * nodes.dens * 0.5 * (quad.rho_minus * dh_p * dg_p
                                              + quad.rho_plus * dh_m * dg_m), axis=-1)
    return quad.shaped(pi)


def correction_bound(pair: PairState, h_fn, lyap, eps: float, c_star: float):
    """Two-sided envelope ``2 c_star eps H (W^(1/2) + W'^(1/2))`` for the
    product-rule cross term, over the leading axes of ``pair``; ``c_star`` is
    the jump-regularity constant of ``verify_jump_regularity``."""
    return (2.0 * c_star * eps * h_fn.value(pair)
            * (np.sqrt(lyap.W(pair.x, pair.v)) + np.sqrt(lyap.W(pair.xp, pair.vp))))


def product_rule_residual(h_fn, g_fn, quad: PairQuadrature):
    """Relative gap of ``L(HG) = H LG + G LH + Pi`` on shared nodes, at every
    state of ``quad``; ``H`` and ``G`` are evaluated once at the states and
    once on each channel's stack of jumped states, and all four terms are
    formed from those values."""
    hl, gl = _local(h_fn, quad.pair), _local(g_fn, quad.pair)
    hs, gs = _jumped_values((h_fn, g_fn), quad, (0, 1, -1))
    # HG's values are formed per channel as the operator reads them, not held all at once
    lhs = _coupling_operator(quad, _product_local(hl, gl), lambda k: hs[k] * gs[k])
    lh = _coupling_operator(quad, hl, hs.__getitem__)
    lg = _coupling_operator(quad, gl, gs.__getitem__)
    pi = _correction_term(quad, hl[0], gl[0], hs[1:], gs[1:])
    rhs = quad.shaped(hl[0]) * lg + quad.shaped(gl[0]) * lh + pi
    return np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)


@dataclass(frozen=True)
class ContractionCheck:
    """Both sides of ``L(HG) <= -rate HG``, the 5% slack and the verdict,
    each over the leading axes of the checked states."""

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    passed: np.ndarray


def contraction_inequality_check(hhat_fn, g_fn, rate: float,
                                 quad: PairQuadrature) -> ContractionCheck:
    """Spot check ``L(HG) <= -rate * HG`` with 5% slack at every state of
    ``quad``, in one operator call.

    The slack is 5% of the larger side; no quadrature error enters, as the
    operator returns values only. Constants are inputs; a failure is
    reported, not raised.
    """
    prod = ProductPairFn(hhat_fn, g_fn)
    local = _local(prod, quad.pair)  # H and G once at the states, for both sides
    (jumped,) = _jumped_values((prod,), quad, (0, 1, -1) if quad.live.any() else (0,))
    lhs = _coupling_operator(quad, local, jumped.__getitem__)
    rhs = -rate * quad.shaped(local[0])
    slack = 0.05 * np.maximum(np.abs(lhs), np.abs(rhs))
    return ContractionCheck(lhs, rhs, slack, lhs <= rhs + slack + 1e-30)
