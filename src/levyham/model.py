"""The system specification, potentials, certificates, and drift verifiers.

The dynamics are the degenerate pair

    dX = (a X + b V) dt
    dV = U(X, V) dt + dL

with noise entering the velocity only. ``KineticLangevinSpec`` is the system:
the damped-gradient case ``U(x, v) = -alpha_damp v - beta grad U0(x)``
(kinetic Langevin dynamics), ``(a, b)`` included, and the one object the
simulation, the verifiers and the constant chain read. Superquadratic
double-well potentials are supported through a certificate of inner-product
growth fitted on a radial grid.

Grid verification is a numeric certificate, not a proof: the inequalities
are checked on balls of configurable radius, and fitted constants carry a
10% inflation so they survive grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyWindow,
    GrowthTestFailed,
    InvalidCross,
    MomentFailure,
    NonFiniteForce,
)
from .measures import SliceMeasure
from .quadtools import log_gauss_panels

__all__ = [
    "DoubleWellPoly",
    "DoubleWellExp",
    "Quadratic",
    "KineticLangevinSpec",
    "PotentialCertificate",
    "CertificateReport",
    "PositionWeight",
    "LyapunovSpec",
    "drift",
    "verify_certificate",
    "auto_certificate",
    "certificate_with_fallback",
    "LyapunovSetup",
    "build_lyapunov",
    "gamma_drift",
    "choose_quadratic_form",
    "verify_gamma_drift",
    "verify_jump_regularity",
    "ball_grid",
    "grid_pairs",
]


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleWellPoly:
    """``c1 (1 + |x|^2)^l - c2 |x|^2`` with ``l > 1``: superquadratic growth."""

    c1: float
    c2: float
    l: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = np.add.reduce(x * x, axis=-1)
        return self.c1 * (1.0 + s) ** self.l - self.c2 * s

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        # |x|^2 on a kept trailing axis: one component's square is its own sum
        s = x * x if x.shape[-1] == 1 else np.add.reduce(x * x, axis=-1, keepdims=True)
        # at l = 2 the power is ** 1.0, which returns its base bit for bit
        growth = 1.0 + s if self.l == 2.0 else (1.0 + s) ** (self.l - 1.0)
        return (2.0 * self.c1 * self.l * growth - 2.0 * self.c2) * x


@dataclass(frozen=True)
class DoubleWellExp:
    """``c1 exp((1 + |x|^2)^l) - c2 |x|^2`` with ``l > 0``."""

    c1: float
    c2: float
    l: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = np.add.reduce(x * x, axis=-1)
        return self.c1 * np.exp((1.0 + s) ** self.l) - self.c2 * s

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        s = x * x if x.shape[-1] == 1 else np.add.reduce(x * x, axis=-1, keepdims=True)
        p = (1.0 + s) ** self.l
        return (2.0 * self.c1 * self.l * np.exp(p) * (1.0 + s) ** (self.l - 1.0)
                - 2.0 * self.c2) * x


@dataclass(frozen=True)
class Quadratic:
    """``k |x|^2 / 2``."""

    k: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.k * np.add.reduce(x * x, axis=-1)

    def grad(self, x):
        return self.k * np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KineticLangevinSpec:
    """The damped-gradient system: ``U(x, v) = -alpha_damp v - beta grad U0(x)``
    and the coefficients ``a >= 0``, ``b > 0`` of ``dX = (a X + b V) dt``.

    ``force`` maps position and velocity arrays of shape ``(..., dim)`` to the
    force at every leading index. The simulation and the drift verifiers read
    only ``a``, ``b``, ``force`` and ``dim``.
    """

    alpha_damp: float
    beta: float
    potential: object
    dim: int = 1
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.alpha_damp < 0 or self.beta < 0:
            raise ValueError("alpha_damp and beta must be non-negative")
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.a < 0:
            raise ValueError(f"a must be non-negative, got {self.a}")

    def force(self, x, v):
        return -self.alpha_damp * np.asarray(v, dtype=float) - self.beta * self.potential.grad(x)


def drift(spec: KineticLangevinSpec, x, v):
    """Deterministic drift ``(a x + b v, U(x, v))``; a force that is not finite
    (overflow included) raises NonFiniteForce naming its first such point."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(spec.force(x, v), dtype=float)
    bad = ~np.isfinite(u)
    if bad.any():
        k = tuple(np.argwhere(bad)[0][:-1])
        raise NonFiniteForce(f"force not finite at x={np.broadcast_to(x, u.shape)[k]}, "
                             f"v={np.broadcast_to(v, u.shape)[k]}")
    return spec.a * x + spec.b * v, u


# ---------------------------------------------------------------------------
# potential certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialCertificate:
    """Constants of the two potential inequalities.

    ``<x, grad U0(x)> >= lam1 |x|^2 + lam2 U0(x) - lam3`` and
    ``U0(x) >= -lam4 |x|^2 - lam5``, together with the damping compatibility
    condition ``lam2 lam4 < lam1`` and
    ``2 beta lam4 <= alpha^2/4 + sqrt(beta (lam1 - lam2 lam4)) alpha``.
    """

    lam1: float
    lam2: float = 0.0
    lam3: float = 0.0
    lam4: float = 0.0
    lam5: float = 0.0

    def __post_init__(self):
        if self.lam1 <= 0:
            raise ValueError("lam1 must be positive")
        if min(self.lam2, self.lam3, self.lam4, self.lam5) < 0:
            raise ValueError("lam2..lam5 must be non-negative")

    def damping_margin(self, alpha_damp: float, beta: float) -> float:
        """Slack of the compatibility condition (non-negative means satisfied)."""
        lam_eff = self.lam1 - self.lam2 * self.lam4
        if lam_eff <= 0:
            return -math.inf
        return (alpha_damp ** 2 / 4.0
                + math.sqrt(beta * lam_eff) * alpha_damp
                - 2.0 * beta * self.lam4)


@dataclass(frozen=True)
class CertificateReport:
    growth_slack: float
    lower_slack: float
    product_ok: bool
    damping_margin: float | None
    passed: bool


def grid_pairs(radius: float, n: int, dim: int, include_origin: bool):
    """Every pair ``(x, v)`` of ``ball_grid`` points, as two arrays of shape ``(m, m, dim)``."""
    pts = ball_grid(radius, n, dim, include_origin)
    return np.broadcast_arrays(pts[:, None, :], pts[None, :, :])


def ball_grid(radius: float, n: int, dim: int, include_origin: bool = False) -> np.ndarray:
    """Deterministic point grid covering the ball of the given radius.

    dim = 1 uses a symmetric linspace; higher dimensions combine a radius
    ladder with a fixed low-discrepancy direction set.
    """
    if dim == 1:
        pts = np.linspace(-radius, radius, n)[:, None]
        if not include_origin:
            pts = pts[np.abs(pts[:, 0]) > 1e-12]
        return pts
    rng = np.random.default_rng(90210)
    n_dirs = max(4 * dim, 16)
    g = rng.standard_normal((n_dirs, dim))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    radii = np.linspace(radius / n, radius, n)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    if include_origin:
        pts = np.vstack([np.zeros((1, dim)), pts])
    return pts


def verify_certificate(potential, cert: PotentialCertificate, grid_radius: float = 20.0,
                       n_grid: int = 401, dim: int = 1, alpha_damp: float | None = None,
                       beta: float | None = None) -> CertificateReport:
    """Check both certificate inequalities on a grid; failures are reported.

    The slacks are grid minima of left minus right side. The damping
    compatibility is checked only when ``alpha_damp`` and ``beta`` are given.
    """
    pts = ball_grid(grid_radius, n_grid, dim, include_origin=True)
    u0 = potential.value(pts)
    xdg = np.sum(pts * potential.grad(pts), axis=-1)
    sq = np.sum(pts * pts, axis=-1)
    growth = xdg - (cert.lam1 * sq + cert.lam2 * u0 - cert.lam3)
    lower = u0 - (-cert.lam4 * sq - cert.lam5)
    product_ok = cert.lam2 * cert.lam4 < cert.lam1
    margin = None
    if alpha_damp is not None and beta is not None:
        margin = cert.damping_margin(alpha_damp, beta)
    passed = (growth.min() >= -1e-9 and lower.min() >= -1e-9 and product_ok
              and (margin is None or margin >= 0.0))
    return CertificateReport(float(growth.min()), float(lower.min()), product_ok,
                             margin, bool(passed))


def auto_certificate(potential, dim: int = 1, grid_radius: float = 20.0) -> PotentialCertificate:
    """Fit a certificate for a superquadratic potential.

    Requires ``U0(x)/|x|^2`` to keep growing on the probe grid, a ``ball_grid``
    of 401 points; the fitted constants use the half-rate construction
    ``lam1 = lam2 = c3/2`` with ``lam4 = 0`` and the smallest grid-feasible
    offsets plus a 10% margin.
    """
    pts = ball_grid(grid_radius, 401, dim)
    norms = np.linalg.norm(pts, axis=-1)
    u0 = potential.value(pts)
    ratio_outer = u0[norms >= grid_radius * 0.75] / norms[norms >= grid_radius * 0.75] ** 2
    ratio_mid = u0[(norms >= grid_radius * 0.3) & (norms <= grid_radius * 0.5)]
    ratio_mid = ratio_mid / norms[(norms >= grid_radius * 0.3) & (norms <= grid_radius * 0.5)] ** 2
    if ratio_outer.min() < 1.5 * max(ratio_mid.max(), 1e-12):
        raise GrowthTestFailed("potential does not grow superquadratically on the probe grid")

    xdg = np.sum(pts * potential.grad(pts), axis=-1)
    outer = norms >= grid_radius * 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = xdg[outer] / np.maximum(u0[outer], 1e-12)
    c3 = 0.5 * float(rate.min())
    if c3 <= 0:
        raise GrowthTestFailed("inner-product growth rate is non-positive on the probe grid")
    lam1 = lam2 = c3 / 2.0
    lam3 = 1.1 * max(0.0, float(np.max(lam1 * norms ** 2 + lam2 * u0 - xdg)))
    lam5 = 1.1 * max(0.0, float(np.max(-u0)))
    return PotentialCertificate(lam1=lam1, lam2=lam2, lam3=lam3, lam4=0.0, lam5=lam5)


def certificate_with_fallback(potential, dim: int = 1,
                              grid_radius: float = 20.0) -> tuple[PotentialCertificate, str]:
    """``auto_certificate``, or the manual ``lam1 = 1`` certificate when the growth test fails.

    Returns the certificate and its source, ``"auto"`` or ``"manual_fallback"``.
    """
    try:
        return auto_certificate(potential, dim, grid_radius), "auto"
    except GrowthTestFailed:
        return PotentialCertificate(lam1=1.0), "manual_fallback"


# ---------------------------------------------------------------------------
# Lyapunov weight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositionWeight:
    """Non-negative position part ``beta (U0 + lam4 |x|^2 + lam5)`` with gradient."""

    beta: float
    potential: object
    lam4: float = 0.0
    lam5: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.beta * (self.potential.value(x) + self.lam4 * np.sum(x * x, axis=-1)
                            + self.lam5)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.beta * (self.potential.grad(x) + 2.0 * self.lam4 * x)


@dataclass(frozen=True)
class LyapunovSpec:
    """Norm-like weight ``W = 1 + V^(theta/2)`` built from a quadratic form.

    ``V = 1 + V0(x) + r^2 |x|^2 / 2 + |v|^2 / 2 + r0_cross <x, v>`` with
    ``|r0_cross| < r`` so the cross term stays dominated; ``v0`` is ``V0``,
    a ``PositionWeight`` or any potential with ``value`` and ``grad``. The drift
    constants ``(c, C)`` of the form live in its ``QuadraticFormChoice``.
    """

    r: float
    r0_cross: float
    theta: float
    v0: object
    dim: int = 1

    def __post_init__(self):
        if abs(self.r0_cross) >= self.r:
            raise InvalidCross(f"need |r0_cross| < r, got {self.r0_cross} vs {self.r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")

    # -- quadratic form ----------------------------------------------------

    def V(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return (1.0 + self.v0.value(x) + 0.5 * self.r ** 2 * np.sum(x * x, axis=-1)
                + 0.5 * np.sum(v * v, axis=-1) + self.r0_cross * np.sum(x * v, axis=-1))

    def W(self, x, v):
        return 1.0 + self.V(x, v) ** (self.theta / 2.0)

    def grad_x_V(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.v0.grad(x) + self.r ** 2 * x + self.r0_cross * v

    def grad_v_V(self, x, v):
        return np.asarray(v, dtype=float) + self.r0_cross * np.asarray(x, dtype=float)

    def _dW_dV(self, x, v):
        # dW/dV with a trailing axis, to scale a gradient of V; the power acts
        # on V itself, so one point keeps numpy's scalar ** and its bits
        return np.asarray(0.5 * self.theta * self.V(x, v) ** (self.theta / 2.0 - 1.0))[..., None]

    def grad_v_W(self, x, v):
        return self._dW_dV(x, v) * self.grad_v_V(x, v)

    def grad_x_W(self, x, v):
        return self._dW_dV(x, v) * self.grad_x_V(x, v)

    def hess_v_W(self, x, v):
        """Velocity Hessian of W, shape ``(..., dim, dim)`` over the leading axes."""
        V = np.asarray(self.V(x, v))[..., None, None]
        g = self.grad_v_V(x, v)
        t2 = self.theta / 2.0
        eye = np.eye(self.dim)
        return (t2 * V ** (t2 - 1.0) * eye
                + t2 * (t2 - 1.0) * V ** (t2 - 2.0) * (g[..., :, None] * g[..., None, :]))


def gamma_drift(lyap: LyapunovSpec, spec: KineticLangevinSpec, x, v):
    """``<grad_x V, ax+bv> + <grad_v V, U(x, v)>`` over leading axes."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    xdot, u = drift(spec, x, v)
    gx = lyap.grad_x_V(x, v)
    gv = lyap.grad_v_V(x, v)
    return (np.sum(gx * xdot, axis=-1) + np.sum(gv * u, axis=-1))[()]


@dataclass(frozen=True)
class QuadraticFormChoice:
    r0_cross: float
    r: float
    eps_young: float
    c: float
    C: float
    r_window: tuple


def choose_quadratic_form(langevin: KineticLangevinSpec, cert: PotentialCertificate,
                          grid_radius: float = 20.0) -> tuple[QuadraticFormChoice, LyapunovSpec]:
    """Pick the cross weight, scale, and Young split of the quadratic form.

    Sets ``r0_cross = alpha_damp / 2`` and places ``r`` at the midpoint of
    the window where ``(r^2 + 2 beta lam4 - alpha r0)^2`` stays below
    ``4 beta (lam1 - lam2 lam4)(alpha - r0) r0``; the Young parameter is the
    geometric mean of its admissible interval. Returns the choice, whose
    ``(c, C)`` are validated for the system ``langevin`` on a grid of 61
    points per axis (``verify_gamma_drift``'s default), and the weight they
    were validated on (``theta = 1``).
    """
    alpha, beta = langevin.alpha_damp, langevin.beta
    lam_eff = cert.lam1 - cert.lam2 * cert.lam4
    if lam_eff <= 0 or cert.damping_margin(alpha, beta) <= 0:
        raise EmptyWindow("damping compatibility margin is not strictly positive")
    r0 = alpha / 2.0
    disc = 4.0 * beta * lam_eff * (alpha - r0) * r0
    root = math.sqrt(disc)
    centre = alpha * r0 - 2.0 * beta * cert.lam4
    lo_sq = max(r0 ** 2, centre - root)
    hi_sq = centre + root
    if hi_sq <= lo_sq:
        raise EmptyWindow("no admissible scale r: the window is empty")
    lo, hi = math.sqrt(lo_sq), math.sqrt(hi_sq)
    r = 0.5 * (lo + hi)

    K = r ** 2 + 2.0 * beta * cert.lam4 - alpha * r0
    eps_lo = 1.0 / (beta * r0 * lam_eff)
    eps_hi = math.inf if K == 0.0 else 4.0 * (alpha - r0) / K ** 2
    if not eps_lo < eps_hi:
        raise EmptyWindow("no admissible Young parameter")
    eps = 2.0 * eps_lo if math.isinf(eps_hi) else math.sqrt(eps_lo * eps_hi)

    c_v = alpha - r0 - eps * K ** 2 / 4.0
    c_x = beta * r0 * lam_eff - 1.0 / eps
    big_c = beta * r0 * (cert.lam3 + cert.lam2 * cert.lam5)
    v0 = PositionWeight(beta, langevin.potential, cert.lam4, cert.lam5)
    lyap = LyapunovSpec(r=r, r0_cross=r0, theta=1.0, v0=v0, dim=langevin.dim)
    if cert.lam2 > 0:
        c = min(c_v, c_x, r0 * cert.lam2)
    else:
        # fold the position weight into |x|^2 on the probe grid
        pts = ball_grid(grid_radius, 61, langevin.dim)
        mu = float(np.max(lyap.v0.value(pts) / np.maximum(np.sum(pts * pts, axis=-1), 1e-12)))
        c = min(c_v, c_x / (1.0 + mu))
    if c <= 0:
        raise EmptyWindow("drift coefficients collapsed to zero")

    # validate on the grid and, if needed, raise C (conservative direction)
    worst = _grid_drift_excess(lyap, langevin, c, grid_radius, 61)
    big_c = max(big_c, 1.1 * max(worst, 0.0))
    return QuadraticFormChoice(r0, r, eps, c, big_c, (lo, hi)), lyap


@dataclass(frozen=True)
class LyapunovSetup:
    """The potential certificate's source, the quadratic form, and the weight built from them."""

    source: str
    choice: QuadraticFormChoice
    lyap: LyapunovSpec


def build_lyapunov(langevin: KineticLangevinSpec, grid_radius: float = 20.0,
                   theta: float = 1.0) -> LyapunovSetup:
    """Weight ``W = 1 + V^(theta/2)``, drift constants sized on ``langevin``; a fallback
    certificate that fails ``verify_certificate`` raises GrowthTestFailed."""
    cert, source = certificate_with_fallback(langevin.potential, langevin.dim, grid_radius)
    if source == "manual_fallback":
        rep = verify_certificate(langevin.potential, cert, grid_radius, dim=langevin.dim,
                                 alpha_damp=langevin.alpha_damp, beta=langevin.beta)
        if not rep.passed:
            raise GrowthTestFailed(
                f"the fallback certificate lam1 = 1 fails its grid check: growth_slack "
                f"{rep.growth_slack:g}, lower_slack {rep.lower_slack:g}")
    choice, lyap = choose_quadratic_form(langevin, cert, grid_radius)
    return LyapunovSetup(source, choice, replace(lyap, theta=theta))


def _grid_drift_excess(lyap, spec, c, grid_radius, n_grid):
    x, v = grid_pairs(grid_radius, n_grid, spec.dim, include_origin=False)
    # the drift first: it names a non-finite force before the weight can overflow
    gamma = gamma_drift(lyap, spec, x, v)
    bound = c * (lyap.v0.value(x) + np.sum(x * x, axis=-1) + np.sum(v * v, axis=-1))
    return float(np.max(gamma + bound))


def verify_gamma_drift(setup: LyapunovSetup, spec: KineticLangevinSpec,
                       grid_radius: float = 20.0, n_grid: int = 61) -> dict:
    """Grid check of ``Gamma <= -c (V0 + |x|^2 + |v|^2) + C`` for the
    constants ``(c, C)`` of ``setup.choice``."""
    c, big_c = setup.choice.c, setup.choice.C
    worst = _grid_drift_excess(setup.lyap, spec, c, grid_radius, n_grid)
    return {"worst_excess": worst - big_c, "passed": bool(worst <= big_c + 1e-9)}


# ---------------------------------------------------------------------------
# jump regularity of the weight
# ---------------------------------------------------------------------------


def _abs_increment_integral(lyap: LyapunovSpec, slice_m: SliceMeasure, x, v):
    # integral of |W(x, v+u) - W(x, v)| against the slice measure, dim = 1,
    # broadcast over leading axes
    def integral(x, v, base, breakpoints=()):
        u, w = log_gauss_panels(1e-12, 1.0, panels_per_decade=4, nodes_per_panel=12,
                                breakpoints=breakpoints)
        vals = lyap.W(x[..., None, :], v[..., None, :] + u[:, None]) - np.expand_dims(base, -1)
        return np.sum(np.abs(vals) * slice_m.density(u[:, None]) * w, axis=-1), u, vals

    base = np.asarray(lyap.W(x, v))
    out, u, vals = integral(x, v, base)
    out = np.array(out)
    # refine the panels once around sign changes of the increment, point by point
    flips = np.diff(np.sign(vals), axis=-1) != 0
    for idx in map(tuple, np.argwhere(flips.any(axis=-1))):
        breakpoints = [float(0.5 * (u[i] + u[i + 1])) for i in np.flatnonzero(flips[idx])[:4]]
        out[idx] = integral(x[idx], v[idx], base[idx], breakpoints)[0]
    return out[()]


def verify_jump_regularity(lyap: LyapunovSpec, slice_m: SliceMeasure,
                           grid_radius: float = 20.0, n_grid: int = 9) -> tuple[float, float]:
    """Fit ``c_star`` with integral |W(x, v+u) - W| nu*(du) <= c_star W^(1/2).

    Returns ``(c_star, sup_ratio)``. The exponent 1/2 is a constant of the
    chain: the far-field balance and the tilt weight are solved in closed
    form for it. ``c_star`` is the grid supremum of the ratio plus a 10%
    margin. The grid pairs every x with every v of a ball grid of radius
    ``min(grid_radius, 10)`` and ``n_grid`` points per axis, and all its
    points are integrated in one broadcast call. Raises when the
    half-moment of the slice diverges (requires ``theta0 < theta / 2``).
    """
    if slice_m.theta0 >= lyap.theta / 2.0:
        raise MomentFailure(
            f"slice exponent {slice_m.theta0} must be below theta/2 = {lyap.theta / 2.0}"
        )
    if slice_m.dim != 1:
        raise NotImplementedError("jump regularity quadrature implemented for dim == 1")
    x, v = grid_pairs(min(grid_radius, 10.0), n_grid, lyap.dim, include_origin=True)
    ratio = _abs_increment_integral(lyap, slice_m, x, v) / lyap.W(x, v) ** 0.5
    sup = float(np.max(ratio))
    return 1.1 * sup, sup
