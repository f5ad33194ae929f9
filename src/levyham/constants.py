"""The contraction constant chain, distance profiles, and pair functionals.

Everything downstream of the model/measure fits is assembled here: the
transform weights ``alpha, alpha0``, the modification cap ``kappa``, the
far-field radius ``R0``, the local force Lipschitz bound, the concave
distance profile ``f``, the Lyapunov tilt weight ``eps``, and the certified
rate. The chain is evaluated conservatively (over-estimates everywhere), so
for realistic models several constants underflow float64: those values are
carried in log space alongside the (possibly zero) linear value, and the
report flags every underflow. The certified rate is a lower bound on the
true decay; Monte Carlo estimates typically sit many orders above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special
from scipy.stats import qmc

from . import generator as gen
from . import measures as ms
from . import model as md
from .errors import NoRoot, SigmaNotIntegrable
from .pair import PairState

__all__ = [
    "SigmaFn",
    "DistanceProfile",
    "ClampedProfile",
    "ConstantsReport",
    "ConstantsBundle",
    "compute_alpha_alpha0",
    "compute_R0",
    "compute_lipschitz",
    "build_sigma",
    "build_profile",
    "compute_eps_log",
    "rate_terms_log",
    "fit_lyapunov_drift",
    "build_constants",
    "psi",
]


# ---------------------------------------------------------------------------
# sigma, g, f
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaFn:
    """Power-law small-jump activity floor ``coef * s^exponent``."""

    coef: float
    exponent: float

    def __call__(self, s):
        return self.coef * np.asarray(s, dtype=float) ** self.exponent


def build_sigma(c0_sigma: float, theta0: float, alpha: float, kappa: float,
                R0: float) -> SigmaFn:
    """Rescale the activity floor ``c0 s^(1-theta0)`` by the modification cap.

    The returned function is ``m/alpha * sigma(alpha m s)`` with
    ``m = min(1, kappa/R0)``: non-decreasing and concave for theta0 in (0, 1).
    """
    if not 0.0 < theta0 < 1.0:
        raise SigmaNotIntegrable(f"activity exponent must lie in (0,1), got {theta0}")
    m = min(1.0, kappa / R0)
    coef = c0_sigma * alpha ** -theta0 * m ** (2.0 - theta0)
    return SigmaFn(coef, 1.0 - theta0)


@dataclass(frozen=True)
class DistanceProfile:
    """Concave distance reshaping ``f(s) = c1 s + int_0^s exp(-c2 g(l)) dl``.

    ``g(s) = g_coef * s^theta0`` comes from integrating the reciprocal
    activity floor, so the integral has the closed lower-incomplete-gamma
    form used here (cross-checked against adaptive quadrature in the tests).
    ``c1 = exp(-c2 g(cap))`` can underflow; ``log_c1`` is always finite.
    Beyond ``cap`` the profile continues by the bounded rational extension
    ``f(cap) + f'(cap) (s - cap) / (1 + s - cap)``.
    """

    log_c1: float
    c2: float
    g_coef: float
    theta0: float
    cap: float

    @property
    def c1(self) -> float:
        return math.exp(self.log_c1) if self.log_c1 > -745.0 else 0.0

    @property
    def rate_coef(self) -> float:
        # B in exp(-B s^theta0)
        return self.c2 * self.g_coef

    def g(self, s):
        return self.g_coef * np.asarray(s, dtype=float) ** self.theta0

    def g_slope(self, s):
        return self.g_coef * self.theta0 * np.asarray(s, dtype=float) ** (self.theta0 - 1.0)

    def _integral(self, s):
        # int_0^s exp(-B l^theta0) dl
        s = np.asarray(s, dtype=float)
        B = self.rate_coef
        if B == 0.0:
            return s.copy()
        a = 1.0 / self.theta0
        log_scale = -a * math.log(B) + math.lgamma(a) - math.log(self.theta0)
        scale = math.exp(log_scale) if log_scale > -745.0 else 0.0
        return scale * special.gammainc(a, B * np.maximum(s, 0.0) ** self.theta0)

    def _core_value(self, s):
        return self.c1 * np.asarray(s, dtype=float) + self._integral(s)

    def _decay(self, s):
        # exp(-B s^theta0), flushed to 0 below exp(-745)
        expo = -self.rate_coef * np.asarray(s, dtype=float) ** self.theta0
        return np.where(expo > -745.0, np.exp(np.maximum(expo, -745.0)), 0.0)

    def _core_slope(self, s):
        return self.c1 + self._decay(s)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = self._core_value(np.minimum(s, self.cap))
        over = s > self.cap
        if np.any(over):
            f_cap = float(self._core_value(self.cap))
            fp_cap = float(self._core_slope(self.cap))
            ds = np.maximum(s - self.cap, 0.0)
            out = np.where(over, f_cap + fp_cap * ds / (1.0 + ds), out)
        return out[()]

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        core = self._core_slope(np.minimum(s, self.cap))
        over = s > self.cap
        if np.any(over):
            fp_cap = float(self._core_slope(self.cap))
            core = np.where(over, fp_cap / (1.0 + np.maximum(s - self.cap, 0.0)) ** 2, core)
        return core[()]

    def second(self, s):
        return -self.c2 * self._decay(s) * self.g_slope(s)


@dataclass(frozen=True)
class ClampedProfile:
    """Far-field clamp ``f(s ^ R0)`` with zero left slope beyond the clamp."""

    base: DistanceProfile
    clamp: float

    def value(self, s):
        return self.base.value(np.minimum(np.asarray(s, dtype=float), self.clamp))

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= self.clamp, 0.0, self.base.slope(np.minimum(s, self.clamp)))[()]


def build_profile(sigma: SigmaFn, c_star_profile: float, k0: float, alpha0: float,
                  R0: float, b: float, alpha: float) -> DistanceProfile:
    """Assemble the concave profile from the activity floor and weights."""
    theta0 = 1.0 - sigma.exponent
    if not 0.0 < theta0 < 1.0:
        raise SigmaNotIntegrable("reciprocal activity floor is not integrable at zero")
    stretch = 1.0 + k0 * alpha0
    g_coef = c_star_profile * stretch ** (1.0 - theta0) / (sigma.coef * theta0)
    c2 = 1.5 * (1.0 - 1.0 / alpha0) * b * alpha * stretch
    cap = 2.0 * R0
    log_c1 = -c2 * g_coef * cap ** theta0
    return DistanceProfile(log_c1=log_c1, c2=c2, g_coef=g_coef, theta0=theta0, cap=cap)


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------


def compute_alpha_alpha0(a: float, b: float, lam_star: float) -> tuple[float, float]:
    """Transform weight and position weight from the system coefficients."""
    if b <= 0:
        raise ValueError("b must be positive")
    if lam_star < 0:
        raise ValueError("the Lipschitz bound cannot be negative")
    if a == 0.0:
        return 1.0, 1.0 + 16.0 * lam_star / b
    alpha = 16.0 * a / b
    alpha0 = 3.0 + (1.0 / a + b / (16.0 * a * a)) * lam_star
    return alpha, alpha0


@dataclass(frozen=True)
class FarFieldGeometry:
    S_star: float
    x_max: float
    v_max: float


def far_field_sublevel(c0: float, C0: float, c_star: float, eta: float, theta: float,
                       r_scale: float, r0_cross: float) -> FarFieldGeometry:
    """Solve the scalar balance and invert the quadratic-form sandwich.

    The balance ``2 C0 + 4 c_star (S/2)^eta = c0 S / 2`` bounds the weight
    sum on the non-contractive set; the sandwich lower bound turns that into
    position and velocity radii.
    """
    if c0 <= 0:
        raise NoRoot("the weight-drift coefficient must be positive")

    def bal(S):
        return 2.0 * C0 + 4.0 * c_star * (S / 2.0) ** eta - c0 * S / 2.0

    lo = 4.0
    if bal(lo) <= 0.0:
        S_star = lo
    else:
        hi = lo
        while bal(hi) > 0.0:
            hi *= 4.0
            if hi > 1e300:
                raise NoRoot("no finite balance point: the linear term never wins")
        S_star = float(optimize.brentq(bal, lo, hi, xtol=1e-12, rtol=1e-12))
    V_max = max(S_star - 2.0, 1.0) ** (2.0 / theta)
    gap = r_scale ** 2 - r0_cross ** 2
    x_max = 2.0 * math.sqrt(max(V_max - 1.0, 0.0) / gap)
    v_max = r_scale * x_max
    return FarFieldGeometry(S_star, x_max, v_max)


def compute_R0(geom: FarFieldGeometry, alpha: float, alpha0: float, kappa: float) -> float:
    """Conservative far-field radius: blended-gap sup over the sublevel set
    plus the modification allowance, rounded up."""
    z_max = 2.0 * geom.x_max
    q_max = z_max + 2.0 * geom.v_max / alpha
    r_sup = alpha0 * z_max + q_max
    return float(np.ceil(r_sup + (1.0 + alpha) * kappa + 1.0))


def compute_lipschitz(system, position_radius: float, n_pairs: int = 100_000,
                      inflate: float = 1.05) -> float:
    """Sampled force Lipschitz quotient over a position ball.

    Uses scrambled Sobol pairs (velocities on the same radius) plus
    axis-aligned pairs (one coordinate gap zero), then shrinks the gap around
    the argmax three times; the result is inflated 5% as a conservative
    over-estimate.
    """
    d = system.dim
    sob = qmc.Sobol(4 * d, scramble=True, seed=777)
    pts = sob.random_base2(max(int(math.ceil(math.log2(max(n_pairs, 2)))), 1))
    n_pairs = pts.shape[0]
    x = (2 * pts[:, 0:d] - 1) * position_radius
    xp = (2 * pts[:, d:2 * d] - 1) * position_radius
    v = (2 * pts[:, 2 * d:3 * d] - 1) * position_radius
    vp = (2 * pts[:, 3 * d:4 * d] - 1) * position_radius
    # axis-aligned pairs reach the one-sided suprema exactly
    k = max(n_pairs // 10, 1)
    x = np.vstack([x, x[:k], x[:k]])
    xp = np.vstack([xp, x[:k], xp[:k]])          # block 1: zero position gap
    v = np.vstack([v, v[:k], v[:k]])
    vp = np.vstack([vp, vp[:k], v[:k]])          # block 2: zero velocity gap

    def quotient(x, v, xp, vp):
        # a force that overflows on the ball gives an inf quotient, which the
        # caller reports as an unbounded constant
        with np.errstate(over="ignore", invalid="ignore"):
            du = np.asarray(system.force(x, v), dtype=float) - np.asarray(system.force(xp, vp), dtype=float)
            gap = np.linalg.norm(x - xp, axis=-1) + np.linalg.norm(v - vp, axis=-1)
            num = np.linalg.norm(du, axis=-1)
        good = gap > 1e-12
        out = np.zeros_like(gap)
        out[good] = num[good] / gap[good]
        return out

    qs = quotient(x, v, xp, vp)
    if not np.all(np.isfinite(qs)):
        return math.inf
    best = float(np.max(qs))
    i = int(np.argmax(qs))
    bx, bv, bxp, bvp = x[i], v[i], xp[i], vp[i]
    for _ in range(3):
        mid_x, mid_v = 0.5 * (bx + bxp), 0.5 * (bv + bvp)
        shrink = [(bx, bv, mid_x + 0.5 * (bxp - mid_x), mid_v + 0.5 * (bvp - mid_v)),
                  (mid_x + 0.5 * (bx - mid_x), mid_v + 0.5 * (bv - mid_v), bxp, bvp)]
        for cand in shrink:
            q = float(quotient(*(c[None, :] for c in cand))[0])
            if q > best:
                best = q
                bx, bv, bxp, bvp = cand
    return best * inflate


def compute_eps_log(log_c1: float, alpha0: float, b: float, alpha: float, C0: float,
                    c_star: float, eta: float, c0: float) -> float:
    """Log of the Lyapunov tilt weight (finite even when the value underflows)."""
    if alpha0 <= 1.0:
        return -math.inf
    c1 = math.exp(log_c1) if log_c1 > -745.0 else 0.0
    bracket = 2.0 * C0
    if c_star > 0.0:
        bracket += (1.0 - eta) * (2.0 * c_star * (eta / c0) ** eta) ** (1.0 / (1.0 - eta))
    return (math.log(3.0 * (1.0 - 1.0 / alpha0) * b * alpha / 16.0)
            + log_c1 - math.log1p(c1) - math.log(bracket))


def rate_terms_log(c0: float, log_eps: float, log_c1: float, alpha0: float, b: float,
                   alpha: float) -> tuple[float, float]:
    """Logs of the two candidate rates: weight-drift route and profile route."""
    eps = math.exp(log_eps) if log_eps > -745.0 else 0.0
    term1 = math.log(c0) + log_eps - math.log1p(2.0 * eps) if log_eps > -math.inf else -math.inf
    if alpha0 <= 1.0:
        return term1, -math.inf
    c1 = math.exp(log_c1) if log_c1 > -745.0 else 0.0
    term2 = (math.log(3.0 * (1.0 - 1.0 / alpha0) * b * alpha / 8.0)
             + log_c1 - math.log1p(c1))
    return term1, term2


# ---------------------------------------------------------------------------
# Lyapunov drift fit
# ---------------------------------------------------------------------------


def fit_lyapunov_drift(system, levy_spec, lyap, grid_radius: float = 20.0, n_grid: int = 21,
                       scheme: gen.QuadratureScheme | None = None) -> tuple[float, float, dict]:
    """Fit ``(c0, C0)`` with generator(W) <= -c0 W + C0 on the grid.

    ``c0`` is 90% of the worst drift-to-weight ratio on the outer shell;
    ``C0`` then covers the full grid with a 10% margin, so the reported fit
    satisfies the inequality on every probed point by construction. The
    meaningful outputs are ``c0 > 0`` and the worst-point location. The
    generator and the weight are evaluated on the whole ``(x, v)`` grid in
    one broadcast call each.
    """
    x, v = md.grid_pairs(grid_radius, n_grid, system.dim, include_origin=True)
    LW = gen.apply_generator(system, levy_spec, gen.lyapunov_test_function(lyap), x, v, scheme)
    W = lyap.W(x, v)
    shell = np.maximum(np.linalg.norm(x, axis=-1), np.linalg.norm(v, axis=-1)) >= grid_radius / 2
    ratio = -LW / W
    c0 = 0.9 * float(np.min(ratio[shell]))
    report = {"shell_min_ratio": float(np.min(ratio[shell])),
              "grid_radius": grid_radius, "n_grid": int(n_grid)}
    if c0 <= 0.0:
        report["failed"] = True
        return 0.0, float("inf"), report
    excess = LW + c0 * W
    C0 = 1.1 * max(float(np.max(excess)), 1e-6)
    iw, jw = np.unravel_index(np.argmax(excess), excess.shape)
    report.update({"C0_argmax_x": x[iw, jw].tolist(), "C0_argmax_v": v[iw, jw].tolist(),
                   "worst_excess_after": float(np.max(LW + c0 * W - C0))})
    return c0, C0, report


# ---------------------------------------------------------------------------
# report and pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    """Full constant chain with log-space escorts for underflow-prone entries."""

    a: float
    b: float
    theta: float
    alpha: float
    alpha0: float
    kappa: float
    r0_jump: float
    c0_sigma: float
    theta0: float
    k0: float
    lambda0: float
    c_star_profile: float
    c1: float
    log_c1: float
    c2: float
    R0: float
    S_star: float
    position_radius: float
    lambda_star_R0: float
    alpha0_provisional: float
    eps: float
    log_eps: float
    eta: float
    c_star_A2: float
    c0_lyap: float
    C0_lyap: float
    rate: float
    log_rate: float
    flags: tuple = ()
    notes: tuple = ()

    def positivity_violations(self) -> list[str]:
        """Check the sign chain, reading underflowed entries in log space."""
        bad = []
        checks = [
            ("alpha", self.alpha > 0),
            ("alpha0", self.alpha0 > 1.0),
            ("kappa", self.kappa > 0),
            ("k0", self.k0 > 0),
            ("c_star_profile", self.c_star_profile > 1.0),
            ("c1", self.log_c1 > -math.inf and (self.c1 > 0 or self.log_c1 <= 0)),
            ("c1_upper", self.log_c1 <= 0.0),
            ("c2", self.c2 > 0),
            ("eps", self.log_eps > -math.inf),
            ("rate", self.log_rate > -math.inf),
            ("kappa_def", abs(self.kappa - self.r0_jump / (2 * self.alpha)) <= 1e-12 * self.kappa),
        ]
        for name, ok in checks:
            if not ok:
                bad.append(name)
        return bad


@dataclass(frozen=True)
class ConstantsBundle:
    """Runtime companions of the report: specs, profile, and pair functionals."""

    system: md.KineticLangevinSpec
    levy: object
    lyap: object
    profile: DistanceProfile
    clamped: ClampedProfile
    report: ConstantsReport
    monitor_profile: object = None
    monitor_eps: float = 0.0
    monitor_alpha0: float = 0.0
    monitor_is_fallback: bool = False

    def hhat_fn(self):
        return gen.ProfilePairFn(self.clamped, self.report.alpha, self.report.alpha0)

    def g_fn(self):
        return self._tilt(self.report.eps)

    def monitor_fns(self):
        prof = ClampedProfile(self.monitor_profile, self.report.R0)
        return (gen.ProfilePairFn(prof, self.report.alpha, self.monitor_alpha0),
                self._tilt(self.monitor_eps))

    def _tilt(self, eps):
        w = gen.lyapunov_test_function(self.lyap)
        return gen.SeparablePairFn(w, w, eps, 1.0)


def profile_property_report(profile: DistanceProfile, n_grid: int = 10_000,
                            tol: float = 1e-8, seed: int = 20_24) -> dict:
    """Property suite for a distance profile on an ``(s, delta)`` grid.

    Checks, with absolute tolerance ``tol``: the linear sandwich
    ``c1 s <= f(s) <= (1 + c1) s`` below the cap, the sign pattern of the
    first three derivatives (finite differences for the third), midpoint
    concavity ``f(s+d) + f(s-d) - 2 f(s) <= 0`` for ``d <= s``, its
    curvature-dominated sharpening ``<= f''(s) d^2`` on the half-cap, the
    slope band ``f' in [c1, 1 + c1]``, the doubling bound ``f(2s) <= 2 f(s)``,
    and the closed-form reshaping slope against finite differences.
    """
    rng = np.random.default_rng(seed)
    cap = profile.cap
    s = rng.uniform(1e-9 * cap, cap, n_grid)
    d = s * rng.uniform(0.0, 1.0, n_grid)
    f = profile.value
    c1 = profile.c1

    sandwich_lo = float(np.min(f(s) - c1 * s))
    sandwich_hi = float(np.max(f(s) - (1.0 + c1) * s))
    slope = profile.slope(s)
    slope_lo = float(np.min(slope - c1))
    slope_hi = float(np.max(slope - (1.0 + c1)))

    mid = f(s + d) + f(s - d) - 2.0 * f(s)
    concave_worst = float(np.max(mid))
    half = s <= cap / 2.0
    sharp_worst = float(np.max(mid[half] - profile.second(s[half]) * d[half] ** 2)) \
        if half.any() else 0.0

    # derivative sign pattern via central differences on a log grid; the
    # 1% relative step keeps cancellation noise below the curvature signal
    sg = np.geomspace(1e-6 * cap, cap / 1.03, 512)
    hstep = 0.01 * sg
    fp = (f(sg + hstep) - f(sg - hstep)) / (2 * hstep)
    fpp = (f(sg + hstep) - 2 * f(sg) + f(sg - hstep)) / hstep ** 2
    f3 = (f(sg + 2 * hstep) - 2 * f(sg + hstep) + 2 * f(sg - hstep) - f(sg - 2 * hstep)) \
        / (2 * hstep ** 3)
    scale3 = np.maximum(np.abs(f3), 1.0)

    dbl = s <= cap / 2.0
    doubling_worst = float(np.max(f(2 * s[dbl]) - 2 * f(s[dbl]))) if dbl.any() else 0.0

    # g' = reshaping coefficient over the activity floor, finite differences
    geom = np.geomspace(1e-4 * cap, 0.9 * cap, 128)
    g_fd = (profile.g(geom * (1 + 1e-6)) - profile.g(geom * (1 - 1e-6))) / (2e-6 * geom)
    g_an = profile.g_slope(geom)
    g_rel = float(np.max(np.abs(g_fd - g_an) / np.maximum(np.abs(g_an), 1e-300))) \
        if profile.g_coef > 0 else 0.0

    checks = {
        "sandwich_lower": sandwich_lo >= -tol,
        "sandwich_upper": sandwich_hi <= tol,
        "slope_band_lower": slope_lo >= -tol,
        "slope_band_upper": slope_hi <= tol,
        "midpoint_concavity": concave_worst <= tol,
        "curvature_sharpening": sharp_worst <= tol,
        "slope_nonneg": bool(np.min(fp) >= -tol),
        "curvature_nonpos": bool(np.max(fpp) <= math.sqrt(tol)),
        "third_nonneg": bool(np.min(f3 / scale3) >= -math.sqrt(tol)),
        "doubling": doubling_worst <= tol,
        "reshaping_slope_fd": g_rel <= 1e-8 or profile.g_coef == 0.0,
    }
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "worst": {
            "sandwich_lower": sandwich_lo,
            "sandwich_upper": sandwich_hi,
            "slope_band": (slope_lo, slope_hi),
            "midpoint_concavity": concave_worst,
            "curvature_sharpening": sharp_worst,
            "doubling": doubling_worst,
            "reshaping_slope_rel": g_rel,
        },
        "n_grid": int(n_grid),
    }


def psi(pair: PairState, lyap):
    """Base cost: clipped state distance times the weight sum, over the
    leading axes of ``pair``."""
    dist = np.linalg.norm(pair.z, axis=-1) + np.linalg.norm(pair.w, axis=-1)
    return np.minimum(dist, 1.0) * (lyap.W(pair.x, pair.v) + lyap.W(pair.xp, pair.vp))


def build_constants(langevin: md.KineticLangevinSpec, levy_spec: ms.LevyMeasureSpec,
                    r0_jump: float = 0.5, grid_radius: float = 20.0, n_grid: int = 21,
                    position_radius: float | None = None,
                    scheme: gen.QuadratureScheme | None = None) -> ConstantsBundle:
    """Run the full pipeline for a damped-gradient system.

    Order: potential certificate, quadratic form, weight-drift fit, jump
    regularity, activity floor, transform weights, far-field radius, force
    Lipschitz bound, profile, tilt weight, rate. Only the position bound of
    the sublevel set feeds the Lipschitz sampling unless ``position_radius``
    overrides it.
    """
    flags: list[str] = []
    notes: list[str] = []
    a, b = langevin.a, langevin.b
    setup = md.build_lyapunov(langevin, grid_radius, levy_spec.theta)
    if setup.source == "manual_fallback":
        notes.append("auto certificate unavailable: fell back to lam1=1")
    lyap = setup.lyap

    c0_lyap, C0_lyap, fit_report = fit_lyapunov_drift(langevin, levy_spec, lyap,
                                                      grid_radius, n_grid, scheme)
    if c0_lyap <= 0:
        flags.append("weight_drift_fit_failed")
        c0_lyap = 1e-6

    eta, c_star, _ = md.verify_jump_regularity(lyap, levy_spec.slice_part, grid_radius)

    c0_sigma, theta0 = ms.fit_overlap_floor(levy_spec.slice_part, r0_jump)
    alpha, alpha0_prov = compute_alpha_alpha0(a, b, 0.0)
    kappa = r0_jump / (2.0 * alpha)

    geom = far_field_sublevel(c0_lyap, C0_lyap, c_star, eta, levy_spec.theta,
                              lyap.r, lyap.r0_cross)
    pos_radius = position_radius if position_radius is not None else max(geom.x_max, 1.0)
    lam_star = compute_lipschitz(langevin, pos_radius)
    if not math.isfinite(lam_star):
        flags.append("lipschitz_unbounded")
        lam_star = 0.0
    alpha, alpha0 = compute_alpha_alpha0(a, b, lam_star)
    if alpha0 <= 1.0:
        flags.append("degenerate_rate")
    R0 = compute_R0(geom, alpha, alpha0, kappa)

    balpha = b * alpha
    if alpha0 > 1.0:
        k0 = (8.0 * (lam_star + balpha * (1.0 + alpha0) + 0.75 * (1.0 - 1.0 / alpha0) * balpha)
              / ((alpha0 - 1.0) * balpha))
        lambda0 = (k0 * a + balpha) * (1.0 + alpha0) + lam_star * (1.0 + (1.0 + 1.0 / alpha) * k0)
        c_star_profile = 1.0 + 8.0 * lambda0 / (3.0 * (1.0 - 1.0 / alpha0) * balpha)
    else:
        k0, lambda0, c_star_profile = math.inf, math.inf, math.inf

    sigma = build_sigma(c0_sigma, theta0, alpha, kappa, R0)
    if math.isfinite(c_star_profile):
        profile = build_profile(sigma, c_star_profile, k0, alpha0, R0, b, alpha)
    else:
        profile = DistanceProfile(log_c1=0.0, c2=1.0, g_coef=0.0, theta0=theta0, cap=2.0 * R0)
        flags.append("profile_unavailable")

    log_eps = compute_eps_log(profile.log_c1, alpha0, b, alpha, C0_lyap, c_star, eta, c0_lyap)
    eps = math.exp(log_eps) if log_eps > -745.0 else 0.0
    t1, t2 = rate_terms_log(c0_lyap, log_eps, profile.log_c1, alpha0, b, alpha)
    log_rate = min(t1, t2)
    rate = math.exp(log_rate) if log_rate > -745.0 else 0.0
    if log_rate == -math.inf:
        flags.append("degenerate_rate")

    for name, lin, logv in (("c1", profile.c1, profile.log_c1), ("eps", eps, log_eps),
                            ("rate", rate, log_rate)):
        if lin == 0.0 and logv > -math.inf:
            notes.append(f"float_underflow:{name}")

    report = ConstantsReport(
        a=a, b=b, theta=levy_spec.theta, alpha=alpha, alpha0=alpha0, kappa=kappa,
        r0_jump=r0_jump, c0_sigma=c0_sigma, theta0=theta0, k0=k0, lambda0=lambda0,
        c_star_profile=c_star_profile, c1=profile.c1, log_c1=profile.log_c1, c2=profile.c2,
        R0=R0, S_star=geom.S_star, position_radius=pos_radius, lambda_star_R0=lam_star,
        alpha0_provisional=alpha0_prov, eps=eps, log_eps=log_eps, eta=eta, c_star_A2=c_star,
        c0_lyap=c0_lyap, C0_lyap=C0_lyap, rate=rate, log_rate=log_rate,
        flags=tuple(dict.fromkeys(flags)), notes=tuple(notes),
    )

    # practical monitor: when the certified profile is numerically flat over
    # the reachable gap range, Monte Carlo monitoring falls back to the
    # zero-reshaping member of the same family (g == 0, so f(s) = 2 s) and a
    # minimal 2:1 position blend; the conservative transform weight collapses
    # the blended gap onto the ringing position component otherwise
    monitor = profile
    monitor_eps = eps
    monitor_alpha0 = alpha0
    fallback = False
    probe = profile.value(np.array([1e-3 * R0, R0]))
    if not (probe[1] > probe[0] > 0.0) or (probe[1] - probe[0]) <= 1e-12 * probe[1]:
        monitor = DistanceProfile(log_c1=0.0, c2=profile.c2, g_coef=0.0,
                                  theta0=theta0, cap=2.0 * R0)
        m_log_eps = compute_eps_log(0.0, alpha0, b, alpha, C0_lyap, c_star, eta, c0_lyap)
        monitor_eps = math.exp(m_log_eps) if m_log_eps > -745.0 else 0.0
        monitor_alpha0 = min(alpha0, 2.0)
        fallback = True

    return ConstantsBundle(system=langevin, levy=levy_spec, lyap=lyap, profile=profile,
                           clamped=ClampedProfile(profile, R0), report=report,
                           monitor_profile=monitor, monitor_eps=monitor_eps,
                           monitor_alpha0=monitor_alpha0, monitor_is_fallback=fallback)
