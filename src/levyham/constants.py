"""The contraction constant chain, distance profiles, and pair functionals.

Everything downstream of the model/measure fits is assembled here: the
transform weights ``alpha, alpha0``, the modification cap ``kappa``, the
far-field radius ``R0``, the local force Lipschitz bound, the concave
distance profile ``f``, the Lyapunov tilt weight ``eps``, and the certified
rate. The chain is evaluated conservatively (over-estimates everywhere), so
for realistic models ``c1``, ``eps`` and the rate underflow float64: each is
stored once, as its (always finite) logarithm, and code that needs the
linear value converts where it uses it. The certified rate is a lower bound
on the true decay; Monte Carlo estimates typically sit many orders above it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import generator as gen
from . import measures as ms
from . import model as md
from .errors import MomentFailure, NoRoot, SigmaNotIntegrable
from .pair import PairState, row_norm

__all__ = [
    "DistanceProfile",
    "REFERENCE_LIVE_PROFILE",
    "ClampedProfile",
    "ConstantsReport",
    "ConstantsBundle",
    "compute_alpha_alpha0",
    "compute_R0",
    "compute_lipschitz",
    "activity_coef",
    "build_profile",
    "tilt_and_rate_log",
    "fit_lyapunov_drift",
    "build_constants",
    "psi",
]


# ---------------------------------------------------------------------------
# sigma, g, f
# ---------------------------------------------------------------------------

_GAMMAINC_MAX_TERMS = 10_000  # terms either branch of _gammainc takes before it raises


def activity_coef(c0_sigma: float, theta0: float, alpha: float, kappa: float,
                  R0: float) -> float:
    """Coefficient of the rescaled activity floor ``coef * s^(1 - theta0)``.

    The floor ``c0 s^(1-theta0)`` rescaled by the modification cap is
    ``m/alpha * sigma(alpha m s)`` with ``m = min(1, kappa/R0)``:
    non-decreasing and concave for theta0 in (0, 1).
    """
    m = min(1.0, kappa / R0)
    return c0_sigma * alpha ** -theta0 * m ** (2.0 - theta0)


def _gammainc(a: float, x):
    """Regularised lower incomplete gamma ``P(a, x)``, ``a > 0``, elementwise over ``x >= 0``.

    A power series below ``x = a + 1`` and a modified-Lentz continued fraction for
    ``Q = 1 - P`` above (DiDonato & Morris 1986), both times ``exp(a ln x - x - lgamma(a))``.
    ``P`` is 0.0 at 0, NaN at NaN, and exactly 1.0 at +inf and wherever ``Q < e^-40``.
    """
    flat = np.asarray(x, dtype=float).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # at 0 and +inf, which stay as set
        pre = np.exp(a * np.log(flat) - flat - math.lgamma(a))
    out = np.sign(flat)  # 0.0 at 0, NaN at NaN, 1.0 at +inf and where Q underflows
    low, high = (flat > 0.0) & (flat < a + 1.0), (flat >= a + 1.0) & (pre > 0.0)
    out[low] = pre[low] * _gammainc_series(a, flat[low])
    out[high] = 1.0 - pre[high] * _gammainc_fraction(a, flat[high])
    return out.reshape(np.shape(x))


def _gammainc_series(a: float, x):
    # sum_n x^n / (a (a+1) ... (a+n)) by Horner in x / edge, with the terms t_n at the branch
    # edge = a + 1 up to the first that leaves its sum unchanged: the relative tail grows with
    # x, so these terms serve every x < edge, and each element's value is its own
    edge = a + 1.0
    terms = [total := 1.0 / a]
    while total + (t := terms[-1] * edge / (a + len(terms))) != total:
        if len(terms) == _GAMMAINC_MAX_TERMS:
            raise RuntimeError(f"incomplete gamma series did not converge at a = {a}")
        terms.append(t)
        total += t
    u, out = x / edge, np.full_like(x, terms.pop())
    for t in reversed(terms):
        out *= u
        out += t
    return out


def _gammainc_fraction(a: float, x):
    # modified Lentz for Q's 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))), each x to an ulp
    b = x + 1.0 - a
    c, d = np.full_like(x, 1e300), 1.0 / b
    h, out, idx = d.copy(), np.empty_like(x), np.arange(x.size)
    for i in range(1, _GAMMAINC_MAX_TERMS + 1):
        an, b = -i * (i - a), b + 2.0
        d, c = (np.where(np.abs(v) < 1e-300, 1e-300, v) for v in (an * d + b, b + an / c))
        d = 1.0 / d
        h *= c * d
        done = np.abs(c * d - 1.0) <= np.finfo(float).eps
        out[idx[done]] = h[done]
        idx, b, c, d, h = (v[~done] for v in (idx, b, c, d, h))
        if not idx.size:
            return out
    raise RuntimeError(f"incomplete gamma fraction did not converge at a = {a}")


@dataclass(frozen=True)
class DistanceProfile:
    """Concave distance reshaping ``f(s) = c1 s + int_0^s exp(-c2 g(l)) dl``.

    ``g(s) = g_coef * s^theta0`` comes from integrating the reciprocal
    activity floor, so the integral has the closed lower-incomplete-gamma
    form used here (cross-checked against adaptive quadrature in the tests).
    ``c1 = exp(-c2 g(cap))`` can underflow; ``log_c1`` is always finite.
    ``cap`` only sets ``c1``: the formula holds for every ``s >= 0``, and
    ``ClampedProfile`` is the one rule past a radius.

    The certified profiles are saturated: with ``a = 1/theta0`` and
    ``x = B s^theta0``, the factor ``P(a, x)`` is exactly 1.0 at every gap
    evaluated. ``_gammainc`` supplies ``P`` in numpy, so no profile loads
    scipy.
    """

    log_c1: float
    c2: float
    g_coef: float
    theta0: float
    cap: float

    @property
    def c1(self) -> float:
        return math.exp(self.log_c1)

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
        return math.exp(log_scale) * _gammainc(a, B * np.maximum(s, 0.0) ** self.theta0)

    def _decay(self, s):
        # exp(-B s^theta0), flushed to 0 below exp(-745)
        expo = -self.rate_coef * np.asarray(s, dtype=float) ** self.theta0
        return np.where(expo > -745.0, np.exp(np.maximum(expo, -745.0)), 0.0)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return (self.c1 * s + self._integral(s))[()]

    def slope(self, s):
        return (self.c1 + self._decay(s))[()]

    def second(self, s):
        return -self.c2 * self._decay(s) * self.g_slope(s)


# a constant chain small enough that the reshaping survives float64: the
# certified profiles underflow, so this member keeps the profile checks live
REFERENCE_LIVE_PROFILE = DistanceProfile(log_c1=-0.6 * 10 ** 0.4, c2=1.5, g_coef=0.4,
                                         theta0=0.4, cap=10.0)


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


def build_profile(sigma_coef: float, theta0: float, c_star_profile: float, k0: float,
                  alpha0: float, R0: float, b: float, alpha: float) -> DistanceProfile:
    """Assemble the concave profile from the activity floor
    ``sigma_coef * s^(1 - theta0)`` and the weights."""
    if not 0.0 < theta0 < 1.0:
        raise SigmaNotIntegrable(f"activity exponent must lie in (0,1), got {theta0}")
    stretch = 1.0 + k0 * alpha0
    g_coef = c_star_profile * stretch ** (1.0 - theta0) / (sigma_coef * theta0)
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


def far_field_sublevel(c0: float, C0: float, c_star: float, theta: float,
                       r_scale: float, r0_cross: float) -> FarFieldGeometry:
    """Solve the scalar balance and invert the quadratic-form sandwich.

    The balance ``2 C0 + 4 c_star (S/2)^(1/2) = c0 S / 2`` bounds the weight
    sum on the non-contractive set. It is a quadratic in ``t = sqrt(S)``
    with the positive root ``t = (2 sqrt(2) c_star + sqrt(8 c_star^2 +
    4 c0 C0)) / c0``, so ``S* = max(4, t^2)``. The lower bound ``V >= 1 +
    (r^2 - r0^2) (|x|^2 + |v|^2 / r^2) / 4`` of the quadratic form
    (``V0 >= 0``) turns that into position and velocity radii.
    """
    if c0 <= 0:
        raise NoRoot("the weight-drift coefficient must be positive")
    t = (2.0 * math.sqrt(2.0) * c_star + math.sqrt(8.0 * c_star ** 2 + 4.0 * c0 * C0)) / c0
    S_star = max(4.0, t * t)
    if not math.isfinite(S_star):
        raise NoRoot("no finite balance point: the linear term never wins")
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


# Joe & Kuo (2008) direction numbers (s, a, m_1..m_s) for Sobol dimensions 2..8
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)),
            (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)), (5, 2, (1, 1, 5, 5, 17)))
_SOBOL_BITS = 30
# rows of Sobol pairs per force evaluation in compute_lipschitz; bounds its
# temporaries without moving its result
_LIPSCHITZ_BLOCK = 16_384


@functools.cache
def _scrambled_sobol(dim: int, m: int, seed: int) -> np.ndarray:
    """The first ``2**m`` points of the ``dim``-dimensional Sobol sequence
    with Matousek's linear matrix scrambling plus a digital shift (read-only).

    Bitwise equal to ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=seed).random_base2(m)``: the same 30-bit direction numbers, random
    draws in the same order, and points in the same Gray-code order.
    """
    if dim > len(_JOE_KUO) + 1:
        raise ValueError(f"Sobol direction numbers are tabulated up to dimension "
                         f"{len(_JOE_KUO) + 1}, got {dim}")
    bits = _SOBOL_BITS
    sv = np.ones((dim, bits), dtype=np.int64)
    for row, (s, a, init) in zip(sv[1:], _JOE_KUO):
        row[:s] = init
        for j in range(s, bits):
            row[j] = row[j - s] ^ (row[j - s] << s)
            for k in range(1, s):
                row[j] ^= ((a >> (s - 1 - k)) & 1) * (row[j - k] << k)
    msb = np.arange(bits - 1, -1, -1)            # shift of the k-th bit from the top
    sv <<= msb
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ (1 << np.arange(bits))
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, range(bits), range(bits)] = 1
    # scramble each direction number: its bits, top first, times the lower-triangular matrix
    top_bits = (sv[:, :, None] >> msb) & 1
    sv = ((top_bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)
    q = np.empty((1 << m, dim), dtype=np.int64)
    q[0] = shift
    for b in range(m):
        q[1 << b:2 << b] = q[(1 << b) - 1::-1] ^ sv[:, b]
    pts = q * 2.0 ** -bits
    pts.flags.writeable = False
    return pts


def compute_lipschitz(system, position_radius: float, n_pairs: int = 100_000,
                      inflate: float = 1.05) -> float:
    """Sampled force Lipschitz quotient over a position ball.

    Uses scrambled Sobol pairs (velocities on the same radius; the points of
    ``_scrambled_sobol``, equal to scipy's ``qmc.Sobol`` at seed 777) plus
    axis-aligned pairs (one coordinate gap zero), then shrinks the gap around
    the argmax three times; the result is inflated 5% as a conservative
    over-estimate. The pairs are evaluated in blocks of ``_LIPSCHITZ_BLOCK``
    rows with a running first argmax, so the result does not depend on the
    block size.
    """
    d = system.dim
    pts = _scrambled_sobol(4 * d, max(int(math.ceil(math.log2(max(n_pairs, 2)))), 1), 777)
    n_pairs = pts.shape[0]
    k = max(n_pairs // 10, 1)
    # (rows, column groups of x, v, xp, vp): the Sobol pairs, then the
    # axis-aligned pairs on the first k rows, which reach the one-sided
    # suprema exactly (zero position gap, then zero velocity gap)
    sections = ((n_pairs, (0, 2, 1, 3)), (k, (0, 2, 0, 3)), (k, (0, 2, 1, 2)))

    def quotient(x, v, xp, vp):
        # a force that overflows on the ball gives an inf quotient, which the
        # caller reports as an unbounded constant
        with np.errstate(over="ignore", invalid="ignore"):
            du = np.asarray(system.force(x, v), dtype=float) - np.asarray(system.force(xp, vp), dtype=float)
            gap = row_norm(x - xp) + row_norm(v - vp)
            return np.divide(row_norm(du), gap, out=np.zeros_like(gap), where=gap > 1e-12)

    best = -math.inf
    for rows, groups in sections:
        for lo in range(0, rows, _LIPSCHITZ_BLOCK):
            block = pts[lo:min(lo + _LIPSCHITZ_BLOCK, rows)]
            pair = [(2 * block[:, g * d:(g + 1) * d] - 1) * position_radius for g in groups]
            qs = quotient(*pair)
            if not np.all(np.isfinite(qs)):
                return math.inf
            i = int(np.argmax(qs))
            if qs[i] > best:
                best = float(qs[i])
                bx, bv, bxp, bvp = (c[i] for c in pair)
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


def tilt_and_rate_log(log_c1: float, alpha0: float, b: float, alpha: float, C0: float,
                      c_star: float, c0: float) -> tuple[float, float]:
    """Logs of the Lyapunov tilt weight and of the certified rate (finite
    even when the values underflow).

    The tilt is ``3 (1 - 1/alpha0) b alpha c1 / (16 (1 + c1) B)`` with the
    bracket ``B = 2 C0 + c_star^2 / c0``; the rate is the smaller of the
    weight-drift route ``c0 eps / (1 + 2 eps)`` and the profile route
    ``2 B eps``.
    """
    if alpha0 <= 1.0:
        return -math.inf, -math.inf
    bracket = 2.0 * C0 + c_star ** 2 / c0
    log_eps = (math.log(3.0 * (1.0 - 1.0 / alpha0) * b * alpha / 16.0)
               + log_c1 - math.log1p(math.exp(log_c1)) - math.log(bracket))
    log_rate = min(math.log(c0) + log_eps - math.log1p(2.0 * math.exp(log_eps)),
                   log_eps + math.log(2.0 * bracket))
    return log_eps, log_rate


# ---------------------------------------------------------------------------
# Lyapunov drift fit
# ---------------------------------------------------------------------------


def fit_lyapunov_drift(system, levy_spec, lyap, grid_radius: float = 20.0, n_grid: int = 21,
                       scheme: gen.QuadratureScheme | None = None) -> tuple[float, float]:
    """Fit ``(c0, C0)`` with generator(W) <= -c0 W + C0 on the grid.

    ``c0`` is 90% of the worst drift-to-weight ratio on the outer shell;
    ``C0`` then covers the full grid with a 10% margin, so the fit satisfies
    the inequality on every probed point by construction. The generator and
    the weight are evaluated on the whole ``(x, v)`` grid in one broadcast
    call each. Raises NoRoot when the shell ratio is not positive: no
    ``C0`` then bounds the drift, and the far-field balance has no root.
    """
    x, v = md.grid_pairs(grid_radius, n_grid, system.dim, include_origin=True)
    LW = gen.apply_generator(system, levy_spec, gen.lyapunov_test_function(lyap), x, v, scheme)
    W = lyap.W(x, v)
    shell = np.maximum(row_norm(x), row_norm(v)) >= grid_radius / 2
    c0 = 0.9 * float(np.min(-LW[shell] / W[shell]))
    if c0 <= 0.0:
        raise NoRoot("no finite balance point: the weight-drift fit failed")
    C0 = 1.1 * max(float(np.max(LW + c0 * W)), 1e-6)
    return c0, C0


# ---------------------------------------------------------------------------
# report and pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    """Full constant chain; ``c1``, ``eps`` and the rate are held as logs only."""

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
    log_c1: float
    c2: float
    R0: float
    S_star: float
    position_radius: float
    lambda_star_R0: float
    log_eps: float
    c_star_A2: float
    c0_lyap: float
    C0_lyap: float
    log_rate: float
    flags: tuple = ()
    notes: tuple = ()

    def positivity_violations(self) -> list[str]:
        """Check the sign chain, reading ``c1``, ``eps`` and the rate in log space."""
        bad = []
        checks = [
            ("alpha", self.alpha > 0),
            ("alpha0", self.alpha0 > 1.0),
            ("kappa", self.kappa > 0),
            ("k0", self.k0 > 0),
            ("c_star_profile", self.c_star_profile > 1.0),
            ("c1", self.log_c1 > -math.inf),
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
    """Runtime companions of the report: specs, profile, and the pair costs
    ``cost`` (the certified ``Psi~``, clamped profile pair times Lyapunov tilt)
    and ``monitor``, the one Monte Carlo runs evaluate (``cost`` unless the
    fallback engaged)."""

    system: md.KineticLangevinSpec
    levy: object
    lyap: object
    profile: DistanceProfile
    report: ConstantsReport
    cost: gen.ProductPairFn
    monitor: gen.ProductPairFn
    monitor_is_fallback: bool = False


def profile_property_report(profile: DistanceProfile) -> dict:
    """Property suite for a distance profile on ``n_grid = 10_000`` seeded
    random ``(s, delta)`` points.

    Checks, with absolute tolerance ``tol = 1e-8``: the linear sandwich
    ``c1 s <= f(s) <= (1 + c1) s`` below the cap, the sign pattern of the
    first three derivatives (finite differences for the third), midpoint
    concavity ``f(s+d) + f(s-d) - 2 f(s) <= 0`` for ``d <= s``, its
    curvature-dominated sharpening ``<= f''(s) d^2`` on the half-cap, the
    slope band ``f' in [c1, 1 + c1]``, the doubling bound ``f(2s) <= 2 f(s)``,
    and the closed-form reshaping slope against finite differences.
    """
    n_grid, tol = 10_000, 1e-8
    rng = np.random.default_rng(20_24)
    cap = profile.cap
    s = rng.uniform(1e-9 * cap, cap, n_grid)
    d = s * rng.uniform(0.0, 1.0, n_grid)
    f = profile.value
    c1 = profile.c1

    fs = f(s)
    sandwich_lo = float(np.min(fs - c1 * s))
    sandwich_hi = float(np.max(fs - (1.0 + c1) * s))
    slope = profile.slope(s)
    slope_lo = float(np.min(slope - c1))
    slope_hi = float(np.max(slope - (1.0 + c1)))

    mid = f(s + d) + f(s - d) - 2.0 * fs
    concave_worst = float(np.max(mid))
    half = s <= cap / 2.0
    sharp_worst = float(np.max(mid[half] - profile.second(s[half]) * d[half] ** 2)) \
        if half.any() else 0.0

    # derivative sign pattern via central differences on a log grid; the
    # 1% relative step keeps cancellation noise below the curvature signal
    sg = np.geomspace(1e-6 * cap, cap / 1.03, 512)
    hstep = 0.01 * sg
    f_up, f_dn = f(sg + hstep), f(sg - hstep)
    fp = (f_up - f_dn) / (2 * hstep)
    fpp = (f_up - 2 * f(sg) + f_dn) / hstep ** 2
    f3 = (f(sg + 2 * hstep) - 2 * f_up + 2 * f_dn - f(sg - 2 * hstep)) \
        / (2 * hstep ** 3)
    scale3 = np.maximum(np.abs(f3), 1.0)

    doubling_worst = float(np.max(f(2 * s[half]) - 2 * fs[half])) if half.any() else 0.0

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
                    scheme: gen.QuadratureScheme | None = None) -> ConstantsBundle:
    """Run the full pipeline for a damped-gradient system.

    Order: theta-moment check, potential certificate, quadratic form,
    weight-drift fit, jump regularity (exponent 1/2), activity floor,
    far-field sublevel set, force Lipschitz bound on its position ball
    ``max(x_max, 1)``, transform weights and modification cap, far-field
    radius, profile, tilt weight and rate. The chain certifies a rate only
    when the Lipschitz bound is finite and ``alpha0 > 1``; otherwise ``k0``,
    ``lambda0`` and ``c_star_profile`` are infinite, the profile is the
    linear member and ``log_eps = log_rate = -inf``.
    """
    if levy_spec.measure.moment_pair(levy_spec.theta).divergent:
        raise MomentFailure(f"the moment int |u|^2 ^ |u|^theta of {levy_spec.measure} "
                            f"diverges at theta = {levy_spec.theta}")
    notes: list[str] = []
    a, b = langevin.a, langevin.b
    setup = md.build_lyapunov(langevin, grid_radius, levy_spec.theta)
    if setup.source == "manual_fallback":
        notes.append("auto certificate unavailable: fell back to lam1=1")
    lyap = setup.lyap

    c0_lyap, C0_lyap = fit_lyapunov_drift(langevin, levy_spec, lyap, grid_radius, n_grid,
                                          scheme)
    c_star, _ = md.verify_jump_regularity(lyap, levy_spec.slice_part, grid_radius)

    theta0 = levy_spec.slice_part.theta0
    c0_sigma = ms.fit_overlap_floor(levy_spec.slice_part, r0_jump)

    geom = far_field_sublevel(c0_lyap, C0_lyap, c_star, levy_spec.theta,
                              lyap.r, lyap.r0_cross)
    pos_radius = max(geom.x_max, 1.0)
    lam_star = compute_lipschitz(langevin, pos_radius)
    bounded = math.isfinite(lam_star)
    if not bounded:  # reported as 0, and the chain certifies nothing
        lam_star = 0.0
    alpha, alpha0 = compute_alpha_alpha0(a, b, lam_star)
    kappa = r0_jump / (2.0 * alpha)
    R0 = compute_R0(geom, alpha, alpha0, kappa)

    # the zero-reshaping member of the family (g == 0, so f(s) = 2 s)
    linear = DistanceProfile(log_c1=0.0, c2=0.0, g_coef=0.0, theta0=theta0, cap=2.0 * R0)
    # a finite lam_star is at least about alpha_damp, so alpha0 = 1 leaves
    # 16 lam_star / b below an ulp of 1: degenerate, not divided by alpha0 - 1
    if bounded and alpha0 > 1.0:
        balpha = b * alpha
        k0 = (8.0 * (lam_star + balpha * (1.0 + alpha0) + 0.75 * (1.0 - 1.0 / alpha0) * balpha)
              / ((alpha0 - 1.0) * balpha))
        lambda0 = (k0 * a + balpha) * (1.0 + alpha0) + lam_star * (1.0 + (1.0 + 1.0 / alpha) * k0)
        c_star_profile = 1.0 + 8.0 * lambda0 / (3.0 * (1.0 - 1.0 / alpha0) * balpha)
        profile = build_profile(activity_coef(c0_sigma, theta0, alpha, kappa, R0), theta0,
                                c_star_profile, k0, alpha0, R0, b, alpha)
        log_eps, log_rate = tilt_and_rate_log(profile.log_c1, alpha0, b, alpha, C0_lyap,
                                              c_star, c0_lyap)
        flags = ["degenerate_rate"] if log_rate == -math.inf else []
    else:
        k0 = lambda0 = c_star_profile = math.inf
        profile = linear
        log_eps = log_rate = -math.inf
        flags = ([] if bounded else ["lipschitz_unbounded"]) + ["degenerate_rate",
                                                                "profile_unavailable"]

    report = ConstantsReport(
        a=a, b=b, theta=levy_spec.theta, alpha=alpha, alpha0=alpha0, kappa=kappa,
        r0_jump=r0_jump, c0_sigma=c0_sigma, theta0=theta0, k0=k0, lambda0=lambda0,
        c_star_profile=c_star_profile, log_c1=profile.log_c1, c2=profile.c2,
        R0=R0, S_star=geom.S_star, position_radius=pos_radius, lambda_star_R0=lam_star,
        log_eps=log_eps, c_star_A2=c_star, c0_lyap=c0_lyap, C0_lyap=C0_lyap,
        log_rate=log_rate, flags=tuple(flags), notes=tuple(notes),
    )

    w = gen.lyapunov_test_function(lyap)

    def pair_cost(prof, prof_alpha0, prof_log_eps):
        return gen.ProductPairFn(gen.ProfilePairFn(ClampedProfile(prof, R0), alpha, prof_alpha0),
                                 gen.SeparablePairFn(w, w, math.exp(prof_log_eps), 1.0))

    # practical monitor: when the certified profile is missing or numerically
    # flat over the reachable gap range, Monte Carlo monitoring falls back to
    # the linear member and a minimal 2:1 position blend; the conservative
    # transform weight collapses the blended gap onto the ringing position
    # component otherwise
    probe = profile.value(np.array([1e-3 * R0, R0]))
    fallback = bool(profile is linear or not (probe[1] > probe[0] > 0.0)
                    or (probe[1] - probe[0]) <= 1e-12 * probe[1])
    cost = pair_cost(profile, alpha0, log_eps)
    monitor = cost
    if fallback:
        monitor = pair_cost(linear, min(alpha0, 2.0),
                            tilt_and_rate_log(0.0, alpha0, b, alpha, C0_lyap, c_star, c0_lyap)[0])
    return ConstantsBundle(system=langevin, levy=levy_spec, lyap=lyap, profile=profile,
                           report=report, cost=cost, monitor=monitor,
                           monitor_is_fallback=fallback)
