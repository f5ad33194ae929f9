"""Jump measures, overlap quantities, and jump sampling.

The driving noise is a pure-jump measure ``nu`` on R^d. The coupling
machinery works through a dominated sub-measure ``nu*`` from the slice
family: density ``c * |z|^(-d - theta0)`` on the slab ``{0 < z_1 <= 1}``.
For a shift ``x`` the overlap measure ``nu*_x = min(nu*, nu* shifted by x)``
is finite whenever ``x != 0``; its total mass is the rate at which the
coupled pair can be pushed together at displacement ``x``. Masses, moments
and compensators are closed forms, and the sampler works, in every dimension.

All measure objects are immutable and safe to share between workers.
Sampling takes an explicit ``numpy.random.Generator``; there is no module
level random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import CutoffTooSmall, MomentFailure, NonPositiveRadius, ShiftIsZero

__all__ = [
    "truncate",
    "SliceMeasure",
    "IsotropicStable",
    "SumMeasure",
    "LevyMeasureSpec",
    "MomentReport",
    "JumpBatch",
    "overlap_density",
    "overlap_ratio",
    "overlap_mass",
    "overlap_mass_lower_bound",
    "fit_overlap_floor",
    "sample_large_jumps",
]

# Smallest annulus edge used by the nested jump sampler (2^-60).
_MIN_ANNULUS_EDGE = 2.0 ** -60


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim (2 for dim=1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def truncate(x: np.ndarray, kappa: float) -> np.ndarray:
    """Rescale each ``x[..., :]`` to norm at most ``kappa > 0``, preserving direction.

    The zero vector maps to itself.
    """
    if kappa <= 0:
        raise NonPositiveRadius(f"kappa must be positive, got {kappa}")
    x = np.asarray(x, dtype=float)
    return x * (kappa / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), kappa))


@dataclass(frozen=True)
class MomentReport:
    """Values of the two moment integrals of a jump measure.

    ``small_jump``   is the integral of ``1 ^ |u|^2``.
    ``theta_moment`` is the integral of ``|u|^2 ^ |u|^theta``.
    ``divergent``    flags an infinite ``theta_moment`` (the value is then inf).
    """

    small_jump: float
    theta_moment: float
    divergent: bool = False


@dataclass(frozen=True)
class SliceMeasure:
    """Measure with density ``c |z|^(-dim-theta0)`` on the slab ``0 < z_1 <= 1``.

    ``theta0`` in (0, 2) controls the small-jump singularity; the measure is
    infinite near zero but sigma-finite, and every annulus away from zero
    carries finite mass.

    Masses, moments and the compensator are closed forms in every
    dimension. In polar form the density is ``omega c r^(-1-theta0) A(r)``,
    with ``omega`` the sphere area and ``A(r)`` the share of the unit sphere
    whose first coordinate lies in ``(0, m]``, ``m = min(1, 1/r)``. Under the
    uniform law ``e_1^2`` is Beta(1/2, k) with ``k = (dim - 1)/2``, so
    ``A(r) = I_{m^2}(1/2, k) / 2`` (``special.betainc``): the half space's
    1/2 inside the unit ball, and every radial integral an incomplete beta
    function outside it.
    """

    c: float
    theta0: float
    dim: int = 1

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"density scale must be positive, got {self.c}")
        if not 0.0 < self.theta0 < 2.0:
            raise ValueError(f"theta0 must lie in (0, 2), got {self.theta0}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    # -- densities -------------------------------------------------------

    def density(self, u: np.ndarray) -> np.ndarray:
        """Density at points ``u`` (shape (..., dim)); zero off the slab."""
        u = np.asarray(u, dtype=float)
        norm = np.linalg.norm(u, axis=-1)
        first = u[..., 0]
        on = (first > 0.0) & (first <= 1.0) & (norm > 0.0)
        out = np.zeros_like(norm)
        out[on] = self.c * norm[on] ** (-(self.dim + self.theta0))
        return out[()]

    # -- masses and moments ----------------------------------------------

    def support_radius(self) -> float:
        """Largest jump norm carrying mass (inf for dim >= 2)."""
        return 1.0 if self.dim == 1 else math.inf

    def mass_above(self, a: float) -> float:
        """Mass of ``{|u| > a}``."""
        return self.annulus_mass(a, math.inf)

    def _slab_tail(self, r: float) -> float:
        # dim >= 2 mass above r > 0: omega c (r^-t I_x(1/2, k) - B(q, k) / B(1/2, k)
        # I_x(q, k)) / (2 t) with t = theta0, q = (1 + t)/2 and x = min(1, r^-2)
        t, k, x = self.theta0, (self.dim - 1) / 2.0, 1.0 if r <= 1.0 else r ** -2.0
        q = (1.0 + t) / 2.0
        inner = (r ** -t * special.betainc(0.5, k, x)
                 - special.beta(q, k) / special.beta(0.5, k) * special.betainc(q, k, x))
        return sphere_area(self.dim) * self.c * inner / (2.0 * t)

    def annulus_mass(self, a: float, b: float) -> float:
        """Mass of ``{a < |u| <= b}``."""
        if a < 0 or b < a:
            raise ValueError("need 0 <= a <= b")
        if a == 0.0:
            return math.inf if b > 0.0 else 0.0
        if self.dim == 1:
            hi = min(b, 1.0)
            if a >= hi:
                return 0.0
            return (self.c / self.theta0) * (a ** -self.theta0 - hi ** -self.theta0)
        return self._slab_tail(a) - self._slab_tail(b)

    def second_moment_within(self, rho: float) -> float:
        """Integral of ``|u|^2`` over ``{|u| <= rho}``."""
        if self.dim == 1:
            r = min(rho, 1.0)
            return self.c * r ** (2.0 - self.theta0) / (2.0 - self.theta0)
        val = 0.5 * min(rho, 1.0) ** (2.0 - self.theta0) / (2.0 - self.theta0)
        if rho > 1.0:
            k = (self.dim - 1) / 2.0
            val += integrate.quad(
                lambda r: r ** (1.0 - self.theta0) * 0.5 * special.betainc(0.5, k, r ** -2.0),
                1.0, rho)[0]
        return sphere_area(self.dim) * self.c * val

    def compensation_drift(self, delta: float) -> np.ndarray:
        """Minus the mean jump over ``{delta < |u| <= 1}`` (one-sided measure)."""
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        # the unit ball's slab is the half space, where E[e_1; e_1 > 0] = 1 / ((d-1) B(1/2, k))
        scale = self.c if self.dim == 1 else sphere_area(self.dim) * self.c / (
            (self.dim - 1) * special.beta(0.5, (self.dim - 1) / 2.0))
        out = np.zeros(self.dim)
        if self.theta0 == 1.0:
            out[0] = -scale * math.log(1.0 / delta)
        else:
            out[0] = -scale * (1.0 - delta ** (1.0 - self.theta0)) / (1.0 - self.theta0)
        return out

    def moment_pair(self, theta: float) -> MomentReport:
        """Small-jump and ``theta``-moment integrals; always finite here."""
        if self.dim == 1:
            val = self.c / (2.0 - self.theta0)
            # support lies in (0, 1]: both integrands reduce to |u|^2 there
            return MomentReport(val, val, False)
        k = (self.dim - 1) / 2.0

        def beyond_one(p):
            # integral of r^(p-1) A(r) over r > 1; near p = 0 the quotient cancels, so take
            # the digamma limit and its first-order term (1e-10 relative either side)
            if abs(p) < 1e-5:
                lim = 0.25 * (special.digamma(0.5 + k) - special.digamma(0.5))
                trigamma = special.polygamma(1, 0.5) - special.polygamma(1, 0.5 + k)
                return lim + p * (lim * lim + trigamma / 16.0)
            return (special.beta((1.0 - p) / 2.0, k) / special.beta(0.5, k) - 1.0) / (2.0 * p)

        # inside the unit ball both integrands are |u|^2 on the half space
        scale, inner = sphere_area(self.dim) * self.c, 0.5 / (2.0 - self.theta0)
        return MomentReport(scale * (inner + beyond_one(-self.theta0)),
                            scale * (inner + beyond_one(theta - self.theta0)), False)

    # -- sampling ---------------------------------------------------------

    def sample_annulus(self, a: float, b: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. marks from the measure restricted to ``a < |u| <= b``."""
        if n == 0:
            return np.empty((0, self.dim))
        if self.dim == 1:
            hi = min(b, 1.0)
            u = rng.uniform(size=n)
            lo_p = a ** -self.theta0
            hi_p = hi ** -self.theta0
            r = (lo_p - u * (lo_p - hi_p)) ** (-1.0 / self.theta0)
            return r[:, None]
        # rejection: isotropic radius proposal, accept when the direction
        # lands in the admissible cap (fraction A(r) <= A(a))
        out, filled = np.empty((n, self.dim)), 0
        lo_p, hi_p = a ** -self.theta0, b ** -self.theta0
        while filled < n:
            m = max(4 * (n - filled), 64)
            u = rng.uniform(size=m)
            r = (lo_p - u * (lo_p - hi_p)) ** (-1.0 / self.theta0)
            g = rng.standard_normal((m, self.dim))
            e = g / np.linalg.norm(g, axis=1, keepdims=True)
            first = r * e[:, 0]
            ok = (first > 0.0) & (first <= 1.0)
            take = min(int(ok.sum()), n - filled)
            out[filled : filled + take] = (r[ok][:take, None]) * e[ok][:take]
            filled += take
        return out


@dataclass(frozen=True)
class IsotropicStable:
    """Rotationally invariant measure with density ``scale |u|^(-dim-alpha0)``.

    ``scale`` multiplies the density directly; no stable-law normalisation
    constant is folded in.
    """

    alpha0: float
    scale: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha0 < 2.0:
            raise ValueError(f"alpha0 must lie in (0, 2), got {self.alpha0}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def density(self, u: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(np.asarray(u, dtype=float), axis=-1)
        out = np.zeros_like(norm)
        pos = norm > 0
        out[pos] = self.scale * norm[pos] ** (-(self.dim + self.alpha0))
        return out[()]

    def support_radius(self) -> float:
        return math.inf

    def mass_above(self, a: float) -> float:
        if a <= 0:
            return math.inf
        return sphere_area(self.dim) * self.scale * a ** -self.alpha0 / self.alpha0

    def annulus_mass(self, a: float, b: float) -> float:
        if math.isinf(b):
            return self.mass_above(a)
        return self.mass_above(a) - self.mass_above(b)

    def second_moment_within(self, rho: float) -> float:
        return sphere_area(self.dim) * self.scale * rho ** (2.0 - self.alpha0) / (2.0 - self.alpha0)

    def compensation_drift(self, delta: float) -> np.ndarray:
        # symmetric measure: compensated small jumps contribute no drift
        return np.zeros(self.dim)

    def moment_pair(self, theta: float) -> MomentReport:
        omega = sphere_area(self.dim)
        small = omega * self.scale * (1.0 / (2.0 - self.alpha0) + 1.0 / self.alpha0)
        if theta >= self.alpha0:
            return MomentReport(small, math.inf, True)
        theta_m = omega * self.scale * (1.0 / (2.0 - self.alpha0) + 1.0 / (self.alpha0 - theta))
        return MomentReport(small, theta_m, False)

    def sample_annulus(self, a: float, b: float, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty((0, self.dim))
        u = rng.uniform(size=n)
        lo_p = a ** -self.alpha0
        hi_p = 0.0 if math.isinf(b) else b ** -self.alpha0
        r = (lo_p - u * (lo_p - hi_p)) ** (-1.0 / self.alpha0)
        if self.dim == 1:
            sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
            return (r * sign)[:, None]
        g = rng.standard_normal((n, self.dim))
        e = g / np.linalg.norm(g, axis=1, keepdims=True)
        return r[:, None] * e


@dataclass(frozen=True)
class SumMeasure:
    """Superposition of component jump measures (independent jump streams)."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("SumMeasure needs at least one component")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise ValueError("all components must share the dimension")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def density(self, u):
        return sum(p.density(u) for p in self.parts)

    def support_radius(self):
        return max(p.support_radius() for p in self.parts)

    def mass_above(self, a):
        return sum(p.mass_above(a) for p in self.parts)

    def annulus_mass(self, a, b):
        return sum(p.annulus_mass(a, b) for p in self.parts)

    def second_moment_within(self, rho):
        return sum(p.second_moment_within(rho) for p in self.parts)

    def compensation_drift(self, delta):
        return sum(p.compensation_drift(delta) for p in self.parts)

    def moment_pair(self, theta):
        reports = [p.moment_pair(theta) for p in self.parts]
        div = any(r.divergent for r in reports)
        return MomentReport(
            sum(r.small_jump for r in reports),
            math.inf if div else sum(r.theta_moment for r in reports),
            div,
        )


def _default_slice_for(measure) -> SliceMeasure:
    if isinstance(measure, SliceMeasure):
        return measure
    if isinstance(measure, IsotropicStable):
        # slab restriction of the measure itself: dominated in every dimension
        return SliceMeasure(c=measure.scale, theta0=measure.alpha0, dim=measure.dim)
    if isinstance(measure, SumMeasure):
        return _default_slice_for(measure.parts[0])
    raise TypeError(f"no default coupling slice for {type(measure).__name__}")


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Driving measure ``nu``, its coupling slice ``nu* <= nu``, and the moment exponent."""

    measure: object
    theta: float = 1.0
    slice_part: SliceMeasure | None = None
    moments: MomentReport = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.slice_part is None:
            object.__setattr__(self, "slice_part", _default_slice_for(self.measure))
        if self.slice_part.dim != self.measure.dim:
            raise ValueError("slice dimension differs from the measure dimension")
        object.__setattr__(self, "moments", self.measure.moment_pair(self.theta))
        self._check_domination()

    @property
    def dim(self) -> int:
        return self.measure.dim

    def _check_domination(self, n: int = 512):
        # probe nu >= nu* pointwise on a deterministic grid of the slab
        rng = np.random.default_rng(0)
        radii = np.geomspace(1e-6, 1.0, 32)
        if self.dim == 1:
            pts = radii[:, None]
        else:
            g = rng.standard_normal((n, self.dim))
            e = g / np.linalg.norm(g, axis=1, keepdims=True)
            e[:, 0] = np.abs(e[:, 0])
            scale = np.minimum(1.0, 1.0 / e[:, 0])
            pts = (rng.uniform(size=n) * scale * radii[rng.integers(0, 32, n)])[:, None] * e
            keep = (pts[:, 0] > 0) & (pts[:, 0] <= 1.0)
            pts = pts[keep]
        q_star = self.slice_part.density(pts)
        q = self.measure.density(pts)
        bad = q_star > q * (1.0 + 1e-9)
        if np.any(bad):
            raise ValueError(
                "coupling slice is not dominated by the driving measure "
                f"(first violation at |u|={np.linalg.norm(pts[np.argmax(bad)]):.3g})"
            )


# ---------------------------------------------------------------------------
# overlap quantities
# ---------------------------------------------------------------------------


def overlap_density(slice_m: SliceMeasure, shift: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Density of ``min(nu*, nu* shifted by shift)`` at ``u``."""
    shift = np.asarray(shift, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.minimum(slice_m.density(u), slice_m.density(u - shift))


def overlap_ratio(spec: LevyMeasureSpec, shift: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Thinning probability ``rho(shift, u)``: overlap density over ``nu`` density.

    Defined as zero where the driving density vanishes; always in [0, 1].
    """
    shift = np.asarray(shift, dtype=float)
    if float(np.linalg.norm(shift)) == 0.0:
        raise ShiftIsZero("overlap ratio needs a nonzero shift")
    num = np.asarray(overlap_density(spec.slice_part, shift, u), dtype=float)
    den = np.asarray(spec.measure.density(u), dtype=float)
    out = np.zeros_like(num)
    pos = den > 0
    out[pos] = np.clip(num[pos] / den[pos], 0.0, 1.0)
    return out[()]


def overlap_mass(slice_m: SliceMeasure, shift: np.ndarray) -> float:
    """Total mass of the overlap measure at the given shift.

    Closed form for dim = 1, deterministic quadrature for dim = 2; larger
    dimensions raise ``NotImplementedError``.
    """
    shift = np.asarray(shift, dtype=float).reshape(-1)
    s = float(np.linalg.norm(shift))
    if s == 0.0:
        raise ShiftIsZero("overlap mass needs a nonzero shift")
    if slice_m.dim == 1:
        a = abs(float(shift[0]))
        if a >= 1.0:
            return 0.0
        return (slice_m.c / slice_m.theta0) * (a ** -slice_m.theta0 - 1.0)
    if slice_m.dim == 2:
        x1, x2 = float(shift[0]), float(shift[1])
        lo, hi = max(0.0, x1), min(1.0, 1.0 + x1)
        if lo >= hi:
            return 0.0
        p = slice_m.dim + slice_m.theta0

        def inner(u1):
            def f(t):
                # u2 = tan(t) maps the real line to a finite interval
                u2 = math.tan(t)
                r1 = math.hypot(u1, u2)
                r2 = math.hypot(u1 - x1, u2 - x2)
                return max(r1, r2) ** -p / math.cos(t) ** 2

            return integrate.quad(f, -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, limit=200)[0]

        val = integrate.quad(inner, lo, hi, limit=100)[0]
        return slice_m.c * val
    raise NotImplementedError(f"overlap mass implemented for dim <= 2, got dim = {slice_m.dim}")


def overlap_mass_lower_bound(slice_m: SliceMeasure, s: float) -> float:
    """Infimum of the overlap mass over shifts with ``0 < |x| <= s``.

    The mass decreases in ``|x|`` along any fixed direction (covered by
    property tests in d = 1 and d = 2), so the infimum sits at ``|x| = s``:
    the closed form in d = 1, where both directions agree, and otherwise the
    minimum over 64 seeded directions.
    """
    if s <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {s}")
    if slice_m.dim == 1:
        return overlap_mass(slice_m, [s])
    g = np.random.default_rng(2024).standard_normal((64, slice_m.dim))
    return min(overlap_mass(slice_m, s * e) for e in g / np.linalg.norm(g, axis=1, keepdims=True))


def fit_overlap_floor(slice_m: SliceMeasure, r0: float, n_grid: int = 64) -> tuple[float, float]:
    """Fit ``c0`` with ``J(s) >= c0 s^(-theta0)`` on ``(0, r0]``.

    Returns ``(c0, theta0)``; ``c0`` is the grid minimum of ``J(s) s^theta0``
    so the bound holds at every probed radius by construction.
    """
    if r0 <= 0:
        raise NonPositiveRadius("r0 must be positive")
    grid = np.geomspace(r0 * 1e-3, r0, n_grid)
    vals = [overlap_mass_lower_bound(slice_m, float(s)) * s ** slice_m.theta0 for s in grid]
    c0 = float(min(vals))
    if c0 <= 0:
        raise MomentFailure("overlap floor fit produced a non-positive constant")
    return c0, slice_m.theta0


# ---------------------------------------------------------------------------
# jump sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpBatch:
    """Time-ordered jumps over a horizon: times, marks, and per-jump uniforms.

    The uniforms are drawn in the same stream as the marks so that cutoff
    refinements keep shared jumps (and their classification draws) identical.
    """

    times: np.ndarray
    marks: np.ndarray
    unif: np.ndarray

    def __len__(self):
        return self.times.shape[0]


def _annulus_edges(cutoff: float, top: float):
    # dyadic edges 1, 1/2, 1/4, ... shared across cutoff refinements: every
    # (k, lo, hi) has hi > cutoff and 0 < lo < 1 with k <= 60, except the
    # unbounded annulus (63, 1, inf) of a measure with support beyond 1
    edges = []
    k = 0
    while True:
        hi = 2.0 ** -k
        lo = 2.0 ** -(k + 1)
        if hi <= cutoff:
            break
        edges.append((k, lo, hi))
        if lo <= cutoff or lo < _MIN_ANNULUS_EDGE:
            break
        k += 1
    if top > 1.0:
        edges.append((63, 1.0, math.inf))
    return edges


def _merged(batches: list, dim: int) -> JumpBatch:
    # one time-ordered batch; equal times keep the order of ``batches``
    if not batches:
        return JumpBatch(np.empty(0), np.empty((0, dim)), np.empty(0))
    times = np.concatenate([b.times for b in batches])
    order = np.argsort(times, kind="stable")
    return JumpBatch(times[order], np.concatenate([b.marks for b in batches])[order],
                     np.concatenate([b.unif for b in batches])[order])


def _spawned_child(rng: np.random.Generator, k: int) -> np.random.Generator:
    # child k of the next rng.spawn(...), built alone: same stream, spawn counter untouched
    seq = rng.bit_generator.seed_seq
    key = seq.spawn_key + (seq.n_children_spawned + k,)
    child = np.random.SeedSequence(seq.entropy, spawn_key=key, pool_size=seq.pool_size)
    return np.random.Generator(type(rng.bit_generator)(child))


def sample_large_jumps(measure, horizon: float, cutoff: float,
                       rng: np.random.Generator, budget: float = 2e7) -> JumpBatch:
    """Sample every jump with ``|u| > cutoff`` on ``[0, horizon]``.

    Jumps form a Poisson process with rate ``nu({|u| > cutoff})``; marks are
    i.i.d. from the normalised restriction. Sampling is organised on a fixed
    dyadic ladder of annuli, each with its own child stream, so that runs
    that differ only in the cutoff share every jump above the coarser cutoff.
    Annulus (or ``SumMeasure`` part) ``k`` draws from child ``k`` of the next
    ``rng.spawn``, built alone: the batch depends only on ``rng``'s seed
    sequence, which is neither drawn from nor advanced.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff < _MIN_ANNULUS_EDGE:
        raise CutoffTooSmall(f"cutoff below the sampler floor {_MIN_ANNULUS_EDGE:g}")
    if isinstance(measure, SumMeasure):
        return _merged([sample_large_jumps(p, horizon, cutoff, _spawned_child(rng, i), budget)
                        for i, p in enumerate(measure.parts)], measure.dim)

    expected = measure.mass_above(cutoff) * horizon
    if expected > budget:
        raise CutoffTooSmall(
            f"expected {expected:.3g} jumps above cutoff {cutoff:g}, budget {budget:.3g}"
        )
    parts = []
    for k, lo, hi in _annulus_edges(cutoff, measure.support_radius()):
        mass = measure.annulus_mass(lo, hi)
        if mass <= 0:
            continue
        child = _spawned_child(rng, k)
        n = int(child.poisson(mass * horizon))
        t = child.uniform(0.0, horizon, size=n)
        m = measure.sample_annulus(lo, hi, n, child)
        u = child.uniform(size=n)
        keep = np.linalg.norm(m, axis=1) > cutoff
        parts.append(JumpBatch(t[keep], m[keep], u[keep]))
    return _merged(parts, measure.dim)
