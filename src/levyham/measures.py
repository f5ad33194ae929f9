"""Jump measures, overlap quantities, and jump sampling.

The driving noise is a pure-jump measure ``nu`` on R^d: a ``SliceMeasure``
or an ``IsotropicStable`` measure. The coupling machinery works through a
dominated sub-measure ``nu*`` from the slice family: density
``c * |z|^(-d - theta0)`` on the slab ``{0 < z_1 <= 1}``. A measure strictly
above the slab is a stable measure with an explicit, smaller ``slice_part``
in its ``LevyMeasureSpec``.
For a shift ``x`` the overlap measure ``nu*_x = min(nu*, nu* shifted by x)``
is finite whenever ``x != 0``; its total mass is the rate at which the
coupled pair can be pushed together at displacement ``x``. Masses, moments
and compensators are closed forms, and the sampler works, in every dimension.

All measure objects are immutable and safe to share between workers.
Jump sampling takes an explicit ``numpy.random.SeedSequence``; there is no
module level random state.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmall, MomentFailure, NonPositiveRadius, ShiftIsZero

__all__ = [
    "truncate",
    "SliceMeasure",
    "IsotropicStable",
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
    function outside it. These d >= 2 formulas import ``scipy.special`` on
    first use, so d = 1 runs never load it.
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
        from scipy import special  # slow to import; d >= 2 only

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
            # slow to import (integrate loads scipy.optimize); d >= 2 only
            from scipy import integrate, special

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
        if self.dim == 1:
            scale = self.c
        else:
            from scipy import special  # slow to import; d >= 2 only

            scale = sphere_area(self.dim) * self.c / (
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
        from scipy import special  # slow to import; d >= 2 only

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

    @property
    def batches_marks(self) -> bool:
        """Whether ``sample_annulus`` draws one ``random(n)`` block and returns
        ``batch_marks`` of it (d = 1), so a sampler may transform the
        uniforms of many annuli in one call."""
        return self.dim == 1

    def batch_marks(self, u: np.ndarray, edges, which: np.ndarray) -> np.ndarray:
        """d = 1 marks from inverse-CDF uniforms ``u``, uniform ``i`` on the
        annulus ``edges[which[i]]`` (``(a, b)`` pairs)."""
        # each annulus's edge powers once, as Python floats: 0-d and array ``**``
        # can differ in the last bit
        powers = np.array([(a ** -self.theta0, min(b, 1.0) ** -self.theta0) for a, b in edges])
        lo_p, hi_p = powers.reshape(-1, 2)[which].T
        return ((lo_p - u * (lo_p - hi_p)) ** (-1.0 / self.theta0))[:, None]

    def sample_annulus(self, a: float, b: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. marks from the measure restricted to ``a < |u| <= b``."""
        if n == 0:
            return np.empty((0, self.dim))
        if self.dim == 1:
            return self.batch_marks(rng.random(n), [(a, b)], np.zeros(n, dtype=np.intp))
        # rejection: isotropic radius proposal, accept when the direction
        # lands in the admissible cap (fraction A(r) <= A(a))
        out, filled = np.empty((n, self.dim)), 0
        lo_p, hi_p = a ** -self.theta0, b ** -self.theta0
        while filled < n:
            m = max(4 * (n - filled), 64)
            u = rng.random(m)
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

    batches_marks = False  # sample_annulus draws signs or directions too

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
        u = rng.random(n)
        lo_p = a ** -self.alpha0
        hi_p = 0.0 if math.isinf(b) else b ** -self.alpha0
        r = (lo_p - u * (lo_p - hi_p)) ** (-1.0 / self.alpha0)
        if self.dim == 1:
            sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
            return (r * sign)[:, None]
        g = rng.standard_normal((n, self.dim))
        e = g / np.linalg.norm(g, axis=1, keepdims=True)
        return r[:, None] * e


def _default_slice_for(measure) -> SliceMeasure:
    if isinstance(measure, SliceMeasure):
        return measure
    if isinstance(measure, IsotropicStable):
        # slab restriction of the measure itself: dominated in every dimension
        return SliceMeasure(c=measure.scale, theta0=measure.alpha0, dim=measure.dim)
    raise TypeError(f"no default coupling slice for {type(measure).__name__}")


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Driving measure ``nu``, its coupling slice ``nu* <= nu``, and the moment exponent."""

    measure: object
    theta: float = 1.0
    slice_part: SliceMeasure | None = None

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.slice_part is None:
            object.__setattr__(self, "slice_part", _default_slice_for(self.measure))
        if self.slice_part.dim != self.measure.dim:
            raise ValueError("slice dimension differs from the measure dimension")
        self._check_domination()

    @property
    def dim(self) -> int:
        return self.measure.dim

    def _check_domination(self):
        # probe nu >= nu* pointwise on a deterministic grid of the slab (n points for dim >= 2)
        radii = np.geomspace(1e-6, 1.0, 32)
        if self.dim == 1:
            pts = radii[:, None]
        else:
            rng, n = np.random.default_rng(0), 512
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
        from scipy import integrate  # slow to import (it loads scipy.optimize); d = 2 only

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


def fit_overlap_floor(slice_m: SliceMeasure, r0: float) -> float:
    """Fit ``c0`` with ``J(s) >= c0 s^(-theta0)`` on ``(0, r0]``, ``theta0``
    the slice's own exponent.

    ``c0`` is the minimum of ``J(s) s^theta0`` over 64 geometric radii in
    ``[r0 / 1000, r0]``, so the bound holds at every probed radius by construction.
    """
    if r0 <= 0:
        raise NonPositiveRadius("r0 must be positive")
    grid = np.geomspace(r0 * 1e-3, r0, 64)
    vals = [overlap_mass_lower_bound(slice_m, float(s)) * s ** slice_m.theta0 for s in grid]
    c0 = float(min(vals))
    if c0 <= 0:
        raise MomentFailure("overlap floor fit produced a non-positive constant")
    return c0


# ---------------------------------------------------------------------------
# jump sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpBatch:
    """Jumps of an ensemble over a horizon: times, marks, per-jump uniforms and rows.

    Jump ``i`` belongs to the replica at position ``rows[i]`` of the sampled
    replicas; the batch is ordered by (row, time). The uniforms are drawn in
    the same stream as the marks so that cutoff refinements keep shared jumps
    (and their classification draws) identical.
    """

    times: np.ndarray
    marks: np.ndarray
    unif: np.ndarray
    rows: np.ndarray

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


# numpy's SeedSequence hash (pool size 4) and PCG64 seeding constants
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = tuple(_PCG_MULT >> s & _M32 for s in (0, 32, 64, 96))


def _words(value) -> list:
    # SeedSequence's little-endian 32-bit words of an integer or a sequence of them
    if not isinstance(value, (int, np.integer)):
        return [w for v in value for w in _words(v)]
    value = int(value)
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    # SeedSequence's hashmix on ints or uint64 arrays: the mixed value and the next constant
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    out = (_MIX_L * x - _MIX_R * y) & _M32
    return out ^ out >> 16


def _carry(cols: list) -> list:
    # the 32-bit limbs, low first, of sum(cols[k] << 32 k) mod 2^128
    out, carry = [], 0
    for col in cols:
        carry = carry + col
        out.append(carry & _M32)
        carry = carry >> 32
    return out


def _pcg64_states(seed: np.random.SeedSequence, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """PCG64 state of ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (rows[i],
    keys[i]))`` for every ``i``, in one array pass of the hash: row ``i`` holds the
    state's low and high 64-bit words, then the increment's.

    Every spawn-key word sits past the first four entropy words (a spawn key
    pads the entropy to the pool size), so the pool is shared up to the last
    two words, each below 2^32.
    """
    if seed.pool_size != 4:
        raise ValueError(f"need a seed sequence of pool size 4, got {seed.pool_size}")
    if len(rows) and (rows.min() < 0 or rows.max() > _M32):
        raise ValueError("replica indices must lie in [0, 2^32)")
    words = _words(seed.entropy)
    words += [0] * (4 - len(words)) + _words(seed.spawn_key)
    const, pool = _INIT_A, []
    for w in words[:4]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for i in range(4):
        for j in range(4):
            if i != j:
                h, const = _hashmix(pool[i], const)
                pool[j] = _mix(pool[j], h)
    for w in words[4:] + [rows.astype(np.uint64), keys.astype(np.uint64)]:
        for j in range(4):
            h, const = _hashmix(w, const)
            pool[j] = _mix(pool[j], h)
    # generate_state(4, uint64) as eight 32-bit words a..h: initstate is a|b<<32
    # (high) and c|d<<32 (low), initseq likewise e..h
    const, out = _INIT_B, []
    for i in range(8):
        h, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(h)
    a, b, c, d, e, f, g, h = out
    # PCG64 seeding on 32-bit limbs, low first: inc = initseq << 1 | 1 and
    # state = (inc + initstate) * _PCG_MULT + inc, all mod 2^128
    inc = [g << 1 & _M32 | 1, (h << 1 | g >> 31) & _M32,
           (e << 1 | h >> 31) & _M32, (f << 1 | e >> 31) & _M32]
    s = _carry([inc[0] + c, inc[1] + d, inc[2] + a, inc[3] + b])
    # column k takes the low halves of the limb products with i + j = k and
    # the high halves of those with i + j = k - 1: at most eight terms below
    # 2^32 each, so no column overflows 64 bits
    cols = list(inc)
    for i in range(4):
        for j in range(4 - i):
            p = s[i] * _PCG_MULT_LIMBS[j]
            cols[i + j] = cols[i + j] + (p & _M32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (p >> 32)
    state = _carry(cols)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32,
                     inc[0] | inc[1] << 32, inc[2] | inc[3] << 32], axis=-1)


class _PCG64Raw(ctypes.Structure):
    # numpy's pcg64_state, the struct PCG64.ctypes.state_address points to;
    # pcg_state holds the state and increment, each a 128-bit pcg128_t
    _fields_ = [("pcg_state", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


def _raw_state(bitgen: np.random.PCG64):
    # the generator's state struct and a uint64 view of its four state words;
    # both are valid only while bitgen lives
    raw = _PCG64Raw.from_address(bitgen.ctypes.state_address)
    return raw, np.frombuffer(raw.pcg_state.contents, dtype=np.uint64)


@functools.cache
def _state_word_order() -> tuple:
    """The column order that puts ``_pcg64_states``'s words in PCG64's raw layout.

    A native little-endian 128-bit integer stores its low word first; builds
    that emulate 128-bit arithmetic (MSVC) store ``{high, low}``. One state
    set through the public setter and read back raw tells which.
    """
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": 1 << 64 | 2, "inc": 3 << 64 | 5},
                    "has_uint32": 0, "uinteger": 0}
    got = _raw_state(bitgen)[1].tolist()
    for order in ((0, 1, 2, 3), (1, 0, 3, 2)):
        if got == [(2, 1, 5, 3)[i] for i in order]:
            return order
    raise RuntimeError(f"unrecognised PCG64 state layout in numpy {np.__version__}: {got}")


# peak memory of a pair ensemble per sampled jump: the growth of its peak RSS
# with the horizon (2000 replicas of configs/benchmark.cfg at horizons 20-80)
JUMP_BYTES = 108


def _fitting_cutoff(measure, rate: float, cutoff: float) -> float:
    # the smallest cutoff above ``cutoff`` with mass_above <= rate, rounded up
    # to three significant digits; mass_above decreases in the cutoff
    lo, hi = cutoff, 2.0 * cutoff
    while measure.mass_above(hi) > rate:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if measure.mass_above(mid) > rate else (lo, mid)
    step = 10.0 ** (math.floor(math.log10(hi)) - 2)
    return math.ceil(hi / step) * step


def sample_large_jumps(measure, horizon: float, cutoff: float, seed: np.random.SeedSequence,
                       replicas, budget: float = 2e7) -> JumpBatch:
    """Sample every jump with ``|u| > cutoff`` on ``[0, horizon]``, for each replica.

    Each replica's jumps form a Poisson process with rate ``nu({|u| >
    cutoff})``; marks are i.i.d. from the normalised restriction. Sampling is
    organised on a fixed dyadic ladder of annuli, each with its own stream, so
    that runs that differ only in the cutoff share every jump above the
    coarser cutoff. Annulus ``k`` of replica ``r`` in ``replicas`` draws from
    the PCG64 stream of ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key
    + (r, k))``, with ``0 <= r < 2^32``: its poisson count, the times, the
    marks and the uniforms, in that order. Every stream's state is computed
    in one array pass and drawn through one reused generator, so a replica's
    jumps depend on ``r`` alone, never on the other replicas, and ``seed`` is
    not advanced. Each stream's four state words are written in place through
    a view of the generator's raw state, which also clears its buffered
    32-bit half, as numpy's state setter does; whether a 128-bit word sits
    low or high half first is probed once per process. For a measure that
    ``batches_marks`` (the 1-d slice) a stream's three uniform blocks are one
    ``random(3n)`` draw, and one ``batch_marks`` call after the loop turns
    every stream's mark uniforms into marks, bit for bit those
    ``sample_annulus`` draws; other measures call ``sample_annulus`` per
    stream. ``budget`` bounds the whole ensemble's expected jump count, and
    is checked before any draw.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff < _MIN_ANNULUS_EDGE:
        raise CutoffTooSmall(f"cutoff below the sampler floor {_MIN_ANNULUS_EDGE:g}")
    n_reps = len(replicas)
    expected = n_reps * measure.mass_above(cutoff) * horizon
    if expected > budget:
        fits = _fitting_cutoff(measure, budget / (n_reps * horizon), cutoff)
        raise CutoffTooSmall(
            f"expected {expected:.3g} jumps above cutoff {cutoff:g} over {n_reps} replicas "
            f"(about {expected * JUMP_BYTES / 1e9:.3g} GB at {JUMP_BYTES} bytes per jump), "
            f"budget {budget:.3g} jumps; the smallest cutoff that fits is {fits:.3g}")
    annuli = [(k, lo, hi, mass * horizon)
              for k, lo, hi in _annulus_edges(cutoff, measure.support_radius())
              if (mass := measure.annulus_mass(lo, hi)) > 0]
    reps = np.asarray(replicas, dtype=np.int64)
    batched = measure.batches_marks
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    raw, words = _raw_state(bitgen)
    counts, draws = [], []
    states = _pcg64_states(seed, np.repeat(reps, len(annuli)),
                           np.tile(np.array([a[0] for a in annuli], dtype=np.int64), len(reps)))
    for state, (_, lo, hi, lam) in zip(states[:, _state_word_order()], annuli * len(reps)):
        # what the public state setter writes: the words, and no buffered 32-bit half
        words[:] = state
        raw.has_uint32 = raw.uinteger = 0
        n = int(gen.poisson(lam))
        counts.append(n)
        if not n:  # an empty annulus draws nothing more
            continue
        # gen.random(n) * horizon and gen.random(n) are, bit for bit, the
        # draws of gen.uniform(0.0, horizon, n) and gen.uniform(size=n); a
        # batching measure's sample_annulus draws one random(n) between them,
        # so one random(3n) holds all three blocks
        if batched:
            draws.append(gen.random(3 * n).reshape(3, n))
        else:
            draws.append((gen.random(n) * horizon, measure.sample_annulus(lo, hi, n, gen),
                          gen.random(n)))
    if batched:
        times, u, unifs = np.concatenate([np.empty((3, 0)), *draws], axis=1)
        del draws  # free the per-stream blocks before the ensemble-wide temporaries
        times *= horizon
        which = np.repeat(np.tile(np.arange(len(annuli)), len(reps)), counts)
        marks = measure.batch_marks(u, [(lo, hi) for _, lo, hi, _ in annuli], which)
        del u, which  # so the filter below frees the uniform blocks
    else:
        times, marks, unifs = (np.concatenate(col) for col in zip(
            (np.empty(0), np.empty((0, measure.dim)), np.empty(0)), *draws))
    rows = np.repeat(np.arange(len(reps)),
                     np.array(counts, dtype=np.int64).reshape(len(reps), len(annuli)).sum(axis=1))
    keep = np.linalg.norm(marks, axis=1) > cutoff
    times, marks, unifs, rows = times[keep], marks[keep], unifs[keep], rows[keep]
    # each replica's jumps in time order; a tie takes the stable sort, so it keeps the annulus order
    bounds = np.searchsorted(rows, np.arange(len(reps) + 1)).tolist()
    order = np.arange(len(times))
    for kind in (None, "stable"):
        for a, b in zip(bounds, bounds[1:]):
            if b - a > 1:
                order[a:b] = a + np.argsort(times[a:b], kind=kind)
        if not np.any((np.diff(times[order]) == 0.0) & (np.diff(rows) == 0)):
            break
    return JumpBatch(times[order], marks[order], unifs[order], rows)
