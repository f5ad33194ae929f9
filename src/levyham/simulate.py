"""Path simulation of the single process and the coupled pair.

Time stepping is explicit Euler for the drift; jumps above the cutoff are
injected raw at their sampled times, with the compensated small-jump region
replaced by its mean drift. Both ensembles run through one window loop that
steps all replicas together as one ``(2, copies, N, d)`` array (positions,
then velocities): one copy per replica for the single process and two for
the coupled pair. One window body serves both, and ``step_pair``, the
public one-window step. A pair window walks the window's jumps of the first
copy on Python floats, in (replica, time) order, through the overlap-ratio
thinning rule, and displaces the second copy's velocity by ``+/- alpha
(q)_kappa`` accordingly, using the left-limit transformed gap (positions
frozen at the window start, velocity gap updated jump by jump); both copies
then take one array drift step with one force evaluation.

Pair runs are one-dimensional: ``step_pair`` and ``run_pair_ensemble`` raise
NotImplementedError for any other system or noise dimension. The modified
channels carry no compensator term: restricted to the unit ball, the two
channel masses agree in d = 1 by the reflection identity of the one-sided
slice, so the term is exactly zero there; for d >= 2 it is non-zero and not
implemented.

Determinism: annulus ``j`` of replica ``k``'s jumps draws from the PCG64
stream of ``SeedSequence(seed, spawn_key=(k, j))``. One sampler call per
ensemble seeds every stream in one array pass and draws them through one
reused generator; no seed sequence or generator is built per replica or per
annulus. Jump times, marks, and classification uniforms all come from the jump
streams, so runs that differ only in the step size share their noise
realisation exactly, and runs that halve the cutoff keep every shared jump.
Replicas of one batch never mix: replica ``k`` of a single-process batch
equals a one-replica run at ``replica_offset = k``, and the first ``n``
replicas of a pair ensemble equal an ``n``-replica run, blow-ups included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .pair import DEGENERATE_GAP, PairState

__all__ = [
    "SimConfig",
    "SingleTrajectory",
    "PairTrajectory",
    "step_pair",
    "run_pair_ensemble",
    "run_single_ensemble",
]


@dataclass(frozen=True)
class SimConfig:
    """Stepper knobs shared by single and pair runs."""

    h: float = 0.01
    delta: float = 1e-3
    horizon: float = 10.0
    n_replicas: int = 1
    seed: int = 0
    n_save: int = 101
    blowup_norm: float = 1e12

    def __post_init__(self):
        if self.h <= 0 or self.delta <= 0 or self.horizon < 0:
            raise ValueError("h and delta must be positive, horizon non-negative")
        if self.n_save < 1:
            raise ValueError("need at least one snapshot")
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be at least 1, got {self.n_replicas}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def save_times(self) -> np.ndarray:
        if self.horizon == 0.0 or self.n_save == 1:
            return np.zeros(1)
        return np.linspace(0.0, self.horizon, self.n_save)


@dataclass(frozen=True)
class SingleTrajectory:
    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    blown_up: bool = False


@dataclass(frozen=True)
class PairTrajectory:
    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    xp: np.ndarray
    vp: np.ndarray
    blown_up: bool = False
    stability_indicator: float = 0.0


# ---------------------------------------------------------------------------
# jump classification and the pair step
# ---------------------------------------------------------------------------


def _thin(rows, marks, unifs, dens, x, xp, v, vp, alpha: float, kappa: float, slab) -> tuple:
    # The thinning rule over one window's jumps (at least one), on Python
    # floats. A jump u of the first copy at transformed gap q displaces the
    # second copy by u + alpha (q)_kappa with probability rho(-shift, u)/2, by
    # u - alpha (q)_kappa with probability rho(shift, u)/2, else by u; its
    # uniform l picks the branch, and den, the driving density at u, is both
    # ratios' denominator. A degenerate gap (|q| <= DEGENERATE_GAP, as in the
    # pair operator) is synchronous. The jumps come grouped by replica, each
    # in time order; jump i kicks replica rows[i], whose positions and
    # velocities at the window start are x[i], xp[i], v[i], vp[i], and is
    # classified at that replica's left-limit gap. A ratio min(q*(u), q*(w)) /
    # den of the slice density q* sits at the larger point, as q* decreases on
    # the slab (0, 1]; max, min and abs are conditional expressions giving the
    # same floats. Returns the replicas jumped and their velocities after
    # their last jump.
    c, e = slab.c, -1.0 - slab.theta0
    jumped, v_end, vp_end = [], [], []
    last, vn, vpn = -1, 0.0, 0.0
    for r, u, l, den, xr, xpr, vr, vpr in zip(rows, marks, unifs, dens, x, xp, v, vp):
        if r == last:  # carry the gap the replica's last jump left
            vr, vpr = vn, vpn
        else:  # a new replica: keep where the previous one ended (junk for the first)
            last = r
            jumped.append(r)
            v_end.append(vn)
            vp_end.append(vpn)
        q = (xr - xpr) + (vr - vpr) / alpha
        aq = q if q >= 0.0 else -q
        if aq <= DEGENERATE_GAP:
            d = u
        else:
            shift = alpha * (q if aq <= kappa else q * (kappa / aq))
            on = 0.0 < u <= 1.0 and den > 0.0
            d = u + shift
            rho_m = c * (d if d > u else u) ** e / den if on and 0.0 < d <= 1.0 else 0.0
            rho_m = 1.0 if rho_m > 1.0 else rho_m
            if not l <= 0.5 * rho_m:
                d = u - shift
                rho_p = c * (d if d > u else u) ** e / den if on and 0.0 < d <= 1.0 else 0.0
                if not l <= 0.5 * (rho_m + (1.0 if rho_p > 1.0 else rho_p)):
                    d = u
        vn, vpn = vr + u, vpr + d
    return jumped, v_end[1:] + [vn], vp_end[1:] + [vpn]


def _window(system, state: np.ndarray, dt: float, comp: np.ndarray, rows, marks,
            walk: tuple = ()) -> tuple:
    # One Euler window of the state (2, ..., d), positions then velocities, from
    # the window start. Mark i kicks the velocity in flat row rows[i], in the
    # order given. With walk = (unifs, dens, alpha, kappa, slab) the state is
    # the pair (2, 2, N, 1): the marks, grouped by replica, kick the first copy
    # and the thinning walk the second. Returns the state and the start force.
    x, v = state
    force = np.asarray(system.force(x, v), dtype=float)
    rate = np.empty_like(state)
    np.add(system.a * x, system.b * v, rate[0])
    np.add(force, comp, rate[1])
    base = state
    if len(rows):
        base = state.copy()
        if not walk:
            np.add.at(base[1].reshape(-1, state.shape[-1]), rows, marks)
        else:
            gx, gv = state[..., 0].take(rows, axis=2).tolist()  # one gather
            unifs, dens, *rule = walk
            jumped, v_end, vp_end = _thin(rows.tolist(), marks.tolist(), unifs.tolist(),
                                          dens.tolist(), *gx, *gv, *rule)
            # C order: flat index r of the velocities is (0, r, 0), N + r is (1, r, 0)
            base[1].put(jumped + [r + state.shape[2] for r in jumped], v_end + vp_end)
    return base + rate * dt, force


def _require_one_dim(system, levy):
    if system.dim != 1 or levy.dim != 1:
        raise NotImplementedError(
            f"coupled pair runs are implemented for dim 1 only, got system dim {system.dim} "
            f"and noise dim {levy.dim} (the modified-channel compensator is missing in dim >= 2)")


def step_pair(system, levy, pair: PairState, dt: float, jumps, unifs,
              alpha: float, kappa: float, comp: np.ndarray, rows=None) -> PairState:
    """One Euler window of the coupled pair, the window step of ``run_pair_ensemble``.

    ``pair`` holds states of shape ``(..., 1)``. Mark ``i`` of ``jumps``, with
    classification uniform ``unifs[i]``, kicks the first copy in flat
    leading-axis row ``rows[i]`` (row 0 of an unbatched state by default);
    each row's marks are classified and applied in the order given. Blow-up
    is not checked here.
    """
    _require_one_dim(system, levy)
    state = np.stack([a.reshape(-1, 1) for a in (pair.x, pair.xp, pair.v, pair.vp)])
    marks = np.asarray(jumps, dtype=float).reshape(-1, 1)
    rows = np.zeros(len(marks), dtype=int) if rows is None else np.asarray(rows, dtype=int)
    order = np.argsort(rows, kind="stable")
    new, _ = _window(system, state.reshape(2, 2, -1, 1), dt, comp, rows[order],
                     marks[order, 0], (np.asarray(unifs, dtype=float)[order],
                                       levy.measure.density(marks)[order], alpha, kappa,
                                       levy.slice_part))
    return PairState(*(a.reshape(pair.x.shape) for a in (*new[:, 0], *new[:, 1])))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def _window_plan(save_times: np.ndarray, h: float):
    # windows (save, start, length) that tile [0, T] hitting every save time
    # exactly; the window that closes interval k has save = k + 1, the
    # snapshot it ends at, and every other window save = 0
    for k in range(len(save_times) - 1):
        t0, t1 = save_times[k], save_times[k + 1]
        n_sub = max(int(math.ceil((t1 - t0) / h - 1e-9)), 1)
        dt = (t1 - t0) / n_sub
        for j in range(n_sub):
            yield (k + 1 if j == n_sub - 1 else 0), t0 + j * dt, dt


def _norm(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=-1) bit for bit, without its per-call overhead
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _euler_windows(system, levy, config: SimConfig, starts, timings: dict,
                   replica_offset: int = 0, coupling=None):
    """The Euler window loop of both ensembles.

    ``starts`` holds one ``(x0, v0)`` per copy, and the state is stepped as
    one ``(2, copies, N, d)`` array, positions then velocities. Row ``r``
    draws the jumps of sampler replica ``r + replica_offset``, from one
    sampler call for the whole ensemble, whose seconds go to
    ``timings["sampling_s"]``.
    With ``coupling = (alpha, kappa)`` the two copies form the pair and each
    window is a pair window.
    A replica with a copy whose position or velocity norm exceeds
    ``blowup_norm`` or is NaN is flagged and frozen; its later snapshots stay
    NaN. A force that overflows or turns NaN warns nothing: the screen flags
    its replica. The exact norm test runs only in windows where some component
    exceeds ``blowup_norm / (2 sqrt(d))`` (or 1e150) or is NaN, and once a
    replica is frozen.
    Returns the ``(copies, N, n_save, d)`` position and velocity paths, the
    survivor mask and, per replica, the largest force Lipschitz quotient
    between copies 0 and 1 at the start of a window that ends at a save time
    (zeros for one copy).
    """
    times = config.save_times()
    n, d = config.n_replicas, system.dim
    plan = list(_window_plan(times, config.h))
    ends = np.array([t0 + dt for _, t0, dt in plan])
    t0 = time.monotonic()
    jumps = ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta,
                                  np.random.SeedSequence(config.seed),
                                  range(replica_offset, replica_offset + n))
    timings["sampling_s"] = time.monotonic() - t0
    # a jump at t kicks the first window with t < end - 1e-15; sorted in
    # (window, replica, time) order, jumps past the last window are dropped
    wins = np.searchsorted(ends - 1e-15, jumps.times, side="right")
    order = np.argsort(wins, kind="stable")
    rows, marks, unif = jumps.rows[order], jumps.marks[order], jumps.unif[order]
    bounds = np.searchsorted(wins[order], np.arange(len(plan) + 1)).tolist()
    comp = np.asarray(levy.measure.compensation_drift(config.delta), dtype=float)
    if coupling is not None:
        marks, dens = marks[:, 0], levy.measure.density(marks)
    state = np.repeat(np.asarray([[s[i] for s in starts] for i in (0, 1)],
                                 dtype=float)[:, :, None], n, axis=2)
    out = np.full((2, len(starts), n, len(times), d), np.nan)
    out[:, :, :, 0] = state
    alive = np.ones(n, dtype=bool)
    # components within `screen` keep every norm below blowup_norm / 2, and the
    # cap keeps the squares in the exact norm from overflowing
    all_alive, screen = True, min(0.5 * config.blowup_norm / math.sqrt(d), 1e150)
    lip = np.zeros(n)
    walk = ()
    # a force or state that overflows or turns NaN is left to the blow-up screen
    with np.errstate(over="ignore", invalid="ignore"):
        for w, (save_idx, _, dt) in enumerate(plan):
            lo, hi = bounds[w], bounds[w + 1]
            if coupling is not None:
                walk = (unif[lo:hi], dens[lo:hi], *coupling, levy.slice_part)
            start = state
            state, force = _window(system, state, dt, comp, rows[lo:hi], marks[lo:hi], walk)
            if not (all_alive and np.maximum.reduce(np.abs(state), None) <= screen):
                # a norm that overflows or is NaN is a blow-up
                alive &= (_norm(state) <= config.blowup_norm).all(axis=(0, 1))
                state = np.where(alive[:, None], state, start)
                all_alive = bool(alive.all())
            if save_idx:
                out[:, :, alive, save_idx] = state[:, :, alive]
                if coupling is not None:
                    # force gap over state gap, x part plus v part, both at the window start
                    gap = np.add(*np.abs(start[:, 0] - start[:, 1]).sum(-1))
                    lip = np.maximum(lip, np.divide(np.abs(force[0] - force[1]).sum(-1), gap,
                                                    out=np.zeros(n), where=alive & (gap > 1e-9)))
    return out[0], out[1], alive, lip


def run_pair_ensemble(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                      kappa: float, timings: dict | None = None) -> list[PairTrajectory]:
    """All replicas of the coupled pair, stepped together window by window. Dim 1 only.

    Replica ``k`` draws its jumps from the streams ``(k, j)`` of the seed. Its
    ``stability_indicator`` is ``h`` times the largest force Lipschitz
    quotient between the copies, taken at the start of each window that ends
    at a save time. A ``timings`` dict receives ``sampling_s``, the seconds
    spent drawing the jumps.
    """
    _require_one_dim(system, levy)
    xs, vs, alive, lip = _euler_windows(system, levy, config,
                                        ((pair0.x, pair0.v), (pair0.xp, pair0.vp)),
                                        {} if timings is None else timings,
                                        coupling=(alpha, kappa))
    times = config.save_times()
    return [PairTrajectory(times, xs[0, k], vs[0, k], xs[1, k], vs[1, k],
                           blown_up=not alive[k], stability_indicator=float(lip[k]) * config.h)
            for k in range(config.n_replicas)]


def run_single_ensemble(system, levy, config: SimConfig, x0, v0,
                        replica_offset: int = 0) -> list[SingleTrajectory]:
    """All replicas of the single process, stepped together window by window.

    Replica ``k`` draws its jumps from the streams ``(k + replica_offset, j)`` of the seed.
    A replica whose position or velocity norm exceeds ``blowup_norm`` or is
    NaN is flagged and frozen; its later snapshots stay NaN.
    """
    xs, vs, alive, _ = _euler_windows(system, levy, config, ((x0, v0),), {}, replica_offset)
    times = config.save_times()
    return [SingleTrajectory(times, xs[0, k], vs[0, k], blown_up=not alive[k])
            for k in range(config.n_replicas)]
