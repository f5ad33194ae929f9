"""Path simulation of the single process and the coupled pair.

Time stepping is explicit Euler for the drift; jumps above the cutoff are
injected raw at their sampled times, with the compensated small-jump region
replaced by its mean drift. Both ensembles run through one window loop that
steps all replicas together as ``(copies, N, d)`` arrays: one copy per
replica for the single process, whose windows go through ``step_single``,
and two for the coupled pair. A pair window walks the window's jumps of the
first copy on Python floats, in (replica, time) order, through the
overlap-ratio thinning rule, and displaces the second copy's velocity by
``+/- alpha (q)_kappa`` accordingly, using the left-limit transformed gap
(positions frozen at the window start, velocity gap updated jump by jump);
both copies then take one array drift step with one force evaluation.

Pair runs are one-dimensional: ``step_pair`` and ``run_pair_ensemble`` raise
NotImplementedError for any other system or noise dimension. The modified
channels carry no compensator term: restricted to the unit ball, the two
channel masses agree in d = 1 by the reflection identity of the one-sided
slice, so the term is exactly zero there; for d >= 2 it is non-zero and not
implemented.

Determinism: every replica owns a seed-sequence child of the master seed;
jump times, marks, and classification uniforms all come from the jump
stream, so runs that differ only in the step size share their noise
realisation exactly, and runs that halve the cutoff keep every shared jump.
Replicas of one batch never mix: replica ``k`` of a single-process batch
equals a one-replica run at ``replica_offset = k``, and the first ``n``
replicas of a pair ensemble equal an ``n``-replica run, blow-ups included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .pair import DEGENERATE_GAP, PairState

__all__ = [
    "SimConfig",
    "SingleTrajectory",
    "PairTrajectory",
    "replica_rng",
    "classify_jump",
    "step_single",
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


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Independent, reproducible stream for one replica."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(replica,)))


# ---------------------------------------------------------------------------
# jump classification and steppers
# ---------------------------------------------------------------------------


def _thin(rows, marks, unifs, dens, z, v, vp, alpha: float, kappa: float, slab) -> tuple:
    # The thinning rule of classify_jump over one window's jumps, on Python
    # floats. The jumps come grouped by replica, each replica's in time order;
    # jump i kicks replica rows[i], whose position gap and velocities at the
    # window start are z[i], v[i], vp[i], and is classified at that replica's
    # left-limit gap. A ratio min(q*(u), q*(w)) / den of the slice density q*
    # sits at the larger point, as q* decreases on the slab (0, 1]. Returns the
    # replicas jumped and their velocities after their last jump.
    c, e = slab.c, -1.0 - slab.theta0
    jumped, v_end, vp_end = [], [], []
    for r, u, l, den, zr, vr, vpr in zip(rows, marks, unifs, dens, z, v, vp):
        if jumped and jumped[-1] == r:  # carry the gap the replica's last jump left
            vr, vpr = v_end.pop(), vp_end.pop()
        else:
            jumped.append(r)
        q = zr + (vr - vpr) / alpha
        aq = abs(q)
        if aq <= DEGENERATE_GAP:
            d = u
        else:
            shift = alpha * (q if aq <= kappa else q * (kappa / aq))
            on = 0.0 < u <= 1.0 and den > 0.0
            d = u + shift
            rho_m = min(c * max(u, d) ** e / den, 1.0) if on and 0.0 < d <= 1.0 else 0.0
            if not l <= 0.5 * rho_m:
                d = u - shift
                rho_p = min(c * max(u, d) ** e / den, 1.0) if on and 0.0 < d <= 1.0 else 0.0
                if not l <= 0.5 * (rho_m + rho_p):
                    d = u
        v_end.append(vr + u)
        vp_end.append(vpr + d)
    return jumped, v_end, vp_end


def classify_jump(levy, u: float, Q: float, alpha: float, kappa: float, l: float,
                  den: float) -> float:
    """Displacement received by the second copy for a jump ``u`` of the first.

    Branches: ``u + alpha (Q)_kappa`` with probability ``rho(-shift, u)/2``,
    ``u - alpha (Q)_kappa`` with probability ``rho(shift, u)/2``, else ``u``.
    ``den`` is the driving measure's density at ``u``, the denominator of
    both thinning ratios. A degenerate transformed gap (``|Q| <=
    DEGENERATE_GAP``, the rule the pair operator uses too) short-circuits to
    the synchronous branch. This is the pair window's rule applied to one
    jump at position gap ``Q`` and zero velocities.
    """
    _, _, vp = _thin([0], [u], [l], [den], [Q], [0.0], [0.0], alpha, kappa, levy.slice_part)
    return vp[0]


def _drift(system, x, v, v_kicked, dt: float, comp: np.ndarray) -> tuple:
    # the Euler drift from the window start (x, v), added to the kicked velocities
    force = np.asarray(system.force(x, v), dtype=float)
    return x + (system.a * x + system.b * v) * dt, v_kicked + (force + comp) * dt


def step_single(system, state: tuple, dt: float, jumps, comp: np.ndarray,
                rows=None) -> tuple:
    """One Euler window over leading axes: drift from the start state, plus the window's jumps.

    ``state`` is ``(x, v)`` of shape ``(..., d)``. ``jumps`` holds the
    window's marks; mark ``i`` kicks the velocity in flat leading-axis row
    ``rows[i]`` (row 0 of an unbatched state by default). Each row receives
    its marks one by one, in the order given.
    """
    x, v = state
    v_new = np.array(v, dtype=float)
    marks = np.asarray(jumps, dtype=float).reshape(-1, v_new.shape[-1])
    if len(marks):
        np.add.at(v_new.reshape(-1, marks.shape[1]),
                  np.zeros(len(marks), dtype=int) if rows is None else rows, marks)
    return _drift(system, x, v, v_new, dt, comp)


def _require_one_dim(system, levy):
    if system.dim != 1 or levy.dim != 1:
        raise NotImplementedError(
            f"coupled pair runs are implemented for dim 1 only, got system dim {system.dim} "
            f"and noise dim {levy.dim} (the modified-channel compensator is missing in dim >= 2)")


def _pair_window(system, state: tuple, dt: float, rows: np.ndarray, marks: np.ndarray,
                 unifs: np.ndarray, dens: np.ndarray, alpha: float, kappa: float, slab,
                 comp: np.ndarray) -> tuple:
    # one window of the pair state (x, v), each of shape (2, N, 1) with the copy
    # axis first; jump i kicks replica rows[i] with mark marks[i], uniform
    # unifs[i] and driving density dens[i], grouped by replica and each
    # replica's in time order, and is classified with positions frozen at the
    # window start
    x, v = state
    v_kicked = v
    if len(rows):
        xs, vs = x.take(rows, axis=1)[..., 0], v.take(rows, axis=1)[..., 0]
        jumped, v_end, vp_end = _thin(rows.tolist(), marks.tolist(), unifs.tolist(),
                                      dens.tolist(), (xs[0] - xs[1]).tolist(), *vs.tolist(),
                                      alpha, kappa, slab)
        v_kicked = v.copy()  # C order: flat index r is (0, r, 0), N + r is (1, r, 0)
        v_kicked.put(jumped + [r + v.shape[1] for r in jumped], v_end + vp_end)
    return _drift(system, x, v, v_kicked, dt, comp)


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
    x, v = (np.stack([a.reshape(-1, 1), b.reshape(-1, 1)])
            for a, b in ((pair.x, pair.xp), (pair.v, pair.vp)))
    marks = np.asarray(jumps, dtype=float).reshape(-1, 1)
    rows = np.zeros(len(marks), dtype=int) if rows is None else np.asarray(rows, dtype=int)
    order = np.argsort(rows, kind="stable")
    x, v = _pair_window(system, (x, v), dt, rows[order], marks[order, 0],
                        np.asarray(unifs, dtype=float)[order], levy.measure.density(marks)[order],
                        alpha, kappa, levy.slice_part, comp)
    return PairState(*(a.reshape(pair.x.shape) for a in (x[0], v[0], x[1], v[1])))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def _window_plan(save_times: np.ndarray, h: float):
    # windows that tile [0, T] hitting every save time exactly
    for k in range(len(save_times) - 1):
        t0, t1 = save_times[k], save_times[k + 1]
        n_sub = max(int(math.ceil((t1 - t0) / h - 1e-9)), 1)
        dt = (t1 - t0) / n_sub
        for j in range(n_sub):
            yield k + 1, t0 + j * dt, dt


def _norm(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=-1) bit for bit, without its per-call overhead
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _euler_windows(system, levy, config: SimConfig, starts, replica_offset: int = 0,
                   coupling=None):
    """The Euler window loop of both ensembles.

    ``starts`` holds one ``(x0, v0)`` per copy, and the state is stepped as
    ``(copies, N, d)`` arrays. Replica ``r`` draws its jumps from
    ``replica_rng(seed, r + replica_offset)``. With ``coupling = (alpha,
    kappa)`` the two copies form the pair and each window is a pair window.
    A replica with a copy whose position or velocity norm exceeds
    ``blowup_norm`` or is NaN is flagged and frozen; its later snapshots stay
    NaN. The exact norm test runs only in windows where some component
    exceeds ``blowup_norm / (2 sqrt(d))`` (or 1e150) or is NaN, and once a
    replica is frozen.
    Returns the ``(copies, N, n_save, d)`` position and velocity paths, the
    survivor mask and, per replica, the largest force Lipschitz quotient
    between copies 0 and 1 seen at a save time (zeros for one copy).
    """
    times = config.save_times()
    n, d = config.n_replicas, system.dim
    plan = list(_window_plan(times, config.h))
    ends = np.array([t0 + dt for _, t0, dt in plan])
    saves = (np.abs(ends - times[[k for k, _, _ in plan]])
             < 1e-9 * max(times[-1], 1.0)).tolist()
    batches = [ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta,
                                     replica_rng(config.seed, rep + replica_offset))
               for rep in range(n) if times[-1] > 0]
    # a jump at t kicks the first window with t < end - 1e-15; sorted in
    # (window, replica, time) order, jumps past the last window are dropped
    jump_times = np.concatenate([b.times for b in batches] + [np.empty(0)])
    wins = np.searchsorted(ends - 1e-15, jump_times, side="right")
    order = np.argsort(wins, kind="stable")
    rows = np.repeat(np.arange(len(batches)), [len(b) for b in batches])[order]
    marks = np.concatenate([b.marks for b in batches] + [np.empty((0, d))])[order]
    unif = np.concatenate([b.unif for b in batches] + [np.empty(0)])[order]
    bounds = np.searchsorted(wins[order], np.arange(len(plan) + 1)).tolist()
    comp = np.asarray(levy.measure.compensation_drift(config.delta), dtype=float)
    if coupling is not None:
        dens = levy.measure.density(marks)
    x, v = (np.repeat(np.asarray([s[i] for s in starts], dtype=float)[:, None], n, axis=1)
            for i in (0, 1))
    out_x, out_v = np.full((2, len(starts), n, len(times), d), np.nan)
    out_x[:, :, 0], out_v[:, :, 0] = x, v
    alive = np.ones(n, dtype=bool)
    # components within `screen` keep every norm below blowup_norm / 2, and the
    # cap keeps the squares in the exact norm from overflowing
    all_alive, screen = True, min(0.5 * config.blowup_norm / math.sqrt(d), 1e150)
    lip = np.zeros(n)
    for w, (save_idx, _, dt) in enumerate(plan):
        lo, hi = bounds[w], bounds[w + 1]
        x_start, v_start = x, v
        if coupling is None:
            x, v = step_single(system, (x, v), dt, marks[lo:hi], comp, rows[lo:hi])
        else:
            x, v = _pair_window(system, (x, v), dt, rows[lo:hi], marks[lo:hi, 0], unif[lo:hi],
                                dens[lo:hi], *coupling, levy.slice_part, comp)
        if not (all_alive and np.maximum.reduce(np.abs(x), None) <= screen
                and np.maximum.reduce(np.abs(v), None) <= screen):
            with np.errstate(over="ignore"):  # a norm that overflows or is NaN is a blow-up
                alive &= ((_norm(x) <= config.blowup_norm)
                          & (_norm(v) <= config.blowup_norm)).all(axis=0)
            x, v = np.where(alive[:, None], x, x_start), np.where(alive[:, None], v, v_start)
            all_alive = bool(alive.all())
        if saves[w]:
            out_x[:, alive, save_idx], out_v[:, alive, save_idx] = x[:, alive], v[:, alive]
            if coupling is not None:
                # force gap at the window start over the state gap at its end
                f = np.asarray(system.force(x_start, v_start), dtype=float)
                gap = np.abs(x[0] - x[1]).sum(-1) + np.abs(v[0] - v[1]).sum(-1)
                lip = np.maximum(lip, np.divide(np.abs(f[0] - f[1]).sum(-1), gap,
                                                out=np.zeros(n), where=alive & (gap > 1e-9)))
    return out_x, out_v, alive, lip


def run_pair_ensemble(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                      kappa: float) -> list[PairTrajectory]:
    """All replicas of the coupled pair, stepped together window by window. Dim 1 only.

    Replica ``k`` draws its jumps from ``replica_rng(seed, k)``. Its
    ``stability_indicator`` is ``h`` times the largest force Lipschitz
    quotient between the copies seen at a save time.
    """
    _require_one_dim(system, levy)
    xs, vs, alive, lip = _euler_windows(system, levy, config,
                                        ((pair0.x, pair0.v), (pair0.xp, pair0.vp)),
                                        coupling=(alpha, kappa))
    times = config.save_times()
    return [PairTrajectory(times, xs[0, k], vs[0, k], xs[1, k], vs[1, k],
                           blown_up=not alive[k], stability_indicator=float(lip[k]) * config.h)
            for k in range(config.n_replicas)]


def run_single_ensemble(system, levy, config: SimConfig, x0, v0,
                        replica_offset: int = 0) -> list[SingleTrajectory]:
    """All replicas of the single process, stepped together window by window.

    Replica ``k`` draws its jumps from ``replica_rng(seed, k + replica_offset)``.
    A replica whose position or velocity norm exceeds ``blowup_norm`` or is
    NaN is flagged and frozen; its later snapshots stay NaN.
    """
    xs, vs, alive, _ = _euler_windows(system, levy, config, ((x0, v0),), replica_offset)
    times = config.save_times()
    return [SingleTrajectory(times, xs[0, k], vs[0, k], blown_up=not alive[k])
            for k in range(config.n_replicas)]
