"""Path simulation of the single process and the coupled pair.

Time stepping is explicit Euler for the drift; jumps above the cutoff are
injected raw at their sampled times, with the compensated small-jump region
replaced by its mean drift. Both ensembles run through one window loop that
steps all replicas together as ``(copies, N, d)`` arrays through
``step_single``: one copy per replica for the single process, two for the
coupled pair (first copies in flat rows ``r``, second copies in ``N + r``).
For the pair, each window classifies every jump of the first copy through
the overlap-ratio thinning rule and displaces the second copy's velocity by
``+/- alpha (q)_kappa`` accordingly, using the left-limit transformed gap
(positions frozen at the window start, velocity gap updated jump by jump);
both copies then share one array force evaluation.

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
from .pair import PairState, gap_is_degenerate

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
# jump classification
# ---------------------------------------------------------------------------


def _ratio_1d(sl, shift: float, u: float, den: float) -> float:
    # min(q(u), q(u - shift)) / den for the slice density q, capped at 1; q
    # decreases on its support (0, 1], so the minimum sits at the larger point
    w = u - shift
    if not (0.0 < u <= 1.0 and 0.0 < w <= 1.0 and den > 0.0):
        return 0.0
    return min(sl.c * max(u, w) ** (-1.0 - sl.theta0) / den, 1.0)


def classify_jump(levy, u: float, Q: float, alpha: float, kappa: float, l: float,
                  den: float) -> float:
    """Displacement received by the second copy for a jump ``u`` of the first.

    Branches: ``u + alpha (Q)_kappa`` with probability ``rho(-shift, u)/2``,
    ``u - alpha (Q)_kappa`` with probability ``rho(shift, u)/2``, else ``u``.
    ``den`` is the driving measure's density at ``u``, the denominator of
    both thinning ratios. A degenerate transformed gap (``gap_is_degenerate``,
    the rule the pair operator uses too) short-circuits to the synchronous
    branch.
    """
    aq = abs(Q)
    if gap_is_degenerate(aq):
        return u
    shift = alpha * (Q if aq <= kappa else Q * (kappa / aq))
    rho_m = _ratio_1d(levy.slice_part, -shift, u, den)
    if l <= 0.5 * rho_m:
        return u + shift
    rho_p = _ratio_1d(levy.slice_part, shift, u, den)
    if l <= 0.5 * (rho_m + rho_p):
        return u - shift
    return u


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------


def step_single(system, state: tuple, dt: float, jumps, comp: np.ndarray,
                rows=None) -> tuple:
    """One Euler window over leading axes: drift from the start state, plus the window's jumps.

    ``state`` is ``(x, v)`` of shape ``(..., d)``. ``jumps`` holds the
    window's marks; mark ``i`` kicks the velocity in flat leading-axis row
    ``rows[i]`` (row 0 of an unbatched state by default). Each row receives
    its marks one by one, in the order given.
    """
    x, v = state
    xdot = system.a * x + system.b * v
    force = np.asarray(system.force(x, v), dtype=float)
    x_new = x + xdot * dt
    v_new = np.array(v, dtype=float)
    marks = np.asarray(jumps, dtype=float).reshape(-1, v_new.shape[-1])
    np.add.at(v_new.reshape(-1, marks.shape[1]),
              np.zeros(len(marks), dtype=int) if rows is None else rows, marks)
    v_new = v_new + (force + comp) * dt
    return x_new, v_new


def _require_one_dim(system, levy):
    if system.dim != 1 or levy.dim != 1:
        raise NotImplementedError(
            f"coupled pair runs are implemented for dim 1 only, got system dim {system.dim} "
            f"and noise dim {levy.dim} (the modified-channel compensator is missing in dim >= 2)")


def _pair_window(system, levy, state: tuple, dt: float, marks, unif, dens, rows,
                 alpha: float, kappa: float, comp: np.ndarray) -> tuple:
    # one window of the pair state (x, v), each of shape (2, N, 1) with the copy
    # axis first; the jumps come grouped by replica, each replica's in time
    # order, and each is classified at its replica's left-limit gap
    x, v = state
    disp = []
    last = -1
    for r, u, l, den, z, v_r, vp_r in zip(rows.tolist(), marks[:, 0].tolist(), unif.tolist(),
                                          dens.tolist(), (x[0, rows, 0] - x[1, rows, 0]).tolist(),
                                          v[0, rows, 0].tolist(), v[1, rows, 0].tolist()):
        if r != last:
            last, v_now, vp_now = r, v_r, vp_r
        d = classify_jump(levy, u, z + (v_now - vp_now) / alpha, alpha, kappa, l, den)
        v_now += u
        vp_now += d
        disp.append(d)
    return step_single(system, state, dt, np.concatenate([marks[:, 0], disp]), comp,
                       np.concatenate([rows, rows + x.shape[1]]))


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
    dens = levy.measure.density(marks)
    x, v = _pair_window(system, levy, (x, v), dt, marks[order],
                        np.asarray(unifs, dtype=float)[order], dens[order], rows[order],
                        alpha, kappa, comp)
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
    ``blowup_norm`` is flagged and frozen; its later snapshots stay NaN.
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
    lip = np.zeros(n)
    for w, (save_idx, _, dt) in enumerate(plan):
        jumps = slice(bounds[w], bounds[w + 1])
        if coupling is None:
            x_new, v_new = step_single(system, (x, v), dt, marks[jumps], comp, rows[jumps])
        else:
            x_new, v_new = _pair_window(system, levy, (x, v), dt, marks[jumps], unif[jumps],
                                        dens[jumps], rows[jumps], *coupling, comp)
        with np.errstate(over="ignore"):  # a norm that overflows is a blow-up
            alive &= ~((_norm(x_new) > config.blowup_norm)
                       | (_norm(v_new) > config.blowup_norm)).any(axis=0)
        x_start, v_start = x, v
        x, v = np.where(alive[:, None], x_new, x), np.where(alive[:, None], v_new, v)
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
    A replica whose position or velocity norm exceeds ``blowup_norm`` is
    flagged and frozen; its later snapshots stay NaN.
    """
    xs, vs, alive, _ = _euler_windows(system, levy, config, ((x0, v0),), replica_offset)
    times = config.save_times()
    return [SingleTrajectory(times, xs[0, k], vs[0, k], blown_up=not alive[k])
            for k in range(config.n_replicas)]
