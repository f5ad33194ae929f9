"""Path simulation of the single process and the coupled pair.

Time stepping is explicit Euler for the drift; jumps above the cutoff are
injected raw at their sampled times, with the compensated small-jump region
replaced by its mean drift. The pair simulator classifies every jump of the
first component through the overlap-ratio thinning rule and displaces the
second component's copy by ``+/- alpha (q)_kappa`` accordingly, using the
left-limit transformed gap within each window (positions frozen at the
window start, velocity gap updated jump by jump).

``run_single_ensemble`` steps all replicas of a single-process ensemble
together as ``(N, d)`` arrays, in any dimension. Pair runs go replica by
replica (over ``LEVYHAM_WORKERS`` processes) and are one-dimensional:
``simulate_pair``, ``step_pair`` and ``run_pair_ensemble`` raise
NotImplementedError for any other system or noise dimension. The modified
channels carry no compensator term: restricted to the unit ball, the two
channel masses agree in d = 1 by the reflection identity of the one-sided
slice, so the term is exactly zero there; for d >= 2 it is non-zero and not
implemented.

Determinism: every replica owns a seed-sequence child of the master seed;
jump times, marks, and classification uniforms all come from the jump
stream, so runs that differ only in the step size share their noise
realisation exactly, and runs that halve the cutoff keep every shared jump.
Replica ``k`` of a single-process batch equals a one-replica run at
``replica_offset = k``, blow-ups included.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import ConfigError, NonFiniteState
from .pair import PairState

__all__ = [
    "SimConfig",
    "SingleTrajectory",
    "PairTrajectory",
    "replica_rng",
    "classify_jump",
    "step_single",
    "step_pair",
    "simulate_pair",
    "run_pair_ensemble",
    "run_single_ensemble",
    "worker_count",
]

_TINY = 1e-12


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
    jump_budget: float = 2e7

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


def worker_count() -> int:
    """Worker processes from ``LEVYHAM_WORKERS`` (default 1); anything but an integer >= 1 raises."""
    raw = os.environ.get("LEVYHAM_WORKERS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ConfigError(f"LEVYHAM_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# jump classification
# ---------------------------------------------------------------------------


def _slice_density_1d(sl, u: float) -> float:
    if 0.0 < u <= 1.0:
        return sl.c * u ** (-1.0 - sl.theta0)
    return 0.0


def _ratio_1d(levy, shift: float, u: float) -> float:
    sl = levy.slice_part
    num = min(_slice_density_1d(sl, u), _slice_density_1d(sl, u - shift))
    if num == 0.0:
        return 0.0
    if levy.measure is sl:
        den = _slice_density_1d(sl, u)
    else:
        den = float(levy.measure.density(np.array([u])))
    return min(num / den, 1.0) if den > 0 else 0.0


def classify_jump(levy, u: float, Q: float, alpha: float, kappa: float, l: float) -> float:
    """Displacement received by the second copy for a jump ``u`` of the first.

    Branches: ``u + alpha (Q)_kappa`` with probability ``rho(-shift, u)/2``,
    ``u - alpha (Q)_kappa`` with probability ``rho(shift, u)/2``, else ``u``.
    A vanishing transformed gap, or ``kappa = 0``, short-circuits to the
    synchronous branch.
    """
    aq = abs(Q)
    if aq <= _TINY or kappa == 0.0:
        return u
    shift = alpha * (Q if aq <= kappa else Q * (kappa / aq))
    rho_m = _ratio_1d(levy, -shift, u)
    if l <= 0.5 * rho_m:
        return u + shift
    rho_p = _ratio_1d(levy, shift, u)
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


def step_pair(system, levy, pair: PairState, dt: float, jumps, unifs,
              alpha: float, kappa: float, comp: np.ndarray,
              blowup_norm: float = 1e12) -> PairState:
    """One Euler window of the coupled pair: the pair kernel on the grid ``[0, dt]``."""
    _require_one_dim(system, levy)
    marks = np.asarray(jumps, dtype=float).reshape(-1)
    window_jumps = (np.full(len(marks), -np.inf), marks, np.asarray(unifs, dtype=float))
    out, blown, _ = _pair_path(system, levy, np.array([0.0, dt]), dt, pair, window_jumps,
                               alpha, kappa, comp, blowup_norm)
    if blown:
        raise NonFiniteState("pair trajectory left the finite range")
    return PairState(*(arr[1] for arr in out))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def _window_plan(save_times: np.ndarray, h: float):
    # windows that tile [0, T] hitting every save time exactly
    for k in range(len(save_times) - 1):
        t0, t1 = save_times[k], save_times[k + 1]
        n_sub = max(int(math.ceil((t1 - t0) / h - 1e-9)), 1)
        dt = (t1 - t0) / n_sub
        for j in range(n_sub):
            yield k + 1, t0 + j * dt, dt


def _scalar_force(system):
    # (float, float) -> float force; the array force on length-1 arrays if no fast path
    fs = getattr(system, "force_scalar", None)
    if fs is not None:
        return fs
    force = system.force
    return lambda x, v: float(force(np.array([x]), np.array([v]))[0])


def _pair_path(system, levy, times: np.ndarray, h: float, pair0: PairState, jumps: tuple,
               alpha: float, kappa: float, comp: np.ndarray, blow: float):
    """Euler windows of one replica of the pair over the save grid ``times``.

    ``pair0`` is the state at ``times[0]`` and ``jumps`` holds the
    time-ordered ``(times, marks, uniforms)`` arrays. Returns the four
    ``(n_save, 1)`` paths (NaN after a blow-up), the blow-up flag, and the
    largest force Lipschitz quotient seen at a save time.
    """
    fs = _scalar_force(system)
    a, b = system.a, system.b
    comp = float(np.asarray(comp, dtype=float)[0])
    x, v, xp, vp = (float(c[0]) for c in (pair0.x, pair0.v, pair0.xp, pair0.vp))
    n = len(times)
    out = [np.full((n, 1), np.nan) for _ in range(4)]
    for arr, val in zip(out, (x, v, xp, vp)):
        arr[0, 0] = val
    j_t, j_u, j_l = jumps
    n_j = len(j_t)
    ptr = 0
    lip_probe = 0.0
    blown = False
    for save_idx, t0, dt in _window_plan(times, h):
        t1 = t0 + dt
        z = x - xp
        v0w, vp0w = v, vp
        while ptr < n_j and j_t[ptr] < t1 - 1e-15:
            u = float(j_u[ptr])
            Q = z + (v - vp) / alpha
            disp = classify_jump(levy, u, Q, alpha, kappa, float(j_l[ptr]))
            v += u
            vp += disp
            ptr += 1
        f1 = fs(x, v0w)
        f2 = fs(xp, vp0w)
        x_new = x + (a * x + b * v0w) * dt
        xp_new = xp + (a * xp + b * vp0w) * dt
        v = v + (f1 + comp) * dt
        vp = vp + (f2 + comp) * dt
        x, xp = x_new, xp_new
        if abs(x) > blow or abs(v) > blow or abs(xp) > blow or abs(vp) > blow:
            blown = True
            break
        if abs(t1 - times[save_idx]) < 1e-9 * max(times[-1], 1.0):
            for arr, val in zip(out, (x, v, xp, vp)):
                arr[save_idx, 0] = val
            den = abs(x - xp) + abs(v - vp)
            if den > 1e-9:
                lip_probe = max(lip_probe, abs(f1 - f2) / den)
    return out, blown, lip_probe


def simulate_pair(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                  kappa: float, replica: int = 0) -> PairTrajectory:
    """Coupled pair path on the save grid; deterministic given the seed. Dim 1 only."""
    _require_one_dim(system, levy)
    rng = replica_rng(config.seed, replica)
    times = config.save_times()
    if times[-1] > 0:
        batch = ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta, rng,
                                      config.jump_budget)
        jumps = (batch.times, batch.marks[:, 0], batch.unif)
    else:
        jumps = (np.empty(0),) * 3
    comp = levy.measure.compensation_drift(config.delta)
    out, blown, lip_probe = _pair_path(system, levy, times, config.h, pair0, jumps,
                                       alpha, kappa, comp, config.blowup_norm)
    return PairTrajectory(times, *out, blown_up=blown, stability_indicator=lip_probe * config.h)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def run_pair_ensemble(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                      kappa: float, workers: int | None = None) -> list[PairTrajectory]:
    """All replicas of the coupled pair, in deterministic replica order. Dim 1 only."""
    _require_one_dim(system, levy)
    workers = worker_count() if workers is None else workers
    args = [(system, levy, config, pair0, alpha, kappa, rep)
            for rep in range(config.n_replicas)]
    if workers <= 1:
        return [simulate_pair(*a) for a in args]
    import multiprocessing as mp

    with mp.Pool(workers) as pool:
        return pool.starmap(simulate_pair, args)


def run_single_ensemble(system, levy, config: SimConfig, x0, v0,
                        replica_offset: int = 0) -> list[SingleTrajectory]:
    """All replicas of the single process, stepped together window by window.

    Replica ``k`` draws its jumps from ``replica_rng(seed, k + replica_offset)``.
    A replica whose position or velocity norm exceeds ``blowup_norm`` is
    flagged and frozen; its later snapshots stay NaN.
    """
    times = config.save_times()
    n, d = config.n_replicas, system.dim
    plan = list(_window_plan(times, config.h))
    ends = np.array([t0 + dt for _, t0, dt in plan])
    batches = [ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta,
                                     replica_rng(config.seed, rep + replica_offset),
                                     config.jump_budget) for rep in range(n) if times[-1] > 0]
    # a jump at t kicks the first window with t < end - 1e-15, as in the pair path;
    # sorted in (window, replica, time) order, jumps past the last window are dropped
    jump_times = np.concatenate([b.times for b in batches] + [np.empty(0)])
    wins = np.searchsorted(ends - 1e-15, jump_times, side="right")
    order = np.argsort(wins, kind="stable")
    rows = np.repeat(np.arange(len(batches)), [len(b) for b in batches])[order]
    marks = np.concatenate([b.marks for b in batches] + [np.empty((0, d))])[order]
    bounds = np.searchsorted(wins[order], np.arange(len(plan) + 1))
    comp = np.asarray(levy.measure.compensation_drift(config.delta), dtype=float)
    x, v = (np.tile(np.asarray(z, dtype=float), (n, 1)) for z in (x0, v0))
    out_x, out_v = np.full((2, n, len(times), d), np.nan)
    out_x[:, 0], out_v[:, 0] = x, v
    alive = np.ones(n, dtype=bool)
    for w, (save_idx, _, dt) in enumerate(plan):
        jumps = slice(bounds[w], bounds[w + 1])
        x_new, v_new = step_single(system, (x, v), dt, marks[jumps], comp, rows[jumps])
        alive &= ~((np.linalg.norm(x_new, axis=-1) > config.blowup_norm)
                   | (np.linalg.norm(v_new, axis=-1) > config.blowup_norm))
        x, v = np.where(alive[:, None], x_new, x), np.where(alive[:, None], v_new, v)
        if abs(ends[w] - times[save_idx]) < 1e-9 * max(times[-1], 1.0):
            out_x[alive, save_idx], out_v[alive, save_idx] = x[alive], v[alive]
    return [SingleTrajectory(times, out_x[k], out_v[k], blown_up=not alive[k])
            for k in range(n)]
