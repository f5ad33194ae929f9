"""Path simulation of the single process and the coupled pair.

Time stepping is explicit Euler for the drift; jumps above the cutoff are
injected raw at their sampled times, with the compensated small-jump region
replaced by its mean drift. The pair simulator classifies every jump of the
first component through the overlap-ratio thinning rule and displaces the
second component's copy by ``+/- alpha (q)_kappa`` accordingly, using the
left-limit transformed gap within each window (positions frozen at the
window start, velocity gap updated jump by jump).

The modified channels carry no compensator term: restricted to the unit
ball, the two channel masses agree in d = 1 by the reflection identity of
the one-sided slice, so the term is exactly zero there. For d >= 2 the
term is non-zero and not implemented; pair runs in d >= 2 omit it.

Determinism: every replica owns a seed-sequence child of the master seed;
jump times, marks, and classification uniforms all come from the jump
stream, so runs that differ only in the step size share their noise
realisation exactly, and runs that halve the cutoff keep every shared jump.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import NonFiniteState
from .pair import PairState

__all__ = [
    "SimConfig",
    "SingleTrajectory",
    "PairTrajectory",
    "replica_rng",
    "classify_jump",
    "step_single",
    "step_pair",
    "simulate_single",
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

    def state_at(self, k: int) -> PairState:
        return PairState(self.x[k], self.v[k], self.xp[k], self.vp[k])


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Independent, reproducible stream for one replica."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(replica,)))


def worker_count() -> int:
    return max(int(os.environ.get("LEVYHAM_WORKERS", "1")), 1)


# ---------------------------------------------------------------------------
# jump classification
# ---------------------------------------------------------------------------


def _slice_density_1d(sl, u: float) -> float:
    if 0.0 < u <= 1.0:
        return sl.c * u ** (-1.0 - sl.theta0)
    return 0.0


def _overlap_density_1d(sl, shift: float, u: float) -> float:
    return min(_slice_density_1d(sl, u), _slice_density_1d(sl, u - shift))


def _ratio_1d(levy, shift: float, u: float) -> float:
    num = _overlap_density_1d(levy.slice_part, shift, u)
    if num == 0.0:
        return 0.0
    if levy.measure is levy.slice_part:
        den = _slice_density_1d(levy.slice_part, u)
    else:
        den = float(levy.measure.density(np.array([u])))
    return min(num / den, 1.0) if den > 0 else 0.0


def classify_jump(levy, u: np.ndarray, Q: np.ndarray, alpha: float, kappa: float,
                  l: float) -> np.ndarray:
    """Displacement received by the second copy for a jump ``u`` of the first.

    Branches: ``u + alpha (Q)_kappa`` with probability ``rho(-shift, u)/2``,
    ``u - alpha (Q)_kappa`` with probability ``rho(shift, u)/2``, else ``u``.
    A vanishing transformed gap short-circuits to the synchronous branch.
    """
    shift = alpha * ms.truncate(Q, kappa)
    s = float(np.linalg.norm(shift))
    if s <= _TINY:
        return u
    if levy.dim == 1:
        uu = float(u[0])
        sh = float(shift[0])
        rho_m = _ratio_1d(levy, -sh, uu)
        if l <= 0.5 * rho_m:
            return u + shift
        rho_p = _ratio_1d(levy, sh, uu)
        if l <= 0.5 * (rho_m + rho_p):
            return u - shift
        return u
    rho_m = float(ms.overlap_ratio(levy, -shift, u[None, :]))
    if l <= 0.5 * rho_m:
        return u + shift
    rho_p = float(ms.overlap_ratio(levy, shift, u[None, :]))
    if l <= 0.5 * (rho_m + rho_p):
        return u - shift
    return u


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------


def step_single(system, state: tuple, dt: float, jumps: np.ndarray,
                comp: np.ndarray, blowup_norm: float = 1e12) -> tuple:
    """One Euler window: drift from the start state, plus the window's jumps."""
    x, v = state
    xdot = system.a * x + system.b * v
    force = np.asarray(system.force(x, v), dtype=float)
    x_new = x + xdot * dt
    v_new = v
    for u in jumps:
        v_new = v_new + u
    v_new = v_new + (force + comp) * dt
    if np.linalg.norm(x_new) > blowup_norm or np.linalg.norm(v_new) > blowup_norm:
        raise NonFiniteState("single trajectory left the finite range")
    return x_new, v_new


def step_pair(system, levy, pair: PairState, dt: float, jumps, unifs,
              alpha: float, kappa: float, comp: np.ndarray,
              blowup_norm: float = 1e12) -> PairState:
    """One Euler window of the coupled pair."""
    x, v, xp, vp = pair.x, pair.v, pair.xp, pair.vp
    z = x - xp
    v_run = v.copy()
    vp_run = vp.copy()
    for u, l in zip(jumps, unifs):
        Q = z + (v_run - vp_run) / alpha
        disp = classify_jump(levy, u, Q, alpha, kappa, float(l))
        v_run = v_run + u
        vp_run = vp_run + disp

    f1 = np.asarray(system.force(x, v), dtype=float)
    f2 = np.asarray(system.force(xp, vp), dtype=float)
    x_new = x + (system.a * x + system.b * v) * dt
    xp_new = xp + (system.a * xp + system.b * vp) * dt
    v_new = v_run + (f1 + comp) * dt
    vp_new = vp_run + (f2 + comp) * dt
    if max(np.linalg.norm(x_new), np.linalg.norm(v_new),
           np.linalg.norm(xp_new), np.linalg.norm(vp_new)) > blowup_norm:
        raise NonFiniteState("pair trajectory left the finite range")
    return PairState(x_new, v_new, xp_new, vp_new)


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


def simulate_single(system, levy, config: SimConfig, x0, v0,
                    replica: int = 0) -> SingleTrajectory:
    """Euler path of the single process, sampled on the save grid."""
    rng = replica_rng(config.seed, replica)
    times = config.save_times()
    batch = ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta, rng,
                                  config.jump_budget) if times[-1] > 0 else None
    comp = np.asarray(levy.measure.compensation_drift(config.delta), dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    out_x = np.full((len(times), system.dim), np.nan)
    out_v = np.full_like(out_x, np.nan)
    out_x[0], out_v[0] = x, v
    ptr = 0
    try:
        for save_idx, t0, dt in _window_plan(times, config.h):
            t1 = t0 + dt
            jumps = []
            while batch is not None and ptr < len(batch) and batch.times[ptr] < t1 - 1e-15:
                jumps.append(batch.marks[ptr])
                ptr += 1
            x, v = step_single(system, (x, v), dt, jumps, comp, config.blowup_norm)
            if abs(t1 - times[save_idx]) < 1e-9 * max(times[-1], 1.0):
                out_x[save_idx], out_v[save_idx] = x, v
    except NonFiniteState:
        return SingleTrajectory(times, out_x, out_v, blown_up=True)
    return SingleTrajectory(times, out_x, out_v)


def _classify_scalar(levy, u: float, Q: float, alpha: float, kappa: float, l: float) -> float:
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


def _simulate_pair_scalar(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                          kappa: float, replica: int) -> PairTrajectory:
    # float fast path for dim == 1 with a scalar force
    rng = replica_rng(config.seed, replica)
    times = config.save_times()
    batch = ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta, rng,
                                  config.jump_budget) if times[-1] > 0 else None
    comp = float(np.asarray(levy.measure.compensation_drift(config.delta))[0])
    fs = system.force_scalar
    a, b = system.a, system.b
    blow = config.blowup_norm
    x, v = float(pair0.x[0]), float(pair0.v[0])
    xp, vp = float(pair0.xp[0]), float(pair0.vp[0])
    n = len(times)
    out = [np.full((n, 1), np.nan) for _ in range(4)]
    for arr, val in zip(out, (x, v, xp, vp)):
        arr[0, 0] = val
    if batch is not None:
        j_t, j_u, j_l = batch.times, batch.marks[:, 0], batch.unif
        n_j = len(j_t)
    else:
        j_t = j_u = j_l = None
        n_j = 0
    ptr = 0
    lip_probe = 0.0
    blown = False
    for save_idx, t0, dt in _window_plan(times, config.h):
        t1 = t0 + dt
        z = x - xp
        v0w, vp0w = v, vp
        while ptr < n_j and j_t[ptr] < t1 - 1e-15:
            u = float(j_u[ptr])
            Q = z + (v - vp) / alpha
            disp = _classify_scalar(levy, u, Q, alpha, kappa, float(j_l[ptr]))
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
    return PairTrajectory(times, *out, blown_up=blown, stability_indicator=lip_probe * config.h)


def simulate_pair(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                  kappa: float, replica: int = 0) -> PairTrajectory:
    """Coupled pair path on the save grid; deterministic given the seed."""
    if (system.dim == 1 and getattr(system, "force_scalar", None) is not None
            and isinstance(levy.slice_part, ms.SliceMeasure) and levy.slice_part.dim == 1):
        return _simulate_pair_scalar(system, levy, config, pair0, alpha, kappa, replica)
    rng = replica_rng(config.seed, replica)
    times = config.save_times()
    batch = ms.sample_large_jumps(levy.measure, float(times[-1]), config.delta, rng,
                                  config.jump_budget) if times[-1] > 0 else None
    comp = np.asarray(levy.measure.compensation_drift(config.delta), dtype=float)
    pair = PairState(pair0.x.copy(), pair0.v.copy(), pair0.xp.copy(), pair0.vp.copy())
    n = len(times)
    out = [np.full((n, system.dim), np.nan) for _ in range(4)]
    for arr, val in zip(out, (pair.x, pair.v, pair.xp, pair.vp)):
        arr[0] = val
    ptr = 0
    lip_probe = 0.0
    try:
        for save_idx, t0, dt in _window_plan(times, config.h):
            t1 = t0 + dt
            jumps, unifs = [], []
            while batch is not None and ptr < len(batch) and batch.times[ptr] < t1 - 1e-15:
                jumps.append(batch.marks[ptr])
                unifs.append(batch.unif[ptr])
                ptr += 1
            pair = step_pair(system, levy, pair, dt, jumps, unifs, alpha, kappa,
                             comp, config.blowup_norm)
            if abs(t1 - times[save_idx]) < 1e-9 * max(times[-1], 1.0):
                for arr, val in zip(out, (pair.x, pair.v, pair.xp, pair.vp)):
                    arr[save_idx] = val
                gap = np.linalg.norm(np.asarray(system.force(pair.x, pair.v)) -
                                     np.asarray(system.force(pair.xp, pair.vp)))
                den = np.linalg.norm(pair.z) + np.linalg.norm(pair.w)
                if den > 1e-9:
                    lip_probe = max(lip_probe, float(gap / den))
    except NonFiniteState:
        return PairTrajectory(times, *out, blown_up=True,
                              stability_indicator=lip_probe * config.h)
    return PairTrajectory(times, *out, blown_up=False,
                          stability_indicator=lip_probe * config.h)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def _pair_task(args):
    system, levy, config, pair0, alpha, kappa, replica = args
    return simulate_pair(system, levy, config, pair0, alpha, kappa, replica)


def _single_task(args):
    system, levy, config, x0, v0, replica = args
    return simulate_single(system, levy, config, x0, v0, replica)


def _run_parallel(task, arglist, workers):
    if workers <= 1:
        return [task(a) for a in arglist]
    import multiprocessing as mp

    with mp.Pool(workers) as pool:
        return pool.map(task, arglist)


def run_pair_ensemble(system, levy, config: SimConfig, pair0: PairState, alpha: float,
                      kappa: float, workers: int | None = None) -> list[PairTrajectory]:
    """All replicas of the coupled pair, in deterministic replica order."""
    workers = worker_count() if workers is None else workers
    args = [(system, levy, config, pair0, alpha, kappa, rep)
            for rep in range(config.n_replicas)]
    return _run_parallel(_pair_task, args, workers)


def run_single_ensemble(system, levy, config: SimConfig, x0, v0,
                        workers: int | None = None, replica_offset: int = 0) -> list[SingleTrajectory]:
    """All replicas of the single process, in deterministic replica order."""
    workers = worker_count() if workers is None else workers
    args = [(system, levy, config, x0, v0, rep + replica_offset)
            for rep in range(config.n_replicas)]
    return _run_parallel(_single_task, args, workers)
