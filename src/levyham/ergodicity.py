"""Monte Carlo decay estimation and empirical equilibrium diagnostics.

The monitored functional is the tilted distance cost of the coupled pair
(the quantity the contraction analysis controls); its ensemble mean is fit
by weighted least squares on the log scale, with a replica bootstrap for
the rate confidence interval. The certified rate from the constant chain is
reported alongside as a lower-bound diagnostic, never asserted against the
fit: conservative chains sit many orders below observed decay.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import constants as cn
from . import simulate as sim
from .errors import EmptyMeasure, InsufficientDecay
from .generator import ProductPairFn
from .pair import PairState

__all__ = [
    "DecayReport",
    "EmpiricalMeasure",
    "fit_exponential_decay",
    "estimate_decay",
    "sliced_wasserstein",
    "equilibrium_diagnostics",
]


@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    lambda_fit: float
    intercept: float
    r_squared: float
    ci_low: float
    ci_high: float
    n_replicas: int
    n_blowups: int
    fit_start: int
    fit_stop: int
    rate_certified: float
    log_rate_certified: float
    monitor_is_fallback: bool
    lambda_fit_exceeds_certified: bool
    # seconds spent in the pair ensemble and in the cost, fit and bootstrap;
    # the run manifest reports them, rate.json does not
    timings: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted sample cloud."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.size == 0:
            raise EmptyMeasure("empirical measure needs at least one sample")
        object.__setattr__(self, "samples", np.atleast_2d(samples))


def fit_exponential_decay(times, means, ses, burn_in_frac: float = 0.1,
                          min_snr: float = 10.0) -> tuple[float, float, float, int, int]:
    """Weighted log-linear fit of a decay curve.

    Window: past the burn-in fraction of the horizon, mean positive, and
    mean above ``min_snr`` times its standard error. Returns
    ``(rate, intercept, r_squared, start, stop)``; the rate is the negated
    slope. Raises InsufficientDecay for windows shorter than three points.
    """
    times = np.asarray(times, dtype=float)
    means = np.asarray(means, dtype=float)
    ses = np.asarray(ses, dtype=float)
    t_burn = burn_in_frac * times[-1]
    ok = (times >= t_burn) & (means > 0.0) & (means > min_snr * ses)
    idx = np.nonzero(ok)[0]
    if idx.size < 3:
        raise InsufficientDecay(f"only {idx.size} usable points in the fit window")
    start, stop = int(idx[0]), int(idx[-1]) + 1
    t = times[idx]
    y = np.log(means[idx])
    # se of log(mean) ~ se/mean; zero ses (synthetic curves) get unit weight
    sig = np.where(ses[idx] > 0, ses[idx] / means[idx], 1.0)
    wgt = 1.0 / sig ** 2
    A = np.vstack([np.ones_like(t), t]).T
    mat = A * np.sqrt(wgt)[:, None]
    sol, *_ = np.linalg.lstsq(mat, y * np.sqrt(wgt), rcond=None)
    intercept, slope = sol
    pred = A @ sol
    ybar = np.average(y, weights=wgt)
    ss_res = float(np.sum(wgt * (y - pred) ** 2))
    ss_tot = float(np.sum(wgt * (y - ybar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), float(intercept), float(r2), start, stop


def _psi_tilde_matrix(trajectories, hhat_fn, g_fn) -> tuple[np.ndarray, int]:
    # a flagged replica, or one whose cost is not finite at some snapshot (a
    # weight that overflowed to inf), is dropped and counted as a blow-up
    stacked = PairState(*(np.stack([getattr(tr, c) for tr in trajectories])
                          for c in ("x", "v", "xp", "vp")))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = ProductPairFn(hhat_fn, g_fn).value(stacked)
    keep = np.isfinite(vals).all(axis=-1) & ~np.array([tr.blown_up for tr in trajectories])
    if not keep.any():
        raise InsufficientDecay("every replica blew up")
    return vals[keep], len(trajectories) - int(keep.sum())


def estimate_decay(bundle: cn.ConstantsBundle, config: sim.SimConfig, pair0: PairState,
                   n_boot: int = 200, boot_seed: int = 424242) -> DecayReport:
    """Ensemble decay of the tilted distance cost, with a bootstrap CI.

    The monitored functional uses the bundle's monitor profile (identical to
    the certified profile unless that one is numerically flat, in which case
    the linear member of the family substitutes and the report says so).
    """
    t0 = time.monotonic()
    trajectories = sim.run_pair_ensemble(bundle.system, bundle.levy, config, pair0,
                                         bundle.report.alpha, bundle.report.kappa)
    t1 = time.monotonic()
    hhat_fn, g_fn = bundle.monitor_fns()
    vals, n_blow = _psi_tilde_matrix(trajectories, hhat_fn, g_fn)
    times = config.save_times()
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0]) if vals.shape[0] > 1 else np.zeros_like(means)
    rate, intercept, r2, start, stop = fit_exponential_decay(times, means, ses)

    rng = np.random.default_rng(boot_seed)
    boots = []
    # one surviving replica has no spread to resample: the CI collapses to the fit
    for _ in range(n_boot if vals.shape[0] > 1 else 0):
        pick = rng.integers(0, vals.shape[0], vals.shape[0])
        bm = vals[pick].mean(axis=0)
        bs = vals[pick].std(axis=0, ddof=1) / math.sqrt(vals.shape[0])
        try:
            br, *_ = fit_exponential_decay(times, bm, bs)
            boots.append(br)
        except InsufficientDecay:
            continue
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = rate
    return DecayReport(times=times, means=means, ses=ses, lambda_fit=rate,
                       intercept=intercept, r_squared=r2, ci_low=float(lo), ci_high=float(hi),
                       n_replicas=config.n_replicas, n_blowups=n_blow,
                       fit_start=start, fit_stop=stop,
                       rate_certified=bundle.report.rate,
                       log_rate_certified=bundle.report.log_rate,
                       monitor_is_fallback=bundle.monitor_is_fallback,
                       lambda_fit_exceeds_certified=bool(rate >= bundle.report.rate),
                       timings={"ensemble_s": t1 - t0, "decay_fit_s": time.monotonic() - t1})


# ---------------------------------------------------------------------------
# sliced transport distance
# ---------------------------------------------------------------------------


def _w1_sorted(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def sliced_wasserstein(A: EmpiricalMeasure, B: EmpiricalMeasure, n_projections: int = 64,
                       seed: int = 0) -> float:
    """Average one-dimensional transport distance over random projections.

    Exact sorted-sample distance in one dimension; a projection average
    otherwise. Unequal sample counts are subsampled (seeded) to the smaller
    count. A diagnostics surrogate: a pseudometric on sample clouds, not
    the certified contraction cost.
    """
    a, b = A.samples, B.samples
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample dimensions differ")
    n = min(a.shape[0], b.shape[0])
    rng = np.random.default_rng(seed)
    if a.shape[0] != n:
        a = a[rng.choice(a.shape[0], n, replace=False)]
    if b.shape[0] != n:
        b = b[rng.choice(b.shape[0], n, replace=False)]
    k = a.shape[1]
    if k == 1:
        return _w1_sorted(a[:, 0], b[:, 0])
    g = rng.standard_normal((n_projections, k))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    return float(np.mean([_w1_sorted(a @ e, b @ e) for e in dirs]))


def equilibrium_diagnostics(system, levy, config: sim.SimConfig, init_a: tuple,
                            init_b: tuple, independent_streams: bool = True) -> dict:
    """Empirical stationarity probe from two initial conditions.

    Runs two single-process ensembles to the horizon, compares their
    terminal clouds, and compares the mid-horizon and terminal clouds of the
    first ensemble as a stationarity proxy; also tracks the fractional
    velocity moment of order ``levy.theta`` across checkpoints (heavy tails
    rule out variances).
    """
    if config.n_save < 3:
        raise ValueError("need at least three snapshots for the stationarity proxy")
    ens_a = sim.run_single_ensemble(system, levy, config, *init_a)
    offset = config.n_replicas if independent_streams else 0
    ens_b = sim.run_single_ensemble(system, levy, config, *init_b, replica_offset=offset)

    def cloud(ens, k):
        rows = [np.concatenate([tr.x[k], tr.v[k]]) for tr in ens if not tr.blown_up]
        return EmpiricalMeasure(np.reshape(rows, (-1, 2 * system.dim)))

    times = config.save_times()
    mid = len(times) // 2
    last = len(times) - 1
    cross = sliced_wasserstein(cloud(ens_a, last), cloud(ens_b, last), seed=config.seed)
    within = sliced_wasserstein(cloud(ens_a, mid), cloud(ens_a, last), seed=config.seed + 1)
    # sampling noise floor: distance between two halves of one ensemble
    terminal = cloud(ens_a, last).samples
    half = terminal.shape[0] // 2
    noise_floor = 0.0
    if half >= 2:
        noise_floor = sliced_wasserstein(EmpiricalMeasure(terminal[:half]),
                                         EmpiricalMeasure(terminal[half:2 * half]),
                                         seed=config.seed + 2)
    checkpoints = sorted({mid // 2, mid, (mid + last) // 2, last})
    moments = {}
    for k in checkpoints:
        vs = np.array([np.linalg.norm(tr.v[k]) for tr in ens_a if not tr.blown_up])
        moments[float(times[k])] = float(np.mean(vs ** levy.theta))
    blow = sum(tr.blown_up for tr in ens_a) + sum(tr.blown_up for tr in ens_b)
    return {
        "cross_distance": cross,
        "stationarity_distance": within,
        "noise_floor": noise_floor,
        "velocity_moment_theta": moments,
        "n_blowups": int(blow),
        "horizon": float(times[last]),
    }
