"""Monte Carlo decay estimation and empirical equilibrium diagnostics.

The monitored functional is the tilted distance cost of the coupled pair
(the quantity the contraction analysis controls); its ensemble mean is fit
by weighted least squares on the log scale, with a replica bootstrap for
the rate confidence interval. The resamples are drawn one after another,
counted into one count matrix, and fitted with the point estimate's
closed-form fit, all rows at once. The log of the certified rate from the
constant chain is reported alongside as a lower-bound diagnostic, never
asserted against the fit: conservative chains sit many orders below observed
decay, far below float range.
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
    # h times the largest force Lipschitz quotient seen, over the replicas
    # the cost keeps (those that did not blow up)
    stability_indicator_max: float
    fit_start: int
    fit_stop: int
    log_rate_certified: float
    monitor_is_fallback: bool
    lambda_fit_exceeds_certified: bool
    # seconds spent drawing the pair ensemble's jumps, in the rest of the
    # ensemble, and in the cost, fit and bootstrap; the run manifest reports
    # them, rate.json does not
    timings: dict = field(default_factory=dict, compare=False)


def _fit_rows(times, means, ses) -> tuple:
    # fit_exponential_decay's fit of every row of (rows, n_save) means and ses
    # in closed form: each row's usable-point count, then its rate, intercept,
    # r_squared, start and stop (junk for rows under three points)
    ok = (times >= 0.1 * times[-1]) & (means > 0.0) & (means > 10.0 * ses)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(np.where(ok, means, 1.0))
        # se of log(mean) ~ se/mean; zero ses (synthetic curves) get unit weight
        w = np.where(ok, 1.0 / np.where(ses > 0, ses / means, 1.0) ** 2, 0.0)
        sw = w.sum(axis=1)
        tbar, ybar = w @ times / sw, (w * y).sum(axis=1) / sw
        dt, dy = times - tbar[:, None], y - ybar[:, None]
        slope = (w * dt * dy).sum(axis=1) / (w * dt * dt).sum(axis=1)
        ss_res = (w * (dy - slope[:, None] * dt) ** 2).sum(axis=1)
        ss_tot = (w * dy * dy).sum(axis=1)
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 1.0)
    return (ok.sum(axis=1), -slope, ybar - slope * tbar, r2, ok.argmax(axis=1),
            ok.shape[1] - ok[:, ::-1].argmax(axis=1))


def fit_exponential_decay(times, means, ses) -> tuple[float, float, float, int, int]:
    """Weighted log-linear fit of a decay curve.

    Window: past the first tenth of the horizon (the burn-in), mean positive,
    and mean above ten times its standard error; points inside it that fail
    the test are left out. Returns ``(rate, intercept, r_squared, start,
    stop)``; the rate is the negated slope. Raises InsufficientDecay for
    windows shorter than three points.
    """
    n, *fit = _fit_rows(np.asarray(times, dtype=float), np.asarray(means, dtype=float)[None],
                        np.asarray(ses, dtype=float)[None])
    if n[0] < 3:
        raise InsufficientDecay(f"only {n[0]} usable points in the fit window")
    return tuple(a[0].item() for a in fit)


def _psi_tilde_matrix(ens: sim.Ensemble, hhat_fn, g_fn) -> tuple[np.ndarray, np.ndarray]:
    # the costs of the replicas kept, and the mask that keeps them: a flagged
    # replica, or one whose cost is not finite at some snapshot (a weight that
    # overflowed to inf), is dropped and counted as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        vals = ProductPairFn(hhat_fn, g_fn).value(ens.pair)
    keep = np.isfinite(vals).all(axis=-1) & ~ens.blown_up
    if not keep.any():
        raise InsufficientDecay("every replica blew up")
    return vals[keep], keep


def _bootstrap_rates(vals, means, times, n_boot: int) -> np.ndarray:
    # The fitted rates of n_boot replica resamples (rows of vals), skipping
    # those under three usable points. The resamples are drawn one after
    # another and counted into one (n_boot, N) matrix; their means and
    # standard errors are two products over the deviations from the mean.
    n, rng = vals.shape[0], np.random.default_rng(424242)
    picks = np.concatenate([rng.integers(0, n, n) + k * n for k in range(n_boot)])
    counts = np.bincount(picks, minlength=n_boot * n).reshape(n_boot, n).astype(float)
    dev = vals - means
    dmean = counts @ dev / n
    var = (counts @ (dev * dev) - n * dmean * dmean) / (n - 1)
    var[counts.max(axis=1) == n] = 0.0  # one replica drawn n times has no spread
    ses = np.sqrt(np.maximum(var, 0.0)) / math.sqrt(n)
    usable, rates, *_ = _fit_rows(times, means + dmean, ses)
    return rates[usable >= 3]


def estimate_decay(bundle: cn.ConstantsBundle, config: sim.SimConfig, pair0: PairState,
                   n_boot: int = 200) -> DecayReport:
    """Ensemble decay of the tilted distance cost, with a bootstrap CI.

    The monitored functional uses the bundle's monitor profile (identical to
    the certified profile unless that one is missing or numerically flat, in
    which case the linear member of the family substitutes and the report
    says so).
    """
    t0, timings = time.monotonic(), {}
    ens = sim.run_pair_ensemble(bundle.system, bundle.levy, config, pair0,
                                bundle.report.alpha, bundle.report.kappa, timings)
    t1 = time.monotonic()
    timings["stepping_s"] = t1 - t0 - timings["sampling_s"]
    hhat_fn, g_fn = bundle.monitor_fns()
    vals, keep = _psi_tilde_matrix(ens, hhat_fn, g_fn)
    times = ens.times
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0]) if vals.shape[0] > 1 else np.zeros_like(means)
    rate, intercept, r2, start, stop = fit_exponential_decay(times, means, ses)
    # one surviving replica has no spread to resample: the CI collapses to the fit
    boots = _bootstrap_rates(vals, means, times, n_boot) if vals.shape[0] > 1 and n_boot else []
    lo, hi = np.percentile(boots, [2.5, 97.5]) if len(boots) else (rate, rate)
    return DecayReport(times=times, means=means, ses=ses, lambda_fit=rate,
                       intercept=intercept, r_squared=r2, ci_low=float(lo), ci_high=float(hi),
                       n_replicas=len(ens), n_blowups=int((~keep).sum()),
                       stability_indicator_max=float(ens.stability_indicator[keep].max()),
                       fit_start=start, fit_stop=stop,
                       log_rate_certified=bundle.report.log_rate,
                       monitor_is_fallback=bundle.monitor_is_fallback,
                       lambda_fit_exceeds_certified=bool(
                           rate > 0 and math.log(rate) >= bundle.report.log_rate),
                       timings={**timings, "decay_fit_s": time.monotonic() - t1})


# ---------------------------------------------------------------------------
# sliced transport distance
# ---------------------------------------------------------------------------


def _w1_sorted(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def sliced_wasserstein(a, b, n_projections: int = 64, seed: int = 0) -> float:
    """Average one-dimensional transport distance over random projections.

    ``a`` and ``b`` are uniformly weighted sample clouds, one sample per row
    (a 1-d array is one sample); an empty cloud raises EmptyMeasure. Exact
    sorted-sample distance in one dimension; a projection average
    otherwise. Unequal sample counts are subsampled (seeded) to the smaller
    count. A diagnostics surrogate: a pseudometric on sample clouds, not
    the certified contraction cost.
    """
    a, b = (np.atleast_2d(np.asarray(s, dtype=float)) for s in (a, b))
    if a.size == 0 or b.size == 0:
        raise EmptyMeasure("a sample cloud needs at least one sample")
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
                            init_b: tuple) -> dict:
    """Empirical stationarity probe from two initial conditions.

    Runs two single-process ensembles to the horizon on disjoint replica
    streams (the second's replica ``k`` is stream ``n_replicas + k``),
    compares their terminal clouds, and compares the mid-horizon and
    terminal clouds of the first ensemble as a stationarity proxy; also
    tracks the fractional velocity moment of order ``levy.theta`` across
    checkpoints (heavy tails rule out variances). ``timings`` holds the wall
    time the two ensembles spent drawing their jumps (``sampling_s``) and
    the rest of theirs (``stepping_s``), and that of the comparisons
    (``diagnostics_s``).
    """
    if config.n_save < 3:
        raise ValueError("need at least three snapshots for the stationarity proxy")
    t0, timings = time.monotonic(), {}
    ens_a = sim.run_single_ensemble(system, levy, config, *init_a, timings=timings)
    ens_b = sim.run_single_ensemble(system, levy, config, *init_b,
                                    replica_offset=config.n_replicas, timings=timings)
    t1 = time.monotonic()
    timings["stepping_s"] = t1 - t0 - timings["sampling_s"]

    def cloud(ens, k):
        ok = ~ens.blown_up
        return np.concatenate([ens.x[ok, k], ens.v[ok, k]], axis=-1)

    times = ens_a.times
    mid = len(times) // 2
    last = len(times) - 1
    cross = sliced_wasserstein(cloud(ens_a, last), cloud(ens_b, last), seed=config.seed)
    within = sliced_wasserstein(cloud(ens_a, mid), cloud(ens_a, last), seed=config.seed + 1)
    # sampling noise floor: distance between two halves of one ensemble; with
    # fewer than two samples per half there is none to report
    terminal = cloud(ens_a, last)
    half = terminal.shape[0] // 2
    noise_floor = None
    if half >= 2:
        noise_floor = sliced_wasserstein(terminal[:half], terminal[half:2 * half],
                                         seed=config.seed + 2)
    checkpoints = sorted({mid // 2, mid, (mid + last) // 2, last})
    moments = {}
    for k in checkpoints:
        vs = np.linalg.norm(ens_a.v[~ens_a.blown_up, k], axis=-1)
        moments[float(times[k])] = float(np.mean(vs ** levy.theta))
    return {
        "cross_distance": cross,
        "stationarity_distance": within,
        "noise_floor": noise_floor,
        "velocity_moment_theta": moments,
        "n_blowups": int(ens_a.blown_up.sum() + ens_b.blown_up.sum()),
        "horizon": float(times[last]),
        "timings": {**timings, "diagnostics_s": time.monotonic() - t1},
    }
