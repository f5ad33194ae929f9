"""Acceptance gate: the eleven exit criteria, one printed line each.

Every criterion runs at its stated tolerance against the double-well
slice-noise benchmark (damping 1, force weight 1, slice c=1, theta0=0.4,
moment exponent 1). Monte Carlo criteria pin their seeds; the certified
constant chain is evaluated in log space where float64 underflows.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from levyham import constants as cn
from levyham import ergodicity as erg
from levyham import generator as gen
from levyham import measures as ms
from levyham import model as md
from levyham import simulate as sim
from levyham.pair import PairState

_LINES = []


def _report(num, name, passed, detail, elapsed):
    line = (f"ACCEPTANCE {num:2d} {name:<28s} "
            f"{'PASS' if passed else 'FAIL'}  ({detail}; {elapsed:.1f}s)")
    _LINES.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def bench(benchmark_bundle):
    return benchmark_bundle


class LiveProfile:
    """A numerically live member of the profile family for operator checks."""

    def __init__(self):
        self._p = cn.REFERENCE_LIVE_PROFILE
        self.cap = self._p.cap

    def value(self, s):
        return self._p.value(s)

    def slope(self, s):
        return self._p.slope(s)


def test_criterion_01_profile_suite(bench):
    t0 = time.monotonic()
    rep = cn.profile_property_report(bench.profile)
    s = np.geomspace(1e-9 * bench.profile.cap, bench.profile.cap, 2000)
    slope = bench.profile.slope(s)
    c1 = bench.profile.c1
    band = bool(np.all(slope >= c1 - 1e-12) and np.all(slope <= 1 + c1 + 1e-12))
    elapsed = time.monotonic() - t0
    failed = [k for k, v in rep["checks"].items() if not v]
    _report(1, "profile property suite", rep["passed"] and band and elapsed < 5.0,
            f"failed={failed or 'none'}, slope band ok={band}", elapsed)


def test_criterion_02_overlap_identities(bench, rng):
    t0 = time.monotonic()
    sl = bench.levy.slice_part
    worst_p1 = 0.0
    for _ in range(100):
        x = rng.uniform(-0.9, 0.9)
        while abs(x) < 1e-3:
            x = rng.uniform(-0.9, 0.9)
        u = rng.uniform(-1.5, 1.5)
        lhs = float(ms.overlap_density(sl, np.array([-x]), np.array([u - x])))
        rhs = float(ms.overlap_density(sl, np.array([x]), np.array([u])))
        worst_p1 = max(worst_p1, abs(lhs - rhs))
    sym_ok = all(
        abs(ms.overlap_mass(sl, [x]) - ms.overlap_mass(sl, [-x]))
        <= 1e-12 * max(ms.overlap_mass(sl, [x]), 1.0)
        for x in np.linspace(0.02, 0.95, 20))
    small = sl.moment_pair(bench.levy.theta).small_jump
    bound_ok = True
    for x in np.linspace(-0.98, 0.98, 50):
        if abs(x) < 1e-6:
            continue
        bound = 8.0 * small * min(1.0, abs(x)) ** -2
        bound_ok &= ms.overlap_mass(sl, [x]) <= 1.01 * bound
    elapsed = time.monotonic() - t0
    _report(2, "reflection and mass bound",
            worst_p1 <= 1e-12 and sym_ok and bound_ok and elapsed < 30.0,
            f"P1 worst={worst_p1:.2e}, symmetry={sym_ok}, bound={bound_ok}", elapsed)


def test_criterion_03_overlap_floor(bench):
    t0 = time.monotonic()
    sl = bench.levy.slice_part
    r0 = bench.report.r0_jump
    c0, theta0 = ms.fit_overlap_floor(sl, r0), sl.theta0
    floor_ok = all(
        ms.overlap_mass_lower_bound(sl, float(s)) >= c0 * s ** -theta0 * (1 - 1e-9)
        for s in np.geomspace(1e-4 * r0, r0, 60))
    limit = ms.overlap_mass_lower_bound(sl, 1e-6) * (1e-6) ** theta0
    limit_ok = abs(limit - sl.c / sl.theta0) <= 0.01 * sl.c / sl.theta0
    elapsed = time.monotonic() - t0
    _report(3, "small-jump activity floor",
            c0 > 0 and floor_ok and limit_ok and elapsed < 30.0,
            f"c0={c0:.4f}, floor ok={floor_ok}, limit={limit:.4f}", elapsed)


def test_criterion_04_operator_identities(bench, scheme):
    t0 = time.monotonic()
    rng = np.random.default_rng(4040)
    alpha, kappa = bench.report.alpha, bench.report.kappa
    live = LiveProfile()
    hfn = gen.ProfilePairFn(live, alpha, 2.0)
    gfn = bench.monitor.right
    states, centres = [], []
    for _ in range(20):
        states.append(rng.normal(0, 1, (4, 1)))
        centres.append((rng.normal(), rng.normal()))
    x, xp, v, vp = np.stack(states, axis=1)
    pair = PairState(x, v, xp, vp)
    c_g, c_h = np.transpose(centres)
    quad = gen.pair_quadrature(pair, bench.system, bench.levy, alpha, kappa, scheme)
    worst_marg = float(np.max(gen.marginal_identity_residual(
        gen.velocity_bump(c_g), gen.velocity_bump(c_h), quad)))
    worst_prod = float(np.max(gen.product_rule_residual(hfn, gfn, quad)))
    elapsed = time.monotonic() - t0
    _report(4, "operator identities",
            worst_marg <= 1e-4 and worst_prod <= 1e-6 and elapsed < 120.0,
            f"marginal={worst_marg:.2e}, product={worst_prod:.2e}", elapsed)


def test_criterion_05_closed_form_cross_validation(bench, scheme):
    t0 = time.monotonic()
    rng = np.random.default_rng(5050)
    alpha, kappa = bench.report.alpha, bench.report.kappa
    live = LiveProfile()
    worst = 0.0
    for _ in range(20):
        pair = PairState(rng.normal(0, 1, 1), rng.normal(0, 1, 1),
                         rng.normal(0, 1, 1), rng.normal(0, 1, 1))
        hfn = gen.ProfilePairFn(live, alpha, 2.0)
        full = gen.apply_coupling_operator(hfn, gen.pair_quadrature(
            pair, bench.system, bench.levy, alpha, kappa, scheme))
        closed = gen.coupling_profile_drift(live, pair, bench.system, bench.levy,
                                            alpha, 2.0, kappa)
        worst = max(worst, abs(full - closed) / max(abs(closed), 1e-12))
    elapsed = time.monotonic() - t0
    _report(5, "profile drift cross-check", worst <= 1e-5 and elapsed < 120.0,
            f"worst rel={worst:.2e}", elapsed)


def _weight_drift_excess(bench, c0, C0, grid_radius, n_grid):
    # max of L W + c0 W - C0 over the fit's own grid
    x, v = md.grid_pairs(grid_radius, n_grid, 1, include_origin=True)
    LW = gen.apply_generator(bench.system, bench.levy, gen.lyapunov_test_function(bench.lyap),
                             x, v)
    return float(np.max(LW + c0 * bench.lyap.W(x, v) - C0))


def test_criterion_06_weight_drift(bench):
    t0 = time.monotonic()
    rep = bench.report
    c0, C0 = cn.fit_lyapunov_drift(bench.system, bench.levy, bench.lyap,
                                   grid_radius=20.0, n_grid=21)
    elapsed = time.monotonic() - t0
    worst = _weight_drift_excess(bench, c0, C0, 20.0, 21)
    ok = c0 >= 0.01 and math.isfinite(C0) and worst <= 0.0 and elapsed < 300.0
    _report(6, "weight drift fit", ok,
            f"c0={c0:.4f}, C0={C0:.3f}, worst excess={worst:.2e}", elapsed)


def test_criterion_07_marginal_law(bench):
    t0 = time.monotonic()
    free = md.KineticLangevinSpec(0.0, 0.0, md.Quadratic(1.0), dim=1)
    cfg = sim.SimConfig(h=0.01, delta=1e-3, horizon=1.0, n_save=2, seed=707,
                        n_replicas=10_000)
    trs = sim.run_pair_ensemble(free, bench.levy, cfg,
                                PairState([1.0], [0.0], [0.0], [0.0]),
                                bench.report.alpha, bench.report.kappa)
    VT = np.array([t.v[-1, 0] for t in trs])
    VpT = np.array([t.vp[-1, 0] for t in trs])
    stat = stats.ks_2samp(VT, VpT).statistic
    crit = 1.628 * math.sqrt(2.0 / len(trs))
    elapsed = time.monotonic() - t0
    _report(7, "coupling marginal law", stat < crit and elapsed < 300.0,
            f"KS={stat:.4f} < crit={crit:.4f}, N={len(trs)}", elapsed)


def test_criterion_08_diagonal_absorption(bench):
    t0 = time.monotonic()
    cfg_base = dict(h=0.02, delta=1e-3, horizon=10.0, n_save=6)
    ok = True
    for seed in range(100):
        cfg = sim.SimConfig(seed=seed, **cfg_base)
        tr, = sim.run_pair_ensemble(bench.system, bench.levy, cfg,
                                    PairState([1.5], [-0.5], [1.5], [-0.5]),
                                    bench.report.alpha, bench.report.kappa)
        ok &= bool(np.array_equal(tr.x, tr.xp) and np.array_equal(tr.v, tr.vp))
        if not ok:
            break
    elapsed = time.monotonic() - t0
    _report(8, "diagonal absorption", ok and elapsed < 60.0,
            f"100 seeds bitwise equal={ok}", elapsed)


def test_criterion_09_contraction(bench):
    t0 = time.monotonic()
    pair0 = PairState([2.0], [0.0], [-2.0], [0.0])
    runs = {}
    for name, h, delta in (("base", 0.005, 1e-3), ("half_h", 0.0025, 1e-3),
                           ("half_delta", 0.005, 5e-4)):
        cfg = sim.SimConfig(h=h, delta=delta, horizon=20.0, n_save=41, seed=99,
                            n_replicas=2000)
        runs[name] = erg.estimate_decay(bench, cfg, pair0, n_boot=200)
    base = runs["base"]
    half_width = 0.5 * (base.ci_high - base.ci_low)
    shift_h = abs(base.lambda_fit - runs["half_h"].lambda_fit)
    shift_d = abs(base.lambda_fit - runs["half_delta"].lambda_fit)
    elapsed = time.monotonic() - t0
    ok = (base.r_squared >= 0.9 and base.lambda_fit > 0 and base.ci_low > 0
          and shift_h < half_width and shift_d < half_width and elapsed < 900.0)
    _report(9, "contraction decay", ok,
            f"lambda={base.lambda_fit:.4f}, R2={base.r_squared:.3f}, "
            f"CI half={half_width:.4f}, shifts h={shift_h:.4f} d={shift_d:.4f}",
            elapsed)


def test_criterion_10_contraction_spot_check(bench, scheme):
    t0 = time.monotonic()
    rng = np.random.default_rng(1010)
    hhat, gfn = bench.cost.left, bench.cost.right
    rate = math.exp(bench.report.log_rate)
    pos_r = bench.report.position_radius
    states = []
    for k in range(200):
        if k % 2 == 0:
            x = rng.uniform(-pos_r, pos_r, 1)
            xp = rng.uniform(-pos_r, pos_r, 1)
            v = rng.uniform(-5, 5, 1)
            vp = rng.uniform(-5, 5, 1)
        else:
            # far-field states beyond the clamp radius
            x = rng.uniform(1e3, 1e4, 1) * rng.choice([-1.0, 1.0])
            xp = -x + rng.uniform(-1, 1, 1)
            v = rng.uniform(-5, 5, 1)
            vp = rng.uniform(-5, 5, 1)
        states.append((x, v, xp, vp))
    pair = PairState(*np.stack(states, axis=1))
    chk = gen.contraction_inequality_check(hhat, gfn, rate, gen.pair_quadrature(
        pair, bench.system, bench.levy, bench.report.alpha, bench.report.kappa, scheme))
    failures = np.flatnonzero(~chk.passed)
    for k in failures[:5]:
        print(f"  spot-check failure at x={pair.x[k]} v={pair.v[k]} "
              f"xp={pair.xp[k]} vp={pair.vp[k]}: excess {chk.lhs[k] - chk.rhs[k]:.3e}")
    elapsed = time.monotonic() - t0
    rate_pass = 1.0 - len(failures) / 200.0
    _report(10, "contraction spot check", rate_pass >= 0.95 and elapsed < 600.0,
            f"pass rate={rate_pass:.3f}, failures={len(failures)}", elapsed)


def test_criterion_11_constant_pipeline(bench):
    t0 = time.monotonic()
    hand_one = cn.compute_alpha_alpha0(0.0, 1.0, 1.0) == (1.0, 17.0)
    hand_two = cn.compute_alpha_alpha0(2.0, 16.0, 4.0) == (2.0, 6.0)
    rep = bench.report
    violations = rep.positivity_violations()
    positive_rate = rep.log_rate > -math.inf
    elapsed = time.monotonic() - t0
    _report(11, "constant pipeline", hand_one and hand_two and not violations
            and positive_rate and elapsed < 5.0,
            f"hand cases ok, violations={violations or 'none'}, "
            f"log_rate={rep.log_rate:.3e}", elapsed)


def test_zz_summary():
    print("\n".join(_LINES))
    assert all(" PASS " in line for line in _LINES)
