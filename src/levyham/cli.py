"""Command line front end.

Subcommands::

    levyham constants   --config CFG --out DIR
    levyham verify      --config CFG --out DIR --which {B1,F1,A2,f-props,operator-identities} [--seed N]
    levyham rate        --config CFG --out DIR [--seed N] [--replicas N]
    levyham couple      --config CFG --out DIR [--seed N] [--replicas N]
    levyham equilibrium --config CFG --out DIR [--seed N] [--replicas N]

Exit codes: 0 success, 1 usage/config error (an unknown flag or an
out-of-range --seed/--replicas included) or a dimension the command does
not implement, 2 completed with flags (degenerate
constants, failed verification, insufficient decay, an ensemble with no
surviving replica).
``main`` builds the run's ``RunManifest`` (out dir, config hash, seed, and
the command, ``verify:<suite>`` for verify) and hands it to the command,
which writes every data file through it. ``main`` writes the command's
record into ``run_manifest.json`` once the command returns, keeping the
records of other commands in the same directory: a config or usage error,
or an exception exit such as ``NonFiniteForce:``, writes none.
Outputs are bitwise-stable given (config, seed); the manifest additionally
records wall-clock timings (for ``constants``, also per stage: ``chain_s``
for the constant chain and ``io_s``; for ``verify``, ``suite_s`` for the
suite, plus ``chain_s`` for the two suites that build the chain, ``f-props``
and ``operator-identities``; for ``rate``, ``constants_s``,
``sampling_s`` for the pair ensemble's jumps, ``stepping_s`` for the rest of
it, ``decay_fit_s`` for the cost, fit and bootstrap, and ``io_s``; for
``couple``, ``sampling_s`` and ``stepping_s`` for its pair ensemble; for
``equilibrium``, ``sampling_s`` and ``stepping_s`` summed over its two
ensembles, and ``diagnostics_s`` for the distances and moments). Every
command runs in one process and steps its replicas together, window by
window.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import constants as cn
from . import ergodicity as erg
from . import generator as gen
from . import model as md
from . import simulate as sim
from .config import ExperimentConfig, RunManifest, load_config
from .errors import ConfigError, InsufficientDecay, LevyhamError
from .pair import PairState

__all__ = ["main"]


def _chain_exit(rep: cn.ConstantsReport) -> int:
    # 2, after one stderr line naming the flags, when the constant chain
    # certifies no rate; the data outputs are written first
    if rep.log_rate != -math.inf:
        return 0
    print(f"degenerate constant chain: flags {', '.join(rep.flags)}", file=sys.stderr)
    return 2


def _bundle_from(cfg: ExperimentConfig) -> cn.ConstantsBundle:
    levy = cfg.build_levy()
    langevin = cfg.build_langevin()
    return cn.build_constants(
        langevin, levy, r0_jump=cfg.constants["r0_jump"],
        grid_radius=cfg.lyapunov["grid_radius"], n_grid=cfg.lyapunov["grid_points"],
        scheme=cfg.build_scheme(),
    )


def _timed_bundle(cfg: ExperimentConfig, timings: dict,
                  stage: str = "chain_s") -> cn.ConstantsBundle:
    # _bundle_from, its seconds recorded as timings[stage]
    t0 = time.monotonic()
    bundle = _bundle_from(cfg)
    timings[stage] = time.monotonic() - t0
    return bundle


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_constants(cfg: ExperimentConfig, manifest: RunManifest) -> int:
    bundle = _timed_bundle(cfg, manifest.timings)
    t0 = time.monotonic()
    rep = bundle.report
    manifest.write_json("constants.json", {
        **dataclasses.asdict(rep), "positivity_violations": rep.positivity_violations(),
        "monitor_is_fallback": bundle.monitor_is_fallback})
    s_grid = np.geomspace(max(rep.R0 * 1e-9, 1e-12), 2.0 * rep.R0, 512)
    manifest.write_csv("profile_curve.csv", ["s", "f", "f_slope", "g"],
                       [s_grid, bundle.profile.value(s_grid), bundle.profile.slope(s_grid),
                        bundle.profile.g(s_grid)])
    manifest.timings["io_s"] = time.monotonic() - t0
    return _chain_exit(rep)


def _verify_b1(cfg, manifest):
    langevin = cfg.build_langevin()
    pot = langevin.potential
    cert, source = md.certificate_with_fallback(pot, langevin.dim, cfg.lyapunov["grid_radius"])
    rep = md.verify_certificate(pot, cert, cfg.lyapunov["grid_radius"],
                                cfg.lyapunov["grid_points"] * 10, langevin.dim,
                                langevin.alpha_damp, langevin.beta)
    payload = {**dataclasses.asdict(rep), "certificate": cert, "certificate_source": source}
    return payload, rep.passed


def _verify_f1(cfg, manifest):
    langevin = cfg.build_langevin()
    radius, n = cfg.lyapunov["grid_radius"], cfg.lyapunov["grid_points"]
    setup = md.build_lyapunov(langevin, radius, cfg.levy["theta"])
    # C is sized within the grid radius: check out to twice it at the same spacing
    rep = md.verify_gamma_drift(setup, langevin, 2.0 * radius, 2 * n - 1)
    return {"choice": setup.choice, **rep}, rep["passed"]


def _verify_a2(cfg, manifest):
    levy = cfg.build_levy()
    setup = md.build_lyapunov(cfg.build_langevin(), cfg.lyapunov["grid_radius"], levy.theta)
    c_star, sup_ratio = md.verify_jump_regularity(setup.lyap, levy.slice_part,
                                                  cfg.lyapunov["grid_radius"])
    moments = levy.measure.moment_pair(levy.theta)
    payload = {"c_star": c_star, "sup_ratio": sup_ratio,
               "moment_small": moments.small_jump, "moment_theta": moments.theta_moment,
               "moment_divergent": moments.divergent}
    return payload, bool(c_star > 0 and not moments.divergent)


def _verify_fprops(cfg, manifest):
    bundle = _timed_bundle(cfg, manifest.timings)
    rep = cn.profile_property_report(bundle.profile)
    rep_live = cn.profile_property_report(cn.REFERENCE_LIVE_PROFILE)
    payload = {"certified_profile": rep, "reference_live_profile": rep_live}
    return payload, bool(rep["passed"] and rep_live["passed"])


def _verify_operator_identities(cfg, manifest):
    bundle = _timed_bundle(cfg, manifest.timings)
    rng = np.random.default_rng(manifest.seed)
    states, centres = [], []
    for _ in range(20):
        states.append(rng.normal(0, 1, size=(4, 1)))
        centres.append((rng.normal(), rng.normal()))
    x, xp, v, vp = np.stack(states, axis=1)
    c_g, c_h = np.transpose(centres)
    quad = gen.pair_quadrature(PairState(x, v, xp, vp), bundle.system, bundle.levy,
                               bundle.report.alpha, bundle.report.kappa, cfg.build_scheme())
    marg = gen.marginal_identity_residual(gen.velocity_bump(c_g), gen.velocity_bump(c_h), quad)
    # where the certified eps underflows to 0 (as on the benchmark) its product
    # rule holds by construction; the monitor pair keeps the cross term live
    prod = gen.product_rule_residual(bundle.cost.left, bundle.cost.right, quad)
    monitor = gen.product_rule_residual(bundle.monitor.left, bundle.monitor.right, quad)
    payload = {"marginal_residual_max": float(np.max(marg)),
               "product_rule_residual_max": float(np.max(prod)),
               "monitor_product_rule_residual_max": float(np.max(monitor))}
    ok = (payload["marginal_residual_max"] <= 1e-4 and payload["product_rule_residual_max"] <= 1e-6
          and payload["monitor_product_rule_residual_max"] <= 1e-6)
    return payload, bool(ok)


_VERIFY = {
    "B1": _verify_b1,
    "F1": _verify_f1,
    "A2": _verify_a2,
    "f-props": _verify_fprops,
    "operator-identities": _verify_operator_identities,
}


def cmd_verify(cfg: ExperimentConfig, manifest: RunManifest, which: str) -> int:
    t0 = time.monotonic()
    payload, passed = _VERIFY[which](cfg, manifest)
    # the suite's own seconds; a suite that builds the constant chain records it as chain_s
    manifest.timings["suite_s"] = time.monotonic() - t0 - manifest.timings.get("chain_s", 0.0)
    manifest.write_json(f"verify_{which.replace('-', '_')}.json",
                        {**payload, "which": which, "passed": bool(passed)})
    return 0 if passed else 2


def cmd_rate(cfg: ExperimentConfig, manifest: RunManifest, replicas: int | None) -> int:
    bundle = _timed_bundle(cfg, manifest.timings, "constants_s")
    sim_cfg = cfg.build_sim(seed=manifest.seed, n_replicas=replicas)
    try:
        report = erg.estimate_decay(bundle, sim_cfg, PairState(*cfg.initial_pair()),
                                    timings=manifest.timings)
    except InsufficientDecay as exc:
        manifest.write_json("rate.json", {"error": "InsufficientDecay", "detail": str(exc)})
        return 2
    t0 = time.monotonic()
    manifest.write_json("rate.json", report)
    safe_log = np.where(report.means > 0, np.log(np.maximum(report.means, 1e-300)), np.nan)
    manifest.write_csv("decay_curve.csv", ["t", "mean", "se", "log_mean"],
                       [report.times, report.means, report.ses, safe_log])
    manifest.timings["io_s"] = time.monotonic() - t0
    return _chain_exit(bundle.report)


def cmd_couple(cfg: ExperimentConfig, manifest: RunManifest, replicas: int | None) -> int:
    bundle = _bundle_from(cfg)
    sim_cfg = cfg.build_sim(seed=manifest.seed, n_replicas=replicas)
    ens = sim.run_pair_ensemble(bundle.system, bundle.levy, sim_cfg,
                                PairState(*cfg.initial_pair()),
                                bundle.report.alpha, bundle.report.kappa, manifest.timings)
    # a monitor weight that overflows at a finite state leaves its psi_tilde NaN
    with np.errstate(over="ignore", invalid="ignore"):
        cost = bundle.monitor.value(ens.pair)
    # every replica's columns as one (N, 7, n_save) stack; pair runs are one-dimensional
    columns = np.stack([np.broadcast_to(ens.times, ens.x.shape[:-1]), ens.x[..., 0],
                        ens.v[..., 0], ens.xp[..., 0], ens.vp[..., 0],
                        ens.pair.r(bundle.report.alpha, bundle.monitor.left.alpha0), cost],
                       axis=1)
    for idx, replica in enumerate(columns):
        manifest.write_csv(f"trajectory_{idx:04d}.csv",
                           ["t", "x", "v", "xp", "vp", "r", "psi_tilde"], replica)
    return _chain_exit(bundle.report)


def cmd_equilibrium(cfg: ExperimentConfig, manifest: RunManifest,
                    replicas: int | None) -> int:
    levy = cfg.build_levy()
    sim_cfg = cfg.build_sim(seed=manifest.seed, n_replicas=replicas)
    if sim_cfg.n_save < 3:
        raise ConfigError("equilibrium diagnostics need sim n_save >= 3")
    x0, v0, xp0, vp0 = cfg.initial_pair()
    payload = erg.equilibrium_diagnostics(cfg.build_langevin(), levy, sim_cfg, (x0, v0),
                                          (xp0, vp0), manifest.timings)
    threshold = cfg.constants["decay_threshold"]
    if threshold is not None:
        payload["threshold"] = threshold
        payload["within_threshold"] = bool(payload["cross_distance"] <= threshold
                                           and payload["stationarity_distance"] <= threshold)
    manifest.write_json("equilibrium.json", payload)
    if threshold is not None and not payload["within_threshold"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# the commands that run ensembles, and so take --replicas
_COMMANDS = {
    "rate": cmd_rate,
    "couple": cmd_couple,
    "equilibrium": cmd_equilibrium,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyham",
        description="Coupled-pair simulation and contraction certification for "
                    "jump-driven Hamiltonian dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("constants", "verify", *_COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config path (defaults built in)")
        p.add_argument("--out", default=".", help="output directory")
        if name != "constants":
            p.add_argument("--seed", type=int, default=None, help="master seed override")
        if name in _COMMANDS:
            p.add_argument("--replicas", type=int, default=None, help="replica count override")
        if name == "verify":
            p.add_argument("--which", required=True,
                           choices=sorted(_VERIFY), help="check suite to run")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0

    try:
        cfg = load_config(args.config)
        seed = cfg.sim["seed"] if vars(args).get("seed") is None else args.seed
        cfg.build_sim(seed, vars(args).get("replicas"))  # the overrides' range checks
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    command = f"verify:{args.which}" if args.command == "verify" else args.command
    manifest = RunManifest(cfg.config_hash(), seed, command, out=args.out)

    try:
        if args.command == "constants":
            code = cmd_constants(cfg, manifest)
        elif args.command == "verify":
            code = cmd_verify(cfg, manifest, args.which)
        else:
            code = _COMMANDS[args.command](cfg, manifest, args.replicas)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NotImplementedError as exc:
        print(f"unsupported dimension (dim = {cfg.model['dim']}): {exc}", file=sys.stderr)
        return 1
    except LevyhamError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    # only a command that returns leaves a manifest
    manifest.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
