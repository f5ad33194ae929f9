"""Command line contract: exit codes, determinism, config validation."""

import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from levyham import cli
from levyham import constants as cn
from levyham import measures as ms
from levyham import model as md
from levyham.config import SCHEMA, RunManifest, load_config
from levyham.errors import ConfigError

BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
BENCHMARK_REFERENCE = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                                   "reference.json")

QUICK = """
[sim]
h = 0.05
delta = 5e-3
horizon = 4.0
n_replicas = 40
n_save = 9
seed = 3
"""

# the paper's exponential well, whose force overflows on the Lipschitz ball
DEGENERATE_CHAIN = """
[model]
potential = double_well_exp
pot_c1 = 0.1
pot_l = 1

[sim]
h = 0.01
horizon = 2.0
n_save = 5
"""


# stable noise above the benchmark's slab (ROADMAP item 21)
STABLE = """
[levy]
kind = stable
alpha0 = 1.5
slice_c = 1.0
slice_theta0 = 0.4
theta = 1.0
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# one other accepted value for every key the builders read, and the companion
# keys of the same section that value needs; each must change what is built
KNOBS = {
    ("levy", "kind"): ("stable", {}),
    ("levy", "c"): ("2.0", {}),
    ("levy", "theta0"): ("0.6", {}),
    ("levy", "alpha0"): ("1.2", {"kind": "stable"}),
    ("levy", "scale"): ("2.0", {"kind": "stable"}),
    ("levy", "theta"): ("0.5", {}),
    ("levy", "slice_c"): ("0.5", {"kind": "stable"}),
    ("levy", "slice_theta0"): ("1.2", {"kind": "stable"}),
    ("model", "a"): ("0.5", {}),
    ("model", "b"): ("2.0", {}),
    ("model", "alpha_damp"): ("2.0", {}),
    ("model", "beta"): ("2.0", {}),
    ("model", "potential"): ("double_well_exp", {}),
    ("model", "pot_c1"): ("0.5", {}),
    ("model", "pot_c2"): ("3.0", {}),
    ("model", "pot_l"): ("1.0", {}),
    ("model", "pot_k"): ("2.0", {"potential": "quadratic"}),
    ("model", "dim"): ("2", {}),
    ("quadrature", "rho_in"): ("1e-5", {}),
    ("quadrature", "rho_out"): ("1e5", {}),
    ("quadrature", "nodes_radial"): ("8", {}),
    ("quadrature", "panels_per_decade"): ("6", {}),
    ("sim", "h"): ("0.01", {}),
    ("sim", "delta"): ("1e-2", {}),
    ("sim", "horizon"): ("5.0", {}),
    ("sim", "n_replicas"): ("10", {}),
    ("sim", "seed"): ("7", {}),
    ("sim", "n_save"): ("11", {}),
    ("sim", "x0"): ("1.0", {}),
    ("sim", "v0"): ("1.0", {}),
    ("sim", "x0_prime"): ("-1.0", {}),
    ("sim", "v0_prime"): ("1.0", {}),
    ("lyapunov", "grid_radius"): ("10.0", {}),
    ("lyapunov", "grid_points"): ("7", {}),
    ("constants", "r0_jump"): ("0.25", {}),
    ("constants", "decay_threshold"): ("0.5", {}),
}


def built(section, settings):
    # everything the builders make from a config that sets `settings` in `section`
    cfg = load_config(text=f"[{section}]\n" + "".join(f"{k} = {v}\n"
                                                     for k, v in settings.items()))
    return repr((cfg.build_levy(), cfg.build_langevin(), cfg.build_scheme(), cfg.build_sim(),
                 cfg.initial_pair()))


# [lyapunov] and [constants] feed the constant chain, built here on a coarse
# grid, and the verdict of a short equilibrium run
CHAIN_BASE = {"lyapunov": {"grid_points": "5"},
              "sim": {"h": "0.05", "horizon": "0.2", "n_save": "3", "n_replicas": "4"}}


def chain_built(out, section, settings):
    # the constant report and equilibrium.json of a config that sets `settings` in `section`
    tables = {**CHAIN_BASE, section: {**CHAIN_BASE.get(section, {}), **settings}}
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in tables.items())
    path = write(out.parent, text, f"{out.name}.cfg")
    report = cli._bundle_from(load_config(path)).report
    assert cli.main(["equilibrium", "--config", path, "--out", str(out)]) in (0, 2)
    return repr(report) + (out / "equilibrium.json").read_text()


class TestConfig:
    @pytest.mark.parametrize("section, key", [(section, key) for section in SCHEMA
                                              for key in SCHEMA[section]])
    def test_every_key_changes_what_is_built(self, section, key, tmp_path):
        # a key with no other accepted value, or one no builder reads, is a dead knob
        assert (section, key) in KNOBS, f"[{section}] {key} has no other value listed"
        value, companions = KNOBS[section, key]
        if section in ("lyapunov", "constants"):
            assert (chain_built(tmp_path / "changed", section, {**companions, key: value})
                    != chain_built(tmp_path / "base", section, companions))
        else:
            assert built(section, {**companions, key: value}) != built(section, companions)

    def test_defaults_load(self):
        cfg = load_config(text="")
        assert cfg.levy["kind"] == "slice"
        assert cfg.model["potential"] == "double_well_poly"

    def test_unknown_key_line_numbered(self, tmp_path):
        path = write(tmp_path, "[levy]\nkind = slice\nbogus = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 3" in str(err.value)
        assert "bogus" in str(err.value)

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write(tmp_path, "[sim]\nh = fast\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 2" in str(err.value)

    def test_physics_validation(self, tmp_path):
        path = write(tmp_path, "[levy]\ntheta = 1.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = load_config(write(tmp_path, QUICK, "a.cfg"))
        b = load_config(write(tmp_path, QUICK, "b.cfg"))
        c = load_config(write(tmp_path, QUICK.replace("seed = 3", "seed = 4"), "c.cfg"))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_renamed_key_points_to_new_name(self, tmp_path):
        path = write(tmp_path, "[quadrature]\nrho_in = 1e-6\nnodes_angular = 6\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 3" in str(err.value)
        assert "panels_per_decade" in str(err.value)
        cfg = load_config(write(tmp_path, "[quadrature]\npanels_per_decade = 6\n", "new.cfg"))
        assert cfg.build_scheme().panels_per_decade == 6

    def test_stable_noise_takes_any_positive_cutoff(self):
        # its compensation drift is zero, so no cutoff bound applies (slice: (0, 1])
        assert load_config(text="[levy]\nkind = stable\n[sim]\ndelta = 2\n").sim["delta"] == 2

    def test_stable_kind_with_certificate(self):
        cfg = load_config(text="[levy]\nkind = stable\nalpha0 = 1.5\n"
                               "slice_c = 1.0\nslice_theta0 = 0.4\n")
        spec = cfg.build_levy()
        assert spec.slice_part.theta0 == 0.4


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path):
        path = write(tmp_path, "[levy]\nbogus = 1\n")
        code = cli.main(["constants", "--config", path, "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("argv", [["constants", "--seed", "5"],
                                      ["constants", "--replicas", "8"],
                                      ["verify", "--which", "B1", "--replicas", "8"],
                                      ["rate", "--bogus"], []])
    def test_bad_flag_is_one(self, tmp_path, capsys, argv):
        # constants reads no seed or replica count, verify no replica count
        assert cli.main(argv + ["--out", str(tmp_path)] if argv else argv) == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.json").exists()

    def test_help_is_zero(self, capsys):
        assert cli.main(["constants", "--help"]) == 0
        assert "--seed" not in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["[levy]\nc = -1.0\n", "[sim]\nn_save = 0\n",
                                      "[model]\nalpha_damp = -1.0\n",
                                      "[levy]\nkind = stable\nalpha0 = 2.5\n",
                                      "[sim]\nn_replicas = 0\n", "[sim]\nseed = -4\n",
                                      "[sim]\ndelta = 2\n"])
    def test_out_of_range_value_is_one(self, tmp_path, capsys, text):
        path = write(tmp_path, text)
        code = cli.main(["constants", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error")
        section = text.split("]")[0] + "]"
        assert section in err[0]

    @pytest.mark.parametrize("argv", [["rate", "--replicas", "0"], ["couple", "--replicas", "-3"],
                                      ["equilibrium", "--replicas", "0"], ["rate", "--seed", "-1"],
                                      ["verify", "--which", "operator-identities", "--seed", "-1"]])
    def test_out_of_range_override_is_one(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: [sim]")
        assert not (tmp_path / "run_manifest.json").exists()

    def test_constants_benchmark(self, tmp_path):
        code = cli.main(["constants", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        assert payload["log_rate"] > -math.inf
        assert payload["positivity_violations"] == []
        assert (tmp_path / "profile_curve.csv").exists()
        assert (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize("variant, old, new", [
        ("base", "", ""),
        ("quadratic", "potential = double_well_poly", "potential = quadratic"),
        ("theta0-0.3", "theta0 = 0.4", "theta0 = 0.3")])
    def test_certified_rate_matches_the_benchmark_reference(self, variant, old, new):
        # the benchmark's certify configs, at its own relative tolerance: a
        # drift in the constant chain shows here, not only in a benchmark run
        with open(BENCHMARK_CFG, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        with open(BENCHMARK_REFERENCE, encoding="utf-8") as fh:
            want = json.load(fh)["certify"]["log_rate"][variant]
        got = cli._bundle_from(load_config(text=text.replace(old, new))).report.log_rate
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_verify_broken_certificate_fails(self, tmp_path):
        # a potential too shallow for the default unit growth constant
        path = write(tmp_path, "[model]\npotential = quadratic\npot_k = 0.5\n")
        code = cli.main(["verify", "--which", "B1", "--config", path,
                         "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "verify_B1.json").read_text())
        assert not payload["passed"]
        assert payload["growth_slack"] < 0

    def test_verify_quadratic_manual_certificate_passes(self, tmp_path):
        path = write(tmp_path, "[model]\npotential = quadratic\npot_k = 1.0\n")
        code = cli.main(["verify", "--which", "B1", "--config", path,
                         "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("argv", [["constants"], ["rate"], ["couple"],
                                      ["verify", "--which", "F1"], ["verify", "--which", "A2"]])
    @pytest.mark.parametrize("text", ["[model]\npotential = quadratic\npot_k = 0.5\n",
                                      "[model]\npot_l = 1.1\n"])
    def test_failing_fallback_certificate_is_one_line(self, tmp_path, capsys, argv, text):
        # the growth test fails, and the lam1 = 1 fallback fails its grid check;
        # at pot_k = 1 it passes (TestLyapunovBuilder builds on it)
        path = write(tmp_path, text)
        assert cli.main(argv + ["--config", path, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("GrowthTestFailed: ")
        assert "growth_slack" in lines[0]
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("text, passed", [("", True), ("[model]\nb = 2.0\n", False),
                                              ("[model]\na = 0.5\n", False)])
    def test_verify_f1_checks_beyond_the_sizing_ball(self, tmp_path, text, passed):
        # C is sized on the configured system within the grid radius; for
        # a != 0 or b != 1 the excess grows past it, so F1 must not pass there
        path = write(tmp_path, text)
        code = cli.main(["verify", "--which", "F1", "--config", path, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "verify_F1.json").read_text())
        assert payload["passed"] is passed and code == (0 if passed else 2)
        assert (payload["worst_excess"] < 0) is passed

    def test_verify_f1_overflowing_force_is_one_line(self, tmp_path, capsys):
        # the exponential well's force overflows on F1's outer grid
        path = write(tmp_path, DEGENERATE_CHAIN)
        code = cli.main(["verify", "--which", "F1", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("NonFiniteForce: ")
        assert not (tmp_path / "run_manifest.json").exists()

    def test_constants_degenerate_system_flagged(self, tmp_path):
        # zero damping and zero force weight kill the quadratic-form window
        path = write(tmp_path, "[model]\nalpha_damp = 0.0\nbeta = 0.0\n")
        code = cli.main(["constants", "--config", path, "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("command, a", [
        (command, a) for a in ("0.0", "0.25") for command in ("constants", "rate", "couple")],
        ids=["constants", "rate", "couple", "constants-a0.25", "rate-a0.25", "couple-a0.25"])
    def test_degenerate_chain_exits_two_after_outputs(self, tmp_path, capsys, command, a):
        # the exponential well overflows the force on the Lipschitz ball, so
        # the chain certifies nothing at any a; every command that builds it
        # writes its data and then exits 2, and rate's exit is not an
        # InsufficientDecay one
        path = write(tmp_path, DEGENERATE_CHAIN.replace("[model]\n", f"[model]\na = {a}\n"))
        replicas = [] if command == "constants" else ["--replicas", "8"]
        code = cli.main([command, "--config", path, *replicas, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        flags = "lipschitz_unbounded, degenerate_rate, profile_unavailable"
        assert err == [f"degenerate constant chain: flags {flags}"]
        outputs = json.loads((tmp_path / "run_manifest.json").read_text())[command]["outputs"]
        assert outputs and all(os.path.exists(p) for p in outputs)
        if command != "couple":
            # with no certified profile the monitor is the linear member f(s) = 2 s
            report = json.loads((tmp_path / f"{command}.json").read_text())
            assert report["monitor_is_fallback"] is True
        if command == "constants":
            assert report["log_rate"] == -math.inf
        if command == "rate":
            payload = json.loads((tmp_path / "rate.json").read_text())
            assert "error" not in payload and math.isfinite(payload["lambda_fit"])
            assert (tmp_path / "decay_curve.csv").exists()

    def test_divergent_theta_moment_exits_two_before_the_drift_fit(self, tmp_path, capsys,
                                                                     monkeypatch):
        # alpha0 = 0.8 at theta = 1: the theta-moment of the stable measure is
        # infinite, which the weight-drift fit would report as a missing root
        def no_fit(*args):
            raise AssertionError("the drift fit ran")

        monkeypatch.setattr(cn, "fit_lyapunov_drift", no_fit)
        path = write(tmp_path, STABLE.replace("alpha0 = 1.5", "alpha0 = 0.8"))
        assert cli.main(["constants", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("MomentFailure: ")
        assert "alpha0=0.8" in err[0] and err[0].endswith("diverges at theta = 1.0")

    @pytest.mark.parametrize("radius,code", [(20.0, 2), (80.0, 0)])
    def test_readme_stable_example_needs_the_wider_grid(self, tmp_path, capsys, radius, code):
        # alpha0 = 0.8, theta = 0.5: on the radius-20 grid the shell's smallest
        # -LW/W is negative (-0.243 at (0, -10)), so the drift fit finds no
        # balance point; at radius 80 it is +0.057 and the chain runs
        text = (STABLE.replace("alpha0 = 1.5", "alpha0 = 0.8")
                .replace("slice_theta0 = 0.4", "slice_theta0 = 0.2")
                .replace("theta = 1.0", "theta = 0.5")
                + f"[lyapunov]\ngrid_radius = {radius}\n")
        path = write(tmp_path, text)
        assert cli.main(["constants", "--config", path, "--out", str(tmp_path)]) == code
        if code:
            assert capsys.readouterr().err.startswith("NoRoot: no finite balance point")

    def test_stable_overrun_exits_two_before_sampling(self, tmp_path, capsys, monkeypatch):
        # alpha0 = 1.5 at cutoff 1e-3: 200 replicas over horizon 20 expect
        # 1.7e8 jumps, about 18 GB; the run stops with one line and the
        # smallest cutoff that fits, having allocated no jump arrays. A
        # sampler that got as far as its stream states would fail here
        # rather than try to allocate them
        monkeypatch.setattr(ms, "_pcg64_states", None)
        path = write(tmp_path, STABLE)
        tracemalloc.start()
        try:
            code = cli.main(["rate", "--config", path, "--replicas", "200",
                             "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("CutoffTooSmall: expected 1.69e+08 jumps ")
        assert "GB at 108 bytes per jump" in err[0] and err[0].endswith("fits is 0.00415")
        assert peak < 64e6

    def test_rate_zero_horizon_insufficient(self, tmp_path):
        path = write(tmp_path, "[sim]\nhorizon = 0.0\nn_save = 1\nn_replicas = 4\n")
        code = cli.main(["rate", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "rate.json").read_text())
        assert payload["error"] == "InsufficientDecay"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["rate"]["outputs"] == [str(tmp_path / "rate.json")]

    def test_rate_one_replica_collapses_the_ci(self, tmp_path):
        # one replica has no spread to bootstrap: the CI is the fit itself
        path = write(tmp_path, QUICK)
        assert cli.main(["rate", "--config", path, "--replicas", "1",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "rate.json").read_text())
        assert payload["ci_low"] == payload["ci_high"] == payload["lambda_fit"]

    def test_rate_quick_run(self, tmp_path):
        path = write(tmp_path, QUICK)
        code = cli.main(["rate", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "rate.json").read_text())
        assert payload["lambda_fit"] > 0
        header = (tmp_path / "decay_curve.csv").read_text().splitlines()[0]
        assert header == "t,mean,se,log_mean"
        timings = json.loads((tmp_path / "run_manifest.json").read_text())["rate"]["timings"]
        stages = ("constants_s", "sampling_s", "stepping_s", "decay_fit_s", "io_s")
        assert set(timings) == {*stages, "total_s"}
        assert all(timings[k] >= 0.0 for k in stages)
        assert sum(timings[k] for k in stages) <= timings["total_s"]

    def test_unsupported_dimension_is_one(self, tmp_path, capsys):
        path = write(tmp_path, "[model]\ndim = 2\n")
        for argv in (["rate", "--replicas", "2"], ["couple", "--replicas", "2"], ["constants"],
                     *(["verify", "--which", which]
                       for which in ("A2", "f-props", "operator-identities"))):
            code = cli.main(argv + ["--config", path, "--out", str(tmp_path)])
            assert code == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("unsupported dimension (dim = 2): ")
        for which in ("B1", "F1"):
            code = cli.main(["verify", "--which", which, "--config", path,
                             "--out", str(tmp_path)])
            assert code == 0

    @pytest.mark.parametrize("kind, key, value", [
        ("slice", "alpha0", "1.2"), ("slice", "scale", "2.0"), ("slice", "slice_c", "0.5"),
        ("slice", "slice_theta0", "0.3"), ("stable", "c", "1.0"), ("stable", "theta0", "0.4")])
    def test_key_of_the_other_kind_is_one_config_line(self, tmp_path, capsys, kind, key,
                                                      value):
        path = write(tmp_path, f"[levy]\nkind = {kind}\n{key} = {value}\n")
        code = cli.main(["constants", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: line 3:")
        assert f"[levy] {key}" in lines[0]

    @pytest.mark.parametrize("text", ["[model]\nb = 2.0\n", "[model]\na = 0.5\n"])
    def test_constants_without_a_balance_point_exits_2(self, tmp_path, capsys, text):
        # the drift fit fails on these systems, so the balance has no finite root
        path = write(tmp_path, text)
        assert cli.main(["constants", "--config", path, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["NoRoot: no finite balance point: the weight-drift fit failed"]
        assert not (tmp_path / "constants.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("levy", "dim", "1"), ("model", "force", "damped_gradient"),
        ("constants", "position_radius", "3.0")])
    def test_levy_dim_and_model_force_are_unknown_keys(self, tmp_path, capsys, section, key,
                                                       value):
        # [model] dim is the noise's dim too, the force is always damped_gradient,
        # and the Lipschitz ball is always the one the constant chain works out
        path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
        code = cli.main(["constants", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"config error: line 2: unknown key {key!r} in [{section}]"]


VERIFY_SUITES = ("B1", "F1", "A2", "f-props", "operator-identities")


class TestOutputs:
    """The run manifest lists every data file, and each report's key set is pinned."""

    @pytest.mark.parametrize("argv, command", [
        (["constants"], "constants"),
        *((["verify", "--which", which], f"verify:{which}") for which in VERIFY_SUITES),
        (["rate", "--replicas", "8"], "rate"),
        (["couple", "--replicas", "2"], "couple"),
        (["equilibrium", "--replicas", "20"], "equilibrium"),
    ])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, argv, command):
        path = write(tmp_path, QUICK)
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest) == {command}
        written = sorted(set(os.listdir(out)) - {"run_manifest.json"})
        assert written == sorted(os.path.basename(p) for p in manifest[command]["outputs"])

    @pytest.mark.parametrize("argv, command, stages", [
        (["constants"], "constants", ("chain_s", "io_s")),
        *((["verify", "--which", which], f"verify:{which}",
           ("chain_s", "suite_s") if which in ("f-props", "operator-identities")
           else ("suite_s",)) for which in VERIFY_SUITES),
    ])
    def test_manifest_splits_the_chain_from_the_rest(self, tmp_path, argv, command, stages):
        path = write(tmp_path, QUICK)
        assert cli.main(argv + ["--config", path, "--out", str(tmp_path)]) == 0
        timings = json.loads((tmp_path / "run_manifest.json").read_text())[command]["timings"]
        assert set(timings) == {*stages, "total_s"}
        assert all(timings[k] >= 0.0 for k in stages)
        assert sum(timings[k] for k in stages) <= timings["total_s"]

    def test_manifest_records_the_loaded_scipy(self, tmp_path):
        import scipy

        RunManifest("0", 0, "constants", out=str(tmp_path)).finish()
        record = json.loads((tmp_path / "run_manifest.json").read_text())["constants"]
        assert record["versions"]["scipy"] == scipy.__version__

    def test_csv_rows_are_float_reprs(self, tmp_path):
        manifest = RunManifest("0", 0, "couple", out=str(tmp_path))
        manifest.write_csv("a.csv", ["t", "y"], [np.array([0.0, 0.5, 1.0, 2.0]),
                                                 np.array([np.nan, np.inf, -0.0, 1e-300])])
        manifest.write_csv("b.csv", ["n"], [np.array([3, -1])])
        assert (tmp_path / "a.csv").read_bytes() == b"t,y\n0.0,nan\n0.5,inf\n1.0,-0.0\n2.0,1e-300\n"
        assert (tmp_path / "b.csv").read_bytes() == b"n\n3.0\n-1.0\n"

    def test_commands_sharing_a_directory_keep_their_records(self, tmp_path):
        # one record per command; a rerun replaces only its own record, and a
        # manifest in the single-record layout is replaced
        (tmp_path / "run_manifest.json").write_text(json.dumps(
            {"config_hash": "0", "seed": 0, "command": "constants", "versions": {},
             "timings": {}, "outputs": []}))
        for which in ("B1", "A2", "B1"):
            assert cli.main(["verify", "--which", which, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert set(manifest) == {"verify:B1", "verify:A2"}
        for which in ("B1", "A2"):
            record = manifest[f"verify:{which}"]
            assert record["outputs"] == [str(tmp_path / f"verify_{which}.json")]
            assert set(record) == {"config_hash", "seed", "versions", "timings", "outputs"}

    def test_report_keys(self, tmp_path):
        # a new report field is a deliberate edit of these sets
        for argv in (["constants"], ["verify", "--which", "B1"], ["verify", "--which", "F1"],
                     ["verify", "--which", "A2"]):
            assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        constants = json.loads((tmp_path / "constants.json").read_text())
        assert set(constants) == {
            "C0_lyap", "R0", "S_star", "a", "alpha", "alpha0", "b",
            "c0_lyap", "c0_sigma", "c2", "c_star_A2", "c_star_profile",
            "flags", "k0", "kappa", "lambda0", "lambda_star_R0", "log_c1", "log_eps",
            "log_rate", "monitor_is_fallback", "notes", "position_radius",
            "positivity_violations", "r0_jump", "theta", "theta0"}
        b1 = json.loads((tmp_path / "verify_B1.json").read_text())
        assert set(b1) == {"certificate", "certificate_source", "damping_margin",
                           "growth_slack", "lower_slack", "passed", "product_ok", "which"}
        assert set(b1["certificate"]) == {"lam1", "lam2", "lam3", "lam4", "lam5"}
        f1 = json.loads((tmp_path / "verify_F1.json").read_text())
        assert set(f1["choice"]) == {"C", "c", "eps_young", "r", "r0_cross", "r_window"}
        a2 = json.loads((tmp_path / "verify_A2.json").read_text())
        assert set(a2) == {"c_star", "moment_divergent", "moment_small", "moment_theta",
                           "passed", "sup_ratio", "which"}

    def test_rate_keys_hold_no_timings(self, tmp_path):
        path = write(tmp_path, QUICK)
        assert cli.main(["rate", "--config", path, "--replicas", "8",
                         "--out", str(tmp_path)]) == 0
        rate = json.loads((tmp_path / "rate.json").read_text())
        assert set(rate) == {
            "ci_high", "ci_low", "fit_start", "fit_stop", "intercept", "lambda_fit",
            "lambda_fit_exceeds_certified", "log_rate_certified", "means",
            "monitor_is_fallback", "n_blowups", "n_replicas", "r_squared", "ses",
            "stability_indicator_max", "times"}

    def test_stability_indicator_at_the_benchmark_settings(self, tmp_path):
        # h times the largest force Lipschitz quotient between the copies, at
        # the benchmark config with 25 replicas
        assert cli.main(["rate", "--config", BENCHMARK_CFG, "--replicas", "25",
                         "--out", str(tmp_path)]) == 0
        indicator = json.loads((tmp_path / "rate.json").read_text())["stability_indicator_max"]
        assert math.isfinite(indicator) and indicator > 0.0

    def test_stability_indicator_stays_below_the_force_bound_with_jumps(self, tmp_path):
        # h = 0.02 and delta = 1e-5 give about 4 jumps per window; a coupling
        # jump that nearly merges the copies must not lift the quotient past
        # h sup U0'' = 0.02 * 12 * 2^2 = 0.96 on the saved range |x| <= 2
        with open(BENCHMARK_CFG, encoding="utf-8") as fh:
            text = fh.read()
        for old, new in (("h = 0.005", "h = 0.02"), ("delta = 1e-3", "delta = 1e-5"),
                         ("n_save = 41", "n_save = 401")):
            text = text.replace(old, new)
        assert cli.main(["rate", "--config", write(tmp_path, text), "--seed", "0",
                         "--replicas", "12", "--out", str(tmp_path)]) == 0
        rate = json.loads((tmp_path / "rate.json").read_text())
        # no replica is dropped, so the maximum covers all twelve
        assert rate["n_blowups"] == 0 and 0.0 < rate["stability_indicator_max"] < 1.0


class TestLyapunovBuilder:
    """Verify F1/A2 and the constant chain build one and the same Lyapunov weight."""

    @pytest.mark.parametrize("potential, source", [("double_well_poly", "auto"),
                                                   ("quadratic", "manual_fallback")])
    def test_verify_and_constants_share_spec(self, tmp_path, monkeypatch, potential, source):
        with open(BENCHMARK_CFG, encoding="utf-8") as fh:
            text = fh.read().replace("potential = double_well_poly",
                                     f"potential = {potential}")
        path = write(tmp_path, text)
        used = {}

        def spy(which, fn):
            def record(first, *args, **kwargs):
                used[which] = first
                return fn(first, *args, **kwargs)
            return record

        # F1 receives the whole set-up, A2 the weight
        monkeypatch.setattr(md, "verify_gamma_drift", spy("F1", md.verify_gamma_drift))
        monkeypatch.setattr(md, "verify_jump_regularity",
                            spy("A2", md.verify_jump_regularity))
        for which in ("B1", "F1", "A2"):
            assert cli.main(["verify", "--which", which, "--config", path,
                             "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        assert cli.main(["constants", "--config", path, "--out", str(tmp_path)]) == 0

        built = []
        build = md.build_lyapunov

        def keep(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(md, "build_lyapunov", keep)
        bundle = cli._bundle_from(load_config(path))
        monkeypatch.undo()
        assert len(built) == 1 and built[0].lyap is bundle.lyap
        fields = ("r", "r0_cross", "theta")
        for lyap in (used["F1"].lyap, used["A2"]):
            assert [getattr(lyap, f) for f in fields] == \
                [getattr(bundle.lyap, f) for f in fields]
        # the drift constants F1 checks are those of the chain's form choice
        assert (used["F1"].choice.c, used["F1"].choice.C) == \
            (built[0].choice.c, built[0].choice.C)
        b1 = json.loads((tmp_path / "verify_B1.json").read_text())
        assert b1["certificate_source"] == source
        notes = json.loads((tmp_path / "constants.json").read_text())["notes"]
        fell_back = any("fell back" in n for n in notes)
        assert fell_back == (source == "manual_fallback")


class TestDeterminism:
    def test_rate_outputs_bitwise_stable(self, tmp_path):
        path = write(tmp_path, QUICK)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert cli.main(["rate", "--config", path, "--out", str(out)]) == 0
        assert (out1 / "rate.json").read_bytes() == (out2 / "rate.json").read_bytes()
        assert (out1 / "decay_curve.csv").read_bytes() == \
            (out2 / "decay_curve.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        path = write(tmp_path, QUICK)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert cli.main(["rate", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["rate", "--config", path, "--seed", "99",
                         "--out", str(out2)]) == 0
        assert (out1 / "rate.json").read_bytes() != (out2 / "rate.json").read_bytes()


class TestCouple:
    def test_trajectory_columns(self, tmp_path):
        path = write(tmp_path, QUICK)
        code = cli.main(["couple", "--config", path, "--replicas", "2",
                         "--out", str(tmp_path)])
        assert code == 0
        files = sorted(p for p in os.listdir(tmp_path) if p.startswith("trajectory_"))
        assert files == ["trajectory_0000.csv", "trajectory_0001.csv"]
        lines = (tmp_path / files[0]).read_text().splitlines()
        assert lines[0] == "t,x,v,xp,vp,r,psi_tilde"
        first = np.array([float(tok) for tok in lines[1].split(",")])
        assert first[0] == 0.0
        assert first[-1] > 0  # off-diagonal start has positive cost

    def test_overflowing_cost_is_nan_without_warnings(self, tmp_path):
        # on the exponential well the monitor weight overflows at some finite
        # states below blowup_norm: their psi_tilde is NaN, and no numpy
        # warning is raised (warnings are errors here)
        text = DEGENERATE_CHAIN.replace("h = 0.01", "h = 0.05").replace("n_save = 5",
                                                                        "seed = 99")
        path = write(tmp_path, text)
        assert cli.main(["couple", "--config", path, "--replicas", "30",
                         "--out", str(tmp_path)]) == 2
        rows = np.concatenate([np.loadtxt(tmp_path / f"trajectory_{idx:04d}.csv",
                                          delimiter=",", skiprows=1) for idx in range(30)])
        assert np.any(np.isnan(rows[:, 6]) & np.isfinite(rows[:, 1:5]).all(axis=1))

    def test_manifest_splits_sampling_from_stepping(self, tmp_path):
        path = write(tmp_path, QUICK)
        assert cli.main(["couple", "--config", path, "--replicas", "2",
                         "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        timings, stages = manifest["couple"]["timings"], ("sampling_s", "stepping_s")
        assert set(timings) == {*stages, "total_s"}
        assert all(timings[k] >= 0.0 for k in stages)
        assert sum(timings[k] for k in stages) <= timings["total_s"]


class TestEquilibriumCmd:
    def test_quick_run(self, tmp_path):
        path = write(tmp_path, QUICK)
        code = cli.main(["equilibrium", "--config", path, "--replicas", "20",
                         "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "equilibrium.json").read_text())
        assert "cross_distance" in payload and "stationarity_distance" in payload
        assert "timings" not in payload
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        timings = manifest["equilibrium"]["timings"]
        stages = ("sampling_s", "stepping_s", "diagnostics_s")
        assert set(timings) == {*stages, "total_s"}
        assert all(timings[k] >= 0.0 for k in stages)
        assert sum(timings[k] for k in stages) <= timings["total_s"]

    def test_too_few_survivors_leave_no_noise_floor(self, tmp_path):
        # the floor compares two halves of the terminal cloud; below two samples
        # per half there is nothing to compare, and 0.0 would read as no noise
        path = write(tmp_path, QUICK)
        floors = []
        for replicas in (3, 4):
            out = tmp_path / str(replicas)
            assert cli.main(["equilibrium", "--config", path, "--replicas", str(replicas),
                             "--out", str(out)]) == 0
            floors.append(json.loads((out / "equilibrium.json").read_text())["noise_floor"])
        assert floors[0] is None
        assert floors[1] > 0.0

    def test_every_replica_blown_exits_two(self, tmp_path, capsys):
        # a steep well that blows explicit Euler up at h = 0.01 on every replica
        path = write(tmp_path, """
[model]
potential = double_well_exp
pot_c1 = 0.1
pot_c2 = 1.0
pot_l = 1.5

[sim]
h = 0.01
horizon = 10.0
n_save = 11

[constants]
decay_threshold = 0.5
""")
        code = cli.main(["equilibrium", "--config", path, "--replicas", "20",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("EmptyMeasure:")
        assert not (tmp_path / "equilibrium.json").exists()
        assert not (tmp_path / "run_manifest.json").exists()


# modules each worth a large share of the start-up: scipy.special pulls in
# scipy's array-API layer, and with it numpy.f2py
SLOW_SCIPY = ["scipy.stats", "scipy.integrate", "scipy.optimize"]
SPECIAL = ["numpy.f2py", "scipy.special"]


def loaded_after(code, modules):
    # those of `modules` in sys.modules once `code` has run in a fresh interpreter
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += f"\nprint(*sorted(set({modules!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1].split()


def run_code(argv):
    return f"import sys, levyham.cli\nassert levyham.cli.main({argv!r}) == 0"


def short_benchmark(tmp_path, n_save=3):
    # configs/benchmark.cfg at h = 0.01, horizon 1 and n_save snapshots
    with open(BENCHMARK_CFG, encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("h = 0.005 ", "h = 0.01 "), ("horizon = 20.0", "horizon = 1.0"),
                     ("n_save = 41", f"n_save = {n_save}")):
        assert old in text
        text = text.replace(old, new)
    return write(tmp_path, text)


class TestStartup:
    @pytest.mark.parametrize("module", SLOW_SCIPY + SPECIAL)
    def test_cli_import_leaves_slow_scipy_modules_out(self, module):
        # only the d >= 2 slice formulas need any of them, and they import
        # them when they run
        assert module not in loaded_after("import sys, levyham.cli", [module])

    @pytest.mark.parametrize("command", [
        "constants", "verify:B1", "verify:F1", "verify:A2", "verify:f-props",
        "verify:operator-identities", "rate", "couple", "equilibrium"])
    def test_d1_command_never_imports_scipy(self, tmp_path, command):
        # nor does its manifest: a run that never loaded scipy records its
        # version as null. The distance profile's incomplete gamma is numpy's,
        # and the Lipschitz sampler draws its Sobol points without scipy.stats
        name, _, which = command.partition(":")
        # five snapshots leave rate's decay fit enough points at four replicas
        n_save, extra = {"rate": (5, ["--replicas", "4"]), "couple": (None, ["--replicas", "1"]),
                         "equilibrium": (3, ["--replicas", "100"])}.get(name, (None, []))
        config = BENCHMARK_CFG if n_save is None else short_benchmark(tmp_path, n_save)
        argv = [name, *(["--which", which] if which else []), "--config", config, *extra,
                "--out", str(tmp_path)]
        assert loaded_after(run_code(argv), ["scipy"] + SLOW_SCIPY + SPECIAL) == []
        record = json.loads((tmp_path / "run_manifest.json").read_text())[command]
        assert record["versions"] == {"python": platform.python_version(),
                                      "numpy": np.__version__, "scipy": None}
