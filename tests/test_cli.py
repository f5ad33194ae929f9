"""Command line contract: exit codes, determinism, config validation."""

import json
import math
import os

import numpy as np
import pytest

from levyham import cli
from levyham import model as md
from levyham.config import load_config
from levyham.errors import ConfigError

BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")

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


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
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
                                      "[sim]\nn_replicas = 0\n", "[sim]\nseed = -4\n"])
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

    @pytest.mark.parametrize("command", ["constants", "rate", "couple"])
    def test_degenerate_chain_exits_two_after_outputs(self, tmp_path, capsys, command):
        # the exponential well overflows the force on the Lipschitz ball, so
        # the chain is flagged; every command that builds it writes its data
        # and then exits 2, and rate's exit is not an InsufficientDecay one
        path = write(tmp_path, DEGENERATE_CHAIN)
        replicas = [] if command == "constants" else ["--replicas", "8"]
        code = cli.main([command, "--config", path, *replicas, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        flags = "lipschitz_unbounded, degenerate_rate, profile_unavailable"
        assert err == [f"degenerate constant chain: flags {flags}"]
        outputs = json.loads((tmp_path / "run_manifest.json").read_text())["outputs"]
        assert outputs and all(os.path.exists(p) for p in outputs)
        if command == "rate":
            payload = json.loads((tmp_path / "rate.json").read_text())
            assert "error" not in payload and math.isfinite(payload["lambda_fit"])
            assert (tmp_path / "decay_curve.csv").exists()

    def test_rate_zero_horizon_insufficient(self, tmp_path):
        path = write(tmp_path, "[sim]\nhorizon = 0.0\nn_save = 1\nn_replicas = 4\n")
        code = cli.main(["rate", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "rate.json").read_text())
        assert payload["error"] == "InsufficientDecay"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["outputs"] == [str(tmp_path / "rate.json")]

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
        timings = json.loads((tmp_path / "run_manifest.json").read_text())["timings"]
        stages = ("constants_s", "ensemble_s", "decay_fit_s", "io_s")
        assert set(timings) == {*stages, "total_s"}
        assert all(timings[k] >= 0.0 for k in stages)
        assert sum(timings[k] for k in stages) <= timings["total_s"]

    def test_unsupported_dimension_is_one(self, tmp_path, capsys):
        path = write(tmp_path, "[levy]\ndim = 2\n[model]\ndim = 2\n")
        for argv in (["rate", "--replicas", "2"], ["couple", "--replicas", "2"], ["constants"],
                     *(["verify", "--which", which]
                       for which in ("A2", "f-props", "operator-identities"))):
            code = cli.main(argv + ["--config", path, "--out", str(tmp_path)])
            assert code == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("unsupported dimension (levy dim = 2, model dim = 2): ")
        for which in ("B1", "F1"):
            code = cli.main(["verify", "--which", which, "--config", path,
                             "--out", str(tmp_path)])
            assert code == 0

    @pytest.mark.parametrize("kind, key, value", [
        ("slice", "alpha0", "1.2"), ("slice", "scale", "2.0"), ("slice", "slice_c", "0.5"),
        ("slice", "slice_theta0", "0.3"), ("stable", "c", "1.0"), ("stable", "theta0", "0.4")])
    def test_key_of_the_other_kind_is_one_config_line(self, tmp_path, capsys, kind, key,
                                                      value):
        path = write(tmp_path, f"[levy]\nkind = {kind}\ndim = 1\n{key} = {value}\n")
        code = cli.main(["constants", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: line 4:")
        assert f"[levy] {key}" in lines[0]

    @pytest.mark.parametrize("levy_dim, model_dim", [(2, 1), (1, 2)])
    def test_mismatched_dimensions_are_one_config_line(self, tmp_path, capsys,
                                                       levy_dim, model_dim):
        path = write(tmp_path, f"[levy]\ndim = {levy_dim}\n[model]\ndim = {model_dim}\n")
        for argv in (["constants"], ["verify", "--which", "B1"], ["rate"], ["couple"],
                     ["equilibrium"]):
            code = cli.main(argv + ["--config", path, "--out", str(tmp_path)])
            assert code == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error:")
            assert f"[levy] dim = {levy_dim}" in lines[0]
            assert f"[model] dim = {model_dim}" in lines[0]


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
        assert manifest["command"] == command
        written = sorted(set(os.listdir(out)) - {"run_manifest.json"})
        assert written == sorted(os.path.basename(p) for p in manifest["outputs"])

    def test_report_keys(self, tmp_path):
        # a new report field is a deliberate edit of these sets
        for argv in (["constants"], ["verify", "--which", "B1"], ["verify", "--which", "F1"]):
            assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        constants = json.loads((tmp_path / "constants.json").read_text())
        assert set(constants) == {
            "C0_lyap", "R0", "S_star", "a", "alpha", "alpha0", "alpha0_provisional", "b",
            "c0_lyap", "c0_sigma", "c1", "c2", "c_star_A2", "c_star_profile", "eps", "eta",
            "flags", "k0", "kappa", "lambda0", "lambda_star_R0", "log_c1", "log_eps",
            "log_rate", "monitor_is_fallback", "notes", "position_radius",
            "positivity_violations", "r0_jump", "rate", "theta", "theta0"}
        b1 = json.loads((tmp_path / "verify_B1.json").read_text())
        assert set(b1) == {"certificate", "certificate_source", "damping_margin",
                           "growth_slack", "lower_slack", "passed", "product_ok", "which"}
        assert set(b1["certificate"]) == {"lam1", "lam2", "lam3", "lam4", "lam5"}
        f1 = json.loads((tmp_path / "verify_F1.json").read_text())
        assert set(f1["choice"]) == {"C", "c", "eps_young", "r", "r0_cross", "r_window"}

    def test_rate_keys_hold_no_timings(self, tmp_path):
        path = write(tmp_path, QUICK)
        assert cli.main(["rate", "--config", path, "--replicas", "8",
                         "--out", str(tmp_path)]) == 0
        rate = json.loads((tmp_path / "rate.json").read_text())
        assert set(rate) == {
            "ci_high", "ci_low", "fit_start", "fit_stop", "intercept", "lambda_fit",
            "lambda_fit_exceeds_certified", "log_rate_certified", "means",
            "monitor_is_fallback", "n_blowups", "n_replicas", "r_squared", "rate_certified",
            "ses", "times"}


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

        def spy(which, verifier):
            def record(lyap, *args, **kwargs):
                used[which] = lyap
                return verifier(lyap, *args, **kwargs)
            return record

        monkeypatch.setattr(md, "verify_gamma_drift", spy("F1", md.verify_gamma_drift))
        monkeypatch.setattr(md, "verify_jump_regularity",
                            spy("A2", md.verify_jump_regularity))
        for which in ("B1", "F1", "A2"):
            assert cli.main(["verify", "--which", which, "--config", path,
                             "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        assert cli.main(["constants", "--config", path, "--out", str(tmp_path)]) == 0

        bundle = cli._bundle_from(load_config(path))
        fields = ("r", "r0_cross", "theta", "drift_c", "drift_C")
        for which in ("F1", "A2"):
            assert [getattr(used[which], f) for f in fields] == \
                [getattr(bundle.lyap, f) for f in fields], which
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


class TestEquilibriumCmd:
    def test_quick_run(self, tmp_path):
        path = write(tmp_path, QUICK)
        code = cli.main(["equilibrium", "--config", path, "--replicas", "20",
                         "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "equilibrium.json").read_text())
        assert "cross_distance" in payload and "stationarity_distance" in payload

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
