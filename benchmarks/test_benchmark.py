"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q benchmarks/test_benchmark.py

It is not part of the repository's test suite (``testpaths`` names
``tests`` only) because each case starts fresh levyham processes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, run.SRC)

TINY = {"rate-bench": 6, "rate-jumpy": 6, "equilibrium-short": 8, "certify": 0}


def test_benchmark_json_lists_the_runner_workloads():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_configs_change_only_the_listed_keys(name, tmp_path):
    from levyham.config import load_config

    workload = run.WORKLOADS[name]
    base = load_config(run.BASE_CONFIG)
    for variant, path in run.write_configs(workload, str(tmp_path)).items():
        cfg = load_config(path)
        overrides = {**workload.overrides, **run.CERTIFY_VARIANTS.get(variant, {})}
        changed = {(s, k) for s in ("levy", "model", "lyapunov", "quadrature", "sim", "constants")
                   for k, v in getattr(base, s).items() if getattr(cfg, s)[k] != v}
        assert changed == set(overrides)


@pytest.mark.parametrize("name", ["rate-bench", "rate-jumpy", "equilibrium-short"])
def test_window_count_matches_the_simulator(name, tmp_path):
    import child
    from levyham import simulate
    from levyham.config import load_config

    path = run.write_configs(run.WORKLOADS[name], str(tmp_path))["main"]
    config = load_config(path).build_sim()
    assert child._windows(config) == sum(1 for _ in simulate._window_plan(config.save_times(),
                                                                         config.h))


def test_tracer_wraps_and_then_restores_every_binding():
    import levyham.cli  # noqa: F401

    modules = tracing._loaded_modules()
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    from levyham import cli, constants, simulate

    assert hasattr(constants.build_constants, "__bench_span__")
    assert hasattr(simulate.run_pair_ensemble, "__bench_span__")
    assert hasattr(cli.load_config, "__bench_span__")
    assert hasattr(cli._COMMANDS["rate"], "__bench_span__")
    assert not hasattr(simulate.step_pair, "__bench_span__")
    tracer.uninstall()
    assert tracing.wrapped_count() == 0
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())


def test_self_times_and_nesting():
    spans = [["a", 0.0, 10.0, -1, False], ["b", 1.0, 4.0, 0, False],
             ["b", 2.0, 3.0, 1, True], ["c", 5.0, 6.0, 0, False]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.check_nesting(spans) == []
    assert tracing.check_nesting([["a", 0.0, 1.0, -1, False], ["b", 0.5, 2.0, 0, False]])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, detail = run.run(run.WORKLOADS[name], seed=0, seconds=0, trace=False,
                             replicas=TINY[name], setups=1)
    assert result["correct"], detail["children"]
    assert result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["children"][0]["problems"] == []
    assert detail["outputs_repeatable"]


def test_warm_passes_repeat_the_same_outputs():
    result, detail = run.run(run.WORKLOADS["rate-bench"], seed=0, seconds=8, trace=False,
                             replicas=TINY["rate-bench"], setups=1)
    assert result["correct"], detail["children"]
    passes = detail["children"][0]["passes"]
    assert len(passes) > 1 and result["attempted"] == len(passes)
    assert all(len(p) == 5 and p[3] > 0 for p in passes)
    assert detail["outputs_repeatable"]
    walls, cpus = run.pass_ratios(detail["children"])
    assert len(walls) == len(cpus) == len(passes) - 1
    assert result["metrics"]["pass_wall_cal"]["value"] == run.median(walls)
    assert result["metrics"]["pass_cpu_cal"]["value"] == run.median(cpus)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result, detail = run.run(run.WORKLOADS[name], seed=0, seconds=0, trace=True,
                             replicas=TINY[name])
    assert result["correct"], detail["children"]
    assert [c["traced"] for c in detail["children"]] == [False, True]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units("per_layer")
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["cli.import_s"] > 0 and metrics["unattributed_s"] > 0
    simulated = name != "certify"
    assert (metrics["measures.sample_large_jumps.calls"] > 0) == simulated
    assert (metrics["simulate.pair.replica_windows"] > 0) == name.startswith("rate-")
    assert (metrics["simulate.run_single_ensemble.self_s"] > 0) == (name == "equilibrium-short")
    assert (metrics["generator.product_rule_residual.busy_s"] > 0) == (name == "certify")
    assert metrics["simulate.blowups"] == 0


def test_fails_without_the_levyham_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "rate-bench",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
