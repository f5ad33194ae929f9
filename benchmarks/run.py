"""levyham benchmark: four CLI workloads, end-to-end timings, per-layer spans.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload rate-bench --seed 3 --seconds 20 --trace 0

An untraced run starts three fresh child processes (``benchmarks/child.py``)
one after another (two for ``certify``), each with an equal share of
``--seconds``. Every child
imports levyham and runs the workload's commands through
``levyham.cli.main``, exactly as ``python -m levyham.cli`` would: once
cold, then again in warm passes until its share of the run is used up,
each command between two shares of a fixed calibration loop. Children run with
``PYTHONPATH=src``, ``LEVYHAM_WORKERS=1`` and one BLAS thread; their configs
and outputs live in a temporary directory under ``.bench_tmp/`` that the
run removes when it ends.

With ``--trace 0`` the result holds the end-to-end metrics: the median
warm pass time relative to the calibration loop (wall and CPU), and the
medians over the children of set-up time and peak memory. With
``--trace 1`` untraced and traced single-pass children alternate; the
result holds the per-layer metrics of the traced children (medians) and
the tracing overhead (median traced wall time minus median untraced wall
time).

The last line of standard output is the result JSON; the line before it
holds per-child details, output digests and the environment. See
``benchmarks/DESIGN.md`` for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASE_CONFIG = os.path.join(ROOT, "configs", "benchmark.cfg")
REFERENCE = os.path.join(HERE, "reference.json")
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")

sys.path.insert(0, HERE)

from child import data_files, digest  # noqa: E402
from tracing import CLOCK, check_nesting, self_times  # noqa: E402

CHILD_TIMEOUT_S = 120.0
VERIFY_SUITES = ("B1", "F1", "A2", "f-props", "operator-identities")
CERTIFY_VARIANTS = {
    "base": {},
    "quadratic": {("model", "potential"): "quadratic"},
    "theta0-0.3": {("levy", "theta0"): "0.3"},
}


@dataclass(frozen=True)
class Workload:
    """One workload: config edits to ``configs/benchmark.cfg`` and the child's size."""

    name: str
    command: str                 # rate | equilibrium | certify
    overrides: dict = field(default_factory=dict)
    replicas: int = 0            # per ensemble; certify runs no ensemble
    setup_after: str = "config.load_config"
    setups: int = 3              # children, so set-ups, per untraced run


WORKLOADS = {
    w.name: w for w in (
        Workload("rate-bench", "rate", {}, replicas=25,
                 setup_after="constants.build_constants"),
        Workload("rate-jumpy", "rate",
                 {("sim", "h"): "0.02", ("sim", "delta"): "1e-5", ("sim", "n_save"): "401"},
                 replicas=12, setup_after="constants.build_constants"),
        # a certify pass is long, so fewer cold starts leave room for warm passes
        Workload("certify", "certify", setups=2),
        Workload("equilibrium-short", "equilibrium",
                 {("sim", "h"): "0.01", ("sim", "horizon"): "1.0", ("sim", "n_save"): "3"},
                 replicas=100),
    )
}

class BenchError(Exception):
    """The benchmark cannot run here (no levyham source, bad config edit)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def edit_config(text: str, overrides: dict) -> str:
    """Replace the value of each ``(section, key)`` in an INI text, keeping comments."""
    lines = text.splitlines(keepends=True)
    for (section, key), value in overrides.items():
        current, hit = None, False
        for i, line in enumerate(lines):
            head = re.match(r"\s*\[([^\]]+)\]", line)
            if head:
                current = head.group(1).strip()
                continue
            m = re.match(rf"(\s*{re.escape(key)}\s*=\s*)(\S+)(.*)$", line, re.S)
            if current == section and m:
                lines[i] = m.group(1) + value + m.group(3)
                hit = True
                break
        if not hit:
            raise BenchError(f"[{section}] {key} not found in {BASE_CONFIG}")
    return "".join(lines)


def _tables(text: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {(section, key): value for section in parser.sections()
            for key, value in parser[section].items()}


def write_configs(workload: Workload, dest: str) -> dict:
    """Write the workload's configs; return ``{variant: path}``.

    Each config must differ from the base config in exactly the keys the
    workload overrides. Every child validates its configs again through
    ``levyham.config.load_config`` (which rejects unknown keys) when
    ``levyham.cli.main`` loads them; a rejected config fails the run.
    """
    with open(BASE_CONFIG, encoding="utf-8") as fh:
        base_text = fh.read()
    base = _tables(base_text)
    variants = CERTIFY_VARIANTS if workload.command == "certify" else {"main": {}}
    paths = {}
    for variant, extra in variants.items():
        overrides = {**workload.overrides, **extra}
        text = edit_config(base_text, overrides)
        edited = _tables(text)
        changed = {k for k in base if base[k] != edited.get(k)}
        if changed != set(overrides) or set(edited) != set(base):
            raise BenchError(f"{variant}: edit changed {sorted(changed)}, "
                             f"expected {sorted(overrides)}")
        path = os.path.join(dest, f"{workload.name}-{variant}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[variant] = path
    return paths


def commands(workload: Workload, configs: dict, out: str, seed: int,
             replicas: int) -> list[list[str]]:
    """Argument lists for ``levyham.cli.main``, in the order a child runs them."""
    if workload.command != "certify":
        return [[workload.command, "--config", configs["main"], "--out", out,
                 "--seed", str(seed), "--replicas", str(replicas)]]
    argvs = []
    for variant, path in configs.items():
        dest = os.path.join(out, variant)
        argvs.append(["constants", "--config", path, "--out", dest])
        argvs += [["verify", "--which", which, "--config", path, "--out", dest,
                   "--seed", str(seed)] for which in VERIFY_SUITES]
    return argvs


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: Workload, out: str, reference: dict | None) -> tuple[list, dict]:
    """Problems with a child's outputs, and the values the checks read.

    ``reference`` holds ``ci_low``/``ci_high`` for ``rate`` and ``log_rate``
    per config for ``certify``; with None those comparisons are skipped.
    """
    problems, seen = [], {}
    if workload.command == "rate":
        path = os.path.join(out, "rate.json")
        if not (os.path.exists(path) and os.path.exists(os.path.join(out, "decay_curve.csv"))):
            return ["rate.json or decay_curve.csv missing"], seen
        rate = _load(path)
        seen = {k: rate.get(k) for k in ("lambda_fit", "ci_low", "ci_high", "n_blowups")}
        if rate.get("n_blowups") != 0:
            problems.append(f"n_blowups = {rate.get('n_blowups')}")
        if reference is not None:
            lam = rate.get("lambda_fit")
            if not (isinstance(lam, float) and reference["ci_low"] <= lam <= reference["ci_high"]):
                problems.append(f"lambda_fit {lam} outside the reference CI "
                                f"[{reference['ci_low']}, {reference['ci_high']}]")
    elif workload.command == "equilibrium":
        path = os.path.join(out, "equilibrium.json")
        if not os.path.exists(path):
            return ["equilibrium.json missing"], seen
        seen = {"n_blowups": _load(path).get("n_blowups")}
        if seen["n_blowups"] != 0:
            problems.append(f"n_blowups = {seen['n_blowups']}")
    else:
        for variant in CERTIFY_VARIANTS:
            dest = os.path.join(out, variant)
            names = ["constants.json"] + [f"verify_{w.replace('-', '_')}.json"
                                          for w in VERIFY_SUITES]
            missing = [n for n in names if not os.path.exists(os.path.join(dest, n))]
            if missing:
                problems.append(f"{variant}: missing {missing}")
                continue
            for n in names[1:]:
                if _load(os.path.join(dest, n)).get("passed") is not True:
                    problems.append(f"{variant}: {n} did not pass")
            log_rate = _load(os.path.join(dest, "constants.json")).get("log_rate")
            seen[f"{variant}.log_rate"] = log_rate
            if reference is not None:
                want = reference["log_rate"][variant]
                if not (isinstance(log_rate, float)
                        and abs(log_rate - want) <= 1e-9 * abs(want)):
                    problems.append(f"{variant}: log_rate {log_rate} != reference {want}")
    return problems, seen


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def probe_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of host speed before each child."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LEVYHAM_WORKERS"] = "1"
    # one BLAS thread: the host gives the benchmark two cores, and a second
    # BLAS thread would only measure how they are shared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: Workload, configs: dict, work: str, index: int, seed: int,
              replicas: int, trace: bool, deadline: float | None = None) -> dict:
    """Run one child to completion and return its measurements.

    Without a deadline the child runs the commands once (a cold pass);
    with one it repeats them in warm passes until the deadline.
    """
    out = os.path.join(work, f"out-{index}")
    plan = {"commands": commands(workload, configs, out, seed, replicas), "out": out,
            "setup_after": workload.setup_after, "trace": trace, "deadline": deadline,
            "result": os.path.join(work, f"result-{index}.json")}
    plan_path = os.path.join(work, f"plan-{index}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    record = {"index": index, "traced": trace, "load_avg_1m": os.getloadavg()[0],
              "probe_s": probe_s(), "passes": []}
    log_path = os.path.join(work, f"log-{index}.txt")
    with open(log_path, "wb") as log:
        t_spawn = CLOCK()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), plan_path],
                                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = CLOCK()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record.update(wall_s=t_exit - t_spawn, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)

    problems = []
    result = _load(plan["result"]) if os.path.exists(plan["result"]) else None
    if result is None:
        problems.append(f"child exited {proc.returncode} without a result")
    else:
        record["passes"] = result["passes"]
        if result["error"]:
            problems.append(result["error"].strip().splitlines()[-1])
        if (not result["passes"] or any(result["rcs"])
                or len(result["rcs"]) != len(plan["commands"]) * len(result["passes"])):
            problems.append(f"exit codes {result['rcs']}")
        if result["wrapped_after"]:
            problems.append(f"{result['wrapped_after']} tracing wrappers left bound")
        if result["t_setup"] is None:
            problems.append(f"{workload.setup_after} never returned")
        else:
            record["setup_s"] = result["t_setup"] - t_spawn
        if trace:
            problems += check_nesting(result["spans"])
            record["layers"] = layer_metrics(result, t_spawn, t_exit)
    if proc.returncode != 0 and not problems:
        problems.append(f"child exit code {proc.returncode}")
    if not problems:
        record["digest"] = digest(out)
        record["files"] = data_files(out)
        if any(p[2] != record["digest"] for p in record["passes"]):
            record["repeatable"] = False
    record["problems"] = problems
    if problems:
        with open(log_path, "rb") as fh:
            record["log_tail"] = fh.read()[-2000:].decode("utf-8", "replace")
    record["out"] = out
    return record


def layer_metrics(result: dict, t_spawn: float, t_exit: float) -> dict:
    """Per-layer metrics of one traced child (overhead is filled in per run)."""
    spans, counters = result["spans"], result["counters"]
    own = self_times(spans)
    busy, selfs, calls = {}, {}, {}
    for span, t in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + t
        if not span[4]:
            busy[name] = busy.get(name, 0.0) + span[2] - span[1]

    def per(num, den, scale=1e6):
        return scale * num / den if den else 0.0

    c = counters.get
    m = {
        "cli.import_s": busy.get("cli.import", 0.0),
        "config.load_config.busy_s": busy.get("config.load_config", 0.0),
        "measures.sample_large_jumps.jumps": c("measures.sample_large_jumps.jumps", 0.0),
        "simulate.pair.replica_windows": c("simulate.pair.replica_windows", 0.0),
        "simulate.blowups": c("simulate.blowups", 0.0),
        "ergodicity.snapshots": c("ergodicity.snapshots", 0.0),
    }
    for name in ("measures.sample_large_jumps", "ergodicity.fit_exponential_decay",
                 "constants.build_constants", "model.auto_certificate",
                 "generator.apply_generator", "generator.apply_coupling_operator"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("measures.sample_large_jumps", "ergodicity.fit_exponential_decay",
                 "ergodicity.sliced_wasserstein", "constants.fit_lyapunov_drift",
                 "constants.compute_lipschitz", "constants.profile_property_report",
                 "model.verify_certificate", "model.verify_gamma_drift",
                 "model.verify_jump_regularity", "generator.apply_generator",
                 "generator.apply_coupling_operator", "generator.marginal_identity_residual",
                 "generator.product_rule_residual"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in ("simulate.run_pair_ensemble", "simulate.run_single_ensemble",
                 "ergodicity.estimate_decay", "ergodicity.equilibrium_diagnostics",
                 "constants.build_constants"):
        m[f"{name}.self_s"] = selfs.get(name, 0.0)

    sj = "measures.sample_large_jumps"
    m[f"{sj}.us_per_call"] = per(m[f"{sj}.busy_s"], m[f"{sj}.calls"])
    m[f"{sj}.us_per_jump"] = per(m[f"{sj}.busy_s"], m[f"{sj}.jumps"])
    pair_self = m["simulate.run_pair_ensemble.self_s"]
    m["simulate.pair.us_per_replica_window"] = per(pair_self,
                                                   m["simulate.pair.replica_windows"])
    m["simulate.pair.us_per_jump"] = per(pair_self, c("simulate.pair.jumps", 0.0))
    m["simulate.single.us_per_replica_window"] = per(
        m["simulate.run_single_ensemble.self_s"], c("simulate.single.replica_windows", 0.0))
    m["ergodicity.estimate_decay.us_per_snapshot"] = per(
        m["ergodicity.estimate_decay.self_s"], m["ergodicity.snapshots"])
    fits = m["ergodicity.fit_exponential_decay.calls"]
    failed = c("ergodicity.fit_exponential_decay.raised", 0.0)
    m["ergodicity.fit_exponential_decay.useful_ratio"] = (fits - failed) / fits if fits else 0.0
    m["generator.apply_generator.us_per_call"] = per(m["generator.apply_generator.busy_s"],
                                                     m["generator.apply_generator.calls"])

    modules = {}
    for span, t in zip(spans, own):
        layer = span[0].split(".", 1)[0]
        modules[layer] = modules.get(layer, 0.0) + t
    for layer in ("cli", "config", "measures", "simulate", "ergodicity", "constants",
                  "model", "generator"):
        m[f"{layer}.self_s"] = modules.get(layer, 0.0)
    m["unattributed_s"] = (t_exit - t_spawn) - sum(own)
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def load_reference(workload: Workload, seed: int, replicas: int):
    """Recorded reference for this workload and seed, or None when none applies."""
    if not os.path.exists(REFERENCE):
        return None
    ref = _load(REFERENCE).get(workload.name)
    if ref is None:
        return None
    if workload.command == "certify":
        return {"log_rate": ref["log_rate"], "digest": ref["digests"].get(str(seed))}
    if ref["replicas"] != replicas:
        return None
    return ref["seeds"].get(str(seed))


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def median(values):
    return statistics.median(values) if values else float("nan")


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        replicas: int | None = None, setups: int | None = None) -> tuple[dict, dict]:
    """Run one measurement; return ``(result, detail)``.

    Untraced, the run starts ``setups`` children one after another, each
    with an equal share of ``seconds`` for its warm passes. Traced, it
    alternates untraced and traced single-pass children for ``seconds``.
    """
    if not os.path.exists(os.path.join(SRC, "levyham", "cli.py")):
        raise BenchError(f"no levyham source under {SRC}")
    if not os.path.exists(BASE_CONFIG):
        raise BenchError(f"{BASE_CONFIG} is missing")
    replicas = workload.replicas if replicas is None else replicas
    setups = workload.setups if setups is None else setups
    cli_seed = seed % 2 ** 32
    os.makedirs(TMP_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_PARENT)
    try:
        configs = write_configs(workload, work)
        reference = load_reference(workload, cli_seed, replicas)
        children = []
        start = CLOCK()
        while True:
            if trace:
                # another child while at least half of it is expected to fall within the run
                if len(children) >= 2 and (CLOCK() - start + median(
                        [r["wall_s"] for r in children]) / 2 > seconds):
                    break
                traced, deadline = len(children) % 2 == 1, None
            else:
                if len(children) >= setups:
                    break
                traced, deadline = False, start + seconds * (len(children) + 1) / setups
            rec = run_child(workload, configs, work, len(children), cli_seed, replicas,
                            traced, deadline)
            if not rec["problems"]:
                ref = reference or in_run_reference(children)
                rec["problems"], rec["checked"] = check_outputs(workload, rec["out"], ref)
            shutil.rmtree(rec.pop("out"), ignore_errors=True)
            children.append(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    return summarise(workload, children, trace, reference, replicas)


def in_run_reference(children):
    """The first passing child of this run, for seeds with no recorded reference."""
    for rec in children:
        if not rec["problems"] and "ci_low" in rec.get("checked", {}):
            return {"ci_low": rec["checked"]["ci_low"], "ci_high": rec["checked"]["ci_high"]}
    return None


def timed_passes(children) -> list:
    """The warm passes of the children, or every pass when no child had a warm one."""
    warm = [p for rec in children for p in rec["passes"][1:]]
    return warm or [p for rec in children for p in rec["passes"]]


def pass_ratios(children) -> tuple[list, list]:
    """Wall and CPU time of each timed pass over that of the calibration loop run with it."""
    timed = timed_passes(children)
    return [p[0] / p[3] for p in timed], [p[1] / p[4] for p in timed]


def summarise(workload, children, trace, reference, replicas):
    failed = sum(1 for rec in children if rec["problems"])
    attempted = sum(max(len(rec["passes"]), 1) for rec in children)
    good = [rec for rec in children if not rec["problems"]] or children
    untraced = [rec for rec in good if not rec["traced"]]
    traced = [rec for rec in good if rec["traced"]]
    digests = [rec["digest"] for rec in children if "digest" in rec]
    recorded = reference.get("digest") if reference else None
    metrics = {}
    if trace:
        for name, unit in metric_units("per_layer").items():
            if name == "tracing_overhead_s":
                value = (median([r["wall_s"] for r in traced])
                         - median([r["wall_s"] for r in untraced]))
            else:
                value = median([r["layers"][name] for r in traced if "layers" in r])
            metrics[name] = {"value": value, "unit": unit}
    else:
        walls, cpus = pass_ratios(untraced)
        values = {"pass_wall_cal": median(walls), "pass_cpu_cal": median(cpus),
                  "setup_s": median([r["setup_s"] for r in untraced if "setup_s" in r]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced])}
        for name, unit in metric_units("end_to_end").items():
            metrics[name] = {"value": values[name], "unit": unit}
    detail = {
        "workload": workload.name,
        "replicas": replicas if workload.command != "certify" else None,
        "reference": "recorded" if recorded else "in-run",
        "outputs_bitwise_equal": (all(d == recorded for d in digests) and len(digests) > 0
                                  if recorded else None),
        "outputs_repeatable": (len(set(digests)) <= 1
                               and all(rec.get("repeatable", True) for rec in children)),
        "digest": digests[0] if digests else None,
        "pass_wall_s": median([p[0] for p in timed_passes(good)]),
        "calibrate_s": median([p[3] for p in timed_passes(good) if len(p) > 3]),
        "environment": environment(),
        "children": [{k: v for k, v in rec.items() if k != "layers"} for rec in children],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    # a SIGTERM unwinds through run_child, which then kills and reaps its child
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
