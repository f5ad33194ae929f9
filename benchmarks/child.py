"""One benchmark child: import levyham, run CLI commands in-process, report.

Usage: ``python3 child.py PLAN.json``. The plan names the commands (argv
lists for ``levyham.cli.main``), their output directory, the function whose
first return ends set-up, whether to trace, a deadline and where to write
the result JSON.

A pass runs every command once. The first pass is a cold one, as
``python -m levyham.cli`` would run it; with a deadline the child then
repeats the same commands with the same seed in warm passes, starting
another one while at least half of it is expected to end before the
deadline. Each pass starts from an empty output directory; each of its
commands is timed in wall time (``time.perf_counter``) and in this
process's CPU time (``time.process_time``), and the pass time is their sum.
With a deadline, every command is preceded and followed by a share of
``calibrate``, a fixed loop of ``CALIBRATION_STEPS`` steps per pass that
gauges the host's speed across the pass. The digest of a pass's outputs
is taken after its timing ends.

The child marks the end of set-up with one timestamp: when the first call
of ``plan["setup_after"]`` (``config.load_config`` or
``constants.build_constants``) returns. With tracing on, it records the
import as the ``cli.import`` span and wraps the public functions of every
layer; the wrappers are removed again before the result is written, and
the result reports how many were still bound (0 when removal worked).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import CLOCK, Patcher, Tracer, wrapped_count  # noqa: E402


def data_files(out: str) -> list[str]:
    """Relative paths of the data outputs; run manifests hold timings and are left out."""
    found = []
    for dirpath, _, names in os.walk(out):
        for name in names:
            if name != "run_manifest.json":
                found.append(os.path.relpath(os.path.join(dirpath, name), out))
    return sorted(found)


def digest(out: str) -> str:
    h = hashlib.sha256()
    for rel in data_files(out):
        with open(os.path.join(out, rel), "rb") as fh:
            h.update(f"{rel}\n{hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    return h.hexdigest()


CALIBRATION_STEPS = 8000   # per pass, spread evenly over its commands


def calibrate(steps: int) -> tuple[float, float]:
    """Wall and CPU time of a fixed loop of small numpy updates and Python arithmetic.

    The loop is not levyham code, so no change to the package moves it; it
    gauges how fast the host runs this kind of code at this moment.
    """
    import numpy as np

    x, v, acc = np.linspace(-2.0, 2.0, 64), np.zeros(64), 0.0
    wall, cpu = time.perf_counter(), time.process_time()
    for i in range(steps):
        v = v - 0.01 * (x ** 3 - x + 0.5 * v)
        x = x + 0.01 * v
        acc += float(np.sum(x * x)) + math.sqrt(i + 1.0)
    return time.perf_counter() - wall, time.process_time() - cpu


def gauge(timing: list, steps: int):
    """Add the wall and CPU time of ``steps`` calibration steps to ``timing[2:4]``."""
    wall, cpu = calibrate(steps)
    timing[2] += wall
    timing[3] += cpu


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else (args[pos] if len(args) > pos else None)


def _windows(config) -> int:
    """Euler windows per replica: each save interval is cut into ceil(interval / h) windows."""
    if config.horizon == 0.0 or config.n_save == 1:
        return 0
    step = config.horizon / (config.n_save - 1)
    return (config.n_save - 1) * max(int(math.ceil(step / config.h - 1e-9)), 1)


def _count_jumps(tracer, args, kwargs, result):
    n = len(result)
    tracer.count("measures.sample_large_jumps.jumps", n)
    around = tracer.enclosing()
    if "simulate.run_pair_ensemble" in around:
        tracer.count("simulate.pair.jumps", n)
    if "simulate.run_single_ensemble" in around:
        tracer.count("simulate.single.jumps", n)


def _ensemble_counter(kind):
    def count(tracer, args, kwargs, result):
        config = _arg(args, kwargs, 2, "config")
        tracer.count(f"simulate.{kind}.replica_windows", _windows(config) * len(result))
        tracer.count("simulate.blowups", sum(bool(tr.blown_up) for tr in result))
    return count


def _count_snapshots(tracer, args, kwargs, result):
    tracer.count("ergodicity.snapshots", result.n_replicas * len(result.times))


COUNTERS = {
    "measures.sample_large_jumps": _count_jumps,
    "simulate.run_pair_ensemble": _ensemble_counter("pair"),
    "simulate.run_single_ensemble": _ensemble_counter("single"),
    "ergodicity.estimate_decay": _count_snapshots,
}


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t_import = CLOCK()
    import levyham.cli as cli
    t_imported = CLOCK()

    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.record("cli.import", t_import, t_imported)
        tracer.install(COUNTERS)

    marks = []
    layer, fname = plan["setup_after"].split(".")
    original = getattr(sys.modules[f"levyham.{layer}"], fname)

    def marking(*args, **kwargs):
        result = original(*args, **kwargs)
        if not marks:
            marks.append(CLOCK())
        return result

    marker = Patcher()
    marker.replace(original, marking)

    calibrating = plan["deadline"] is not None
    steps = CALIBRATION_STEPS // len(plan["commands"])
    passes, rcs, error = [], [], None
    try:
        while True:
            shutil.rmtree(plan["out"], ignore_errors=True)
            begun = CLOCK()
            timing = [0.0, 0.0, 0.0, 0.0]    # pass wall, pass CPU, calibration wall, CPU
            for argv in plan["commands"]:
                if calibrating:
                    gauge(timing, steps // 2)
                wall, cpu = time.perf_counter(), time.process_time()
                rcs.append(cli.main(argv))
                timing[0] += time.perf_counter() - wall
                timing[1] += time.process_time() - cpu
                if rcs[-1] != 0:
                    break
                if calibrating:
                    gauge(timing, steps - steps // 2)
            if any(rcs):
                break
            passes.append([timing[0], timing[1], digest(plan["out"])]
                          + (timing[2:] if calibrating else []))
            if not calibrating or CLOCK() + (CLOCK() - begun) / 2 > plan["deadline"]:
                break
    except Exception:
        error = traceback.format_exc()
    finally:
        marker.restore()
        if tracer is not None:
            tracer.uninstall()

    result = {
        "t_setup": marks[0] if marks else None,
        "rcs": rcs,
        "passes": passes,
        "error": error,
        "wrapped_after": wrapped_count(),
        "spans": tracer.spans if tracer else [],
        "counters": tracer.counters if tracer else {},
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if error is None and all(rc == 0 for rc in rcs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
