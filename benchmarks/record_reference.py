"""Record the reference outputs the benchmark checks runs against.

Usage (from the root of a checkout)::

    python3 benchmarks/record_reference.py --seeds 0-31

For every workload and seed this runs one untraced child and stores the
sha256 of its data outputs. For ``rate-*`` it also stores ``lambda_fit``
and the bootstrap CI that later runs must fall inside; for ``certify`` it
stores ``log_rate`` per config, which does not depend on the seed. The
result overwrites ``benchmarks/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: run.Workload, seeds: list[int], work: str) -> dict:
    configs = run.write_configs(workload, work)
    entry = {"replicas": workload.replicas, "seeds": {}} if workload.command != "certify" \
        else {"log_rate": None, "digests": {}}
    for seed in seeds:
        rec = run.run_child(workload, configs, work, seed, seed, workload.replicas, False)
        if not rec["problems"]:
            rec["problems"], rec["checked"] = run.check_outputs(workload, rec["out"], None)
        shutil.rmtree(rec["out"], ignore_errors=True)
        if rec["problems"]:
            raise run.BenchError(f"{workload.name} seed {seed}: {rec['problems']}")
        print(f"{workload.name} seed {seed}: {rec['wall_s']:.2f} s {rec['digest'][:12]}",
              flush=True)
        if workload.command == "certify":
            entry["log_rate"] = {v: rec["checked"][f"{v}.log_rate"] for v in run.CERTIFY_VARIANTS}
            entry["digests"][str(seed)] = rec["digest"]
        else:
            entry["seeds"][str(seed)] = {"digest": rec["digest"],
                                         **{k: rec["checked"][k] for k in ("lambda_fit", "ci_low",
                                                                           "ci_high")
                                            if k in rec["checked"]}}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS),
                        help="record only these workloads (default: all)")
    args = parser.parse_args(argv)
    reference = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    os.makedirs(run.TMP_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.TMP_PARENT)
    try:
        for name in args.workload or sorted(run.WORKLOADS):
            reference[name] = record(run.WORKLOADS[name], seed_range(args.seeds), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference["environment"] = run.environment()
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
