#!/usr/bin/env python3
"""Benchmark self-test: the deterministic figures repeat, and the seed flows.

    python3 perfbench/selftest.py [--seconds S] [--workloads a,b,...]

Run from the repository root. For each workload it makes two runs with
seed 1 and one with seed 2, each untraced and traced, and checks:

  * every run is correct (no failed operation);
  * the modeled metrics, quality.abs_err_mean and the per-layer counts
    are bit-identical between the two seed-1 runs;
  * seed 2 changes quality.abs_err_mean, which shows the seed reaches the
    inputs (metrics seed 2 leaves unchanged are listed: the modeled clock
    of a frozen fixed-size model does not depend on the data).

Exits non-zero on any violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point-small", "scan-large", "stream-sharded", "catalog-churn")

# Figures computed only from the modeled clock and exact counters.
DETERMINISTIC = {
    0: ["modeled_us_per_query", "modeled_p99_us", "modeled_capacity_qps"],
    1: ["quality.abs_err_mean", "queue.commands_per_query",
        "device.launches_per_query", "device.transfers_per_query",
        "device.bytes_to_device_per_query", "device.bytes_to_host_per_query",
        "device.idle_gap", "karma.replacements_per_kq", "snapshot.bytes",
        "stream.idle_gap", "stream.stall_frac", "stream.commands_per_query"],
}
# The catalog counters come from the served rounds only on catalog-churn
# (elsewhere a time-boxed probe catalog gives them).
CATALOG_COUNTS = ["catalog.resident_hit_ratio", "catalog.evictions_per_kq",
                  "catalog.faults_per_kq"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    failures = []
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            names = list(DETERMINISTIC[trace])
            if trace and workload == "catalog-churn":
                names += CATALOG_COUNTS
            a, b, c = (run(workload, seed, args.seconds, trace)
                       for seed in (1, 1, 2))
            label = "%s trace=%d" % (workload, trace)
            for i, result in enumerate((a, b, c)):
                if not result["correct"] or result["failed"]:
                    failures.append("%s: run %d failed %d of %d operations"
                                    % (label, i, result["failed"],
                                       result["attempted"]))
            for name in names:
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                if va != vb:
                    failures.append("%s: %s differs between same-seed runs: "
                                    "%r vs %r" % (label, name, va, vb))
            unchanged = [n for n in names
                         if a["metrics"][n]["value"] == c["metrics"][n]["value"]]
            if trace and "quality.abs_err_mean" in unchanged:
                failures.append("%s: seed 2 did not change "
                                "quality.abs_err_mean" % label)
            print("%s: %d deterministic figures repeat; seed 2 leaves %s"
                  % (label, len(names), ", ".join(unchanged) or "none"))
    for failure in failures:
        print("FAIL " + failure)
    print("selftest %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
