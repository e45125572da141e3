"""Steadiness check: run the benchmark over several seeds and summarise.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads muldiv

For every workload (by default all of ``BENCHMARK.json``) it runs
``perfbench/run.py`` with ``run_seconds`` once per seed, seeds 1 to
``--runs``, one run at a time, and prints for each end-to-end metric
the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between the quartiles as a share of the median.
The raw results go to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, bench["run_seconds"], 0)
            results.append(result)
            print("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in result["metrics"].items())),
                flush=True)
        with open(os.path.join(HERE, "out", "steady-%s.json" % workload),
                  "w") as handle:
            json.dump(results, handle, indent=1)
        print("%s: %d runs, %d cpus" % (workload, len(results), os.cpu_count()))
        print("  %-18s %11s %11s %11s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summarise(values)
            print("  %-18s %11.5g %11.5g %11.5g %8.4f %6.2f%s" % (
                name, med, q1, q3, spread, bounds[name],
                "" if spread <= bounds[name] / 3 else "  <- above bound/3"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
