"""Self-test: per-layer counts repeat exactly across hash seeds.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs one traced pass of each workload of ``BENCHMARK.json`` (seed 1)
in two fresh processes with different ``PYTHONHASHSEED`` values and
compares every count the tracer made (calls per boundary, SAT conflicts/decisions/propagations, CNF
sizes, simplifier node counts, matcher hits...).  Times are not
compared.  Exits 1 and names the differing counts if any count moved;
only counts that pass this test may back a performance claim.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
HASH_SEEDS = ("1", "2")


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s: traced run reported incorrect outputs" % workload)
    path = os.path.join(HERE, "out", "trace-%s-seed%d.json" % (workload, SEED))
    with open(path) as handle:
        return json.load(handle)["otherData"]["counts"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    status = 0
    for workload in workloads:
        a, b = (traced_counts(workload, h) for h in HASH_SEEDS)
        differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        print("%s: %d counts compared across PYTHONHASHSEED %s: %s"
              % (workload, len(a), "/".join(HASH_SEEDS),
                 "identical" if not differ else "DIFFER"))
        for key in differ:
            print("  %s: %s vs %s" % (key, a.get(key), b.get(key)))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
