"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 28 --trace 0

``--trace 0`` repeats set-up, timed work and checks for ``--seconds``
and prints the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics; it also writes the traced pass as Chrome Trace Event
JSON to ``perfbench/out/``.  The engine is called with ``jobs=1``, so no
worker pool or thread starts.  Each pass runs in a child forked from
this process once it has imported the program, one child at a time, so
every pass starts as cold as a command-line run (see ``in_child``).

The last line of standard output is the result object; the lines
before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

from quantiles import harrell_davis
from speed import SpeedProbe

_pc = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: workloads and metrics (names, units, bounds) are declared once, here
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def parse_args(argv, bench: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: fresh interpreters timed per run for the import part of ``setup_s``
IMPORT_SAMPLES = 5

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro.engine
for name in sys.argv[2:]:
    __import__(name)
repro.engine.semantics_fingerprint()
print(time.perf_counter() - t0)
"""


def measure_import(modules) -> float:
    """Reference seconds a fresh interpreter spends importing *modules*.

    Every command-line run pays this once, before any rule is read, so
    it is part of ``setup_s``; a subprocess is the only place it can be
    measured again after this process has imported everything.  The
    engine's semantics fingerprint (a hash of the verifier's sources,
    memoized per process) is paid at the same point.  Kernel samples
    taken just before give the speed factor.
    """
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC] + modules,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=120)
    return float(proc.stdout) * probe.factor()


def tail_rank(n_items: int) -> float:
    """The highest percentile with at least 10 items beyond it."""
    return max(0.0, (n_items - 10) / n_items)


def item_percentiles(passes):
    """(p50, tail) in reference seconds over every (item, pass) sample.

    Each item (a rule, a function) is timed once per pass.  The tail is
    the highest percentile with at least ten items beyond it, so its
    rank is fixed by the item count (p94.5 for 183 rules) however many
    passes fit in the run; pooling the passes gives ten samples or more
    beyond it for every pass.  A pooled sample hit by a pause (a full
    garbage collection lands on one item per pass or so) is one sample
    among many instead of half of a two-pass median.
    """
    pooled = [t * p.speed for p in passes for t in p.items.values()]
    n_items = len(passes[0].items)
    return (harrell_davis(pooled, 0.5),
            harrell_davis(pooled, tail_rank(n_items)))


def budget(seconds: float):
    """``time_left(pass_s)``: would another pass of *pass_s* still fit?"""
    start = _pc()

    def time_left(pass_s: float) -> bool:
        return _pc() - start + pass_s <= seconds

    return time_left


def in_child(fn, *args):
    """``fn(*args)`` in a forked child; returns its (pickled) result.

    The child starts from this process as it stands after importing the
    program: no terms interned, no memo tables filled and no garbage
    left by an earlier pass, just as a fresh command-line run starts.
    Its ``ru_maxrss`` starts at its own size, so it is the pass's peak.
    The parent reads the result, then waits for the child to end.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(fn(*args), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit("perfbench: a pass failed (child status %d)" % status)
    return pickle.loads(data)


def run_pass(workload, seed: int, pass_index: int, traced: bool = False):
    """One pass in a fresh child: ``(result, tracer or None)``."""
    return in_child(_one_pass, workload, seed, pass_index, traced)


def _one_pass(workload, seed: int, pass_index: int, traced: bool):
    """Set up, work and check once; a tracer (if any) sees set-up + work."""
    from workloads import PassResult

    result = PassResult()
    tracer = None
    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        result.on_item = lambda label: setattr(tracer, "item", label)
        tracer.begin()
    try:
        t0 = _pc()
        state = workload.setup(seed, pass_index)
        result.setup_s = _pc() - t0
        workload.work(state, result)
        if tracer is not None:
            tracer.end()
            tracer.hook_s += result.calibration_s  # benchmark's own time
    finally:
        if tracer is not None:
            tracer.unpatch()
        result.on_item = None
    workload.check(state, result)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, tracer


def end_to_end(import_s: float, passes) -> dict:
    """Medians over the passes of every end-to-end metric."""
    names = list(passes[0].items)
    p50, tail = item_percentiles(passes)
    attempted = sum(p.attempted for p in passes)
    decided = sum(p.decided for p in passes)
    values = {
        "setup_s": import_s + median(p.setup_s * p.speed for p in passes),
        "wall_s": median(p.wall_s * p.speed for p in passes),
        "cpu_s": median(p.cpu_s * p.speed for p in passes),
        "peak_rss_mb": median(p.peak_rss_mb for p in passes),
        "item_p50_ms": p50 * 1e3,
        "item_tail_ms": tail * 1e3,
        "decided_frac": decided / (len(names) * len(passes)),
        "ok_frac": sum(p.ok for p in passes) / attempted,
        "code_size_ratio": median(p.size_ratio for p in passes),
        "output_cost_ratio": median(p.cost_ratio for p in passes),
    }
    return values


def result_line(passes, metrics, values, extra_failures=0) -> str:
    """The JSON result: outputs checked, and *metrics* in declared order."""
    attempted = sum(p.attempted for p in passes)
    failed = attempted - sum(p.ok for p in passes)
    return json.dumps({
        "correct": failed == 0 and not extra_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    })


def main(argv=None) -> int:
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    args = parse_args(argv, bench)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro package under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads
    from repro.engine import semantics_fingerprint

    # the import probes time the fingerprint with the import; compute it
    # here once so that the passes forked from this process inherit it
    semantics_fingerprint()

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        return traced_run(workload, args, budget(args.seconds),
                          bench["per_layer"])
    import_s = median(measure_import(workload.imports)
                      for _ in range(IMPORT_SAMPLES))
    time_left = budget(args.seconds)
    passes = []
    while True:
        p0 = _pc()
        passes.append(run_pass(workload, args.seed, len(passes))[0])
        if not time_left(_pc() - p0):
            break
    values = end_to_end(import_s, passes)
    n_items = len(passes[0].items)
    print("workload %s  seed %d  passes %d  items %d  cpus %d"
          % (workload.name, args.seed, len(passes), n_items, os.cpu_count()))
    print("item_tail_ms is p%.1f of %d samples (%d items x %d passes)"
          % (100.0 * tail_rank(n_items), n_items * len(passes), n_items,
             len(passes)))
    print("time metrics in reference seconds (speed.py); raw medians: "
          "setup %.4f s (per pass), wall %.4f s, cpu %.4f s, speed factor %.3f"
          % (median(p.setup_s for p in passes), median(p.wall_s for p in passes),
             median(p.cpu_s for p in passes), median(p.speed for p in passes)))
    for m in bench["end_to_end"]:
        print("  %-18s %12.4f %s" % (m["name"], values[m["name"]], m["unit"]))
    for failure in [f for p in passes for f in p.failures][:20]:
        print("FAILED: %s" % failure)
    print(result_line(passes, bench["end_to_end"], values))
    return 0


def traced_run(workload, args, time_left, metrics) -> int:
    """Untraced/traced pass pairs; prints the per-layer metrics."""
    import layers

    tracers, ratios, passes = [], [], []
    while True:
        p0 = _pc()
        plain, _none = run_pass(workload, args.seed, len(tracers))
        traced, tracer = run_pass(workload, args.seed, len(tracers), True)
        passes += [plain, traced]
        tracers.append(tracer)
        ratios.append((traced.setup_s + traced.wall_s) * traced.speed
                      / ((plain.setup_s + plain.wall_s) * plain.speed))
        if not time_left(_pc() - p0):
            break

    signatures = [layers.count_signature(t) for t in tracers]
    mismatched = [i for i, s in enumerate(signatures) if s != signatures[0]]
    values = layers.layer_metrics(tracers, median(ratios),
                                  [m["name"] for m in metrics])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    trace_path = os.path.join(HERE, "out", "trace-%s-seed%d.json"
                              % (workload.name, args.seed))
    tracers[0].write_chrome_trace(trace_path, {
        "workload": workload.name, "seed": args.seed,
        "per_layer": values, "counts": signatures[0],
        "self_s": dict(tracers[0].self_time),
    })

    print("workload %s  seed %d  traced passes %d  cpus %d"
          % (workload.name, args.seed, len(tracers), os.cpu_count()))
    print("chrome trace: %s" % os.path.relpath(trace_path, ROOT))
    region = median(t.region_s - t.hook_s for t in tracers)
    print("where the time goes (self time, share of the traced pass):")
    for layer, seconds in layers.where_the_time_goes(tracers):
        print("  %-22s %9.3f s %6.1f%%" % (layer, seconds, 100 * seconds / region))
    for m in metrics:
        print("  %-28s %14.4f %s" % (m["name"], values[m["name"]], m["unit"]))
    if mismatched:
        print("FAILED: per-layer counts differ between traced passes %s"
              % mismatched)
    for failure in [f for p in passes for f in p.failures][:20]:
        print("FAILED: %s" % failure)
    print(result_line(passes, metrics, values, extra_failures=len(mismatched)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
