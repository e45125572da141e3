"""§6.4 compile time — LLVM+Alive vs full InstCombine.

Paper: "Compilation using LLVM+Alive was on average 7% faster than
LLVM because it runs only a fraction of the total InstCombine
optimizations."

Stand-ins (DESIGN.md): the *full* optimizer is the hand-written
baseline rule set plus the Alive corpus (InstCombine's superset role);
LLVM+Alive runs the verified Alive corpus only.  The measured quantity
is optimizer wall-clock over the same workload; expected shape: the
Alive-only optimizer compiles measurably faster because it attempts
fewer rules per instruction.

A single pass takes about a second and swings by tens of percent with
the machine's load, so the comparison is of medians over alternating
(alive, full) rounds, and the report gives each side's quartiles.
"""

from __future__ import annotations

import time
from statistics import median, quantiles

from repro.opt import PeepholePass, baseline_rules, compile_opts, folding_rules
from repro.suite import load_all_flat
from repro.workload import WorkloadConfig, generate_module


def _optimize(rules, seed):
    module = generate_module(
        WorkloadConfig(seed=seed, functions=150, instructions=40)
    )
    start = time.perf_counter()
    pass_ = PeepholePass(rules)
    pass_.run_module(module)
    elapsed = time.perf_counter() - start
    return elapsed, module, pass_.stats


def run_compile_time(rounds=9):
    alive_opts = folding_rules() + compile_opts(load_all_flat())
    full_rules = baseline_rules() + compile_opts(load_all_flat())

    # warm-up: the first pass over a fresh process pays allocator and
    # import costs; exclude that from the comparison
    _optimize(alive_opts, seed=5)
    _optimize(full_rules, seed=5)

    # alternate the two sides so that a drift in load hits both alike
    t_alive, t_full = [], []
    for _ in range(rounds):
        elapsed, _, stats_alive = _optimize(alive_opts, seed=6)
        t_alive.append(elapsed)
        elapsed, _, stats_full = _optimize(full_rules, seed=6)
        t_full.append(elapsed)
    return t_alive, t_full, stats_alive, stats_full


def _spread(times):
    """``median (q1-q3)`` of *times*, in seconds."""
    q1, _, q3 = quantiles(times, n=4)
    return "%.3fs (quartiles %.3f-%.3f)" % (median(times), q1, q3)


def test_compile_time(benchmark, report):
    times_alive, times_full, stats_alive, stats_full = benchmark.pedantic(
        run_compile_time, iterations=1, rounds=1
    )
    t_alive, t_full = median(times_alive), median(times_full)
    delta = (t_full - t_alive) / t_full * 100.0

    report("§6.4 compile time — LLVM+Alive vs full InstCombine stand-in")
    report("")
    report("paper: LLVM+Alive compiles ~7% faster (fewer opts to try)")
    report("")
    report("median of %d alternating rounds each:" % len(times_alive))
    report("full optimizer (baseline + alive):  %s, %d rewrites"
           % (_spread(times_full), stats_full.total_fired()))
    report("LLVM+Alive (alive corpus only):     %s, %d rewrites"
           % (_spread(times_alive), stats_alive.total_fired()))
    report("LLVM+Alive is %.0f%% faster to run (medians)" % delta)

    # shape: the subset optimizer must not be meaningfully slower (10%
    # tolerance on the medians absorbs scheduler noise), and the full
    # optimizer must do at least as much rewriting
    assert t_alive <= t_full * 1.10
    assert stats_full.total_fired() >= stats_alive.total_fired()
