"""§6.4 execution time — code quality of LLVM+Alive vs full InstCombine.

Paper: "Code compiled with LLVM+Alive is (averaged across all SPEC
benchmarks) 3% slower than code compiled with LLVM 3.6 -O3 ... a
speedup of 7% with gcc, and ... a slowdown of 10% in the equake
benchmark.  The code generated with LLVM+Alive is slower with some
benchmarks because we have only translated a third of the InstCombine
optimizations."

We optimize the same synthetic modules with both rule sets and compare
the cost-model estimate per function (each function plays the role of
one SPEC benchmark).  Expected shape: LLVM+Alive code is a few percent
slower on average, with per-function deltas spanning both signs.
"""

from __future__ import annotations

import copy

from repro.opt import PeepholePass, baseline_rules, compile_opts, folding_rules
from repro.suite import load_all_flat
from repro.workload import WorkloadConfig, generate_module, module_cost
from repro.workload.costmodel import function_cost


def run_exec_time():
    # LLVM keeps folding outside InstCombine, so both pipelines fold
    alive_opts = folding_rules() + compile_opts(load_all_flat())
    full_rules = baseline_rules() + compile_opts(load_all_flat())

    cfg = WorkloadConfig(seed=99, functions=120, instructions=45)
    module_a = generate_module(cfg)
    module_b = generate_module(cfg)  # identical (deterministic seed)

    PeepholePass(alive_opts).run_module(module_a)
    PeepholePass(full_rules).run_module(module_b)

    per_function = []
    for fa, fb in zip(module_a.functions, module_b.functions):
        ca, cb = function_cost(fa), function_cost(fb)
        if cb > 0:
            per_function.append((fa.name, (ca - cb) / cb * 100.0))
    total_a, total_b = module_cost(module_a), module_cost(module_b)
    return total_a, total_b, per_function


def test_exec_time(benchmark, report):
    cost_alive, cost_full, per_function = benchmark.pedantic(
        run_exec_time, iterations=1, rounds=1
    )
    avg = (cost_alive - cost_full) / cost_full * 100.0
    worst = max(per_function, key=lambda kv: kv[1])
    best = min(per_function, key=lambda kv: kv[1])

    report("§6.4 execution time — cost-model estimate of optimized code")
    report("")
    report("paper: LLVM+Alive code averages 3% slower; gcc 7% faster,")
    report("equake 10% slower (per-benchmark deltas span both signs)")
    report("")
    report("full-optimizer code cost:   %.0f" % cost_full)
    report("LLVM+Alive code cost:       %.0f" % cost_alive)
    report("average slowdown:           %.1f%%" % avg)
    report("worst function:             %s (%.1f%% slower)" % (worst[0], worst[1]))
    report("best function:              %s (%.1f%% faster)" % (best[0], -best[1]))
    slower = sum(1 for _, d in per_function if d > 0.5)
    equal = sum(1 for _, d in per_function if abs(d) <= 0.5)
    report("functions slower/equal/faster: %d/%d/%d"
           % (slower, equal, len(per_function) - slower - equal))

    # shape: subset-optimized code is somewhat slower on average but not
    # dramatically, and the distribution has a tail on the slow side
    assert 0.0 <= avg <= 25.0
    assert worst[1] > 0.0
