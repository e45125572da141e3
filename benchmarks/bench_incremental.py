"""Incremental solving: assumption-based re-solving vs fresh solvers.

Each CEGIS round of the verifier re-solves one growing clause database
under an activation literal, in the one solver session the loop keeps.
This benchmark measures that effect in isolation — assumption-based
re-solving against from-scratch solving on the same random CNF stream
— and emits ``BENCH_incremental.json``.  Every other verifier query is
independent and gets a fresh solver; DESIGN.md, "Incremental solving",
records why.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.smt.sat import SatSolver

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
ARTIFACT = os.path.join(RESULTS_DIR, "BENCH_incremental.json")


def _random_clause(rng, num_vars):
    width = rng.randint(2, 3)
    return [rng.randint(1, num_vars) * rng.choice((1, -1))
            for _ in range(width)]


def _sat_stream(rounds=60, num_vars=40, seed=7):
    """One growing CNF, re-solved under assumptions every round:
    incremental (one solver) vs from-scratch (fresh solver per round)."""
    rng = random.Random(seed)
    batches = []
    for _ in range(rounds):
        batches.append([_random_clause(rng, num_vars)
                        for _ in range(12)])
    assumption_sets = [
        [rng.randint(1, num_vars) * rng.choice((1, -1))
         for _ in range(2)]
        for _ in range(rounds)
    ]

    start = time.perf_counter()
    inc = SatSolver(num_vars)
    inc_statuses = []
    for batch, assumptions in zip(batches, assumption_sets):
        for clause in batch:
            inc.add_clause(clause)
        inc_statuses.append(inc.solve(assumptions=assumptions))
    inc_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    fresh_statuses = []
    for i, assumptions in enumerate(assumption_sets):
        solver = SatSolver(num_vars)
        for batch in batches[:i + 1]:
            for clause in batch:
                solver.add_clause(clause)
        for a in assumptions:
            solver.add_clause([a])
        fresh_statuses.append(solver.solve())
    fresh_elapsed = time.perf_counter() - start

    assert inc_statuses == fresh_statuses
    return {
        "rounds": rounds,
        "incremental_s": inc_elapsed,
        "from_scratch_s": fresh_elapsed,
        "speedup": fresh_elapsed / max(inc_elapsed, 1e-9),
    }


def test_incremental(benchmark, report):
    stream = benchmark.pedantic(_sat_stream, iterations=1, rounds=1)

    report("repro.smt — assumption-based re-solving vs fresh solvers")
    report("")
    report("%-26s %10s" % ("scenario", "wall s"))
    report("-" * 38)
    report("%-26s %10.3f" % ("one solver, assumptions", stream["incremental_s"]))
    report("%-26s %10.3f" % ("fresh solver per round", stream["from_scratch_s"]))
    report("")
    report("sat assumption-stream speedup (%d rounds): x%.2f"
           % (stream["rounds"], stream["speedup"]))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(ARTIFACT, "w") as handle:
        json.dump({"sat_assumption_stream": stream}, handle, indent=2,
                  sort_keys=True)
    report("")
    report("artifact: %s" % os.path.relpath(ARTIFACT,
                                            os.path.dirname(__file__)))
