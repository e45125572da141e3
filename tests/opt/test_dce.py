"""One reverse sweep of DCE removes what the fixpoint loop removed.

:func:`reference_dce` is the loop :func:`repro.opt.run_dce` replaced: it
recounts uses every round and needs one round per level of a dead
chain.  On seeded functions whose return value is moved to a random
instruction, which leaves dead chains of every length behind it, the
two must leave the same instructions and report the same count.
"""

import copy
import random

from repro.ir.module import MConst
from repro.opt import run_dce
from repro.workload import WorkloadConfig, generate_module


def reference_dce(fn):
    removed = 0
    changed = True
    while changed:
        changed = False
        counts = fn.use_counts()
        keep = []
        for inst in fn.instrs:
            if counts.get(id(inst), 0) == 0 and inst is not fn.ret:
                removed += 1
                changed = True
            else:
                keep.append(inst)
        fn.instrs = keep
    return removed


def test_sweep_matches_the_fixpoint_loop():
    rng = random.Random(0)
    removed = 0
    for seed in (1, 2, 3):
        module = generate_module(WorkloadConfig(seed=seed, functions=40,
                                                instructions=30))
        for fn in module.functions:
            if fn.instrs:
                choice = rng.randrange(len(fn.instrs) + 1)
                fn.ret = (fn.instrs[choice] if choice < len(fn.instrs)
                          else MConst(0, 8))
            want = copy.deepcopy(fn)
            expected = reference_dce(want)
            assert run_dce(fn) == expected
            assert repr(fn) == repr(want)
            removed += expected
    assert removed > 1000  # the functions had dead chains to remove
