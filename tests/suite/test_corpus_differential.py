"""Corpus-wide exhaustive differential validation.

For every bundled optimization: instantiate its source template at i4
with several constant choices, apply the optimization through the pass
engine, and compare the rewritten function against the original over the
*entire* input space.  The optimized result must refine the original
(poison/UB in the original licenses anything).

This closes the loop between the three independent implementations of
the semantics — the SMT encoder (which verified the optimization), the
interpreter (which executes it), and the rewriter (which applies it).
"""

import itertools
import random
import zlib

import pytest

from repro.ir import ast, intops
from repro.ir.interp import POISON, run_function
from repro.opt import Analyses, PeepholeOpt, run_dce
from repro.opt.loops import InstantiationError, instantiate_source
from repro.suite import load_all_flat

WIDTH = 4


def _exhaustive_behaviour(fn):
    out = {}
    domains = [range(1 << a.width) for a in fn.args]
    for values in itertools.product(*domains):
        args = {a.name: v for a, v in zip(fn.args, values)}
        try:
            out[values] = run_function(fn, args)
        except intops.UndefinedBehavior:
            out[values] = "UB"
    return out


def _const_samples(t, rng, n=6):
    """Constant assignments to try: every combination of the interesting
    values when there are at most two constants, else *n* random ones.

    Enumerating guarantees that narrow preconditions (``isSignBit(C)``
    holds for one i4 value only) are exercised on every run."""
    consts = [v.name for v in t.inputs()
              if isinstance(v, ast.ConstantSymbol)]
    interesting = [0, 1, 2, 3, 4, 7, 8, 15]
    if len(consts) <= 2:
        return [dict(zip(consts, values)) for values in
                itertools.product(interesting, repeat=len(consts))]
    return [{c: rng.choice(interesting) for c in consts} for _ in range(n)]


@pytest.mark.parametrize("t", load_all_flat(), ids=lambda t: t.name)
def test_applied_optimization_refines(t):
    opt = PeepholeOpt(t)
    if isinstance(t.src[t.root], (ast.Store, ast.Load, ast.Alloca,
                                  ast.GEP, ast.Unreachable)):
        pytest.skip("memory-rooted templates are verified but not applied")
    # crc32, not hash(): str hashes change with PYTHONHASHSEED.
    rng = random.Random(zlib.crc32(t.name.encode()))
    fired = 0
    for const_values in _const_samples(t, rng):
        try:
            fn = instantiate_source(t, WIDTH, const_values, rng)
        except (InstantiationError, ValueError):
            pytest.skip("template not instantiable at a single width")
        if len(fn.args) > 3:
            continue  # keep the exhaustive sweep small
        before = _exhaustive_behaviour(fn)
        root = fn.ret
        if not hasattr(root, "opcode"):
            continue  # root folded to a constant/argument
        if not opt.try_apply(fn, root, Analyses(fn)):
            continue  # precondition rejected these constants
        fired += 1
        run_dce(fn)
        fn.verify()
        after_behaviour = _exhaustive_behaviour(fn)
        for values, expected in before.items():
            got = after_behaviour[values]
            if expected == "UB" or expected is POISON:
                continue  # anything refines UB/poison
            assert got == expected, (
                t.name, const_values, values, expected, got,
            )
    if fired == 0:
        pytest.skip("no sampled constants satisfied the precondition")
