"""Dead code elimination.

The generated peephole code "does not attempt to clean up any
instructions that might have been rendered useless by the optimization;
this task is left to a subsequent dead-code elimination pass"
(paper §4).  This is that pass: instructions whose results are unused
and that have no side effects are removed.
"""

from __future__ import annotations

from ..ir.module import MFunction, Module


def run_dce(fn: MFunction) -> int:
    """Remove dead instructions; returns the number removed.  Every use
    in a single-block SSA function follows its definition, so one sweep
    from the end, releasing each dead instruction's operands, is exact."""
    counts = fn.use_counts()
    keep = []
    for inst in reversed(fn.instrs):
        if counts.get(id(inst), 0) or inst is fn.ret:
            keep.append(inst)
        else:
            for op in inst.operands:
                counts[id(op)] -= 1
    removed = len(fn.instrs) - len(keep)
    fn.instrs = keep[::-1]
    return removed


def run_dce_module(module: Module) -> int:
    """DCE over every function of a module."""
    return sum(run_dce(fn) for fn in module.functions)
