"""The peephole optimization pass (the "LLVM+Alive" optimizer of §6.4).

Drives a set of (verified) Alive transformations over concrete IR the
way InstCombine drives its hand-written rewrites: a worklist sweep over
every instruction, trying the matcher of each optimization whose guard
admits the instruction, rewriting on the first hit, iterating to a
fixpoint, and finishing with DCE.

Per-optimization firing counts are recorded — these are the data behind
Figure 9 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..ir import ast
from ..ir.module import MFunction, MInstr, Module
from .analysis import Analyses
from .dce import run_dce
from .matcher import Key, TemplateMatcher, instruction_key
from .rewriter import RewriteError, Rewriter


class PeepholeOpt:
    """One compiled optimization: matcher + rewriter + statistics."""

    def __init__(self, transformation: ast.Transformation):
        self.transformation = transformation
        self.name = transformation.name
        self.matcher = TemplateMatcher(transformation)
        self.guard = self.matcher.guard
        self.rewriter = Rewriter(transformation)

    def try_apply(self, fn: MFunction, inst: MInstr,
                  analyses: Analyses) -> bool:
        match = self.matcher.match(inst, analyses)
        if match is None:
            return False
        try:
            self.rewriter.apply(fn, match)
        except RewriteError:
            return False
        return True


class PassStatistics:
    """Firing counts per optimization plus aggregate counters."""

    def __init__(self) -> None:
        self.fired: Dict[str, int] = {}
        self.iterations = 0
        self.instructions_removed = 0

    def record(self, name: str) -> None:
        self.fired[name] = self.fired.get(name, 0) + 1

    def total_fired(self) -> int:
        return sum(self.fired.values())

    def sorted_counts(self) -> List:
        """(name, count) sorted by decreasing count — the Figure 9 series."""
        return sorted(self.fired.items(), key=lambda kv: (-kv[1], kv[0]))


class PeepholePass:
    """An InstCombine-style pass over modules.

    Args:
        opts: the optimization set (order matters — first match wins,
            as in InstCombine).
        max_iterations: fixpoint bound per function.
    """

    def __init__(self, opts: Sequence[PeepholeOpt], max_iterations: int = 8):
        self.opts = list(opts)
        self.max_iterations = max_iterations
        self.stats = PassStatistics()
        # instruction key -> the optimizations whose guard admits it, in
        # list order; the generated C++'s switches on the root and
        # operand opcodes, filled in as keys turn up
        self._candidates: Dict[Key, List[PeepholeOpt]] = {}

    def candidates(self, inst: MInstr) -> List[PeepholeOpt]:
        """The optimizations that may fire on *inst*, in list order."""
        key = instruction_key(inst)
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = [
                opt for opt in self.opts if opt.guard.admits(key)]
        return found

    # ------------------------------------------------------------------

    def run_function(self, fn: MFunction) -> int:
        """Optimize one function to a fixpoint; returns #rewrites."""
        fired = 0
        for _ in range(self.max_iterations):
            self.stats.iterations += 1
            changed = False
            analyses = Analyses(fn)
            replaced = set()
            for inst in list(fn.instrs):
                if id(inst) in replaced:
                    continue  # already rewritten away this sweep
                for opt in self.candidates(inst):
                    if opt.try_apply(fn, inst, analyses):
                        self.stats.record(opt.name)
                        replaced.add(id(inst))
                        fired += 1
                        changed = True
                        analyses = Analyses(fn)  # results are stale
                        break
            removed = run_dce(fn)
            self.stats.instructions_removed += removed
            if not changed:
                break
        return fired

    def run_module(self, module: Module) -> int:
        return sum(self.run_function(fn) for fn in module.functions)


def compile_opts(transformations: Sequence[ast.Transformation]) -> List[PeepholeOpt]:
    """Compile transformations into appliable optimizations, skipping the
    ones whose source templates use features the matcher does not cover
    (memory templates are verified but not auto-applied)."""
    out = []
    for t in transformations:
        root = t.src[t.root]
        if isinstance(root, (ast.Store, ast.Load, ast.Alloca, ast.GEP,
                             ast.Unreachable)):
            continue
        out.append(PeepholeOpt(t))
    return out
