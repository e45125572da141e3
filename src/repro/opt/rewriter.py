"""Applying a matched transformation to concrete IR (paper §4).

Each rule's target template is compiled once, when the rule is, into a
:class:`TargetProgram`: straight-line steps that build constants and
instructions over the matched values, each at a width the match
program's typing gives it.  :meth:`Rewriter.apply` runs the steps
before the matched root and ``replaceAllUsesWith``-es the root, as the
body of the generated C++ does; :mod:`repro.codegen.cpp` prints the
same steps as that body.  Like the paper's generated code, the
rewriter leaves dead instructions behind for a later DCE pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..ir import ast
from ..ir.constexpr import ConstExpr, eval_constexpr
from ..ir.module import MConst, MFunction, MValue
from .matcher import (
    _CONVERSIONS, _NAMED, CONSTEXPR, COPY, LITERAL, Match, MatchProgram,
    RewriteError, _case,
)


def _width(source, bindings: Dict[str, MValue]) -> int:
    """A width source (:meth:`MatchProgram.width_of`) under a match."""
    return source if source.__class__ is int else bindings[source].width


class TargetProgram:
    """A target template compiled once into straight-line steps.

    Step *i* defines register *i*:

    * ``("name", name)``: the matched value bound to *name*, an input,
      a constant or a source instruction the target keeps;
    * ``("const", width, e, reads)``: the literal or constant
      expression *e* at *width*; *reads* maps the ``id`` of each symbol
      and ``width(%x)`` in *e* to a function of the bindings;
    * ``("inst", width, opcode, operands, flags, cond, name)``: a new
      instruction over the registers *operands*, for the target
      instruction *name*.

    A ``Copy`` adds no step.  A width is read off the match or fixed,
    as :meth:`MatchProgram.width_of` gives it for the step's type.
    ``root`` is the register that replaces the root.  A target the
    steps cannot build (undef, FP, memory, other conversions, a name
    the match does not bind, a type with neither a matched value nor a
    fixed width, a cast whose widths no check orders) raises
    :class:`RewriteError` here, so a rule that matches always rewrites.
    """

    def __init__(self, t: ast.Transformation, program: MatchProgram):
        self.steps: List[tuple] = []
        self._t = t
        self._program = program
        registers: Dict[str, int] = {}  # name -> register
        for name, inst in t.tgt.items():
            registers[name] = self._build(inst, registers)
        if t.root not in registers:
            raise RewriteError("%s: the target does not define the root"
                               % t.name)
        self.root = registers[t.root]

    def _emit(self, step: tuple) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def _fail(self, what: str):
        return RewriteError("%s: cannot build %s" % (self._t.name, what))

    def _width(self, v: ast.Value):
        source = self._program.width_of(v)
        if source is None:
            raise self._fail("%s, its type has no width" % v.name)
        return source

    def _build(self, v: ast.Value, registers: Dict[str, int]) -> int:
        """Steps that build *v*, read from the cases that the match
        program is compiled from; returns its register."""
        case = _case(v)
        if case == COPY:
            return self._operand(v.x, registers)
        if case in (LITERAL, CONSTEXPR):
            return self._emit(("const", self._width(v), v, self._reads(v)))
        if not isinstance(case, tuple):
            raise self._fail(v.name)
        opcode, cond, flags, operands = case
        if opcode in _CONVERSIONS:
            narrow, wide = (v, operands[0]) if opcode == "trunc" \
                else (operands[0], v)
            if not self._narrower(narrow, wide):
                raise self._fail("%s, no check orders its widths" % v.name)
        operands = tuple(self._operand(o, registers) for o in operands)
        return self._emit(("inst", self._width(v), opcode, operands, flags,
                           cond, v.name))

    def _operand(self, v: ast.Value, registers: Dict[str, int]) -> int:
        if not isinstance(v, _NAMED):
            return self._build(v, registers)
        if v.name not in registers:
            if v.name not in self._program.bindings or v.name in self._t.tgt:
                raise self._fail("%s, it is not matched" % v.name)
            registers[v.name] = self._emit(("name", v.name))
        return registers[v.name]

    def _narrower(self, narrow: ast.Value, wide: ast.Value) -> bool:
        """Whether every match makes *narrow* narrower than *wide*: the
        match program's ``smaller`` step, where both types have a
        matched value, or the ranges of the two types."""
        if isinstance(self._width(narrow), str) \
                and isinstance(self._width(wide), str):
            return True
        most = self._program.width_range(narrow)[1]
        return most is not None and most < self._program.width_range(wide)[0]

    def _reads(self, e: ast.Value) -> Dict[int, Callable]:
        """What each symbol and ``width`` node of the constant *e* reads
        off the bindings."""
        if isinstance(e, ast.ConstantSymbol):
            if e.name not in self._program.bindings:
                raise self._fail("%s, it is not matched" % e.name)
            return {id(e): lambda bindings: bindings[e.name].value}
        if isinstance(e, ConstExpr) and e.op == "width":
            source = self._width(e.args[0])
            return {id(e): lambda bindings: _width(source, bindings)}
        reads = {}
        for a in e.operands():
            reads.update(self._reads(a))
        return reads


class Rewriter:
    """Runs the target program of one transformation."""

    def __init__(self, program: TargetProgram):
        self.program = program

    def apply(self, fn: MFunction, match: Match) -> MValue:
        """Rewrite *fn* in place; returns the new root value."""
        bindings, root = match.bindings, match.root
        values: List[MValue] = []
        for step in self.program.steps:
            if step[0] == "name":
                values.append(bindings[step[1]])
                continue
            width = _width(step[1], bindings)
            if step[0] == "const":
                reads = step[3]
                values.append(MConst(eval_constexpr(
                    step[2], width, lambda leaf: reads[id(leaf)](bindings)),
                    width))
            else:
                _, _, opcode, operands, flags, cond, _ = step
                values.append(fn.add(opcode, [values[o] for o in operands],
                                     width, flags=flags, cond=cond,
                                     before=root))
        new_root = values[self.program.root]
        fn.replace_all_uses(root, new_root)
        return new_root
