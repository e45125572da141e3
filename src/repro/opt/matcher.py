"""Pattern matching of Alive source templates against concrete IR.

This is the Python analogue of the C++ that Alive generates (paper §4):
the generated code matches a DAG of LLVM instructions against the source
template, binds inputs and constants, evaluates the precondition using
the dataflow analyses, and fires the rewrite.  Hosting the matcher in
Python lets the reproduction run the "LLVM+Alive" experiments of §6.4
without an LLVM checkout; the emitted C++ (:mod:`repro.codegen.cpp`)
mirrors what this module does operationally.

The precondition is decided by :func:`repro.ir.precond.evaluate` over
the matcher's own atoms: comparisons and built-ins whose arguments are
all bound constants run the one concrete semantics of
:mod:`repro.ir.precond` (the same that the fuzzer checks against the
verifier's symbolic conditions); the syntactic built-ins and the
built-ins over non-constant values ask :class:`~repro.opt.analysis.Analyses`,
and are false where no analysis answers them.

Before any of that, the generated code switches on the root opcode and
tests the operand opcodes.  :class:`Guard` is that switch: read from the
source template by :func:`template_guard`, it decides on an
instruction's :func:`instruction_key` alone, and is never stricter than
the matcher, so :class:`~repro.opt.pass_manager.PeepholePass` can skip
every rule whose guard rejects the key.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..core.typecheck import TypeChecker
from ..ir import ast
from ..ir.constexpr import ConstExpr, eval_constexpr, is_constant_value
from ..ir.module import MConst, MInstr, MValue
from ..ir.precond import (
    PredCall, PredCmp, Predicate, builtin_holds, compare, evaluate,
)
from ..typing.constraints import BOOL, FIXED, MIN_WIDTH, SAME_WIDTH, SMALLER
from ..typing.types import IntType
from .analysis import Analyses


class Match:
    """A successful match: bindings from template values to IR values."""

    def __init__(self, root: MInstr, bindings: Dict[str, MValue]):
        self.root = root
        self.bindings = bindings  # template value name -> MValue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Match(%s, %d bindings)" % (self.root.name, len(self.bindings))


#: the :class:`Analyses` method answering a built-in when an argument
#: is not a constant; the other built-ins are false on such arguments
_ANALYSIS_QUERIES = {
    "isPowerOf2": "is_power_of_2",
    "isPowerOf2OrZero": "is_power_of_2",
    "WillNotOverflowSignedAdd": "will_not_overflow_signed_add",
}


#: the shapes a guard asks of an operand (see :func:`_shape`); an
#: instruction operand's shape is its ``(opcode, cond)`` pair
ANY, CONST, NEVER = "any", "const", "never"
#: the shape of an operand that is neither a constant nor an instruction
ARG = "arg"

_CONVERSIONS = ("zext", "sext", "trunc")

#: an instruction's dispatch key: opcode, cond, flags, operand shapes
Key = Tuple[str, Optional[str], FrozenSet[str], Tuple[object, ...]]


def instruction_key(inst: MInstr) -> Key:
    """The key :class:`Guard` decides on: what an InstCombine-style
    switch sees of *inst* before it binds anything."""
    return (inst.opcode, inst.cond, frozenset(inst.flags),
            tuple((op.opcode, op.cond) if isinstance(op, MInstr)
                  else CONST if isinstance(op, MConst) else ARG
                  for op in inst.operands))


class Guard:
    """A cheap test on an instruction's key that every instruction a
    rule can fire on passes.

    Args:
        opcodes: the root opcodes (None: any instruction).
        cond: the icmp predicate the root must have (None: any).
        flags: the flags the root must carry.
        operands: the shape each direct operand must have, as
            :func:`_shape` gives it.
    """

    def __init__(self, opcodes: Optional[Iterable[str]],
                 cond: Optional[str] = None, flags: Iterable[str] = (),
                 operands: Sequence[object] = ()):
        self.opcodes = None if opcodes is None else frozenset(opcodes)
        self.cond = cond
        self.flags = frozenset(flags)
        self.operands = tuple(operands)

    def admits(self, key: Key) -> bool:
        opcode, cond, flags, operands = key
        if self.opcodes is not None and opcode not in self.opcodes:
            return False
        if self.cond is not None and cond != self.cond:
            return False
        if not self.flags <= flags:
            return False
        for want, got in zip(self.operands, operands):
            if want is ANY:
                continue
            if isinstance(want, tuple):
                if not (isinstance(got, tuple) and got[0] == want[0]
                        and want[1] in (None, got[1])):
                    return False
            elif got is not want:  # CONST; no operand's shape is NEVER
                return False
        return True


def _shape(pattern: ast.Value):
    """What :meth:`TemplateMatcher._match_value` demands of the value
    it matches against *pattern*, looking at that value alone.  The
    cases are those of ``_match_value``; a shape is never stricter."""
    if isinstance(pattern, ast.Copy):
        return _shape(pattern.x)
    if isinstance(pattern, ast.Input):
        return ANY
    if isinstance(pattern, (ast.ConstantSymbol, ast.Literal, ConstExpr)):
        return CONST
    if isinstance(pattern, ast.BinOp):
        return (pattern.opcode, None)
    if isinstance(pattern, ast.ICmp):
        return ("icmp", pattern.cond)
    if isinstance(pattern, ast.Select):
        return ("select", None)
    if isinstance(pattern, ast.ConvOp) and pattern.opcode in _CONVERSIONS:
        return (pattern.opcode, None)
    return NEVER  # undef, FP and memory patterns never match


def template_guard(pattern: ast.Value) -> Guard:
    """The :class:`Guard` of a source template rooted at *pattern*."""
    while isinstance(pattern, ast.Copy):
        pattern = pattern.x
    shape = _shape(pattern)
    if shape is ANY:
        return Guard(None)
    if not isinstance(shape, tuple):
        return Guard(())  # a constant or a never-matching root
    flags = pattern.flags if isinstance(pattern, ast.BinOp) else ()
    return Guard((shape[0],), shape[1], flags,
                 [_shape(p) for p in pattern.operands()])


class TemplateMatcher:
    """Matches one transformation's source template."""

    def __init__(self, transformation: ast.Transformation):
        self.t = transformation
        self.root_pattern = transformation.src[transformation.root]
        self.guard = template_guard(self.root_pattern)
        # the template's real typing constraints, used to reject
        # structurally matching DAGs whose widths are inconsistent with
        # the (polymorphic) template typing — e.g. an i1 `false` literal
        # must not match an i8 zero
        checker = TypeChecker()
        checker.check_transformation(transformation)
        system = checker.system
        values = transformation.source_values()
        # what _check_types and _widths_feasible read, resolved once:
        # the annotated widths, each pattern node's type class, the
        # unary constraints per class and the width-relating edges
        self._annotated = [(v.name, v.ty.width) for v in values
                           if isinstance(v.ty, IntType)]
        self._class_of = {id(v): system.find(checker.tv(v)) for v in values}
        self._unary = {}
        for cls in set(self._class_of.values()):
            facts = [(tag, payload)
                     for tag, payload in system.unary.get(cls, [])
                     if tag in (BOOL, MIN_WIDTH)
                     or (tag == FIXED and isinstance(payload, IntType))]
            if facts:
                self._unary[cls] = facts
        self._binary = [(tag, a, b) for tag, a, b in system.resolved_binary()
                        if tag in (SMALLER, SAME_WIDTH)]

    # ------------------------------------------------------------------

    def match(self, inst: MInstr, analyses: Analyses) -> Optional[Match]:
        """Try to match the template rooted at *inst*."""
        bindings: Dict[str, MValue] = {}
        observations: Dict[int, int] = {}  # id(pattern) -> matched width
        if not self._match_value(self.root_pattern, inst, bindings,
                                 observations):
            return None
        if not self._check_types(bindings):
            return None
        if not self._widths_feasible(observations):
            return None
        if not evaluate(self.t.pre,
                        lambda atom: self._atom(atom, bindings, analyses)):
            return None
        return Match(inst, bindings)

    def _widths_feasible(self, observations: Dict[int, int]) -> bool:
        """Check the observed widths against the template's typing.

        Every matched pattern node reported its concrete width; nodes in
        the same type class must agree, and the class's unary
        constraints (i1-ness, fixed types, literal fit) must hold.
        SMALLER edges (conversions) are checked when both ends are
        observed.
        """
        class_of = self._class_of
        by_class: Dict[str, int] = {}
        for node, width in observations.items():
            cls = class_of.get(node)
            if cls is not None and by_class.setdefault(cls, width) != width:
                return False
        for cls, width in by_class.items():
            for tag, payload in self._unary.get(cls, ()):
                if tag == BOOL and width != 1:
                    return False
                if tag == FIXED and payload.width != width:
                    return False
                if tag == MIN_WIDTH and width < payload:
                    return False
        for tag, a, b in self._binary:
            wa, wb = by_class.get(a), by_class.get(b)
            if wa is None or wb is None:
                continue
            if tag == SMALLER and not wa < wb:
                return False
            if tag == SAME_WIDTH and wa != wb:
                return False
        return True

    # ------------------------------------------------------------------

    def _bind(self, name: str, value: MValue, bindings: Dict[str, MValue]) -> bool:
        existing = bindings.get(name)
        if existing is None:
            bindings[name] = value
            return True
        if existing is value:
            return True
        # two occurrences must be the same value; constants may also
        # match by equal numeric value
        if (
            isinstance(existing, MConst)
            and isinstance(value, MConst)
            and existing.width == value.width
            and existing.value == value.value
        ):
            return True
        return False

    def _match_value(self, pattern: ast.Value, value: MValue,
                     bindings: Dict[str, MValue],
                     observations: Dict[int, int]) -> bool:
        observations[id(pattern)] = value.width
        if isinstance(pattern, ast.Input):
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.ConstantSymbol):
            if not isinstance(value, MConst):
                return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.Literal):
            if not isinstance(value, MConst):
                return False
            return (pattern.value & ((1 << value.width) - 1)) == value.value
        if isinstance(pattern, ast.UndefValue):
            return False  # concrete IR has no undef values
        if isinstance(pattern, ConstExpr):
            # a constant expression in operand position must evaluate to
            # the matched constant (requires its symbols to be bound)
            if not isinstance(value, MConst):
                return False
            if not is_constant_value(pattern):
                return False
            try:
                expected = eval_constexpr(
                    pattern, value.width,
                    lambda sym: _resolve_const(bindings, sym),
                )
            except _UnboundConstant:
                return False
            return expected == value.value
        if isinstance(pattern, ast.Copy):
            return self._match_value(pattern.x, value, bindings, observations)
        if isinstance(pattern, ast.BinOp):
            if not isinstance(value, MInstr) or value.opcode != pattern.opcode:
                return False
            for f in pattern.flags:
                if f not in value.flags:
                    return False
            if not self._match_value(pattern.a, value.operands[0], bindings, observations):
                return False
            if not self._match_value(pattern.b, value.operands[1], bindings, observations):
                return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.ICmp):
            if (
                not isinstance(value, MInstr)
                or value.opcode != "icmp"
                or value.cond != pattern.cond
            ):
                return False
            if not self._match_value(pattern.a, value.operands[0], bindings, observations):
                return False
            if not self._match_value(pattern.b, value.operands[1], bindings, observations):
                return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.Select):
            if not isinstance(value, MInstr) or value.opcode != "select":
                return False
            for pat, op in zip((pattern.c, pattern.a, pattern.b), value.operands):
                if not self._match_value(pat, op, bindings, observations):
                    return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.ConvOp):
            if pattern.opcode not in _CONVERSIONS:
                return False
            if not isinstance(value, MInstr) or value.opcode != pattern.opcode:
                return False
            if not self._match_value(pattern.x, value.operands[0], bindings, observations):
                return False
            return self._bind(pattern.name, value, bindings)
        return False

    # ------------------------------------------------------------------

    def _check_types(self, bindings: Dict[str, MValue]) -> bool:
        """Explicit type annotations must agree with the matched widths."""
        for name, width in self._annotated:
            bound = bindings.get(name)
            if bound is not None and bound.width != width:
                return False
        return True

    # ------------------------------------------------------------------

    def _atom(self, atom: Predicate, bindings: Dict[str, MValue],
              analyses: Analyses) -> bool:
        if isinstance(atom, PredCmp):
            width = (self._width_of(atom.a, bindings)
                     or self._width_of(atom.b, bindings))
            if width is None:
                return False
            try:
                a = self._eval_const(atom.a, width, bindings)
                b = self._eval_const(atom.b, width, bindings)
            except _UnboundConstant:
                return False
            return compare(atom.op, a, b, width)
        return self._call_holds(atom, bindings, analyses)

    def _width_of(self, e: ast.Value, bindings: Dict[str, MValue]) -> Optional[int]:
        if isinstance(e, (ast.Input, ast.ConstantSymbol, ast.Instruction)):
            bound = bindings.get(e.name)
            return bound.width if bound is not None else None
        if isinstance(e, ConstExpr):
            for a in e.args:
                w = self._width_of(a, bindings)
                if w is not None:
                    return w
        return None

    def _eval_const(self, e: ast.Value, width: int,
                    bindings: Dict[str, MValue]) -> int:
        return eval_constexpr(
            e, width, lambda sym: _resolve_const(bindings, sym)
        )

    def _call_holds(self, call: PredCall, bindings: Dict[str, MValue],
                    analyses: Analyses) -> bool:
        fn = call.fn
        args = [
            bindings.get(a.name)
            if isinstance(a, (ast.Input, ast.ConstantSymbol, ast.Instruction))
            else None
            for a in call.args
        ]
        if any(v is None for v in args):
            # a constant expression or literal argument is the constant
            # it evaluates to, at the width another argument fixes
            width = next(filter(None, (self._width_of(a, bindings)
                                       for a in call.args)), None)
            for i, a in enumerate(call.args):
                if width is None or not isinstance(a, (ConstExpr, ast.Literal)):
                    continue
                try:
                    args[i] = MConst(self._eval_const(a, width, bindings),
                                     width)
                except (_UnboundConstant, ast.AliveError):
                    pass
        if fn == "hasOneUse":
            return args[0] is not None and analyses.has_one_use(args[0])
        if fn == "isConstant":
            return isinstance(args[0], MConst)
        if fn == "MaskedValueIsZero":
            v = args[0]
            if v is None:
                return False
            try:
                mask = self._eval_const(call.args[1], v.width, bindings)
            except (_UnboundConstant, ast.AliveError):
                return False
            return analyses.masked_value_is_zero(v, mask)
        if all(isinstance(v, MConst) for v in args):
            return builtin_holds(fn, [v.value for v in args], args[0].width)
        query = _ANALYSIS_QUERIES.get(fn)
        if query is None or any(v is None for v in args):
            return False
        return getattr(analyses, query)(*args)


class _UnboundConstant(Exception):
    pass


def _resolve_const(bindings: Dict[str, MValue], sym: ast.Value) -> int:
    bound = bindings.get(sym.name)
    if not isinstance(bound, MConst):
        raise _UnboundConstant(sym.name)
    return bound.value

