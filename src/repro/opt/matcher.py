"""Pattern matching of Alive source templates against concrete IR.

This is the Python analogue of the C++ that Alive generates (paper §4,
Figure 7): each source template is compiled once into a
:class:`MatchProgram`, straight-line checks that match a DAG of
instructions, bind inputs and constants and test widths, run as a
generated Python function; the precondition is then evaluated using the
dataflow analyses.  This lets the reproduction run the "LLVM+Alive"
experiments of §6.4 without an LLVM checkout.

The precondition is decided by :func:`repro.ir.precond.evaluate` over
the matcher's own atoms: comparisons and built-ins whose arguments are
all bound constants run the one concrete semantics of
:mod:`repro.ir.precond` (the same that the fuzzer checks against the
verifier's symbolic conditions); the syntactic built-ins and the
built-ins over non-constant values ask :class:`~repro.opt.analysis.Analyses`,
and are false where no analysis answers them.

Before any of that, a :class:`Guard` switches on the root and operand
opcodes: read by :func:`template_guard` from the same per-pattern cases
as the program, it decides on an instruction's :func:`instruction_key`
alone and is never stricter than the program, so
:class:`~repro.opt.pass_manager.PeepholePass` skips every rule whose
guard rejects the key.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..core.typecheck import TypeChecker
from ..ir import ast
from ..ir.constexpr import ConstExpr, eval_constexpr, is_constant_value
from ..ir.module import MConst, MInstr, MValue
from ..ir.precond import (
    PredCall, PredCmp, Predicate, PredTrue, builtin_holds, compare, evaluate,
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
_NAMED = (ast.Input, ast.ConstantSymbol, ast.Instruction)

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


#: the cases of :func:`_case` other than an instruction pattern's, and
#: the operand shape a guard asks for each
COPY, INPUT, SYMBOL, LITERAL, CONSTEXPR = (
    "copy", "input", "symbol", "literal", "constexpr")
_SHAPES = {INPUT: ANY, SYMBOL: CONST, LITERAL: CONST, CONSTEXPR: CONST,
           NEVER: NEVER}


def _case(pattern: ast.Value):
    """What a value must be to match *pattern*: the one case analysis
    that both the match program and the guard read.  An instruction
    pattern gives its ``(opcode, cond, flags, operand patterns)``."""
    if isinstance(pattern, ast.Copy):
        return COPY
    if isinstance(pattern, ast.Input):
        return INPUT
    if isinstance(pattern, ast.ConstantSymbol):
        return SYMBOL
    if isinstance(pattern, ast.Literal):
        return LITERAL
    if isinstance(pattern, ConstExpr):
        return CONSTEXPR if is_constant_value(pattern) else NEVER
    if isinstance(pattern, ast.BinOp):
        return pattern.opcode, None, pattern.flags, pattern.operands()
    if isinstance(pattern, ast.ICmp):
        return "icmp", pattern.cond, (), pattern.operands()
    if isinstance(pattern, ast.Select) or (
            isinstance(pattern, ast.ConvOp) and pattern.opcode in _CONVERSIONS):
        return pattern.opcode, None, (), pattern.operands()
    return NEVER  # undef, FP and memory patterns never match


def _shape(pattern: ast.Value):
    """What the match program demands of the value it matches against
    *pattern*, looking at that value alone; never stricter."""
    case = _case(pattern)
    if case == COPY:
        return _shape(pattern.x)
    return case[:2] if isinstance(case, tuple) else _SHAPES[case]


def template_guard(pattern: ast.Value) -> Guard:
    """The :class:`Guard` of a source template rooted at *pattern*."""
    while isinstance(pattern, ast.Copy):
        pattern = pattern.x
    case = _case(pattern)
    if case == INPUT:
        return Guard(None)
    if not isinstance(case, tuple):
        return Guard(())  # a constant or a never-matching root
    opcode, cond, flags, operands = case
    return Guard((opcode,), cond, flags, [_shape(p) for p in operands])


class MatchProgram:
    """A source template compiled once into straight-line checks.

    ``steps`` are tuples of a kind and operands; a register (an int)
    names a matched value, 0 being the root.  ``("load", r, s, i)``
    makes r operand *i* of s, ``("fail",)`` rejects (undef, FP and
    memory patterns), ``("constexpr", r, e, b)`` tests r against the
    constant expression *e* over the bindings *b* made so far, and
    every other kind is a test that ``_PYTHON_TESTS`` spells out.  The
    order is that of a recursive walk: the template depth first,
    operands left to right, a name's later occurrences tested against
    its first; then the annotated widths, one width per type class, the
    class facts and the relations between classes; then ``pre`` (None
    if trivially true) over ``bindings`` (name -> register).
    ``source`` is the Python the steps print as, ``run`` its function;
    *holds(atom, bindings, analyses)* decides each precondition atom.
    """

    def __init__(self, t: ast.Transformation, holds):
        self.steps = []
        self.bindings: Dict[str, int] = {}
        self._compile(t)
        self.pre = None if isinstance(t.pre, PredTrue) else t.pre
        env = {"MInstr": MInstr, "MConst": MConst, "Match": Match,
               "evaluate": evaluate, "pre": self.pre, "holds": holds,
               "constexpr": _constexpr}
        lines = ["def match(v0, analyses):"]
        lines += ["    " + _python(step, env) for step in self.steps]
        lines.append("    b = {%s}" % ", ".join(
            "%r: v%d" % item for item in self.bindings.items()))
        if self.pre is not None:
            lines.append("    if not evaluate(pre, lambda atom: "
                         "holds(atom, b, analyses)):\n        return None")
        lines.append("    return Match(v0, b)\n")
        self.source = "\n".join(lines)
        filename = "<match %s>" % t.name  # in tracebacks
        exec(compile(self.source, filename, "exec"), env)
        self.run = env["match"]

    def _compile(self, t: ast.Transformation) -> None:
        steps, names = self.steps, self.bindings
        visited: Dict[int, int] = {}  # id(pattern) -> its last register
        registers = itertools.count(1)

        def bind(name, r):
            if name in names:
                steps.append(("same", r, names[name]))
            else:
                names[name] = r

        def visit(pattern, r):
            visited[id(pattern)] = r
            case = _case(pattern)
            if case == COPY:
                visit(pattern.x, r)
            elif case == INPUT:
                bind(pattern.name, r)
            elif case == NEVER:
                steps.append(("fail",))
            elif not isinstance(case, tuple):
                steps.append(("const", r))
                if case == SYMBOL:
                    bind(pattern.name, r)
                elif case == LITERAL:
                    steps.append(("literal", r, pattern.value))
                else:
                    steps.append(("constexpr", r, pattern,
                                  tuple(names.items())))
            else:
                opcode, cond, flags, operands = case
                steps.append(("opcode", r, opcode))
                if cond is not None:
                    steps.append(("cond", r, cond))
                steps.extend(("flag", r, f) for f in flags)
                for i, operand in enumerate(operands):
                    o = next(registers)
                    steps.append(("load", o, r, i))
                    visit(operand, o)
                bind(pattern.name, r)

        visit(t.src[t.root], 0)
        # the template's typing rejects structurally matching DAGs of
        # inconsistent widths: an i1 `false` must not match an i8 zero
        checker = TypeChecker()
        checker.check_transformation(t)
        system = checker.system
        values = t.source_values()
        checks = [("width", names[v.name], v.ty.width) for v in values
                  if isinstance(v.ty, IntType) and v.name in names]
        class_of = {id(v): system.find(checker.tv(v)) for v in values}
        first = {}  # type class -> its first register
        for node, r in visited.items():
            cls = class_of.get(node)
            if cls in first:
                checks.append(("same_width", r, first[cls]))
            elif cls is not None:
                first[cls] = r
        for cls, r in first.items():
            for tag, payload in system.unary.get(cls, ()):
                if tag == MIN_WIDTH:
                    checks.append(("min_width", r, payload))
                elif tag == BOOL or (tag == FIXED
                                     and isinstance(payload, IntType)):
                    checks.append(("width", r, 1 if tag == BOOL
                                   else payload.width))
        for tag, a, b in system.resolved_binary():
            if tag in (SMALLER, SAME_WIDTH) and a in first and b in first:
                checks.append(("smaller" if tag == SMALLER else "same_width",
                               first[a], first[b]))
        steps.extend(dict.fromkeys(checks))  # width checks commute
        self._typing = checker
        # type class -> the bound name of its lowest matched register;
        # the width steps make every matched value of a class that wide
        self._typed = {}
        for _, name, cls in sorted(
                (names[v.name], v.name, class_of[id(v)]) for v in values
                if isinstance(v, _NAMED) and v.name in names):
            self._typed.setdefault(cls, name)

    def width_of(self, v: ast.Value):
        """Where a value of *v*'s type takes its width from: the bound
        name of a matched value of that type (the root's name in the
        root's type), else the width the typing fixes (``BOOL``, an
        ``iN`` annotation), else None."""
        least, most = self.width_range(v)
        return self._typed.get(self._class(v)) or (
            least if least == most else None)

    def _class(self, v: ast.Value) -> str:
        return self._typing.system.find(self._typing.tv(v))

    def width_range(self, v: ast.Value) -> Tuple[int, Optional[int]]:
        """The least and the greatest width (None: unbounded) that the
        typing lets a value of *v*'s type have; the width steps check
        both on every matched value."""
        least, most = 1, None
        for tag, payload in self._typing.system.unary.get(self._class(v), ()):
            if tag == BOOL or (tag == FIXED and isinstance(payload, IntType)):
                most = 1 if tag == BOOL else payload.width
                least = max(least, most)
            elif tag == MIN_WIDTH:
                least = max(least, payload)
        return least, most


#: each test step as the Python condition under which it fails
_PYTHON_TESTS = {
    "opcode": "not isinstance({r}, MInstr) or {r}.opcode != {2!r}",
    "cond": "{r}.cond != {2!r}",
    "flag": "{2!r} not in {r}.flags",
    "const": "not isinstance({r}, MConst)",
    "literal": "{r}.value != {2!r} & ((1 << {r}.width) - 1)",
    "same": "{r} is not {s} and not (isinstance({s}, MConst) and "
            "isinstance({r}, MConst) and {s}.width == {r}.width and "
            "{s}.value == {r}.value)",
    "width": "{r}.width != {2!r}",
    "min_width": "{r}.width < {2!r}",
    "same_width": "{r}.width != {s}.width",
    "smaller": "{r}.width >= {s}.width",
}


def _python(step: tuple, env: dict) -> str:
    """*step* as a line of the match function; a constant expression
    goes into the function's environment *env*."""
    kind = step[0]
    if kind == "fail":
        return "return None"
    r, s = "v%d" % step[1], "v%s" % step[2] if len(step) > 2 else None
    if kind == "load":
        return "%s = %s.operands[%d]" % (r, s, step[3])
    if kind == "constexpr":
        env["e%d" % step[1]] = step[2]
        test = "constexpr(e%d, %s, {%s}) != %s.value" % (
            step[1], r, ", ".join("%r: v%d" % b for b in step[3]), r)
    else:
        test = _PYTHON_TESTS[kind].format(*step, r=r, s=s)
    return "if %s:\n        return None" % test


class TemplateMatcher:
    """Matches one transformation's source template."""

    def __init__(self, transformation: ast.Transformation):
        self.t = transformation
        self.guard = template_guard(transformation.src[transformation.root])
        self.program = MatchProgram(transformation, self._atom)

    def match(self, inst: MInstr, analyses: Analyses) -> Optional[Match]:
        """Try to match the template rooted at *inst*."""
        return self.program.run(inst, analyses)

    # ------------------------------------------------------------------

    def _atom(self, atom: Predicate, bindings: Dict[str, MValue],
              analyses: Analyses) -> bool:
        if isinstance(atom, PredCmp):
            width = (self._width_of(atom.a, bindings)
                     or self._width_of(atom.b, bindings))
            if width is None:
                return False
            try:
                a = _eval_const(atom.a, width, bindings)
                b = _eval_const(atom.b, width, bindings)
            except _UnboundConstant:
                return False
            return compare(atom.op, a, b, width)
        return self._call_holds(atom, bindings, analyses)

    def _width_of(self, e: ast.Value, bindings: Dict[str, MValue]) -> Optional[int]:
        if isinstance(e, _NAMED):
            bound = bindings.get(e.name)
            return bound.width if bound is not None else None
        if isinstance(e, ConstExpr):
            for a in e.args:
                w = self._width_of(a, bindings)
                if w is not None:
                    return w
        return None

    def _call_holds(self, call: PredCall, bindings: Dict[str, MValue],
                    analyses: Analyses) -> bool:
        fn = call.fn
        args = [bindings.get(a.name) if isinstance(a, _NAMED) else None
                for a in call.args]
        if any(v is None for v in args):
            # a constant expression or literal argument is the constant
            # it evaluates to, at the width another argument fixes
            width = next(filter(None, (self._width_of(a, bindings)
                                       for a in call.args)), None)
            for i, a in enumerate(call.args):
                if width is None or not isinstance(a, (ConstExpr, ast.Literal)):
                    continue
                try:
                    args[i] = MConst(_eval_const(a, width, bindings),
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
                mask = _eval_const(call.args[1], v.width, bindings)
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


def _eval_const(e: ast.Value, width: int, bindings: Dict[str, MValue]) -> int:
    return eval_constexpr(e, width, lambda sym: _resolve_const(bindings, sym))


def _constexpr(e: ConstExpr, value: MConst,
               bindings: Dict[str, MValue]) -> Optional[int]:
    """*e* at *value*'s width; None if it reads an unbound constant."""
    try:
        return _eval_const(e, value.width, bindings)
    except _UnboundConstant:
        return None
