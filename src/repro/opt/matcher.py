"""Pattern matching of Alive source templates against concrete IR.

This is the Python analogue of the C++ that Alive generates (paper §4,
Figure 7): each source template is compiled once into a
:class:`MatchProgram`, straight-line checks that match a DAG of
instructions, bind inputs and constants, test widths and then decide
the precondition, run as one generated Python function.  This lets the
reproduction run the "LLVM+Alive" experiments of §6.4 without an LLVM
checkout.

The precondition is compiled with the rest, and decided once: each
atom becomes a comparison of two constant expressions, a built-in over
constants, one :class:`~repro.opt.analysis.Analyses` query, a
built-in on an input that may bind a constant (the constant test, then
the built-in, else the query or false), or a constant truth value;
``&&``/``||``/``!`` stay over the atoms.  That tree, ``pre``, is the
one decision both printers print: here as Python (``and``/``or``/
``not``) and in :mod:`repro.codegen.cpp` as C++.  An atom's width is
that of its type class, read off a matched value of the class; a
constant expression is flat arithmetic over the matched constants, one
:func:`repro.ir.constexpr.apply_op` call per node; ``width(%x)`` is
the width of the value bound to ``%x``.  Comparisons and built-ins
over constants run the one concrete semantics of
:mod:`repro.ir.precond` (the same that the fuzzer checks against the
verifier's symbolic conditions).

Before any of that, a :class:`Guard` switches on the root and operand
opcodes: read by :func:`template_guard` from the same per-pattern cases
as the program, it decides on an instruction's :func:`instruction_key`
alone and is never stricter than the program, so
:class:`~repro.opt.pass_manager.PeepholePass` skips every rule whose
guard rejects the key.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..core.typecheck import TypeChecker
from ..ir import ast
from ..ir.constexpr import ConstExpr, apply_op, is_constant_value
from ..ir.module import MConst, MInstr, MValue
from ..ir.precond import (
    PredAnd, PredCall, PredCmp, PredNot, PredOr, Predicate, PredTrue,
    builtin_holds, compare,
)
from ..typing.constraints import BOOL, FIXED, MIN_WIDTH, SAME_WIDTH, SMALLER
from ..typing.types import IntType
from .analysis import Analyses


class RewriteError(ast.AliveError):
    """A rule that cannot be compiled into a match program and a target
    program: the rule is rejected before it can match."""


class Match:
    """A successful match: bindings from template values to IR values."""

    def __init__(self, root: MInstr, bindings: Dict[str, MValue]):
        self.root = root
        self.bindings = bindings  # template value name -> MValue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Match(%s, %d bindings)" % (self.root.name, len(self.bindings))


#: the :class:`Analyses` method answering a built-in; the built-ins
#: not named here are false when an argument is not a constant
_ANALYSIS_QUERIES = {
    "isPowerOf2": "is_power_of_2",
    "isPowerOf2OrZero": "is_power_of_2",
    "WillNotOverflowSignedAdd": "will_not_overflow_signed_add",
    "hasOneUse": "has_one_use",
    "MaskedValueIsZero": "masked_value_is_zero",
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
    if trivially true) over ``bindings`` (name -> register), the tree
    of atoms :meth:`_decide` gives.  ``source`` is the Python the program prints as,
    ``run`` its function.  A precondition that reads a name the program
    does not bind raises :class:`RewriteError`.
    """

    def __init__(self, t: ast.Transformation):
        self.steps = []
        self.bindings: Dict[str, int] = {}
        self._name = t.name
        self._compile(t)
        self.pre = None if isinstance(t.pre, PredTrue) \
            else self._decide(t.pre)
        self._widths = set()  # registers whose width locals are defined
        lines = ["def match(v0, analyses):"]
        for step in self.steps:
            lines += self._python(step)
        if self.pre is not None:
            widths = set()
            test = self._pred(self.pre, widths)
            lines += self._define_widths(widths)
            lines.append("    if not (%s):\n        return None" % test)
        lines.append("    return Match(v0, {%s})\n" % ", ".join(
            "%r: v%d" % item for item in self.bindings.items()))
        self.source = "\n".join(lines)
        env = {"MInstr": MInstr, "MConst": MConst, "Match": Match,
               "apply_op": apply_op, "builtin_holds": builtin_holds,
               "compare": compare}
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

    # ------------------------------------------------------------------
    # printing the program as Python

    def _python(self, step: tuple) -> List[str]:
        """*step* as lines of the match function."""
        kind = step[0]
        if kind == "fail":
            return ["    return None"]
        r, s = "v%d" % step[1], "v%s" % step[2] if len(step) > 2 else None
        if kind == "load":
            return ["    %s = %s.operands[%d]" % (r, s, step[3])]
        lines = []
        if kind == "constexpr":
            # at the matched constant's width, over the names bound so
            # far; one that reads a name bound only later never matches
            if not reads(step[2]) <= {name for name, _ in step[3]}:
                return ["    return None"]
            lines += self._define_widths({step[1]})
            width = ("w%d" % step[1], "m%d" % step[1])
            test = "%s != %s.value" % (
                self._const(step[2], width, dict(step[3])), r)
        else:
            test = _PYTHON_TESTS[kind].format(*step, r=r, s=s)
        return lines + ["    if %s:\n        return None" % test]

    def _define_widths(self, registers) -> List[str]:
        """Lines that define ``w<r>`` and ``m<r>``, the width and the
        mask of each register *r* not defined yet."""
        lines = []
        for r in sorted(set(registers) - self._widths):
            lines += ["    w%d = v%d.width" % (r, r),
                      "    m%d = (1 << w%d) - 1" % (r, r)]
        self._widths.update(registers)
        return lines

    def _fail(self, what: str) -> RewriteError:
        return RewriteError("%s: cannot match %s" % (self._name, what))

    def _register(self, name: str, bound: Dict[str, int]) -> int:
        if name not in bound:
            raise self._fail("%s, it is not bound where it is read" % name)
        return bound[name]

    def _width(self, v: ast.Value, widths: Set[int]):
        """The width and the mask of *v*'s type class as Python: a
        literal, or ``w<r>``/``m<r>`` of the register that
        :meth:`width_of` names, which is added to *widths*; None if
        neither a matched value nor the typing gives the width."""
        source = self.width_of(v)
        if source is None:
            return None
        if isinstance(source, int):
            return "%d" % source, "%d" % ((1 << source) - 1)
        r = self.bindings[source]
        widths.add(r)
        return "w%d" % r, "m%d" % r

    def _const(self, e: ast.Value, width: Tuple[str, str],
               bound: Dict[str, int]) -> str:
        """The constant expression *e* as a Python expression over the
        registers of *bound*, at *width* (a width and a mask)."""
        w, m = width
        if isinstance(e, ast.Literal):
            if m.isdigit():
                return "%d" % (e.value & int(m))
            return "(%d & %s)" % (e.value, m)
        if isinstance(e, ast.ConstantSymbol):
            return "(v%d.value & %s)" % (self._register(e.name, bound), m)
        if isinstance(e, ConstExpr) and e.op == "width":
            x = e.args[0]
            if not isinstance(x, _NAMED):
                raise self._fail("%s, not the width of a value" % e.name)
            return "(v%d.width & %s)" % (self._register(x.name, bound), m)
        if isinstance(e, ConstExpr):
            return "apply_op(%r, %s, %s)" % (e.op, _tuple(
                self._const(a, width, bound) for a in e.args), w)
        raise self._fail("%s, not a constant expression" % e.name)

    # ------------------------------------------------------------------
    # deciding the precondition

    def _decide(self, p: Predicate) -> tuple:
        """The precondition *p* as the tree of atoms the printers print:
        ``("not", q)``, ``("and", qs)`` and ``("or", qs)`` over
        ``("cmp", op, a, b)``, ``("holds", fn, args)`` (a built-in over
        constants), ``("query", fn, args)`` (one :class:`Analyses`
        query), ``("const", inputs)`` (each input binds a constant),
        ``("if", test, then, else)`` and ``("bool", value)``."""
        if isinstance(p, PredTrue):
            return _TRUE
        if isinstance(p, PredNot):
            return "not", self._decide(p.p)
        if isinstance(p, (PredAnd, PredOr)):
            return ("and" if isinstance(p, PredAnd) else "or",
                    tuple(self._decide(q) for q in p.ps))
        if isinstance(p, PredCmp):
            for e in (p.a, p.b):
                self._const(e, _NO_WIDTH, self.bindings)  # names bound?
            if self.width_of(p.a) is None:
                return _FALSE
            return "cmp", p.op, p.a, p.b
        return self._call(p)

    def _call(self, call: PredCall) -> tuple:
        """A built-in: over constants when every argument is one, else
        one :class:`Analyses` query or false; over an input, which can
        bind a constant or not, the test decides between the two."""
        fn, args = call.fn, call.args
        first = args[0]
        for a in args:
            if isinstance(a, _NAMED):
                self._register(a.name, self.bindings)
            elif is_constant_value(a):
                self._const(a, _NO_WIDTH, self.bindings)
        # a constant expression has a value only at a known width
        valueless = [not isinstance(a, _NAMED) and (
            not is_constant_value(a) or self.width_of(a) is None)
            for a in args]
        if fn == "hasOneUse":
            return ("query", fn, args) if isinstance(first, _NAMED) \
                else _FALSE
        if fn == "isConstant":
            if isinstance(first, ast.Input):
                return "const", (first,)
            return _FALSE if valueless[0] or isinstance(
                first, ast.Instruction) else _TRUE
        if fn == "MaskedValueIsZero":
            return _FALSE if valueless[0] or not is_constant_value(
                args[1]) else ("query", fn, args)
        query = ("query", fn, args) \
            if fn in _ANALYSIS_QUERIES and not any(valueless) else _FALSE
        if any(valueless) or any(isinstance(a, ast.Instruction)
                                 for a in args):
            return query
        inputs = tuple(a for a in args if isinstance(a, ast.Input))
        if not inputs:
            return "holds", fn, args
        return "if", ("const", inputs), ("holds", fn, args), query

    # ------------------------------------------------------------------
    # printing the precondition as Python

    def _pred(self, p: tuple, widths: Set[int]) -> str:
        """The decided precondition *p* as a Python expression, one atom
        a line.  An atom is two-valued here, so the connectives are
        Python's."""
        kind = p[0]
        if kind == "bool":
            return repr(p[1])
        if kind == "not":
            return "not %s" % self._pred(p[1], widths)
        if kind in ("and", "or"):
            glue = "\n            %s " % kind
            return "(%s)" % glue.join(self._pred(q, widths) for q in p[1])
        if kind == "if":
            return "(%s if %s else %s)" % (self._pred(p[2], widths),
                                           self._pred(p[1], widths),
                                           self._pred(p[3], widths))
        if kind == "const":
            return " and ".join("isinstance(%s, MConst)"
                                % self._value(a, widths) for a in p[1])
        if kind == "cmp":
            _, op, a, b = p
            width = self._width(a, widths)
            return "compare(%r, %s, %s, %s)" % (
                op, self._const(a, width, self.bindings),
                self._const(b, width, self.bindings), width[0])
        _, fn, args = p
        first = args[0]
        if kind == "holds":
            width = "%s.width" % self._value(first, widths) \
                if isinstance(first, _NAMED) else self._width(first,
                                                               widths)[0]
            return "builtin_holds(%r, %s, %s)" % (fn, _tuple(
                self._value(a, widths) + ".value" if isinstance(a, _NAMED)
                else self._const(a, self._width(a, widths), self.bindings)
                for a in args), width)
        values = [self._value(a, widths) for a in args] \
            if fn != "MaskedValueIsZero" else [  # the mask at x's width
                self._value(first, widths), self._const(
                    args[1], self._width(first, widths), self.bindings)]
        return "analyses.%s(%s)" % (_ANALYSIS_QUERIES[fn],
                                    ", ".join(values))

    def _value(self, a: ast.Value, widths: Set[int]) -> str:
        """The argument *a* of a built-in as a Python MValue: the value
        bound to a name, else the constant *a* evaluates to."""
        if isinstance(a, _NAMED):
            return "v%d" % self.bindings[a.name]
        width = self._width(a, widths)
        return "MConst(%s, %s)" % (self._const(a, width, self.bindings),
                                   width[0])


def reads(e: ast.Value) -> Set[str]:
    """The names a constant expression reads, ``width`` arguments too."""
    if isinstance(e, ConstExpr):
        return set().union(*map(reads, e.args))
    return {e.name} if isinstance(e, _NAMED) else set()


#: the width a constant expression is compiled at only to check the
#: names it reads, where its type has no width
_NO_WIDTH = ("0", "0")

#: the atoms of a precondition decided before any value is matched
_TRUE, _FALSE = ("bool", True), ("bool", False)


def _tuple(items: Iterable[str]) -> str:
    items = list(items)
    return "(%s)" % (items[0] + "," if len(items) == 1 else ", ".join(items))


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


class TemplateMatcher:
    """Matches one transformation's source template."""

    def __init__(self, transformation: ast.Transformation):
        self.t = transformation
        self.guard = template_guard(transformation.src[transformation.root])
        self.program = MatchProgram(transformation)

    def match(self, inst: MInstr, analyses: Analyses) -> Optional[Match]:
        """Try to match the template rooted at *inst*."""
        return self.program.run(inst, analyses)
