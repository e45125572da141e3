"""C++ code generation (paper §4, Figure 7).

Turns a (verified) Alive transformation into C++ that uses LLVM's
pattern-matching library, in the exact shape of Figure 7:

* declarations for the bound values and constants;
* an if-condition of ``match(...)`` clauses — one per source
  instruction, root first, operands recursively — plus the width
  guards well-formed IR does not imply and the precondition;
* a body that computes new ``APInt`` constants, creates the target
  instructions, and calls ``replaceAllUsesWith`` on the root.

The source side is printed from the rule's
:class:`~repro.opt.matcher.MatchProgram` and the body from its
:class:`~repro.opt.rewriter.TargetProgram`: the same steps that the
executable analogue, :mod:`repro.opt`, runs in Python, so a rule is
matched and rewritten by one definition in both.  The precondition is
the match program's decided atoms printed as C++: whether an atom
tests a constant, asks an analysis or is false is decided there.
Every type handle (a ``getType()`` or a bit width) is a matched value
of the right type class, as
:meth:`~repro.opt.matcher.MatchProgram.width_of` names it.
The output is textual C++ (there is no LLVM to link against);
structural fidelity to Figure 7 is covered by the test suite.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, List, Sequence, Set

from ..ir import ast
from ..ir.constexpr import ConstExpr
from ..ir.precond import CMP_TO_ICMP
from ..opt.matcher import RewriteError, TemplateMatcher, reads
from ..opt.rewriter import TargetProgram

_MATCHERS = {
    "add": "m_Add",
    "sub": "m_Sub",
    "mul": "m_Mul",
    "udiv": "m_UDiv",
    "sdiv": "m_SDiv",
    "urem": "m_URem",
    "srem": "m_SRem",
    "shl": "m_Shl",
    "lshr": "m_LShr",
    "ashr": "m_AShr",
    "and": "m_And",
    "or": "m_Or",
    "xor": "m_Xor",
    "zext": "m_ZExt",
    "sext": "m_SExt",
    "trunc": "m_Trunc",
    "select": "m_Select",
    "icmp": "m_ICmp",
}

_CREATORS = {
    "add": "CreateAdd",
    "sub": "CreateSub",
    "mul": "CreateMul",
    "udiv": "CreateUDiv",
    "sdiv": "CreateSDiv",
    "urem": "CreateURem",
    "srem": "CreateSRem",
    "shl": "CreateShl",
    "lshr": "CreateLShr",
    "ashr": "CreateAShr",
    "and": "CreateAnd",
    "or": "CreateOr",
    "xor": "CreateXor",
}

_CASTS = {"zext": "ZExt", "sext": "SExt", "trunc": "Trunc"}

#: the statement that creates target instruction {0} over the operands
#: {1}; {2} is a cast's type and {3} an icmp's predicate
_CREATE = {
    "icmp": "ICmpInst *{0} = new ICmpInst(I, {3}, {1});",
    "select": 'SelectInst *{0} = SelectInst::Create({1}, "", I);',
    **{opcode: 'BinaryOperator *{0} = BinaryOperator::%s({1}, "", I);'
       % creator for opcode, creator in _CREATORS.items()},
    **{opcode: 'CastInst *{0} = CastInst::Create(Instruction::%s, {1}, {2}, '
       '"", I);' % cast for opcode, cast in _CASTS.items()},
}

_FLAG_SETTERS = (("nsw", "setHasNoSignedWrap"),
                 ("nuw", "setHasNoUnsignedWrap"), ("exact", "setIsExact"))

_ICMP_PRED = {
    "eq": "ICmpInst::ICMP_EQ", "ne": "ICmpInst::ICMP_NE",
    "ugt": "ICmpInst::ICMP_UGT", "uge": "ICmpInst::ICMP_UGE",
    "ult": "ICmpInst::ICMP_ULT", "ule": "ICmpInst::ICMP_ULE",
    "sgt": "ICmpInst::ICMP_SGT", "sge": "ICmpInst::ICMP_SGE",
    "slt": "ICmpInst::ICMP_SLT", "sle": "ICmpInst::ICMP_SLE",
}

_APINT_BINOP = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
}
_APINT_METHOD = {
    "sdiv": "sdiv", "udiv": "udiv", "srem": "srem", "urem": "urem",
    "shl": "shl", "lshr": "lshr", "ashr": "ashr",
}


#: a built-in over a constant, on its APInt {0}
_APINT_TESTS = {
    "isPowerOf2": "{0}.isPowerOf2()",
    "isPowerOf2OrZero": "(!{0} || {0}.isPowerOf2())",
    "isSignBit": "{0}.isSignBit()",
    "isShiftedMask": "{0}.isShiftedMask()",
}

#: the LLVM analysis answering a built-in's query on the value {0};
#: {1} is a mask's APInt
_QUERIES = {
    "isPowerOf2": "isKnownToBeAPowerOfTwo({0})",
    "isPowerOf2OrZero": "isKnownToBeAPowerOfTwo({0}, /*OrZero=*/true)",
    "hasOneUse": "{0}->hasOneUse()",
    "MaskedValueIsZero": "MaskedValueIsZero({0}, {1})",
}

_LITERAL_MATCHERS = {0: "m_Zero()", 1: "m_One()", -1: "m_AllOnes()"}

_FLAG_CHECKS = {
    "nsw": "cast<OverflowingBinaryOperator>(%s)->hasNoSignedWrap()",
    "nuw": "cast<OverflowingBinaryOperator>(%s)->hasNoUnsignedWrap()",
    "exact": "cast<PossiblyExactOperator>(%s)->isExact()",
}


class CodegenError(ast.AliveError):
    """The transformation uses features the C++ backend cannot emit."""


def _ident(name: str) -> str:
    """Sanitize a template name into a C++ identifier."""
    out = re.sub(r"[^A-Za-z0-9_]", "_", name.lstrip("%"))
    if not out or out[0].isdigit():
        out = "v" + out
    return out


def _bits(value: str) -> str:
    """The bit width of the C++ value *value*; ``width`` is I's."""
    if value == "I":
        return "width"
    return "%s->getType()->getIntegerBitWidth()" % value


class CppGenerator:
    """Generates the Figure 7-style C++ for one transformation.

    Constants, APInt literals and cast destinations take the type of
    the matched value that the match program names for their type
    class.
    """

    def __init__(self, t: ast.Transformation):
        self.t = t
        try:
            self.program = TemplateMatcher(t).program
            self.target = TargetProgram(t, self.program)
        except RewriteError as e:
            raise CodegenError(str(e)) from e
        self.value_decls: Set[str] = set()
        self.const_decls: Set[str] = set()
        self.predicates: List[str] = []
        self.clauses: List[str] = []
        self.body: List[str] = []

    def _handle(self, name) -> str:
        """The C++ value bound to the template name *name*; a width
        source that is a fixed width names no C++ value."""
        if not isinstance(name, str):
            raise CodegenError("%s: no matched value has a type of width %s"
                               % (self.t.name, name))
        return "I" if name == self.t.root else _ident(name)

    def _bits_of(self, v: ast.Value) -> str:
        """The bit width of *v*'s type, read off a matched value."""
        return _bits(self._handle(self.program.width_of(v)))

    # ------------------------------------------------------------------
    # Source side: the match program
    # ------------------------------------------------------------------

    def _print_program(self) -> None:
        """Print the program's structural steps as ``match`` clauses,
        then its width steps and constant expressions."""
        steps = self.program.steps

        def each(*kinds):
            return [step for step in steps if step[0] in kinds]

        opcodes = {step[1]: step[2] for step in each("opcode")}
        if each("fail") or 0 not in opcodes:
            raise CodegenError(
                "%s: no C++ matcher for a memory, floating-point, undef or "
                "non-integer conversion pattern" % self.t.name)
        conds = {step[1]: step[2] for step in each("cond")}
        values = {step[1]: step for step in each("literal", "constexpr")}
        consts = {step[1] for step in each("const")}
        operands: Dict[int, List[int]] = {}
        for _, r, s, _ in each("load"):
            operands.setdefault(s, []).append(r)
        names = {r: name for name, r in self.program.bindings.items()}
        names.update((r, names[s]) for _, r, s in each("same"))

        # a name is bound by its first occurrence in clause order, which
        # is not the program's depth-first order
        handles = {r: self._handle(name) for r, name in names.items()}
        bound = {self.t.root}
        expressions = []  # (register, constant expression, names bound)
        queue = deque([0])

        def operand(r: int) -> str:
            name = names.get(r)
            if name is None and values[r][0] == "literal":
                return _LITERAL_MATCHERS.get(values[r][2],
                                             "m_SpecificInt(%d)" % values[r][2])
            if name is None:
                handles[r] = "CE%d" % (len(expressions) + 1)
                expressions.append(values[r][1:])
            elif name in bound:
                return "m_Specific(%s)" % handles[r]
            else:
                bound.add(name)
                if r in opcodes:
                    queue.append(r)
            (self.const_decls if r in consts else self.value_decls).add(
                handles[r])
            return ("m_ConstantInt(%s)" if r in consts
                    else "m_Value(%s)") % handles[r]

        while queue:
            r = queue.popleft()
            args = [operand(o) for o in operands[r]]
            tests = [_FLAG_CHECKS[flag] % handles[r]
                     for _, q, flag in each("flag") if q == r]
            if r in conds:  # m_ICmp binds the predicate, a test compares it
                self.predicates.append("P%d" % len(self.predicates))
                args.insert(0, self.predicates[-1])
                tests.insert(0, "%s == %s" % (self.predicates[-1],
                                              _ICMP_PRED[conds[r]]))
            self.clauses.append("match(%s, %s(%s))" % (
                handles[r], _MATCHERS[opcodes[r]], ", ".join(args)))
            self.clauses += tests

        self._print_widths(each("width", "min_width", "same_width",
                                "smaller"), opcodes, operands, names, handles)
        for r, e, bound_names in expressions:
            unbound = reads(e) - {name for name, _ in bound_names}
            if unbound:
                raise CodegenError(
                    "%s: source constant %s reads %s before any pattern "
                    "binds it" % (self.t.name, e.name,
                                  ", ".join(sorted(unbound))))
            self.clauses.append("%s->getValue() == %s"
                                % (handles[r], self._apint_expr(e)))

    def _print_widths(self, widths, opcodes, operands, names,
                      handles) -> None:
        """Print each width step that neither LLVM's typing of the
        matched instructions nor an earlier guard implies."""
        parent: Dict[int, int] = {}

        def find(r: int) -> int:
            while r in parent:
                r = parent[r]
            return r

        def union(a: int, b: int) -> None:
            if find(a) != find(b):
                parent[find(a)] = find(b)

        facts = []  # width steps that hold
        for r, ops in operands.items():
            opcode = opcodes[r]
            if opcode in ("zext", "sext", "trunc"):
                facts.append(("smaller", r, ops[0]) if opcode == "trunc"
                             else ("smaller", ops[0], r))
                continue
            if opcode in ("icmp", "select"):
                facts.append(("width", r if opcode == "icmp" else ops[0], 1))
            tied = ops if opcode == "icmp" else [r] + ops[opcode == "select":]
            for o in tied[1:]:
                union(tied[0], o)
        for r, name in names.items():
            union(r, self.program.bindings[name])

        def holds(kind: str, r: int, x: int) -> bool:
            if kind == "same_width":
                return find(r) == find(x)
            if kind == "smaller":
                return any(k == kind and find(a) == find(r)
                           and find(b) == find(x) for k, a, b in facts)
            known = [(k, w) for k, a, w in facts
                     if k != "smaller" and find(a) == find(r)]
            if kind == "width":
                return ("width", x) in known
            return x <= max((w for _, w in known), default=1)

        def handle(r: int) -> str:
            for q in [r] + sorted(handles):
                if q in handles and find(q) == find(r):
                    return handles[q]
            raise CodegenError("%s: a width check reads a value the C++ "
                               "does not bind" % self.t.name)

        for kind, r, x in widths:
            if holds(kind, r, x):
                continue
            a = handle(r)
            if kind == "same_width":
                union(r, x)
                guard = "%s->getType() == %s->getType()" % (a, handle(x))
            else:
                facts.append((kind, r, x))
                if kind == "width":
                    guard = "%s->getType()->isIntegerTy(%d)" % (a, x)
                elif kind == "min_width":
                    guard = "%s >= %d" % (_bits(a), x)
                else:
                    guard = "%s < %s" % (_bits(a), _bits(handle(x)))
            self.clauses.append(guard)

    # ------------------------------------------------------------------
    # Precondition
    # ------------------------------------------------------------------

    def _apint_expr(self, v: ast.Value) -> str:
        """An APInt-valued C++ expression for a constant expression."""
        if isinstance(v, ast.ConstantSymbol):
            return "%s->getValue()" % _ident(v.name)
        if isinstance(v, ast.Literal):
            return "APInt(%s, %d)" % (self._bits_of(v), v.value)
        if isinstance(v, ConstExpr):
            if v.op == "neg":
                return "(-%s)" % self._apint_expr(v.args[0])
            if v.op == "not":
                return "(~%s)" % self._apint_expr(v.args[0])
            if v.op in _APINT_BINOP:
                return "(%s %s %s)" % (
                    self._apint_expr(v.args[0]),
                    _APINT_BINOP[v.op],
                    self._apint_expr(v.args[1]),
                )
            if v.op in _APINT_METHOD:
                return "%s.%s(%s)" % (
                    self._apint_expr(v.args[0]),
                    _APINT_METHOD[v.op],
                    self._apint_expr(v.args[1]),
                )
            if v.op == "log2":
                return "APInt(%s, %s.logBase2())" % (
                    self._bits_of(v), self._apint_expr(v.args[0]))
            if v.op == "abs":
                return "%s.abs()" % self._apint_expr(v.args[0])
            if v.op == "width":
                return "APInt(%s, %s)" % (self._bits_of(v),
                                          self._bits_of(v.args[0]))
            if v.op in ("umax", "umin", "smax", "smin"):
                return "APIntOps::%s(%s, %s)" % (
                    v.op,
                    self._apint_expr(v.args[0]),
                    self._apint_expr(v.args[1]),
                )
        raise CodegenError("cannot emit APInt expression for %r" % (v,))

    def _pre(self, p: tuple) -> str:
        """The match program's decided precondition *p* as a C++
        condition, atom by atom (see :meth:`MatchProgram._decide
        <repro.opt.matcher.MatchProgram._decide>`)."""
        kind = p[0]
        if kind == "bool":
            return "true" if p[1] else "false"
        if kind == "not":
            return "!(%s)" % self._pre(p[1])
        if kind == "and":
            return " && ".join(self._pre(q) for q in p[1])
        if kind == "or":
            return "(%s)" % " || ".join(self._pre(q) for q in p[1])
        if kind == "if":
            return "(%s ? %s : %s)" % tuple(self._pre(q) for q in p[1:])
        if kind == "const":
            return " && ".join("isa<ConstantInt>(%s)" % self._value(a)
                               for a in p[1])
        if kind == "cmp":
            _, op, a, b = p
            a, b = self._apint_expr(a), self._apint_expr(b)
            if op in ("==", "!="):
                return "%s %s %s" % (a, op, b)
            return "%s.%s(%s)" % (a, CMP_TO_ICMP[op], b)
        _, fn, args = p
        if fn.startswith("WillNotOverflow"):  # precise on constants
            return "%s(%s, I)" % (fn, ", ".join(map(self._value, args)))
        if kind == "holds":
            a = args[0]
            return _APINT_TESTS[fn].format(
                "cast<ConstantInt>(%s)->getValue()" % self._value(a)
                if isinstance(a, ast.Input) else self._apint_expr(a))
        return _QUERIES[fn].format(self._value(args[0]),
                                   *map(self._apint_expr, args[1:]))

    def _value(self, v: ast.Value) -> str:
        """The C++ value a built-in reads for its argument *v*."""
        if not isinstance(v, (ast.Input, ast.ConstantSymbol,
                              ast.Instruction)):
            raise CodegenError("%s: no C++ value for %s in the "
                               "precondition" % (self.t.name, v.name))
        return self._handle(v.name)

    # ------------------------------------------------------------------
    # Target side: the target program
    # ------------------------------------------------------------------

    def _print_target(self) -> None:
        """Print each step of the target program as the C++ value it
        builds, its statements going into the body."""
        values: List[str] = []
        constants = 0
        for step in self.target.steps:
            if step[0] == "name":
                values.append(self._handle(step[1]))
                continue
            kind, width, what = step[:3]
            if kind == "const" or what in _CASTS:
                ty = "%s->getType()" % self._handle(width)
            if isinstance(what, ast.Literal):
                values.append("ConstantInt::get(%s, %d)" % (ty, what.value))
            elif kind == "const":
                constants += 1
                self.body += [
                    "APInt C%d_val = %s;"
                    % (constants, self._apint_expr(what)),
                    "Constant *NC%d = ConstantInt::get(%s, C%d_val);"
                    % (constants, ty, constants)]
                values.append("NC%d" % constants)
            else:
                _, _, _, operands, flags, cond, name = step
                new = _ident(name) + "_new"
                self.body.append(_CREATE[what].format(
                    new, ", ".join(values[o] for o in operands),
                    what in _CASTS and ty, _ICMP_PRED.get(cond)))
                self.body += ["%s->%s(true);" % (new, setter)
                              for flag, setter in _FLAG_SETTERS
                              if flag in flags]
                values.append(new)
        self.body.append("I->replaceAllUsesWith(%s);"
                         % values[self.target.root])

    # ------------------------------------------------------------------

    def generate(self) -> str:
        self._print_program()
        if self.program.pre is not None:
            self.clauses.append(self._pre(self.program.pre))
        self._print_target()

        lines = ["// %s" % self.t.name, "{"]
        if self.value_decls:
            lines.append("  Value *%s;" % ", *".join(sorted(self.value_decls)))
        if self.const_decls:
            lines.append(
                "  ConstantInt *%s;" % ", *".join(sorted(self.const_decls))
            )
        if self.predicates:
            lines.append("  ICmpInst::Predicate %s;"
                         % ", ".join(self.predicates))
        lines.append("  unsigned width = I->getType()->getIntegerBitWidth();")
        lines.append("  (void)width;")
        cond = " &&\n      ".join(self.clauses)
        lines.append("  if (%s) {" % cond)
        for stmt in self.body:
            lines.append("    " + stmt)
        lines.append("    return true;")
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines)


def generate_cpp(t: ast.Transformation) -> str:
    """Figure 7-style C++ for one transformation."""
    return CppGenerator(t).generate()


_FILE_HEADER = """\
//===- AliveGenerated.cpp - peephole optimizations generated by Alive ----===//
//
// This file was generated from verified Alive transformations.
// Each block matches one source template and rewrites it to the target.
// Dead instructions are left for a later DCE pass (see the paper, §4).
//
//===----------------------------------------------------------------------===//

#include "llvm/ADT/APInt.h"
#include "llvm/IR/Constants.h"
#include "llvm/IR/InstrTypes.h"
#include "llvm/IR/Instructions.h"
#include "llvm/IR/PatternMatch.h"

using namespace llvm;
using namespace llvm::PatternMatch;

// Returns true when a rewrite fired on I.
static bool runAliveOptimizations(Instruction *I) {
"""

_FILE_FOOTER = """\
  return false;
}
"""


def generate_pass(transformations: Sequence[ast.Transformation],
                  skip_unsupported: bool = True) -> str:
    """A complete C++ translation unit for a set of transformations."""
    blocks = []
    for t in transformations:
        try:
            blocks.append(_indent(generate_cpp(t), "  "))
        except CodegenError:
            if not skip_unsupported:
                raise
    return _FILE_HEADER + "\n\n".join(blocks) + "\n" + _FILE_FOOTER


def _indent(text: str, prefix: str) -> str:
    return "\n".join(prefix + line if line else line for line in text.splitlines())
