"""C++ code generation (paper §4, Figure 7).

Turns a (verified) Alive transformation into C++ that uses LLVM's
pattern-matching library, in the exact shape of Figure 7:

* declarations for the bound values and constants;
* an if-condition of ``match(...)`` clauses — one per source
  instruction, root first, operands recursively — plus the width
  guards well-formed IR does not imply and the translated
  precondition;
* a body that computes new ``APInt`` constants, creates the target
  instructions, and calls ``replaceAllUsesWith`` on the root.

The source side is printed from the rule's
:class:`~repro.opt.matcher.MatchProgram`, the same checks that the
executable analogue, :mod:`repro.opt`, runs in Python.  The output is
textual C++ (there is no LLVM to link against); structural fidelity to
Figure 7 is covered by the test suite.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, List, Optional, Sequence, Set

from ..core.typecheck import TypeChecker
from ..ir import ast
from ..ir.constexpr import ConstExpr
from ..ir.precond import (
    PredAnd,
    PredCall,
    PredCmp,
    PredNot,
    PredOr,
    PredTrue,
    Predicate,
)
from ..opt.matcher import TemplateMatcher

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


def _symbols(e: ast.Value) -> Set[str]:
    """The names a constant expression reads, ``width`` arguments too."""
    if isinstance(e, ConstExpr):
        return set().union(*map(_symbols, e.args))
    named = (ast.Input, ast.ConstantSymbol, ast.Instruction)
    return {e.name} if isinstance(e, named) else set()


class CppGenerator:
    """Generates the Figure 7-style C++ for one transformation.

    Constants, APInt literals and cast destinations take the type of
    the first matched value in their type class.
    """

    def __init__(self, t: ast.Transformation):
        self.t = t
        self.program = TemplateMatcher(t).program
        self._checker = TypeChecker()
        self._checker.check_transformation(t)
        self._sources = {v.name: v for v in t.source_values()}
        self.value_decls: Set[str] = set()
        self.const_decls: Set[str] = set()
        self.clauses: List[str] = []
        self.body: List[str] = []
        self._new_const_count = 0
        # type class -> the first matched C++ value of that type
        self._class_handles: Dict[str, str] = {}

    def _class(self, v: ast.Value) -> str:
        return self._checker.system.find(self._checker.tv(v))

    def _typed(self, v: ast.Value) -> str:
        """A matched C++ value with the type of *v*."""
        handle = self._class_handles.get(self._class(v))
        if handle is None:
            raise CodegenError("%s: no matched value has the type of %s"
                               % (self.t.name, v.name))
        return handle

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
        handles = {r: "I" if name == self.t.root else _ident(name)
                   for r, name in names.items()}
        bound = {self.t.root}
        self._class_handles[self._class(self._sources[self.t.root])] = "I"
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
                value = values[r][2]
            elif name in bound:
                return "m_Specific(%s)" % handles[r]
            else:
                bound.add(name)
                value = self._sources[name]
                if r in opcodes:
                    queue.append(r)
            (self.const_decls if r in consts else self.value_decls).add(
                handles[r])
            self._class_handles.setdefault(self._class(value), handles[r])
            return ("m_ConstantInt(%s)" if r in consts
                    else "m_Value(%s)") % handles[r]

        while queue:
            r = queue.popleft()
            args = [operand(o) for o in operands[r]]
            if opcodes[r] == "icmp":
                args.insert(0, _ICMP_PRED[conds[r]])
            self.clauses.append("match(%s, %s(%s))" % (
                handles[r], _MATCHERS[opcodes[r]], ", ".join(args)))
            self.clauses += [_FLAG_CHECKS[flag] % handles[r]
                             for _, q, flag in each("flag") if q == r]

        self._print_widths(each("width", "min_width", "same_width",
                                "smaller"), opcodes, operands, names, handles)
        for r, e, reads in expressions:
            unbound = _symbols(e) - {name for name, _ in reads}
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
            return "APInt(%s, %d)" % (_bits(self._typed(v)), v.value)
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
                    _bits(self._typed(v)), self._apint_expr(v.args[0]))
            if v.op == "abs":
                return "%s.abs()" % self._apint_expr(v.args[0])
            if v.op == "width":
                return "APInt(%s, %s)" % (_bits(self._typed(v)),
                                          _bits(self._typed(v.args[0])))
            if v.op in ("umax", "umin", "smax", "smin"):
                return "APIntOps::%s(%s, %s)" % (
                    v.op,
                    self._apint_expr(v.args[0]),
                    self._apint_expr(v.args[1]),
                )
        raise CodegenError("cannot emit APInt expression for %r" % (v,))

    _CMP_METHOD = {
        "==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt",
        ">=": "sge", "u<": "ult", "u<=": "ule", "u>": "ugt", "u>=": "uge",
    }

    def _pred_expr(self, p: Predicate) -> Optional[str]:
        if isinstance(p, PredTrue):
            return None
        if isinstance(p, PredNot):
            inner = self._pred_expr(p.p)
            return "!(%s)" % inner if inner else None
        if isinstance(p, PredAnd):
            parts = [self._pred_expr(q) for q in p.ps]
            return " && ".join(x for x in parts if x)
        if isinstance(p, PredOr):
            parts = [self._pred_expr(q) for q in p.ps]
            return "(%s)" % " || ".join(x for x in parts if x)
        if isinstance(p, PredCmp):
            a = self._apint_expr(p.a)
            b = self._apint_expr(p.b)
            if p.op == "==":
                return "%s == %s" % (a, b)
            if p.op == "!=":
                return "%s != %s" % (a, b)
            return "%s.%s(%s)" % (a, self._CMP_METHOD[p.op], b)
        if isinstance(p, PredCall):
            return self._pred_call(p)
        raise CodegenError("cannot emit predicate %r" % (p,))

    def _value_expr(self, v: ast.Value) -> str:
        if isinstance(v, (ast.Input, ast.Instruction)):
            return _ident(v.name) if v.name != self.t.root else "I"
        if isinstance(v, ast.ConstantSymbol):
            return _ident(v.name)
        raise CodegenError("cannot reference %r in a predicate" % (v,))

    def _pred_call(self, p: PredCall) -> str:
        fn = p.fn
        if fn == "isPowerOf2":
            a = p.args[0]
            if isinstance(a, ast.ConstantSymbol):
                return "%s->getValue().isPowerOf2()" % _ident(a.name)
            return "isKnownToBeAPowerOfTwo(%s)" % self._value_expr(a)
        if fn == "isPowerOf2OrZero":
            a = p.args[0]
            if isinstance(a, ast.ConstantSymbol):
                v = "%s->getValue()" % _ident(a.name)
                return "(!%s || %s.isPowerOf2())" % (v, v)
            return "isKnownToBeAPowerOfTwo(%s, /*OrZero=*/true)" % self._value_expr(a)
        if fn in ("isSignBit", "isShiftedMask"):
            # the Python matcher holds these false on a non-constant
            if not isinstance(p.args[0], ast.ConstantSymbol):
                raise CodegenError("%s of a non-constant has no C++ form"
                                   % fn)
            return "%s->getValue().%s()" % (_ident(p.args[0].name), fn)
        if fn == "MaskedValueIsZero":
            return "MaskedValueIsZero(%s, %s)" % (
                self._value_expr(p.args[0]),
                self._apint_expr(p.args[1]),
            )
        if fn == "hasOneUse":
            return "%s->hasOneUse()" % self._value_expr(p.args[0])
        if fn == "isConstant":
            return "isa<Constant>(%s)" % self._value_expr(p.args[0])
        if fn.startswith("WillNotOverflow"):
            return "%s(%s, %s, I)" % (
                fn,
                self._value_expr(p.args[0]),
                self._value_expr(p.args[1]),
            )
        raise CodegenError("no C++ emission for predicate %r" % fn)

    # ------------------------------------------------------------------
    # Target side
    # ------------------------------------------------------------------

    def _emit_target(self) -> None:
        built: Dict[str, str] = {}
        root_cpp = None
        for name, inst in self.t.tgt.items():
            cpp = self._build_target_value(inst, built)
            built[name] = cpp
            if name == self.t.root:
                root_cpp = cpp
        if root_cpp is None:
            raise CodegenError("target has no root %s" % self.t.root)
        self.body.append("I->replaceAllUsesWith(%s);" % root_cpp)

    def _materialize_constant(self, v: ast.Value) -> str:
        self._new_const_count += 1
        apint_name = "C%d_val" % self._new_const_count
        const_name = "NC%d" % self._new_const_count
        self.body.append(
            "APInt %s = %s;" % (apint_name, self._apint_expr(v))
        )
        self.body.append(
            "Constant *%s = ConstantInt::get(%s->getType(), %s);"
            % (const_name, self._typed(v), apint_name)
        )
        return const_name

    def _build_target_value(self, v: ast.Value, built: Dict[str, str]) -> str:
        if isinstance(v, ast.Instruction) and v.name in built:
            return built[v.name]
        if isinstance(v, (ast.Input,)):
            return _ident(v.name)
        if isinstance(v, ast.ConstantSymbol):
            return _ident(v.name)
        if isinstance(v, ast.Instruction) and v.name in self.t.src \
                and v.name not in self.t.tgt:
            return _ident(v.name)  # a surviving source temporary
        if isinstance(v, ast.Literal):
            return "ConstantInt::get(%s->getType(), %d)" % (self._typed(v),
                                                            v.value)
        if isinstance(v, ConstExpr):
            return self._materialize_constant(v)
        if isinstance(v, ast.BinOp):
            a = self._build_target_value(v.a, built)
            b = self._build_target_value(v.b, built)
            name = _ident(v.name) + "_new"
            self.body.append(
                "BinaryOperator *%s = BinaryOperator::%s(%s, %s, \"\", I);"
                % (name, _CREATORS[v.opcode], a, b)
            )
            if "nsw" in v.flags:
                self.body.append("%s->setHasNoSignedWrap(true);" % name)
            if "nuw" in v.flags:
                self.body.append("%s->setHasNoUnsignedWrap(true);" % name)
            if "exact" in v.flags:
                self.body.append("%s->setIsExact(true);" % name)
            return name
        if isinstance(v, ast.ICmp):
            a = self._build_target_value(v.a, built)
            b = self._build_target_value(v.b, built)
            name = _ident(v.name) + "_new"
            self.body.append(
                "ICmpInst *%s = new ICmpInst(I, %s, %s, %s);"
                % (name, _ICMP_PRED[v.cond], a, b)
            )
            return name
        if isinstance(v, ast.Select):
            c = self._build_target_value(v.c, built)
            a = self._build_target_value(v.a, built)
            b = self._build_target_value(v.b, built)
            name = _ident(v.name) + "_new"
            self.body.append(
                "SelectInst *%s = SelectInst::Create(%s, %s, %s, \"\", I);"
                % (name, c, a, b)
            )
            return name
        if isinstance(v, ast.ConvOp):
            x = self._build_target_value(v.x, built)
            name = _ident(v.name) + "_new"
            caster = {"zext": "ZExt", "sext": "SExt", "trunc": "Trunc"}.get(v.opcode)
            if caster is None:
                raise CodegenError("no creator for %r" % v.opcode)
            self.body.append(
                "CastInst *%s = CastInst::Create(Instruction::%s, %s, "
                "%s->getType(), \"\", I);" % (name, caster, x, self._typed(v))
            )
            return name
        if isinstance(v, ast.Copy):
            return self._build_target_value(v.x, built)
        raise CodegenError("cannot build target value %r" % (v,))

    # ------------------------------------------------------------------

    def generate(self) -> str:
        self._print_program()
        pre = self.program.pre and self._pred_expr(self.program.pre)
        if pre:
            self.clauses.append(pre)
        self._emit_target()

        lines = ["// %s" % self.t.name, "{"]
        if self.value_decls:
            lines.append("  Value *%s;" % ", *".join(sorted(self.value_decls)))
        if self.const_decls:
            lines.append(
                "  ConstantInt *%s;" % ", *".join(sorted(self.const_decls))
            )
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
