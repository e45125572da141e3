"""The C++ source side, printed from each rule's match program, keeps
the clauses of the template walk it replaced.

:class:`ReferenceSource` below is the walk over the source template
that :mod:`repro.codegen.cpp` used before it printed
:class:`~repro.opt.matcher.MatchProgram` steps, kept here as the
reference.  On every corpus rule it emits, the printer must give the
same declarations and the same ``match``/flag clauses in the same
order (the walk is updated to bind each ``m_ICmp`` predicate and then
compare it, as LLVM's matcher requires); the clauses it adds after them are width guards, source
constant expressions and the precondition.  :func:`reference_pre` is
codegen's own translation of the precondition from before it printed
the match program's decided atoms, kept as the reference for that last
clause.
"""

import re
from typing import Dict, List, Set

import pytest

from repro.codegen import CodegenError, CppGenerator, generate_cpp
from repro.codegen.cpp import _ICMP_PRED, _MATCHERS, _ident
from repro.ir import ast
from repro.ir.module import MInstr
from repro.ir.precond import CMP_TO_ICMP, PredAnd, PredCmp, PredNot, PredOr
from repro.opt import Analyses, TemplateMatcher
from repro.suite import load_all_flat, load_bugs, load_fp, load_patches
from tests.opt.test_match_program import instantiate

WIDTH_GUARD = re.compile(
    r"^(\w+->getType\(\) == \w+->getType\(\)"
    r"|\w+->getType\(\)->isIntegerTy\(\d+\)"
    r"|(width|\w+->getType\(\)->getIntegerBitWidth\(\)) (>=|<) "
    r"(\d+|width|\w+->getType\(\)->getIntegerBitWidth\(\)))$")


class ReferenceSource:
    """The source-template walk, as codegen had it before printing the
    match program."""

    def __init__(self, t: ast.Transformation):
        self.root_inst = t.src[t.root]
        if isinstance(
            self.root_inst,
            (ast.Store, ast.Load, ast.Alloca, ast.GEP, ast.Unreachable),
        ):
            raise CodegenError("memory-rooted")
        self.value_decls: Set[str] = set()
        self.const_decls: Set[str] = set()
        self.predicates: List[str] = []
        self.clauses: List[str] = []
        self._matched: Dict[str, str] = {}
        self._emit_source()

    def _operand_matcher(self, v: ast.Value) -> str:
        if isinstance(v, ast.Input):
            name = _ident(v.name)
            self.value_decls.add(name)
            if v.name in self._matched:
                return "m_Specific(%s)" % name
            self._matched[v.name] = name
            return "m_Value(%s)" % name
        if isinstance(v, ast.ConstantSymbol):
            name = _ident(v.name)
            self.const_decls.add(name)
            if v.name in self._matched:
                return "m_Specific(%s)" % name
            self._matched[v.name] = name
            return "m_ConstantInt(%s)" % name
        if isinstance(v, ast.Literal):
            if v.value == 0:
                return "m_Zero()"
            if v.value == 1:
                return "m_One()"
            if v.value == -1:
                return "m_AllOnes()"
            return "m_SpecificInt(%d)" % v.value
        if isinstance(v, ast.UndefValue):
            return "m_Undef()"
        if isinstance(v, ast.Instruction):
            name = _ident(v.name)
            self.value_decls.add(name)
            if v.name in self._matched:
                return "m_Specific(%s)" % name
            self._matched[v.name] = name
            return "m_Value(%s)" % name
        raise CodegenError("cannot emit matcher for %r" % (v,))

    def _instruction_matcher(self, inst: ast.Instruction) -> str:
        if isinstance(inst, ast.BinOp):
            return "%s(%s, %s)" % (
                _MATCHERS[inst.opcode],
                self._operand_matcher(inst.a),
                self._operand_matcher(inst.b),
            )
        if isinstance(inst, ast.ICmp):
            # LLVM's m_ICmp binds the predicate; _predicate_checks tests it
            self.predicates.append("P%d" % len(self.predicates))
            return "m_ICmp(%s, %s, %s)" % (
                self.predicates[-1],
                self._operand_matcher(inst.a),
                self._operand_matcher(inst.b),
            )
        if isinstance(inst, ast.Select):
            return "m_Select(%s, %s, %s)" % (
                self._operand_matcher(inst.c),
                self._operand_matcher(inst.a),
                self._operand_matcher(inst.b),
            )
        if isinstance(inst, ast.ConvOp):
            if inst.opcode not in _MATCHERS:
                raise CodegenError("no matcher for %r" % inst.opcode)
            return "%s(%s)" % (
                _MATCHERS[inst.opcode], self._operand_matcher(inst.x)
            )
        if isinstance(inst, ast.Copy):
            return self._operand_matcher(inst.x)
        raise CodegenError("cannot emit matcher for %r" % (inst,))

    def _flag_checks(self, inst: ast.Instruction, cpp_expr: str) -> List[str]:
        checks = []
        if isinstance(inst, ast.ICmp):
            checks.append("%s == %s" % (self.predicates[-1],
                                        _ICMP_PRED[inst.cond]))
        for flag in getattr(inst, "flags", ()):
            if flag == "nsw":
                checks.append(
                    "cast<OverflowingBinaryOperator>(%s)->hasNoSignedWrap()"
                    % cpp_expr
                )
            elif flag == "nuw":
                checks.append(
                    "cast<OverflowingBinaryOperator>(%s)->hasNoUnsignedWrap()"
                    % cpp_expr
                )
            elif flag == "exact":
                checks.append(
                    "cast<PossiblyExactOperator>(%s)->isExact()" % cpp_expr
                )
        return checks

    def _emit_source(self) -> None:
        worklist: List[ast.Instruction] = []
        self._matched[self.root_inst.name] = "I"
        self.clauses.append(
            "match(I, %s)" % self._instruction_matcher(self.root_inst)
        )
        self.clauses.extend(self._flag_checks(self.root_inst, "I"))

        def queue_subinsts(inst: ast.Instruction):
            for op in inst.operands():
                if isinstance(op, ast.Instruction):
                    worklist.append(op)

        queue_subinsts(self.root_inst)
        emitted = {self.root_inst.name}
        while worklist:
            inst = worklist.pop(0)
            if inst.name in emitted:
                continue
            emitted.add(inst.name)
            cpp_name = _ident(inst.name)
            self.clauses.append(
                "match(%s, %s)" % (cpp_name, self._instruction_matcher(inst))
            )
            self.clauses.extend(self._flag_checks(inst, cpp_name))
            queue_subinsts(inst)


def reference_pre(gen: CppGenerator, p) -> str:
    """The precondition *p* as codegen translated it before it printed
    the match program's atoms (its ``_pred_expr``), updated in one place
    to follow the matcher: a built-in on an input is the built-in on
    the constant the input binds, else the analysis query."""
    if isinstance(p, PredNot):
        return "!(%s)" % reference_pre(gen, p.p)
    if isinstance(p, PredAnd):
        return " && ".join(reference_pre(gen, q) for q in p.ps)
    if isinstance(p, PredOr):
        return "(%s)" % " || ".join(reference_pre(gen, q) for q in p.ps)
    if isinstance(p, PredCmp):
        a, b = gen._apint_expr(p.a), gen._apint_expr(p.b)
        if p.op in ("==", "!="):
            return "%s %s %s" % (a, p.op, b)
        return "%s.%s(%s)" % (a, CMP_TO_ICMP[p.op], b)
    fn, args = p.fn, p.args
    values = ["I" if a.name == gen.t.root else _ident(a.name) for a in args]
    if fn == "isPowerOf2":
        if isinstance(args[0], ast.ConstantSymbol):
            return "%s->getValue().isPowerOf2()" % values[0]
        query = "isKnownToBeAPowerOfTwo(%s)" % values[0]
        if isinstance(args[0], ast.Input):
            return "(isa<ConstantInt>(%s) ? cast<ConstantInt>(%s)" \
                "->getValue().isPowerOf2() : %s)" % (values[0], values[0],
                                                     query)
        return query
    if fn == "isSignBit" and isinstance(args[0], ast.ConstantSymbol):
        return "%s->getValue().isSignBit()" % values[0]
    if fn == "MaskedValueIsZero":
        return "MaskedValueIsZero(%s, %s)" % (values[0],
                                              gen._apint_expr(args[1]))
    if fn == "hasOneUse":
        return "%s->hasOneUse()" % values[0]
    if fn.startswith("WillNotOverflow"):
        return "%s(%s, %s, I)" % (fn, values[0], values[1])
    raise CodegenError("no reference for %s" % fn)


def corpus():
    return load_all_flat() + load_bugs() + load_patches() + load_fp()


def test_printer_keeps_the_reference_clauses():
    compared = 0
    for t in corpus():
        try:
            ref = ReferenceSource(t)
        except CodegenError:
            continue
        gen = CppGenerator(t)
        gen.generate()
        assert (gen.value_decls, gen.const_decls, gen.predicates) == \
            (ref.value_decls, ref.const_decls, ref.predicates), t.name
        n = len(ref.clauses)
        assert gen.clauses[:n] == ref.clauses, t.name
        rest = gen.clauses[n:]
        if gen.program.pre is not None:
            assert rest.pop() == reference_pre(gen, t.pre), t.name
        assert all(WIDTH_GUARD.match(c) for c in rest), (t.name, rest)
        compared += 1
    assert compared == 173


def program_matches(matcher):
    """Whether *matcher*'s program matches the root of some instance of
    its own template."""
    for width in (1, 4, 8):
        for k in range(3):
            built = instantiate(matcher.t, width, "%s/%d" % (width, k))
            if built is None:
                continue
            fn, _ = built
            if not isinstance(fn.ret, MInstr):
                continue
            if matcher.match(fn.ret, Analyses(fn)) is not None:
                return True
    return False


def test_every_rule_whose_program_can_match_is_emitted():
    matched = 0
    for t in corpus():
        try:
            matcher = TemplateMatcher(t)
        except ast.AliveError:
            continue
        if program_matches(matcher):
            matched += 1
            generate_cpp(t)  # raises CodegenError if not emitted
    assert matched > 150


@pytest.mark.parametrize("name", [
    "AndOrXor:icmp-both-zero-and", "AndOrXor:icmp-either-nonzero-or",
    "Select:bools-to-cond", "Select:bools-to-not", "Select:true-arm-is-or",
    "Select:false-arm-is-and", "Select:sign-to-ashr",
    "Select:select-const-eq"])
def test_type_equality_guards_survive(name):
    # the rules whose target relates types the source keeps apart
    t = next(t for t in load_all_flat() if t.name == name)
    assert "getType() == " in generate_cpp(t)
