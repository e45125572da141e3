"""The compiled target program rewrites exactly as the template walks did.

:class:`~repro.opt.rewriter.TargetProgram` compiles each target
template once; :class:`~repro.opt.rewriter.Rewriter` runs it and
:mod:`repro.codegen.cpp` prints it.  Both used to walk the template
themselves, each with its own width rule: :class:`ReferenceRewriter`
and :class:`ReferenceTarget` below are those walks, kept here verbatim
as the references.

* Every firing of the peephole pass on seeded modules, and every
  compiled corpus rule on its own source template as concrete IR at
  widths 1, 4 and 8, must leave a function that prints byte-identically
  under the program and under :class:`ReferenceRewriter` (the
  reference rewrites a deep copy).  The pass part runs 30 functions x
  25 instructions on seeds 1-2; set ``ALIVE_REPRO_PARITY_FULL=1`` for
  the perfbench ``optimize`` size (300 x 40, seeds 1-3).
* Every rule the C++ printer emits must get the same body lines from
  the program as from :class:`ReferenceTarget`.
"""

import copy
import os
import re
from typing import Dict

import pytest

from repro.codegen import CodegenError, CppGenerator
from repro.codegen.cpp import _CREATORS, _ICMP_PRED, _bits, _ident
from repro.core.typecheck import TypeChecker
from repro.ir import ast, parse_transformation
from repro.ir.constexpr import ConstExpr, eval_constexpr
from repro.ir.module import MArg, MConst, MFunction, MInstr, MValue
from repro.opt import (
    Analyses,
    PeepholeOpt,
    PeepholePass,
    RewriteError,
    compile_opts,
    folding_rules,
)
from repro.opt.matcher import Match
from repro.suite import load_all_flat, load_bugs, load_fp, load_patches
from repro.typing.types import IntType
from repro.workload import WorkloadConfig, generate_module
from tests.opt.test_match_program import instantiate

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"
SEEDS = (1, 2, 3) if FULL else (1, 2)
FUNCTIONS, INSTRUCTIONS = (300, 40) if FULL else (30, 25)


class ReferenceRewriter:
    """The target template walk, as the rewriter had it before the
    target program: widths guessed per call from a sibling operand,
    the bindings a constant reads, or the root."""

    def __init__(self, transformation: ast.Transformation):
        self.t = transformation

    def apply(self, fn: MFunction, match: Match) -> MValue:
        built: Dict[str, MValue] = {}
        root_inst = match.root
        new_root = None
        for name, inst in self.t.tgt.items():
            value = self._build(inst, fn, match, built, root_inst)
            built[name] = value
            if name == self.t.root:
                new_root = value
        if new_root is None:
            raise RewriteError("target did not produce the root %s"
                               % self.t.root)
        fn.replace_all_uses(root_inst, new_root)
        return new_root

    def _build_pair(self, va, vb, fn, match, built, before, width_hint):
        a_const = isinstance(va, (ast.Literal, ConstExpr))
        b_const = isinstance(vb, (ast.Literal, ConstExpr))
        if a_const and not b_const:
            b = self._build(vb, fn, match, built, before, width_hint)
            a = self._build(va, fn, match, built, before, b.width)
        else:
            a = self._build(va, fn, match, built, before, width_hint)
            b = self._build(vb, fn, match, built, before, a.width)
        return a, b

    def _build(self, v, fn, match, built, before, width_hint=None):
        bindings = match.bindings
        if isinstance(v, ast.Instruction) and v.name in built:
            return built[v.name]
        if isinstance(v, (ast.Input, ast.ConstantSymbol)):
            bound = bindings.get(v.name)
            if bound is None:
                raise RewriteError("unbound template value %s" % v.name)
            return bound
        if isinstance(v, ast.Instruction) and v.name in bindings \
                and v.name not in self.t.tgt:
            return bindings[v.name]
        if isinstance(v, ast.Literal):
            return MConst(v.value, width_hint or self._width_for(v, match))
        if isinstance(v, ConstExpr):
            width = width_hint or self._width_for(v, match)
            return MConst(eval_constexpr(
                v, width, lambda sym: self._resolve_const(sym, match)), width)
        if isinstance(v, ast.BinOp):
            a, b = self._build_pair(v.a, v.b, fn, match, built, before,
                                    width_hint)
            return fn.add(v.opcode, [a, b], a.width, flags=v.flags,
                          before=before)
        if isinstance(v, ast.ICmp):
            a, b = self._build_pair(v.a, v.b, fn, match, built, before, None)
            return fn.add("icmp", [a, b], 1, cond=v.cond, before=before)
        if isinstance(v, ast.Select):
            c = self._build(v.c, fn, match, built, before, 1)
            a, b = self._build_pair(v.a, v.b, fn, match, built, before,
                                    width_hint)
            return fn.add("select", [c, a, b], a.width, before=before)
        if isinstance(v, ast.ConvOp):
            if v.opcode not in ("zext", "sext", "trunc"):
                raise RewriteError("conversion %r not supported" % v.opcode)
            x = self._build(v.x, fn, match, built, before)
            if v.ty is not None and isinstance(v.ty, IntType):
                width = v.ty.width
            elif width_hint is not None:
                width = width_hint
            else:
                width = match.root.width
            if width == x.width:
                return x
            if v.opcode in ("zext", "sext") and width < x.width:
                raise RewriteError("conversion widths unsatisfiable")
            if v.opcode == "trunc" and width > x.width:
                raise RewriteError("conversion widths unsatisfiable")
            return fn.add(v.opcode, [x], width, before=before)
        if isinstance(v, ast.Copy):
            return self._build(v.x, fn, match, built, before)
        raise RewriteError("cannot materialize %r" % (v,))

    def _resolve_const(self, sym, match):
        if isinstance(sym, ConstExpr) and sym.op == "width":
            bound = match.bindings.get(sym.args[0].name)
            if bound is None:
                raise RewriteError("width() of unbound value %s"
                                   % sym.args[0].name)
            return bound.width
        bound = match.bindings.get(sym.name)
        if isinstance(bound, MConst):
            return bound.value
        raise RewriteError("constant %s is not bound" % sym.name)

    def _width_for(self, v, match):
        if v.ty is not None and isinstance(v.ty, IntType):
            return v.ty.width
        widths = []

        def scan(e):
            if isinstance(e, (ast.Input, ast.ConstantSymbol,
                              ast.Instruction)):
                bound = match.bindings.get(e.name)
                if bound is not None:
                    widths.append(bound.width)
            for op in e.operands():
                scan(op)

        scan(v)
        return widths[0] if widths else match.root.width


class CheckedRewriter:
    """Runs a rule's target program on the function and the reference
    walk on a deep copy, and asserts that the two print the same."""

    def __init__(self, opt: PeepholeOpt):
        self.name = opt.name
        self.program = opt.rewriter
        self.reference = ReferenceRewriter(opt.transformation)
        self.rewrites = 0

    def apply(self, fn: MFunction, match: Match) -> MValue:
        want_fn, want_match = copy.deepcopy((fn, match))
        want = self.reference.apply(want_fn, want_match)
        got = self.program.apply(fn, match)
        assert repr(fn) == repr(want_fn), (self.name, repr(want_fn))
        assert repr(got) == repr(want), self.name
        self.rewrites += 1
        return got


def checked(opts):
    """Put a :class:`CheckedRewriter` into each compiled rule of *opts*."""
    rewriters = []
    for opt in opts:
        if isinstance(opt, PeepholeOpt):
            opt.rewriter = CheckedRewriter(opt)
            rewriters.append(opt.rewriter)
    return rewriters


@pytest.mark.parametrize("seed", SEEDS)
def test_every_firing_of_the_pass(seed):
    opts = folding_rules() + compile_opts(load_all_flat())
    rewriters = checked(opts)
    module = generate_module(WorkloadConfig(
        seed=seed, functions=FUNCTIONS, instructions=INSTRUCTIONS))
    pass_ = PeepholePass(opts)
    pass_.run_module(module)
    rewrites = sum(r.rewrites for r in rewriters)
    assert rewrites == sum(pass_.stats.fired.get(r.name, 0)
                           for r in rewriters)
    # the workload fires rules whose constants are not at the root's
    # width: an icmp root is i1, its operands are not
    fired_icmp = [r for r in rewriters if r.rewrites
                  and isinstance(r.reference.t.src[r.reference.t.root],
                                 ast.ICmp)]
    assert rewrites > 100 and fired_icmp


def test_every_compiled_rule_on_its_own_template():
    opts = compile_opts(load_all_flat() + load_bugs() + load_patches())
    rewriters = checked(opts)
    for opt in opts:
        for width in (1, 4, 8):
            for k in range(3):
                built = instantiate(opt.transformation, width,
                                    "%s/%d/%d" % (opt.name, width, k))
                if built is None or not isinstance(built[0].ret, MInstr):
                    continue
                fn = built[0]
                opt.try_apply(fn, fn.ret, Analyses(fn))
    fired = [r for r in rewriters if r.rewrites]
    assert len(fired) > 150  # of 175 compiled rules


def test_icmp_constant_takes_the_operand_width():
    # an i1 root, i8 operands: C+1 is built at i8
    opt = PeepholeOpt(parse_transformation(
        "Pre: C != -1\n%r = icmp ugt %x, C\n=>\n%r = icmp uge %x, C+1"))
    (checker,) = checked([opt])
    fn = MFunction("f", [MArg("%a", 8)])
    fn.ret = fn.add("icmp", [fn.args[0], MConst(9, 8)], 1, cond="ugt")
    assert opt.try_apply(fn, fn.ret, Analyses(fn))
    assert checker.rewrites == 1
    assert (fn.ret.operands[1].width, fn.ret.operands[1].value) == (8, 10)


# ----------------------------------------------------------------------
# the C++ body


class ReferenceTarget(CppGenerator):
    """The target template walk, as the C++ printer had it before the
    target program: types from its own :class:`TypeChecker`, each class
    taking the first value the match clauses bind (``I`` first)."""

    def __init__(self, t: ast.Transformation, clauses):
        super().__init__(t)
        self._checker = TypeChecker()
        self._checker.check_transformation(t)
        named = {_ident(v.name): v for v in t.source_values()
                 if isinstance(v, (ast.Input, ast.ConstantSymbol,
                                   ast.Instruction))}
        named["I"] = t.src[t.root]
        self._class_handles = {}
        for handle in ["I"] + re.findall(r"m_(?:Value|ConstantInt)\((\w+)\)",
                                         " ".join(clauses)):
            if handle in named:
                self._class_handles.setdefault(self._class(named[handle]),
                                               handle)
        self._new_const_count = 0
        self._emit_target()

    def _class(self, v):
        return self._checker.system.find(self._checker.tv(v))

    def _typed(self, v):
        handle = self._class_handles.get(self._class(v))
        if handle is None:
            raise CodegenError("%s: no matched value has the type of %s"
                               % (self.t.name, v.name))
        return handle

    def _bits_of(self, v):
        return _bits(self._typed(v))

    def _emit_target(self):
        built = {}
        root_cpp = None
        for name, inst in self.t.tgt.items():
            cpp = self._build_target_value(inst, built)
            built[name] = cpp
            if name == self.t.root:
                root_cpp = cpp
        if root_cpp is None:
            raise CodegenError("target has no root %s" % self.t.root)
        self.body.append("I->replaceAllUsesWith(%s);" % root_cpp)

    def _materialize_constant(self, v):
        self._new_const_count += 1
        apint_name = "C%d_val" % self._new_const_count
        const_name = "NC%d" % self._new_const_count
        self.body.append("APInt %s = %s;" % (apint_name, self._apint_expr(v)))
        self.body.append("Constant *%s = ConstantInt::get(%s->getType(), %s);"
                         % (const_name, self._typed(v), apint_name))
        return const_name

    def _build_target_value(self, v, built):
        if isinstance(v, ast.Instruction) and v.name in built:
            return built[v.name]
        if isinstance(v, (ast.Input, ast.ConstantSymbol)):
            return _ident(v.name)
        if isinstance(v, ast.Instruction) and v.name in self.t.src \
                and v.name not in self.t.tgt:
            return _ident(v.name)
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
                % (name, _CREATORS[v.opcode], a, b))
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
            self.body.append("ICmpInst *%s = new ICmpInst(I, %s, %s, %s);"
                             % (name, _ICMP_PRED[v.cond], a, b))
            return name
        if isinstance(v, ast.Select):
            c = self._build_target_value(v.c, built)
            a = self._build_target_value(v.a, built)
            b = self._build_target_value(v.b, built)
            name = _ident(v.name) + "_new"
            self.body.append(
                "SelectInst *%s = SelectInst::Create(%s, %s, %s, \"\", I);"
                % (name, c, a, b))
            return name
        if isinstance(v, ast.ConvOp):
            x = self._build_target_value(v.x, built)
            name = _ident(v.name) + "_new"
            caster = {"zext": "ZExt", "sext": "SExt",
                      "trunc": "Trunc"}.get(v.opcode)
            if caster is None:
                raise CodegenError("no creator for %r" % v.opcode)
            self.body.append(
                "CastInst *%s = CastInst::Create(Instruction::%s, %s, "
                "%s->getType(), \"\", I);" % (name, caster, x, self._typed(v)))
            return name
        if isinstance(v, ast.Copy):
            return self._build_target_value(v.x, built)
        raise CodegenError("cannot build target value %r" % (v,))


def test_cpp_body_matches_the_reference():
    compared = 0
    for t in load_all_flat() + load_bugs() + load_patches() + load_fp():
        try:
            gen = CppGenerator(t)
            gen.generate()
        except CodegenError:
            continue
        assert ReferenceTarget(t, gen.clauses).body == gen.body, t.name
        compared += 1
    assert compared == 175  # as many as the walk emitted
