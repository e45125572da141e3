"""The compiled match program matches exactly as the recursive walk did.

:class:`~repro.opt.matcher.MatchProgram` compiles each source template
and its precondition into straight-line checks.
:class:`ReferenceMatcher` below is the recursive template walk it
replaced, and :class:`ReferencePrecondition` the precondition
interpreter (``_atom``, ``_width_of``, ``_call_holds``,
``_resolve_const``), both kept here verbatim as the reference, with one
change: ``width(%x)`` reads the width of the value bound to ``%x``
(the interpreter looked the ``width`` node up by name and never found
it).  On every input the two must give the same outcome: ``None`` for
both, the same :class:`~repro.ir.ast.AliveError`, or a
:class:`~repro.opt.matcher.Match` with the same root and the same
bindings (names, in order, and the identity of each bound value).

The inputs are every corpus template instantiated as concrete IR at
widths 1, 4 and 8; every corpus precondition over every tuple of
constants at i4; targeted mutants of those instances (a literal off by
one, a repeated name bound to two values, a repeated constant bound to
two equal constants, an opcode or predicate changed, a flag dropped,
an operand of the wrong width) and of hand-written templates; and every
(instruction, candidate rule) pair the peephole pass tries on seeded
functions.  That last part runs
30 functions x 25 instructions; set ``ALIVE_REPRO_PARITY_FULL=1`` for
the perfbench ``optimize`` size (300 x 40, seeds 1-3).
"""

import itertools
import os
import random
from typing import Dict, Optional

import pytest

from repro.core.typecheck import TypeChecker
from repro.ir import ast, parse_transformation
from repro.ir.constexpr import ConstExpr, eval_constexpr, is_constant_value
from repro.ir.module import MArg, MConst, MFunction, MInstr, MValue
from repro.ir.precond import PredCall, PredCmp, builtin_holds, compare, \
    evaluate
from repro.opt import (
    Analyses,
    PassStatistics,
    PeepholeOpt,
    PeepholePass,
    TemplateMatcher,
    compile_opts,
    folding_rules,
    run_dce,
)
from repro.opt.matcher import Match, RewriteError, _CONVERSIONS, _NAMED
from repro.suite import load_all_flat, load_fp
from repro.typing.constraints import (
    BOOL, FIXED, MIN_WIDTH, SAME_WIDTH, SMALLER,
)
from repro.typing.enumerate import enumerate_assignments
from repro.typing.types import IntType
from repro.workload import WorkloadConfig, generate_module

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"
SEEDS = (1, 2, 3) if FULL else (1, 2)
FUNCTIONS, INSTRUCTIONS = (300, 40) if FULL else (30, 25)
WIDTHS = (1, 4, 8)


#: the :class:`Analyses` method answering a built-in when an argument
#: is not a constant; the other built-ins are false on such arguments
_ANALYSIS_QUERIES = {
    "isPowerOf2": "is_power_of_2",
    "isPowerOf2OrZero": "is_power_of_2",
    "WillNotOverflowSignedAdd": "will_not_overflow_signed_add",
}


class ReferencePrecondition:
    """The precondition interpreter, as it was before the compiled
    precondition: :func:`repro.ir.precond.evaluate` over ``_atom``."""

    def holds(self, pre, bindings, analyses):
        return evaluate(pre, lambda atom: self._atom(atom, bindings,
                                                     analyses))

    def _atom(self, atom, bindings, analyses):
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

    def _width_of(self, e, bindings) -> Optional[int]:
        if isinstance(e, _NAMED):
            bound = bindings.get(e.name)
            return bound.width if bound is not None else None
        if isinstance(e, ConstExpr):
            for a in e.args:
                w = self._width_of(a, bindings)
                if w is not None:
                    return w
        return None

    def _call_holds(self, call: PredCall, bindings, analyses) -> bool:
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


def _resolve_const(bindings, sym) -> int:
    if isinstance(sym, ConstExpr):  # width(%x), the one change
        bound = bindings.get(sym.args[0].name)
        if bound is None:
            raise _UnboundConstant(sym.name)
        return bound.width
    bound = bindings.get(sym.name)
    if not isinstance(bound, MConst):
        raise _UnboundConstant(sym.name)
    return bound.value


def _eval_const(e, width: int, bindings) -> int:
    return eval_constexpr(e, width, lambda sym: _resolve_const(bindings, sym))


class ReferenceMatcher:
    """The recursive template walk, as it was before the match program."""

    def __init__(self, transformation: ast.Transformation):
        self.t = transformation
        self.root_pattern = transformation.src[transformation.root]
        self._pre = ReferencePrecondition()
        checker = TypeChecker()
        checker.check_transformation(transformation)
        system = checker.system
        values = transformation.source_values()
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

    def match(self, inst, analyses):
        bindings: Dict[str, MValue] = {}
        observations: Dict[int, int] = {}
        if not self._match_value(self.root_pattern, inst, bindings,
                                 observations):
            return None
        if not self._check_types(bindings):
            return None
        if not self._widths_feasible(observations):
            return None
        if not self._pre.holds(self.t.pre, bindings, analyses):
            return None
        return Match(inst, bindings)

    def _widths_feasible(self, observations):
        class_of = self._class_of
        by_class = {}
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

    def _bind(self, name, value, bindings):
        existing = bindings.get(name)
        if existing is None:
            bindings[name] = value
            return True
        if existing is value:
            return True
        if (
            isinstance(existing, MConst)
            and isinstance(value, MConst)
            and existing.width == value.width
            and existing.value == value.value
        ):
            return True
        return False

    def _match_value(self, pattern, value, bindings, observations):
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
            return False
        if isinstance(pattern, ConstExpr):
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
            if not self._match_value(pattern.a, value.operands[0], bindings,
                                     observations):
                return False
            if not self._match_value(pattern.b, value.operands[1], bindings,
                                     observations):
                return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.ICmp):
            if (
                not isinstance(value, MInstr)
                or value.opcode != "icmp"
                or value.cond != pattern.cond
            ):
                return False
            if not self._match_value(pattern.a, value.operands[0], bindings,
                                     observations):
                return False
            if not self._match_value(pattern.b, value.operands[1], bindings,
                                     observations):
                return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.Select):
            if not isinstance(value, MInstr) or value.opcode != "select":
                return False
            for pat, op in zip((pattern.c, pattern.a, pattern.b),
                               value.operands):
                if not self._match_value(pat, op, bindings, observations):
                    return False
            return self._bind(pattern.name, value, bindings)
        if isinstance(pattern, ast.ConvOp):
            if pattern.opcode not in _CONVERSIONS:
                return False
            if not isinstance(value, MInstr) or value.opcode != pattern.opcode:
                return False
            if not self._match_value(pattern.x, value.operands[0], bindings,
                                     observations):
                return False
            return self._bind(pattern.name, value, bindings)
        return False

    def _check_types(self, bindings):
        for name, width in self._annotated:
            bound = bindings.get(name)
            if bound is not None and bound.width != width:
                return False
        return True


def outcome(match, inst, analyses):
    """What *match* makes of *inst*, in comparable form."""
    try:
        found = match(inst, analyses)
    except ast.AliveError as e:
        return ("AliveError", type(e).__name__, str(e))
    if found is None:
        return None
    return (id(found.root),
            [(name, id(value)) for name, value in found.bindings.items()])


def same_outcome(matcher, inst, analyses):
    """Assert the program and the walk agree on *inst*; return the
    program's outcome."""
    got = outcome(matcher.match, inst, analyses)
    want = outcome(ReferenceMatcher(matcher.t).match, inst, analyses)
    assert got == want, (matcher.t.name, repr(inst), matcher.program.source)
    return got


# ----------------------------------------------------------------------
# corpus templates as concrete IR


def corpus():
    """A matcher for each corpus rule whose program compiles."""
    out = []
    for t in load_all_flat() + load_fp():
        try:
            out.append(TemplateMatcher(t))
        except RewriteError:
            continue
    return out


def instantiate(t, width, seed, constants=None):
    """*t*'s source template as a concrete function whose root is the
    last instruction, with types from the assignment that prefers
    *width*; returns ``(fn, slots)`` where *slots* lists each
    ``(instruction, operand index, template operand)``, or None when the
    template has no concrete form (memory, no assignment).  A constant
    symbol takes its value from *constants* (name -> value), else a
    random one."""
    checker = TypeChecker()
    checker.check_transformation(t)
    assignment = next(enumerate_assignments(
        checker.system, max_width=8, prefer=(width,),
        include_pointers=False, limit=1), None)
    if assignment is None:
        return None
    rng = random.Random(seed)
    fn = MFunction("f", [])
    made, slots = {}, []

    def symbols():
        return {v.name: made[id(v)].value for v in t.source_values()
                if isinstance(v, ast.ConstantSymbol) and id(v) in made}

    for v in t.source_values():
        w = getattr(assignment[checker.tv(v)], "width", None)
        if w is None:
            return None
        if isinstance(v, ast.Input):
            made[id(v)] = MArg("%%a%d" % len(fn.args), w)
            fn.args.append(made[id(v)])
        elif isinstance(v, ast.ConstantSymbol):
            made[id(v)] = MConst(rng.choice(
                (0, 1, -1, rng.randrange(1 << w))), w)
            if constants is not None and v.name in constants:
                made[id(v)] = MConst(constants[v.name], w)
        elif isinstance(v, ast.Literal):
            made[id(v)] = MConst(v.value, w)
        elif isinstance(v, (ConstExpr, ast.UndefValue)):
            known = symbols()
            try:
                value = eval_constexpr(v, w, lambda s: known[s.name] if
                                       isinstance(s, ast.ConstantSymbol)
                                       else made[id(s.args[0])].width)
            except (KeyError, ast.AliveError):
                value = rng.randrange(1 << w)
            made[id(v)] = MConst(value, w)
        elif isinstance(v, ast.Copy):
            made[id(v)] = made[id(v.x)]
        elif isinstance(v, ast.Instruction):
            ops = [made[id(p)] for p in v.operands()]
            try:
                made[id(v)] = inst = fn.add(
                    v.opcode, ops, w, flags=getattr(v, "flags", ()),
                    cond=getattr(v, "cond", None))
            except (ValueError, AssertionError):
                return None
            slots += [(inst, i, p) for i, p in enumerate(v.operands())]
        else:
            return None
    fn.ret = made[id(t.src[t.root])]
    return fn, slots


def instances(matcher):
    for width in WIDTHS:
        for k in range(3):
            seed = "%s/%d/%d" % (matcher.t.name, width, k)
            built = instantiate(matcher.t, width, seed)
            if built is not None:
                yield width, seed, built


def test_every_corpus_template_at_widths_1_4_8():
    hits = tried = 0
    for matcher in corpus():
        for _, _, (fn, _) in instances(matcher):
            analyses = Analyses(fn)
            for inst in fn.instrs:
                tried += 1
                hits += same_outcome(matcher, inst, analyses) is not None
    # the instances exercise both outcomes, not only rejection
    assert tried > 1000 and hits > 100


def test_every_corpus_precondition_on_all_constants_at_i4():
    compared = hits = 0
    fired = set()
    for matcher in corpus():
        if matcher.program.pre is None:
            continue
        built = instantiate(matcher.t, 4, matcher.t.name)
        if built is None:
            continue
        widths = {p.name: inst.operands[i].width
                  for inst, i, p in built[1]
                  if isinstance(p, ast.ConstantSymbol)}
        names = sorted(widths)
        reference = ReferenceMatcher(matcher.t)
        for values in itertools.product(
                *(range(1 << widths[name]) for name in names)):
            fn, _ = instantiate(matcher.t, 4, matcher.t.name,
                                dict(zip(names, values)))
            analyses = Analyses(fn)
            got = outcome(matcher.match, fn.ret, analyses)
            assert got == outcome(reference.match, fn.ret, analyses), \
                (matcher.t.name, values, matcher.program.source)
            compared += 1
            if got is not None:
                hits += 1
                fired.add(matcher.t.name)
    assert compared > 2000 and hits > 500
    # the rules that read width(%x) match where the width allows
    assert {"Shifts:shl-shl-const", "Shifts:lshr-lshr-const",
            "Shifts:ashr-ashr-const", "Shifts:shl-shl-nuw"} <= fired


def test_rules_rejected_when_compiled_never_matched():
    rejected = []
    for t in load_all_flat() + load_fp():
        try:
            TemplateMatcher(t)
        except RewriteError:
            rejected.append(t)
    # its precondition reads C, which no source pattern binds
    assert [t.name for t in rejected] == ["Shifts:lshr-to-udiv"]
    tried = 0
    for t in rejected:
        reference = ReferenceMatcher(t)
        for width in WIDTHS:
            for k in range(3):
                fn, _ = instantiate(t, width, "%s/%d" % (width, k))
                for inst in fn.instrs:
                    assert reference.match(inst, Analyses(fn)) is None
                    tried += 1
    assert tried > 0


def mutants(matcher):
    """Fresh instances of *matcher*'s template, each with one targeted
    mutation: ``(kind, fn)``."""
    for width, seed, (_, slots) in instances(matcher):
        def fresh():
            return instantiate(matcher.t, width, seed)

        occurrences = {}
        for n, (_, _, p) in enumerate(slots):
            occurrences.setdefault(id(p), []).append(n)
        for n, (_, i, p) in enumerate(slots):
            fn, copy = fresh()
            inst = copy[n][0]
            old = inst.operands[i]
            if isinstance(p, ast.Literal):
                inst.operands[i] = MConst(old.value + 1, old.width)
                yield "literal off", fn
            elif isinstance(p, (ast.Input, ast.ConstantSymbol)) \
                    and occurrences[id(p)][-1] == n \
                    and len(occurrences[id(p)]) > 1:
                inst.operands[i] = MConst(old.value, old.width) \
                    if isinstance(old, MConst) else MArg("%other", old.width)
                yield "equal constant" if isinstance(old, MConst) \
                    else "distinct value", fn
                if isinstance(old, MConst):
                    fn, copy = fresh()
                    copy[n][0].operands[i] = MConst(old.value + 1, old.width)
                    yield "distinct value", fn
            elif isinstance(p, ast.BinOp) and isinstance(old, MInstr):
                old.opcode = "sub" if old.opcode == "add" else "add"
                yield "opcode below the root", fn
        for n, (inst, i, _) in enumerate(slots):
            old = inst.operands[i]
            if not isinstance(old, MInstr):
                # ill-formed IR: only the width checks reject it
                fn, copy = fresh()
                wrong = old.width % 8 + 1
                copy[n][0].operands[i] = MConst(old.value, wrong) \
                    if isinstance(old, MConst) else MArg("%wide", wrong)
                yield "operand width off", fn
            if inst.flags:
                fn, copy = fresh()
                copy[n][0].flags.discard(sorted(inst.flags)[0])
                yield "flag dropped", fn
        for j, inst in enumerate(instantiate(matcher.t, width, seed)[0].instrs):
            if inst.cond is not None:
                fn, _ = fresh()
                fn.instrs[j].cond = "ne" if inst.cond == "eq" else "eq"
                yield "predicate changed", fn


def test_targeted_mutants_of_corpus_templates():
    seen = {}
    for matcher in corpus():
        for kind, fn in mutants(matcher):
            analyses = Analyses(fn)
            found = same_outcome(matcher, fn.instrs[-1], analyses)
            seen.setdefault(kind, [0, 0])[found is not None] += 1
    assert set(seen) == {"literal off", "distinct value", "equal constant",
                         "opcode below the root", "flag dropped",
                         "operand width off", "predicate changed"}
    # two equal constants bound to one name still match
    assert seen["equal constant"][1] > 0


# ----------------------------------------------------------------------
# hand-written mutants


def fn8(nargs=2):
    return MFunction("f", [MArg("%%a%d" % i, 8) for i in range(nargs)])


def check(text, inst, fn, expect_match):
    matcher = TemplateMatcher(parse_transformation(text))
    found = same_outcome(matcher, inst, Analyses(fn))
    assert (found is not None) == expect_match
    return matcher.match(inst, Analyses(fn))


def test_literal_off_by_one():
    text = "%r = xor %x, -1\n=>\n%r = sub -1, %x"
    fn = fn8()
    check(text, fn.add("xor", [fn.args[0], MConst(0xFF, 8)], 8), fn, True)
    check(text, fn.add("xor", [fn.args[0], MConst(0xFE, 8)], 8), fn, False)


def test_repeated_name_bound_to_two_values():
    text = "%r = xor %x, %x\n=>\n%r = 0"
    fn = fn8()
    a, b = fn.args
    check(text, fn.add("xor", [a, a], 8), fn, True)
    check(text, fn.add("xor", [a, b], 8), fn, False)


def test_repeated_constant_bound_to_equal_constants():
    text = "%a = add %x, C\n%r = xor %a, C\n=>\n%r = xor %a, C"
    fn = fn8()
    first, second = MConst(5, 8), MConst(5, 8)
    add = fn.add("add", [fn.args[0], first], 8)
    match = check(text, fn.add("xor", [add, second], 8), fn, True)
    assert match.bindings["C"] is first
    check(text, fn.add("xor", [add, MConst(6, 8)], 8), fn, False)


def test_wrong_annotated_width():
    text = "%r = add i4 %x, %y\n=>\n%r = add %y, %x"
    fn4 = MFunction("g", [MArg("%a", 4), MArg("%b", 4)])
    check(text, fn4.add("add", fn4.args, 4), fn4, True)
    fn = fn8()
    check(text, fn.add("add", fn.args, 8), fn, False)


def test_missing_flag():
    text = "%r = add nsw %x, %y\n=>\n%r = add nsw %y, %x"
    fn = fn8()
    check(text, fn.add("add", fn.args, 8, flags=["nsw"]), fn, True)
    check(text, fn.add("add", fn.args, 8, flags=["nuw"]), fn, False)


def test_opcode_changed_at_depth_2():
    text = ("%1 = xor %x, -1\n%2 = add %1, C\n%r = sub %2, %y\n=>\n"
            "%r = sub %2, %y")
    fn = fn8()
    a, b = fn.args
    for opcode, expect in (("xor", True), ("or", False)):
        inner = fn.add(opcode, [a, MConst(0xFF, 8)], 8)
        mid = fn.add("add", [inner, MConst(3, 8)], 8)
        check(text, fn.add("sub", [mid, b], 8), fn, expect)


def test_literal_needs_more_bits():
    # 4 is -4 at i3: the typing asks for at least 4 bits
    text = "%r = add %x, 4\n=>\n%r = add 4, %x"
    fn = MFunction("g", [MArg("%a", 3)])
    check(text, fn.add("add", [fn.args[0], MConst(4, 3)], 3), fn, False)
    fn = MFunction("g", [MArg("%a", 4)])
    check(text, fn.add("add", [fn.args[0], MConst(4, 4)], 4), fn, True)


def test_conversion_must_widen():
    text = "%r = zext %x\n=>\n%r = zext %x"
    fn = MFunction("g", [MArg("%a", 4)])
    inst = fn.add("zext", [fn.args[0]], 8)
    check(text, inst, fn, True)
    inst.operands[0] = MArg("%wide", 8)  # ill-formed: not a widening
    check(text, inst, fn, False)


def test_shared_instruction_is_one_value():
    text = "%a = add %x, %y\n%r = mul %a, %a\n=>\n%r = mul %a, %a"
    fn = fn8()
    a, b = fn.args
    one = fn.add("add", [a, b], 8)
    check(text, fn.add("mul", [one, one], 8), fn, True)
    check(text, fn.add("mul", [one, fn.add("add", [a, b], 8)], 8), fn, False)


def test_width_is_read_off_the_bound_value():
    text = ("Pre: (C1 + C2) u< width(%x)\n%a = shl %x, C1\n"
            "%r = shl %a, C2\n=>\n%r = shl %x, C1 + C2")
    fn = fn8()
    inner = fn.add("shl", [fn.args[0], MConst(3, 8)], 8)
    check(text, fn.add("shl", [inner, MConst(4, 8)], 8), fn, True)
    check(text, fn.add("shl", [inner, MConst(5, 8)], 8), fn, False)
    # width(%x) - 1 as a source constant
    text = "%r = lshr %x, width(%x) - 1\n=>\n%r = lshr %x, width(%x) - 1"
    check(text, fn.add("lshr", [fn.args[0], MConst(7, 8)], 8), fn, True)
    check(text, fn.add("lshr", [fn.args[0], MConst(6, 8)], 8), fn, False)


def test_comparison_takes_the_width_of_its_type():
    # width(%x) is 4, compared as an i8 like C, not at %x's 4 bits
    matcher = TemplateMatcher(parse_transformation(
        "Pre: width(%x) u> C\n%a = zext %x\n%r = add %a, C\n=>\n"
        "%r = add %a, C"))
    for c, expect in ((3, True), (4, False), (19, False)):
        fn = MFunction("g", [MArg("%a", 4)])
        wide = fn.add("zext", [fn.args[0]], 8)
        root = fn.add("add", [wide, MConst(c, 8)], 8)
        assert (matcher.match(root, Analyses(fn)) is not None) == expect


@pytest.mark.parametrize("text", [
    "Pre: C2 == 1\n%r = add %x, C\n=>\n%r = add %x, C",
    "Pre: isPowerOf2(%y)\n%r = add %x, C\n=>\n%r = add %x, C",
    "Pre: width(%y) u> C\n%r = add %x, C\n=>\n%r = add %x, C",
])
def test_unbound_name_is_rejected_when_compiled(text):
    with pytest.raises(RewriteError):
        TemplateMatcher(parse_transformation(text))


def test_source_and_filename():
    t = parse_transformation("%r = add %x, 0\n=>\n%r = %x")
    t.name = 'x"\nraise SystemExit(1)\n#'
    program = TemplateMatcher(t).program
    assert t.name not in program.source
    assert program.run.__code__.co_filename == "<match %s>" % t.name
    assert program.source.startswith("def match(v0, analyses):")


# ----------------------------------------------------------------------
# what the pass tries


@pytest.mark.parametrize("seed", SEEDS)
def test_every_candidate_pair_of_the_pass(seed):
    opts = folding_rules() + compile_opts(load_all_flat())
    pass_ = PeepholePass(opts)
    references = {}
    stats = PassStatistics()
    pairs = 0
    module = generate_module(WorkloadConfig(
        seed=seed, functions=FUNCTIONS, instructions=INSTRUCTIONS))
    for fn in module.functions:
        for _ in range(pass_.max_iterations):
            changed = False
            analyses = Analyses(fn)
            replaced = set()
            for inst in list(fn.instrs):
                if id(inst) in replaced:
                    continue
                for opt in pass_.candidates(inst):
                    if isinstance(opt, PeepholeOpt):
                        ref = references.get(id(opt))
                        if ref is None:
                            ref = references[id(opt)] = \
                                ReferenceMatcher(opt.transformation)
                        want = outcome(ref.match, inst, analyses)
                        got = outcome(opt.matcher.match, inst, analyses)
                        assert got == want, (opt.name, repr(inst))
                        pairs += 1
                    if opt.try_apply(fn, inst, analyses):
                        stats.record(opt.name)
                        replaced.add(id(inst))
                        changed = True
                        analyses = Analyses(fn)
                        break
            run_dce(fn)
            if not changed:
                break
    assert pairs > 1000 and stats.total_fired() > 0
