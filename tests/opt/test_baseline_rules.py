"""The Alive rules of ``baseline.opt`` against the native bodies they
replaced, on hand-built instances.

The optimizer workloads never fire about a third of these rules (the
``exact``/``nuw`` forms, the ``*-one`` rules, most ``icmp-*-self``,
``select-*`` and ``sext-to-zext``), so the parity over generated
modules in ``test_baseline_parity.py`` says nothing about them.  Here
every rule's source template is instantiated at i8 with each input,
constant and literal drawn independently from a small pool (so that
repeated names both agree and differ), with every flag set on the root
and several ``icmp`` predicates.  On each instance the Alive rules, in
file order, must fire exactly where the native rules, in their order,
did, through an Alive form of the same native rule, and rewrite the
function to the same text.

Constants are uniqued in the instances, as LLVM uniques them: the
native bodies compared operands by identity, the match programs
compare constants by value.
"""

import itertools

import pytest

from repro.codegen.cpp import generate_pass
from repro.core.config import Config
from repro.core.typecheck import TypeChecker
from repro.engine import run_batch
from repro.ir import ast
from repro.ir.module import MArg, MConst, MFunction
from repro.lint import LintOptions, lint_rules
from repro.opt import (
    Analyses, PeepholePass, baseline_rules, compile_opts, folding_rules,
)
from repro.suite import load_all_flat, load_baseline
from repro.typing.enumerate import enumerate_assignments
from repro.workload import WorkloadConfig, generate_module
from tests.opt.native_baseline import ALIVE_FORMS, native_identities

ALL_CONDS = ("eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt",
             "sle")
FLAG_SETS = {
    **{op: ((), ("nsw",), ("nuw",), ("nsw", "nuw"))
       for op in ("add", "sub", "mul", "shl")},
    **{op: ((), ("exact",)) for op in ("udiv", "sdiv", "lshr", "ashr")},
}
#: what an input occurrence can be: two arguments, a value whose sign
#: bit is known zero, one whose sign bit is known one, two constants
INPUTS = ("a0", "a1", "nonneg", "negative", 0, -1)


def constants(w):
    sign = 1 << (w - 1)
    return sorted({v & ((1 << w) - 1)
                   for v in (0, 1, 2, 8, sign - 1, sign, -1)})


def widths(t):
    """Each source value's width in the typing of *t* that prefers i8."""
    checker = TypeChecker()
    checker.check_transformation(t)
    assignment = next(enumerate_assignments(
        checker.system, max_width=16, prefer=(8,), include_pointers=False,
        limit=1))
    return {id(v): assignment[checker.tv(v)].width
            for v in t.source_values()}


def choice_points(t, width):
    """The pool of each independent choice in an instance of *t*, in
    the order :func:`build` consumes them."""
    points = []

    def visit(v, root):
        if isinstance(v, ast.Instruction):
            for operand in v.operands():
                visit(operand, False)
            if v.opcode == "icmp":
                points.append(ALL_CONDS if root else ("eq", "ne"))
            points.append(FLAG_SETS.get(v.opcode, ((),)) if root
                          else (tuple(getattr(v, "flags", ())),))
        elif isinstance(v, ast.Input):
            points.append(INPUTS)
        else:
            points.append(constants(width[id(v)]))

    visit(t.src[t.root], True)
    return points


def build(t, width, choice):
    """The instance of *t* that *choice* picks; returns (fn, root)."""
    fn = MFunction("f", [])
    choice = iter(choice)
    consts, args, helpers = {}, {}, {}

    def const(value, w):
        value &= (1 << w) - 1
        return consts.setdefault((value, w), MConst(value, w))

    def arg(name, w):
        if (name, w) not in args:
            args[name, w] = MArg("%%%s_%d" % (name, w), w)
            fn.args.append(args[name, w])
        return args[name, w]

    def value(pick, w):
        if isinstance(pick, int):
            return const(pick, w)
        if pick in ("a0", "a1"):
            return arg(pick, w)
        if (pick, w) not in helpers:
            sign = 1 << (w - 1)
            helpers[pick, w] = fn.add(*(
                ("and", [arg("a0", w), const(sign - 1, w)], w)
                if pick == "nonneg"
                else ("or", [arg("a0", w), const(sign, w)], w)))
        return helpers[pick, w]

    def visit(v):
        if isinstance(v, ast.Instruction):
            operands = [visit(operand) for operand in v.operands()]
            cond = next(choice) if v.opcode == "icmp" else None
            return fn.add(v.opcode, operands, width[id(v)],
                          flags=next(choice), cond=cond)
        if isinstance(v, ast.Input):
            return value(next(choice), width[id(v)])
        return const(next(choice), width[id(v)])

    fn.ret = root = visit(t.src[t.root])
    return fn, root


def first_firing(pass_, fn, root):
    analyses = Analyses(fn)
    for rule in pass_.candidates(root):
        if rule.try_apply(fn, root, analyses):
            return rule.name
    return None


def poison_shift(fn):
    """Whether *fn* shifts by a constant amount of at least the width:
    such a value is poison on every input."""
    return any(inst.opcode in ("shl", "lshr", "ashr")
               and isinstance(inst.operands[1], MConst)
               and inst.operands[1].value >= inst.width
               for inst in fn.instrs)


@pytest.fixture(scope="module")
def baseline():
    return load_baseline()


def test_alive_rules_fire_where_the_native_bodies_did(baseline):
    alive = PeepholePass(compile_opts(baseline))
    native = PeepholePass(native_identities())
    form_of = {name: rule for rule, names in ALIVE_FORMS.items()
               for name in names}
    fired, native_fired, wider = set(), set(), []
    instances = 0
    for t in baseline:
        width = widths(t)
        for choice in itertools.product(*choice_points(t, width)):
            instances += 1
            fn, root = build(t, width, choice)
            reference, reference_root = build(t, width, choice)
            name = first_firing(alive, fn, root)
            expected = first_firing(native, reference, reference_root)
            if name is not None and expected is None:
                # the one place the verified rule is more general:
                # C1 + C2 may wrap where the source is poison
                assert name == "Baseline:shl-shl-const" \
                    and poison_shift(reference), (name, repr(reference))
                wider.append(choice)
                continue
            assert name is None or form_of[name] == expected, \
                (name, expected, repr(reference))
            assert repr(fn) == repr(reference), (t.name, choice)
            fired.add(name)
            native_fired.add(expected)
    assert instances > 10000
    assert fired - {None} == set(form_of)
    assert native_fired - {None} == set(ALIVE_FORMS) - {"not-not"}
    assert wider


def modules():
    return [generate_module(WorkloadConfig(seed=seed, functions=f,
                                           instructions=n))
            for seed, f, n in ((6, 150, 40), (99, 120, 45), (1, 40, 30),
                               (2, 40, 30), (3, 40, 30))]


def test_sext_precondition_is_the_native_sign_bit_test():
    # sext-to-zext's MaskedValueIsZero(%x, 1 << (width(%x) - 1))
    # replaced Analyses.sign_bit_known_zero; both must agree on every
    # value the optimizer sees, and on the hand-built pool
    checked = 0
    fns = [fn for m in modules() for fn in m.functions]
    for w in (1, 4, 8):
        fn = MFunction("g", [MArg("%a0", w)])
        for mask in constants(w):
            fn.add("and", [fn.args[0], MConst(mask, w)], w)
            fn.add("or", [fn.args[0], MConst(mask, w)], w)
        fns.append(fn)
    for fn in fns:
        analyses = Analyses(fn)
        for v in fn.args + fn.instrs:
            assert analyses.masked_value_is_zero(v, 1 << (v.width - 1)) \
                == analyses.sign_bit_known_zero(v), repr(v)
            checked += 1
    assert checked > 10000


def test_every_rule_emits_cpp(baseline):
    text = generate_pass(baseline, skip_unsupported=False)
    assert [line.strip()[3:] for line in text.splitlines()
            if line.startswith("  // Baseline:")] \
        == [t.name for t in baseline]


def test_every_rule_verifies_valid_under_the_default_config(baseline):
    results = run_batch(baseline, Config())
    assert {r.name: r.status for r in results} \
        == {t.name: "valid" for t in baseline}


def test_lint_reports_no_errors_and_no_warnings(baseline):
    report = lint_rules(baseline, LintOptions())
    bad = [f for f in report.findings if f.severity != "info"]
    assert bad == [], "\n".join(f.format() for f in bad)


def test_baseline_is_the_folds_then_the_file(baseline):
    assert [r.name for r in baseline_rules()] \
        == [r.name for r in folding_rules()] + [t.name for t in baseline]
    # kept out of the corpus and its workloads
    corpus = {t.name for t in load_all_flat()}
    assert not corpus & {t.name for t in baseline}
