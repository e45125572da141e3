"""The differential oracles and the concrete refinement checker."""

import ast as pyast
import itertools
import os
import random
from types import SimpleNamespace

import pytest

from repro.core.typecheck import TypeAssignment
from repro.core.verifier import decompose, verify
from repro.fuzz import (
    check_ef,
    check_formula,
    check_point,
    check_rule,
    confirm_counterexample,
    default_rule_config,
    revalidate_valid,
)
import repro
from repro.core.semantics import (
    _BINOP_TERM,
    _ICMP_TERM,
    _PRED_CMP_TERM,
    TemplateEncoder,
    builtin_semantic_condition,
)
from repro.ir import ast, intops, parse_transformations
from repro.ir.constexpr import ConstExpr, apply_op
from repro.ir.intops import binop_poisons, defined, total_binop
from repro.ir.precond import (
    BUILTIN_PREDICATES,
    CMP_OPS,
    SYNTACTIC,
    builtin_holds,
    compare,
)
from repro.smt import terms as T
from repro.smt.eval import evaluate

CONFIG = default_rule_config()


def _parse(text):
    return parse_transformations(text)[0]


def _types(t):
    early, checker, mappings = decompose(t, CONFIG)
    assert early is None and mappings
    return TypeAssignment(checker, mappings[0])


# ---------------------------------------------------------------------------
# term level
# ---------------------------------------------------------------------------


def test_check_formula_agrees_on_tautology():
    v = T.bv_var("v0", 4)
    assert check_formula(T.eq(v, v)) == []


def test_check_formula_agrees_on_contradiction():
    v = T.bv_var("v0", 4)
    f = T.and_(T.ult(v, T.bv_const(2, 4)), T.ult(T.bv_const(9, 4), v))
    assert check_formula(f) == []


def test_check_ef_agrees_both_ways():
    v = T.bv_var("v0", 3)
    u = T.bv_var("u0", 3)
    # exists v forall u: v & u == 0  (v = 0 works)
    phi = T.eq(T.bvand(v, u), T.bv_const(0, 3))
    assert check_ef([v], [u], phi) == []
    # exists v forall u: v == u  (impossible over 3 bits)
    assert check_ef([v], [u], T.eq(v, u)) == []


# ---------------------------------------------------------------------------
# module level
# ---------------------------------------------------------------------------


def test_check_interp_eager_lazy_agree_on_workloads():
    from repro.fuzz import check_interp

    for seed in range(5):
        assert check_interp(seed) == []


# ---------------------------------------------------------------------------
# concrete semantics helpers
# ---------------------------------------------------------------------------


def test_total_binop_matches_smtlib_totalization():
    w = 4
    assert total_binop("udiv", 5, 0, w) == T.mask(w)          # x/0 = ~0
    assert total_binop("urem", 5, 0, w) == 5                  # x%0 = x
    assert total_binop("sdiv", 13, 0, w) == 1                 # neg/0 = 1
    assert total_binop("sdiv", 3, 0, w) == T.mask(w)          # pos/0 = -1
    assert total_binop("shl", 1, 9, w) == 0                   # shamt >= w
    assert total_binop("ashr", 8, 9, w) == T.mask(w)          # sign fill


@pytest.mark.parametrize("op", sorted(_BINOP_TERM))
def test_total_binop_matches_encoder_on_every_input(op):
    for w in range(1, 5):
        a, b = T.bv_var("a", w), T.bv_var("b", w)
        term = _BINOP_TERM[op](a, b)
        for x, y in itertools.product(range(1 << w), repeat=2):
            expected = evaluate(term, {a: x, b: y})
            assert intops.total_binop(op, x, y, w) == expected, (w, x, y)


@pytest.mark.parametrize("cond", sorted(_ICMP_TERM))
def test_icmp_matches_encoder_on_every_input(cond):
    for w in range(1, 5):
        a, b = T.bv_var("a", w), T.bv_var("b", w)
        term = _ICMP_TERM[cond](a, b)
        for x, y in itertools.product(range(1 << w), repeat=2):
            expected = int(bool(evaluate(term, {a: x, b: y})))
            assert intops.icmp(cond, x, y, w) == expected, (w, x, y)


_CONV_TERM = {"zext": T.zext_to, "sext": T.sext_to, "trunc": T.trunc_to}


@pytest.mark.parametrize("op", sorted(_CONV_TERM))
def test_convert_matches_encoder_on_every_input(op):
    for src_w, dst_w in itertools.product(range(1, 5), repeat=2):
        if (dst_w < src_w) != (op == "trunc") or dst_w == src_w:
            continue  # the widths typing admits for this conversion
        x = T.bv_var("x", src_w)
        term = _CONV_TERM[op](x, dst_w)
        for v in range(1 << src_w):
            expected = evaluate(term, {x: v})
            assert intops.convert(op, v, src_w, dst_w) == expected, (
                src_w, dst_w, v)


_CONSTEXPR_ONLY_OPS = [("neg", 1), ("not", 1), ("abs", 1), ("log2", 1),
                       ("umax", 2), ("umin", 2), ("smax", 2), ("smin", 2)]


@pytest.mark.parametrize("op,arity", _CONSTEXPR_ONLY_OPS)
def test_constexpr_op_matches_encoder_on_every_input(op, arity):
    names = ["C%d" % i for i in range(arity)]
    node = ConstExpr(op, [ast.ConstantSymbol(n) for n in names])
    for w in range(1, 5):
        args = [T.bv_var(n, w) for n in names]
        # for these operators the encoder reads only the operands' terms
        encoder = SimpleNamespace(
            ctx=None, value=lambda c: args[names.index(c.name)])
        term = TemplateEncoder._encode_constexpr(encoder, node)
        for vals in itertools.product(range(1 << w), repeat=arity):
            expected = evaluate(term, dict(zip(args, vals)))
            assert apply_op(op, list(vals), w) == expected, (w, vals)


def test_defined_condition_table1():
    w = 4
    assert not defined("udiv", 1, 0, w)
    assert defined("udiv", 1, 3, w)
    # INT_MIN / -1 overflows
    assert not defined("sdiv", 8, 15, w)
    assert not defined("shl", 1, 4, w)
    assert defined("shl", 1, 3, w)


def test_flag_condition_shl_nsw_uses_totalized_ops():
    # shamt >= width: the SMT formula compares against the *totalized*
    # shift, and the concrete oracle must agree with it exactly
    w = 4
    smt = T.eq(T.bvashr(T.bvshl(T.bv_const(1, w), T.bv_const(9, w)),
                        T.bv_const(9, w)),
               T.bv_const(1, w))
    from repro.smt.eval import holds

    assert (not binop_poisons("shl", ("nsw",), 1, 9, w)) == holds(smt, {})


_SEMANTIC_BUILTINS = sorted(fn for fn, (_, kind) in BUILTIN_PREDICATES.items()
                            if kind != SYNTACTIC)


@pytest.mark.parametrize("fn", _SEMANTIC_BUILTINS)
def test_builtin_holds_matches_semantic_condition(fn):
    # the concrete built-ins the matcher, lint, precondition inference
    # and the fuzzer run are the conditions the verifier proves against
    arity = BUILTIN_PREDICATES[fn][0]
    for w in range(1, 5):
        args = [T.bv_var("a%d" % i, w) for i in range(arity)]
        cond = builtin_semantic_condition(fn, args)
        for vals in itertools.product(range(1 << w), repeat=arity):
            expected = bool(evaluate(cond, dict(zip(args, vals))))
            assert builtin_holds(fn, list(vals), w) == expected, (w, vals)


@pytest.mark.parametrize("op", CMP_OPS)
def test_compare_matches_semantic_comparison(op):
    for w in range(1, 5):
        a, b = T.bv_var("a", w), T.bv_var("b", w)
        cond = _PRED_CMP_TERM[op](a, b)
        for x, y in itertools.product(range(1 << w), repeat=2):
            expected = bool(evaluate(cond, {a: x, b: y}))
            assert compare(op, x, y, w) == expected, (w, x, y)


#: the modules allowed to spell out what a WillNotOverflow* built-in
#: means: concretely, symbolically, abstractly and as C++ text
_BUILTIN_SEMANTICS_HOMES = ("ir/precond.py", "core/semantics.py", "absint/",
                            "codegen/cpp.py")


def _overflow_name_tests(path):
    """Line numbers in *path* that compare a name to a
    ``"WillNotOverflow..."`` string (``==``, ``in``, ``startswith``)."""
    with open(path) as handle:
        tree = pyast.parse(handle.read(), path)

    def named(node):
        items = node.elts if isinstance(
            node, (pyast.Tuple, pyast.List, pyast.Set)) else [node]
        return any(isinstance(i, pyast.Constant) and isinstance(i.value, str)
                   and i.value.startswith("WillNotOverflow") for i in items)

    lines = []
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Compare):
            operands = [node.left] + node.comparators
        elif (isinstance(node, pyast.Call)
              and isinstance(node.func, pyast.Attribute)
              and node.func.attr in ("startswith", "endswith")):
            operands = node.args
        else:
            continue
        if any(named(o) for o in operands):
            lines.append(node.lineno)
    return lines


def test_builtin_semantics_defined_in_one_place_per_side():
    root = os.path.dirname(repro.__file__)
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if not name.endswith(".py") or rel.startswith(
                    _BUILTIN_SEMANTICS_HOMES):
                continue
            lines = _overflow_name_tests(path)
            if lines:
                found[rel] = lines
    assert found == {}


# ---------------------------------------------------------------------------
# rule level
# ---------------------------------------------------------------------------

_WRONG = """Name: wrong
%r = lshr %x, 1
=>
%r = ashr %x, 1
"""

_RIGHT = """Name: right
%r = add %x, %y
=>
%r = add %y, %x
"""


def test_check_point_finds_value_violation():
    t = _parse(_WRONG)
    types = _types(t)
    v = check_point(t, types, CONFIG, {"%x": 8}, {})
    assert v is not None and (v.kind, v.name) == ("value", "%r")
    assert check_point(t, types, CONFIG, {"%x": 3}, {}) is None


def test_check_point_poison_violation():
    t = _parse("""Name: p
%r = add %x, %y
=>
%r = add nsw %x, %y
""")
    types = _types(t)
    # 7 + 1 overflows signed i4: target-only poison
    v = check_point(t, types, CONFIG, {"%x": 7, "%y": 1}, {})
    assert v is not None and v.kind == "poison"
    assert check_point(t, types, CONFIG, {"%x": 1, "%y": 1}, {}) is None


def test_check_point_domain_violation():
    t = _parse("""Name: d
%r = mul %x, 2
=>
%r = udiv %x, 0
""")
    types = _types(t)
    v = check_point(t, types, CONFIG, {"%x": 1}, {})
    assert v is not None and v.kind == "domain"


def test_revalidate_detects_wrong_valid_verdict():
    ds = revalidate_valid(_parse(_WRONG), CONFIG, random.Random(0),
                          samples=16)
    assert ds and ds[0].check == "valid-refuted-concretely"


def test_revalidate_passes_correct_rule():
    assert revalidate_valid(_parse(_RIGHT), CONFIG, random.Random(0),
                            samples=16) == []


def test_confirm_counterexample_reproduces():
    t = _parse(_WRONG)
    result = verify(t, CONFIG)
    assert result.status == "invalid"
    assert confirm_counterexample(t, CONFIG, result.counterexample) == []


def test_check_rule_end_to_end_clean():
    for text in (_RIGHT, _WRONG):
        assert check_rule(_parse(text), CONFIG, random.Random(1),
                          samples=8) == []


def test_precondition_gates_concrete_check():
    t = _parse("""Name: pre
Pre: C1 == 0
%r = or %x, C1
=>
%r = add %x, C1
""")
    types = _types(t)
    # C1 = 1 falsifies the precondition: no violation at any input
    assert check_point(t, types, CONFIG, {"%x": 5, "C1": 1}, {}) is None
    # C1 = 0 satisfies it; or == add when C1 == 0, still no violation
    assert check_point(t, types, CONFIG, {"%x": 5, "C1": 0}, {}) is None


def test_validate_rejects_shared_undef_object():
    # one UndefValue object in two operand slots is unprintable: the
    # reparse quantifies the occurrences independently (a real verdict
    # flip found by the fuzzer), so validate() must reject it
    from repro.ir.precond import PredTrue

    u = ast.UndefValue()
    src = {"%r": ast.BinOp("%r", "and", u, ast.Input("%x"))}
    tgt = {"%r": ast.BinOp("%r", "or", u, ast.Input("%x"))}
    t = ast.Transformation("shared", PredTrue(), src, tgt)
    with pytest.raises(ast.ScopeError):
        t.validate()


def test_validate_accepts_distinct_undefs():
    src = {"%r": ast.BinOp("%r", "and", ast.UndefValue(), ast.Input("%x"))}
    tgt = {"%r": ast.BinOp("%r", "or", ast.UndefValue(), ast.Input("%x"))}
    from repro.ir.precond import PredTrue

    t = ast.Transformation("fresh", PredTrue(), src, tgt)
    t.validate()
