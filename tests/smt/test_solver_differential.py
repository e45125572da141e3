"""Differential tests: CDCL+bit-blasting vs brute-force enumeration.

These property tests are the linchpin of the reproduction: every
verification result downstream rests on the solver agreeing with the
ground-truth evaluator on the QF_BV fragment and on ∃∀ queries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.brute import brute_check_sat, brute_exists_forall
from repro.smt.eval import evaluate
from repro.smt.solver import (IncrementalSession, check_sat, model_evaluates,
                              solve_exists_forall)

WIDTH = 3

VARS = [T.bv_var(n, WIDTH) for n in ("a", "b", "c")]

_BINOPS = [
    T.bvadd, T.bvsub, T.bvmul, T.bvudiv, T.bvsdiv, T.bvurem, T.bvsrem,
    T.bvshl, T.bvlshr, T.bvashr, T.bvand, T.bvor, T.bvxor,
]
_CMPS = [T.eq, T.ne, T.ult, T.ule, T.slt, T.sle, T.ugt, T.uge, T.sgt, T.sge]


def bv_terms(depth):
    """Hypothesis strategy for bitvector terms over VARS at WIDTH."""
    leaf = st.one_of(
        st.sampled_from(VARS),
        st.integers(0, (1 << WIDTH) - 1).map(lambda v: T.bv_const(v, WIDTH)),
    )
    if depth == 0:
        return leaf
    sub = bv_terms(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(_BINOPS), sub, sub).map(lambda t: t[0](t[1], t[2])),
        sub.map(T.bvnot),
        sub.map(T.bvneg),
    )


def bool_terms(depth=2):
    cmp = st.tuples(st.sampled_from(_CMPS), bv_terms(depth), bv_terms(depth)).map(
        lambda t: t[0](t[1], t[2])
    )
    return st.one_of(
        cmp,
        st.tuples(cmp, cmp).map(lambda t: T.and_(t[0], t[1])),
        st.tuples(cmp, cmp).map(lambda t: T.or_(t[0], t[1])),
        cmp.map(T.not_),
    )


@settings(max_examples=120, deadline=None)
@given(bool_terms())
def test_check_sat_agrees_with_brute(formula):
    expected, _ = brute_check_sat(formula)
    result = check_sat(formula)
    assert result.status == expected
    if result.is_sat():
        model = {v: result.model.get(v, 0) for v in T.free_vars(formula)}
        assert evaluate(formula, model) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(bool_terms(), min_size=2, max_size=5))
def test_session_stream_agrees_with_brute(formulas):
    """One session decides a stream of formulas in order.  Its builder
    shares gates across the queries, so each verdict must still match
    brute force and each model must satisfy its own formula."""
    session = IncrementalSession()
    for formula in formulas:
        expected, _ = brute_check_sat(formula)
        result = session.check(formula)
        assert result.status == expected
        if result.is_sat():
            assert model_evaluates(formula, result.model)


@settings(max_examples=60, deadline=None)
@given(bool_terms(depth=1))
def test_validity_of_negation(formula):
    """sat(f) xor valid(not f)."""
    from repro.smt.solver import check_valid

    sat_res = check_sat(formula)
    valid_neg = check_valid(T.not_(formula))
    # not f is valid iff f is unsat
    assert sat_res.is_sat() == valid_neg.is_sat()


@settings(max_examples=40, deadline=None)
@given(bool_terms(depth=1))
def test_exists_forall_agrees_with_brute(formula):
    """Treat 'c' as universal, the rest as existential."""
    u = T.bv_var("c", WIDTH)
    expected, _ = brute_exists_forall([], [u], formula)
    result = solve_exists_forall([], [u], formula)
    assert result.status == expected
    if result.is_sat():
        # the returned outer model must make the formula hold for every u
        mapping = {v: T.bv_const(val, WIDTH) for v, val in result.model.items()}
        grounded = T.substitute(formula, mapping)
        for val in range(1 << WIDTH):
            g = T.substitute(grounded, {u: T.bv_const(val, WIDTH)})
            model = {v: 0 for v in T.free_vars(g)}
            assert evaluate(g, model) == 1


class TestKnownQueries:
    def test_demorgan_valid(self):
        x, y = T.bv_var("x", 8), T.bv_var("y", 8)
        f = T.eq(T.bvnot(T.bvand(x, y)), T.bvor(T.bvnot(x), T.bvnot(y)))
        assert check_sat(T.not_(f)).is_unsat()

    def test_mul_shift_equiv(self):
        x = T.bv_var("x", 8)
        f = T.eq(T.bvmul(x, T.bv_const(8, 8)), T.bvshl(x, T.bv_const(3, 8)))
        assert check_sat(T.not_(f)).is_unsat()

    def test_sub_is_add_neg(self):
        x, y = T.bv_var("x", 6), T.bv_var("y", 6)
        f = T.eq(T.bvsub(x, y), T.bvadd(x, T.bvneg(y)))
        assert check_sat(T.not_(f)).is_unsat()

    def test_udiv_known_value(self):
        x = T.bv_var("x", 8)
        f = T.and_(
            T.eq(T.bvudiv(x, T.bv_const(3, 8)), T.bv_const(5, 8)),
            T.eq(T.bvurem(x, T.bv_const(3, 8)), T.bv_const(2, 8)),
        )
        r = check_sat(f)
        assert r.is_sat()
        assert r.model[x] == 17

    def test_signed_division_rounding(self):
        # -7 sdiv 2 == -3 must be valid
        w = 8
        f = T.eq(
            T.bvsdiv(T.bv_const(-7, w), T.bv_const(2, w)), T.bv_const(-3, w)
        )
        assert f is T.TRUE  # constant-folded

    def test_sdiv_symbolic_negation(self):
        # (0 - x) sdiv y == 0 - (x sdiv y) is NOT valid (INT_MIN corner)
        x, y = T.bv_var("x", 4), T.bv_var("y", 4)
        zero = T.bv_const(0, 4)
        f = T.eq(T.bvsdiv(T.bvsub(zero, x), y), T.bvsub(zero, T.bvsdiv(x, y)))
        r = check_sat(T.not_(f))
        assert r.is_sat()  # counterexample exists (x = INT_MIN)

    def test_xor_add_transform(self):
        """The paper's running example at i8: (x ^ -1) + C == (C-1) - x."""
        x, c = T.bv_var("x", 8), T.bv_var("C", 8)
        lhs = T.bvadd(T.bvxor(x, T.bv_const(-1, 8)), c)
        rhs = T.bvsub(T.bvsub(c, T.bv_const(1, 8)), x)
        assert check_sat(T.ne(lhs, rhs)).is_unsat()

    def test_select_undef_ashr_example(self):
        """Paper §3.1.3: select undef ? -1 : 0  ==>  ashr undef, 3 at i4.

        Valid: ∀u2 ∃u1 : ite(u1) = u2 >> 3.  Negated: ∃u2 ∀u1 : ≠, which
        must be UNSAT.
        """
        u1 = T.bv_var("u1", 1)
        u2 = T.bv_var("u2", 4)
        src = T.ite(T.eq(u1, T.bv_const(1, 1)), T.bv_const(-1, 4), T.bv_const(0, 4))
        tgt = T.bvashr(u2, T.bv_const(3, 4))
        neg = solve_exists_forall([u2], [u1], T.ne(src, tgt))
        assert neg.is_unsat()

    def test_unknown_budget(self):
        # a hard multiplication equivalence with a tiny conflict budget
        x, y = T.bv_var("x", 12), T.bv_var("y", 12)
        f = T.eq(T.bvmul(x, y), T.bv_const(2039, 12))
        r = check_sat(f, conflict_limit=1)
        assert r.status in ("sat", "unknown")
