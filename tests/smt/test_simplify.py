"""Property tests for the global term simplifier: every rewrite must be
an exact semantic identity, checked over full input spaces."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.eval import evaluate
from repro.smt.simplify import simplify

WIDTH = 4
X = T.bv_var("x", WIDTH)
Y = T.bv_var("y", WIDTH)
C = T.bool_var("c")


def assert_equivalent(before, after=None):
    after = simplify(before) if after is None else after
    variables = sorted(T.free_vars(before) | T.free_vars(after),
                       key=lambda v: v.data)
    domains = [range(2) if v.sort is T.BOOL else range(1 << v.sort.width)
               for v in variables]
    for values in itertools.product(*domains):
        model = dict(zip(variables, values))
        assert evaluate(before, model) == evaluate(after, model), (
            str(before), str(after), model,
        )


class TestRules:
    def test_ite_fuse_not(self):
        t = T.ite(C, T.bvnot(X), T.bvnot(Y))
        s = simplify(t)
        assert s.op == T.OP_BVNOT
        assert_equivalent(t, s)

    def test_ite_fuse_neg(self):
        t = T.ite(C, T.bvneg(X), T.bvneg(Y))
        s = simplify(t)
        assert s.op == T.OP_BVNEG
        assert_equivalent(t, s)

    def test_eq_ite_const_both_arms(self):
        t = T.eq(T.ite(C, T.bv_const(3, WIDTH), T.bv_const(5, WIDTH)),
                 T.bv_const(3, WIDTH))
        assert simplify(t) is C
        t2 = T.eq(T.ite(C, T.bv_const(3, WIDTH), T.bv_const(5, WIDTH)),
                  T.bv_const(5, WIDTH))
        assert simplify(t2) is T.not_(C)
        t3 = T.eq(T.ite(C, T.bv_const(3, WIDTH), T.bv_const(5, WIDTH)),
                  T.bv_const(9, WIDTH))
        assert simplify(t3) is T.FALSE

    def test_reassoc_constants_meet(self):
        t = T.bvadd(T.bvadd(X, T.bv_const(3, WIDTH)), T.bv_const(5, WIDTH))
        s = simplify(t)
        # the two constants fold into one 8
        assert s.op == T.OP_BVADD
        assert s.args[1].data == 8
        assert_equivalent(t, s)

    def test_sub_const_becomes_add(self):
        t = T.bvsub(X, T.bv_const(3, WIDTH))
        s = simplify(t)
        assert s.op == T.OP_BVADD
        assert_equivalent(t, s)

    def test_sub_then_add_collapses(self):
        t = T.bvadd(T.bvsub(X, T.bv_const(3, WIDTH)), T.bv_const(3, WIDTH))
        assert simplify(t) is X

    def test_not_of_comparison(self):
        t = T.not_(T.ult(X, Y))
        s = simplify(t)
        assert s.op == T.OP_ULE
        assert_equivalent(t, s)

    def test_xor_not_melts(self):
        t = T.bvxor(T.bvnot(X), T.bv_const(0b1010, WIDTH))
        s = simplify(t)
        assert_equivalent(t, s)
        # the not disappears into the constant
        assert s.op == T.OP_BVXOR and s.args[0] is X

    def test_fixpoint_reached(self):
        t = T.bvadd(
            T.bvadd(T.bvsub(X, T.bv_const(1, WIDTH)), T.bv_const(2, WIDTH)),
            T.bv_const(3, WIDTH),
        )
        s = simplify(t)
        assert simplify(s) is s


_BINOPS = [T.bvadd, T.bvsub, T.bvmul, T.bvand, T.bvor, T.bvxor,
           T.bvshl, T.bvlshr, T.bvashr, T.bvudiv, T.bvsdiv]
_CMPS = [T.eq, T.ne, T.ult, T.ule, T.slt, T.sle]


@st.composite
def random_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([
            X, Y, T.bv_const(draw(st.integers(0, 15)), WIDTH),
        ]))
    kind = draw(st.sampled_from(["bin", "not", "neg", "ite"]))
    if kind == "bin":
        op = draw(st.sampled_from(_BINOPS))
        return op(draw(random_terms(depth=depth - 1)),
                  draw(random_terms(depth=depth - 1)))
    if kind == "not":
        return T.bvnot(draw(random_terms(depth=depth - 1)))
    if kind == "neg":
        return T.bvneg(draw(random_terms(depth=depth - 1)))
    cond = draw(st.sampled_from(_CMPS))(
        draw(random_terms(depth=depth - 1)),
        draw(random_terms(depth=depth - 1)),
    )
    return T.ite(cond, draw(random_terms(depth=depth - 1)),
                 draw(random_terms(depth=depth - 1)))


@settings(max_examples=150, deadline=None)
@given(random_terms())
def test_simplify_preserves_semantics(term):
    assert_equivalent(term)


@settings(max_examples=80, deadline=None)
@given(random_terms(depth=2))
def test_simplify_on_boolean_wrappers(term):
    f = T.ult(term, T.bv_const(7, WIDTH))
    assert_equivalent(f)


@settings(max_examples=80, deadline=None)
@given(random_terms(depth=2))
def test_simplify_never_grows_much(term):
    before = T.term_size(term)
    after = T.term_size(simplify(term))
    assert after <= before + 2  # rules may introduce one wrapper node


class TestLinearPass:
    """Each pass visits each distinct DAG node once, however deeply
    sub-terms are shared.  A memo keyed on the *rewritten* node misses
    on every revisit of a changed subtree and re-walks it: 2**DEPTH
    rule visits on the DAG below."""

    DEPTH = 24

    @staticmethod
    def shared_dag(depth):
        # the bottom node rewrites (bvsub x, k -> bvadd x, -k), so every
        # level above it changes too; each level uses the one below twice
        t = T.bvsub(X, T.bv_const(3, WIDTH))
        for _ in range(depth):
            t = T.bvmul(t, t)
        return t

    @pytest.fixture
    def visits(self, monkeypatch):
        """Counts rule applications; fails fast past the linear budget
        instead of running an exponential walk to completion."""
        import repro.smt.simplify as S

        counter = {"n": 0, "budget": 0, "rules": len(S._RULES)}

        def counted(rule):
            def wrapper(t):
                counter["n"] += 1
                assert counter["n"] <= counter["budget"], \
                    "a pass revisits shared nodes"
                return rule(t)
            return wrapper

        monkeypatch.setattr(S, "_RULES", tuple(counted(r) for r in S._RULES))
        return counter

    def test_rule_visits_linear_in_dag_size(self, visits):
        from repro.smt.simplify import _one_pass

        original = term = self.shared_dag(self.DEPTH)
        for _ in range(4):
            visits["n"] = 0
            visits["budget"] = visits["rules"] * T.term_size(term)
            new = _one_pass(term)
            if new is term:
                break
            term = new
        else:
            pytest.fail("no fixpoint within four passes")
        assert term is not original  # the bottom rewrite really fired

    def test_idempotent_on_shared_dag(self, visits):
        term = self.shared_dag(self.DEPTH)
        # simplify runs at most four passes
        visits["budget"] = 4 * visits["rules"] * T.term_size(term)
        s = simplify(term)
        assert s is not term
        visits["n"] = 0
        assert simplify(s) is s

    def test_shared_dag_semantics(self):
        assert_equivalent(self.shared_dag(3))
