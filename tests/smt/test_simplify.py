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


_AC_OPS = [T.bvadd, T.bvmul, T.bvand, T.bvor, T.bvxor]


@st.composite
def ac_terms(draw, leaves, width, depth=3):
    """A term over the five AC ops whose leaves are *leaves* or constants."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return T.bv_const(draw(st.integers(0, (1 << width) - 1)), width)
        return draw(st.sampled_from(leaves))
    op = draw(st.sampled_from(_AC_OPS))
    return op(draw(ac_terms(leaves, width, depth - 1)),
              draw(ac_terms(leaves, width, depth - 1)))


@st.composite
def ac_cases(draw):
    width = draw(st.integers(1, 4))
    names = "xyz"[:draw(st.integers(2, 3))]
    leaves = [T.bv_var(n, width) for n in names]
    return draw(ac_terms(leaves, width))


@settings(max_examples=150, deadline=None)
@given(ac_cases())
def test_ac_normal_form_preserves_semantics(term):
    assert_equivalent(term)


def associations(op, leaves):
    """Every way to parenthesize *leaves* (in this order) under *op*."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for cut in range(1, len(leaves)):
        for lhs in associations(op, leaves[:cut]):
            for rhs in associations(op, leaves[cut:]):
                yield op(lhs, rhs)


@st.composite
def ac_leaf_lists(draw):
    """An AC op and 2-4 leaves at one width: variables (repeats allowed),
    constants and a foreign-op leaf that the chain must not enter."""
    width = draw(st.integers(1, 4))
    x, y, z = (T.bv_var(n, width) for n in "xyz")
    op = draw(st.sampled_from(_AC_OPS))
    pool = st.one_of(
        st.sampled_from([x, y, z, T.bvnot(x), T.bvlshr(y, z)]),
        st.integers(0, (1 << width) - 1).map(
            lambda v: T.bv_const(v, width)),
    )
    return op, draw(st.lists(pool, min_size=2, max_size=4))


@settings(max_examples=100, deadline=None)
@given(ac_leaf_lists())
def test_ac_normal_form_is_canonical(case):
    op, leaves = case
    forms = {simplify(t) for perm in itertools.permutations(leaves)
             for t in associations(op, list(perm))}
    assert len(forms) == 1, sorted(str(f) for f in forms)


class TestACNormalForm:
    C1 = T.bv_var("C1", WIDTH)
    C2 = T.bv_var("C2", WIDTH)

    def test_symbolic_constants_meet(self):
        lhs = T.bvmul(T.bvmul(X, self.C1), self.C2)
        rhs = T.bvmul(X, T.bvmul(self.C1, self.C2))
        assert lhs is not rhs
        assert simplify(lhs) is simplify(rhs)
        assert simplify(T.eq(lhs, rhs)) is T.TRUE

    def test_constants_fold_into_one_trailing_constant(self):
        def k(v):
            return T.bv_const(v, WIDTH)

        t = T.bvadd(T.bvadd(k(3), X), T.bvadd(T.bvadd(Y, k(4)), k(5)))
        s = simplify(t)
        assert s.op == T.OP_BVADD and s.args[1] is k(12)
        assert s.args[0] is T.bvadd(X, Y)

    def test_idempotent_ops_deduplicate(self):
        assert simplify(T.bvand(T.bvand(X, Y), X)) is T.bvand(X, Y)
        assert simplify(T.bvor(X, T.bvor(Y, X))) is T.bvor(X, Y)
        assert simplify(T.bvxor(T.bvxor(X, Y), X)) is Y

    def test_xor_absorbs_not(self):
        t = T.bvxor(T.bvnot(X), Y)
        assert simplify(t) is T.bvnot(T.bvxor(X, Y))
        assert simplify(T.bvxor(X, T.bvnot(Y))) is simplify(t)

    def test_past_the_cap_the_chain_is_left_alone(self):
        from repro.smt.simplify import AC_LEAF_CAP

        leaves = [T.bv_var("v%d" % i, WIDTH) for i in range(AC_LEAF_CAP + 1)]
        right = leaves[-1]
        for leaf in reversed(leaves[1:-1]):
            right = T.bvadd(leaf, right)
        left = leaves[1]
        for leaf in leaves[2:]:
            left = T.bvadd(left, leaf)
        # AC_LEAF_CAP leaves: both shapes meet
        assert simplify(right) is simplify(left)
        # one leaf more: the top node stays, the chain under it is normal
        top = T.bvadd(leaves[0], right)
        assert simplify(top) is T.bvadd(leaves[0], simplify(right))


class TestLinearPass:
    """Each pass visits each distinct DAG node once, however deeply
    sub-terms are shared.  A memo keyed on the *rewritten* node misses
    on every revisit of a changed subtree and re-walks it: 2**DEPTH
    rule visits on the DAG below."""

    DEPTH = 24

    @staticmethod
    def shared_dag(depth, ops=(T.bvmul,)):
        # the bottom node rewrites (bvsub x, k -> bvadd x, -k), so every
        # level above it changes too; each level uses the one below twice
        t = T.bvsub(X, T.bv_const(3, WIDTH))
        for level in range(depth):
            t = ops[level % len(ops)](t, t)
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

    @staticmethod
    def assert_linear_passes(visits, original):
        from repro.smt.simplify import _one_pass

        term = original
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

    def test_rule_visits_linear_in_dag_size(self, visits):
        self.assert_linear_passes(visits, self.shared_dag(self.DEPTH))

    def test_add_dag_rule_visits_linear(self, visits):
        # one bvadd chain with 2**DEPTH leaves: the AC flatten walks it
        # as a tree and only its leaf cap keeps that from blowing up
        self.assert_linear_passes(
            visits, self.shared_dag(self.DEPTH, (T.bvadd,)))

    def test_add_mul_dag_rule_visits_linear(self, visits):
        # every chain has two leaves: the flatten stops at the op change
        self.assert_linear_passes(
            visits, self.shared_dag(self.DEPTH, (T.bvadd, T.bvmul)))

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
