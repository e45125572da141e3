"""Global term simplification (rewrite-to-fixpoint).

The smart constructors in :mod:`repro.smt.terms` perform *local*
simplification at construction time.  This module adds a second layer:
a bottom-up rewriting pass applying non-local rules that only pay off on
whole verification conditions, e.g.

* ``ite`` fusion: ``ite(c, f(x), f(y)) → f(ite(c, x, y))`` for unary f;
* comparison folding against ``ite`` arms with constant branches;
* xor/and/or chains re-associated so constants meet and fold;
* double arithmetic negation and subtraction normalization.

All rules are proven semantics-preserving by the property tests in
``tests/smt/test_simplify.py``, which compare against the evaluator over
full input spaces.  The verifier calls :func:`simplify` on each query
right before bit-blasting (disable with ``Config.simplify_queries``).

Each pass visits each distinct DAG node once: its memo is keyed on the
node the walk was called with, not on the rewritten result, so a shared
sub-DAG whose subtree changed is not walked again.  A pass is linear in
the DAG size, however deeply the query shares sub-terms.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import terms as T
from .terms import Term

_UNARY_FUSABLE = {T.OP_BVNOT, T.OP_BVNEG}


def _rule_ite_fuse_unary(t: Term) -> Optional[Term]:
    """ite(c, op(x), op(y)) -> op(ite(c, x, y)) for cheap unary ops."""
    if t.op != T.OP_ITE:
        return None
    c, a, b = t.args
    if a.op in _UNARY_FUSABLE and a.op == b.op:
        inner = T.ite(c, a.args[0], b.args[0])
        return T.bvnot(inner) if a.op == T.OP_BVNOT else T.bvneg(inner)
    return None


def _rule_eq_ite_const(t: Term) -> Optional[Term]:
    """(= (ite c x y) k) with constant arms folds to c or !c."""
    if t.op != T.OP_EQ:
        return None
    lhs, rhs = t.args
    if rhs.op == T.OP_ITE and lhs.op == T.OP_BVCONST:
        lhs, rhs = rhs, lhs
    if lhs.op != T.OP_ITE or rhs.op != T.OP_BVCONST:
        return None
    c, x, y = lhs.args
    if x.op == T.OP_BVCONST and y.op == T.OP_BVCONST:
        hit_x = x.data == rhs.data
        hit_y = y.data == rhs.data
        if hit_x and hit_y:
            return T.TRUE
        if hit_x:
            return c
        if hit_y:
            return T.not_(c)
        return T.FALSE
    return None


def _rule_reassoc_const(t: Term) -> Optional[Term]:
    """(op (op x k1) k2) -> (op x (k1 op k2)) for assoc-commutative ops."""
    builders = {
        T.OP_BVADD: T.bvadd,
        T.OP_BVMUL: T.bvmul,
        T.OP_BVAND: T.bvand,
        T.OP_BVOR: T.bvor,
        T.OP_BVXOR: T.bvxor,
    }
    build = builders.get(t.op)
    if build is None:
        return None
    a, b = t.args
    if b.op != T.OP_BVCONST or a.op != t.op:
        return None
    x, k1 = a.args
    if k1.op != T.OP_BVCONST:
        return None
    return build(x, build(k1, b))


def _rule_sub_to_add_const(t: Term) -> Optional[Term]:
    """(bvsub x k) -> (bvadd x -k): exposes reassociation with adds."""
    if t.op != T.OP_BVSUB:
        return None
    a, b = t.args
    if b.op == T.OP_BVCONST and b.data != 0:
        return T.bvadd(a, T.bv_const(-b.data, b.width))
    return None


def _rule_not_of_cmp(t: Term) -> Optional[Term]:
    """(not (bvult a b)) -> (bvule b a), and friends."""
    if t.op != T.OP_NOT:
        return None
    inner = t.args[0]
    flip = {
        T.OP_ULT: T.ule,
        T.OP_ULE: T.ult,
        T.OP_SLT: T.sle,
        T.OP_SLE: T.slt,
    }.get(inner.op)
    if flip is None:
        return None
    return flip(inner.args[1], inner.args[0])


def _rule_xor_fold_not(t: Term) -> Optional[Term]:
    """(bvxor (bvnot x) k) -> (bvxor x ~k): melts nots into constants."""
    if t.op != T.OP_BVXOR:
        return None
    a, b = t.args
    if a.op == T.OP_BVNOT and b.op == T.OP_BVCONST:
        return T.bvxor(a.args[0], T.bv_const(~b.data, b.width))
    return None


_RULES = (
    _rule_ite_fuse_unary,
    _rule_eq_ite_const,
    _rule_reassoc_const,
    _rule_sub_to_add_const,
    _rule_not_of_cmp,
    _rule_xor_fold_not,
)


def simplify(term: Term, max_passes: int = 4) -> Term:
    """Bottom-up rewriting to a fixpoint (bounded by *max_passes*).

    Reconstruction goes through the smart constructors, so local folding
    re-fires after every global rule application.
    """
    for _ in range(max_passes):
        new = _one_pass(term)
        if new is term:
            return term
        term = new
    return term


def _one_pass(term: Term) -> Term:
    # input node id -> its rewrite; every input node stays alive inside
    # *term* for the whole pass, so its id cannot be reused
    cache: Dict[int, Term] = {}

    def walk(node: Term) -> Term:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        t = node
        if t.args:
            new_args = tuple(walk(a) for a in t.args)
            if any(n is not o for n, o in zip(new_args, t.args)):
                t = T.rebuild(t.op, new_args, t.data, t.sort)
        for rule in _RULES:
            replacement = rule(t)
            if replacement is not None and replacement is not t:
                t = replacement
        cache[id(node)] = t
        return t

    return walk(term)
