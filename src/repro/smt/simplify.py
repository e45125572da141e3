"""Global term simplification (rewrite-to-fixpoint).

The smart constructors in :mod:`repro.smt.terms` perform *local*
simplification at construction time.  This module adds a second layer:
a bottom-up rewriting pass applying non-local rules that only pay off on
whole verification conditions, e.g.

* ``ite`` fusion: ``ite(c, f(x), f(y)) → f(ite(c, x, y))`` for unary f;
* comparison folding against ``ite`` arms with constant branches;
* associative-commutative normal form (below);
* double arithmetic negation and subtraction normalization.

The AC normal form flattens every bvadd/bvmul/bvand/bvor/bvxor chain
into its leaves, orders the non-constant leaves by their content key
(never ``id()``, see the note in :mod:`repro.smt.terms`), folds all
constants into one trailing constant and rebuilds the chain
left-associated through the smart constructors.  So ``(x*C1)*C2`` and
``x*(C1*C2)`` intern to one node, the refinement ``eq`` between them
folds to true, and SAT never has to rediscover associativity one bit
at a time.  The flatten stops at ``AC_LEAF_CAP`` leaves and leaves a
longer chain as it is: flattening walks the chain as a tree, so a
chain node shared by both operands is counted once per use, and
without the cap a deeply shared chain such as 24 levels of
``bvmul(t, t)`` would flatten to 2**24 leaves.  There is no
distribution and no coefficient collection (``x + x`` stays).

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

from collections import Counter
from typing import Dict, List, Optional

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


#: assoc-commutative ops and the smart constructor that rebuilds each
_AC_BUILDERS = {
    T.OP_BVADD: T.bvadd,
    T.OP_BVMUL: T.bvmul,
    T.OP_BVAND: T.bvand,
    T.OP_BVOR: T.bvor,
    T.OP_BVXOR: T.bvxor,
}

#: most leaves an AC chain may flatten to; a longer chain is left as it is
AC_LEAF_CAP = 16


def _ac_leaves(t: Term, op: str) -> Optional[List[Term]]:
    """The leaves of the *op* chain under *t*, or None past the cap.

    The chain is walked as a tree, so a shared chain node contributes its
    leaves once per use; the cap bounds that duplication.  A tree with L
    leaves has 2L - 1 nodes, so stopping after ``2 * AC_LEAF_CAP`` nodes
    keeps every chain of at most AC_LEAF_CAP leaves.  Under bvxor a
    ``bvnot a`` leaf is read as ``a ^ -1``.
    """
    leaves: List[Term] = []
    stack = [t]
    budget = 2 * AC_LEAF_CAP
    while stack:
        budget -= 1
        if budget < 0:
            return None
        n = stack.pop()
        if n.op == op:
            stack.extend(n.args)
        elif n.op == T.OP_BVNOT and op == T.OP_BVXOR:
            stack.append(n.args[0])
            leaves.append(T.bv_const(-1, n.width))
        else:
            leaves.append(n)
    return leaves


def _rule_ac_normal_form(t: Term) -> Optional[Term]:
    """Canonical form of a bvadd/bvmul/bvand/bvor/bvxor chain.

    The non-constant leaves are ordered by content key (``x & x`` and
    ``x | x`` keep one copy, ``x ^ x`` cancels), the constants fold into
    one trailing constant, and the chain is rebuilt left-associated.
    Every association and permutation of the same leaves therefore
    interns to one node: ``(x*C1)*C2`` and ``x*(C1*C2)`` meet.  A
    ``bvnot`` over a bvxor chain is the chain with one more leaf, -1.
    """
    op = t.op
    if op == T.OP_BVNOT and t.args[0].op == T.OP_BVXOR:
        op = T.OP_BVXOR
    build = _AC_BUILDERS.get(op)
    if build is None:
        return None
    leaves = _ac_leaves(t, op)
    if leaves is None:
        return None
    const = None
    others = []
    for leaf in leaves:
        if leaf.op == T.OP_BVCONST:
            const = leaf if const is None else build(const, leaf)
        else:
            others.append(leaf)
    others.sort(key=lambda l: l._ckey)
    if op == T.OP_BVXOR:
        others = [leaf for leaf, n in Counter(others).items() if n % 2]
    elif op in (T.OP_BVAND, T.OP_BVOR):
        others = list(dict.fromkeys(others))
    if const is not None:
        others.append(const)
    if not others:  # every xor leaf cancelled
        return T.bv_const(0, t.width)
    acc = others[0]
    for leaf in others[1:]:
        acc = build(acc, leaf)
    return acc


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


_RULES = (
    _rule_ite_fuse_unary,
    _rule_eq_ite_const,
    _rule_ac_normal_form,
    _rule_sub_to_add_const,
    _rule_not_of_cmp,
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
