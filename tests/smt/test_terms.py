"""Unit tests for the hash-consed term layer."""

import pytest

from repro.smt import terms as T
from repro.smt.sorts import BOOL, BitVecSort, BoolSort, is_bool, is_bv


class TestSorts:
    def test_bool_interned(self):
        assert BoolSort() is BoolSort()

    def test_bv_interned(self):
        assert BitVecSort(8) is BitVecSort(8)
        assert BitVecSort(8) is not BitVecSort(9)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            BitVecSort(0)
        with pytest.raises(ValueError):
            BitVecSort(-3)

    def test_predicates(self):
        assert is_bool(BOOL)
        assert is_bv(BitVecSort(4))
        assert not is_bv(BOOL)


class TestHashConsing:
    def test_vars_identical(self):
        assert T.bv_var("x", 8) is T.bv_var("x", 8)
        assert T.bv_var("x", 8) is not T.bv_var("x", 9)
        assert T.bool_var("p") is T.bool_var("p")

    def test_compound_identical(self):
        x, y = T.bv_var("x", 4), T.bv_var("y", 4)
        assert T.bvadd(x, y) is T.bvadd(x, y)
        assert T.bvadd(x, y) is T.bvadd(y, x)  # commutative canonicalization

    def test_const_truncation(self):
        assert T.bv_const(256, 8).data == 0
        assert T.bv_const(-1, 8).data == 255


class TestBooleanSimplification:
    def test_double_negation(self):
        p = T.bool_var("p")
        assert T.not_(T.not_(p)) is p

    def test_and_absorbs(self):
        p = T.bool_var("p")
        assert T.and_(p, T.TRUE) is p
        assert T.and_(p, T.FALSE) is T.FALSE
        assert T.and_() is T.TRUE
        assert T.and_(p, p) is p

    def test_and_contradiction(self):
        p = T.bool_var("p")
        assert T.and_(p, T.not_(p)) is T.FALSE

    def test_or_absorbs(self):
        p = T.bool_var("p")
        assert T.or_(p, T.FALSE) is p
        assert T.or_(p, T.TRUE) is T.TRUE
        assert T.or_() is T.FALSE
        assert T.or_(p, T.not_(p)) is T.TRUE

    def test_flattening(self):
        p, q, r = T.bool_var("p"), T.bool_var("q"), T.bool_var("r")
        assert T.and_(T.and_(p, q), r) is T.and_(p, q, r)

    def test_implies(self):
        p = T.bool_var("p")
        assert T.implies(T.FALSE, p) is T.TRUE
        assert T.implies(T.TRUE, p) is p

    def test_xor_bool(self):
        p = T.bool_var("p")
        assert T.xor_bool(p, p) is T.FALSE
        assert T.xor_bool(p, T.FALSE) is p
        assert T.xor_bool(p, T.TRUE) is T.not_(p)


class TestEqIte:
    def test_eq_same(self):
        x = T.bv_var("x", 4)
        assert T.eq(x, x) is T.TRUE

    def test_eq_consts(self):
        assert T.eq(T.bv_const(3, 4), T.bv_const(3, 4)) is T.TRUE
        assert T.eq(T.bv_const(3, 4), T.bv_const(4, 4)) is T.FALSE

    def test_eq_sort_mismatch(self):
        with pytest.raises(TypeError):
            T.eq(T.bv_var("x", 4), T.bv_var("y", 5))

    def test_ite_const_cond(self):
        x, y = T.bv_var("x", 4), T.bv_var("y", 4)
        assert T.ite(T.TRUE, x, y) is x
        assert T.ite(T.FALSE, x, y) is y
        assert T.ite(T.bool_var("c"), x, x) is x

    def test_bool_ite_collapses(self):
        c = T.bool_var("c")
        assert T.ite(c, T.TRUE, T.FALSE) is c
        assert T.ite(c, T.FALSE, T.TRUE) is T.not_(c)


class TestBvConstFolding:
    def test_add_fold(self):
        assert T.bvadd(T.bv_const(200, 8), T.bv_const(100, 8)).data == 44

    def test_sub_identity(self):
        x = T.bv_var("x", 8)
        assert T.bvsub(x, T.bv_const(0, 8)) is x
        assert T.bvsub(x, x).data == 0

    def test_mul_by_zero_one(self):
        x = T.bv_var("x", 8)
        assert T.bvmul(x, T.bv_const(0, 8)).data == 0
        assert T.bvmul(x, T.bv_const(1, 8)) is x

    def test_and_or_xor_identities(self):
        x = T.bv_var("x", 8)
        assert T.bvand(x, T.bv_const(0xFF, 8)) is x
        assert T.bvand(x, T.bv_const(0, 8)).data == 0
        assert T.bvor(x, T.bv_const(0, 8)) is x
        assert T.bvxor(x, x).data == 0
        assert T.bvxor(x, T.bv_const(0xFF, 8)) is T.bvnot(x)

    def test_division_totalization(self):
        # SMT-LIB semantics
        assert T.bvudiv(T.bv_const(7, 8), T.bv_const(0, 8)).data == 255
        assert T.bvurem(T.bv_const(7, 8), T.bv_const(0, 8)).data == 7
        assert T.bvsdiv(T.bv_const(7, 8), T.bv_const(0, 8)).data == 255  # -1
        assert T.bvsdiv(T.bv_const(-7, 8), T.bv_const(0, 8)).data == 1

    def test_sdiv_truncates_toward_zero(self):
        assert T.to_signed(T.bvsdiv(T.bv_const(-7, 8), T.bv_const(2, 8)).data, 8) == -3
        assert T.to_signed(T.bvsrem(T.bv_const(-7, 8), T.bv_const(2, 8)).data, 8) == -1

    def test_sdiv_overflow_wraps(self):
        # INT_MIN / -1 wraps to INT_MIN (SMT-LIB / hardware behaviour)
        assert T.bvsdiv(T.bv_const(0x80, 8), T.bv_const(0xFF, 8)).data == 0x80

    def test_shift_out_of_range(self):
        assert T.bvshl(T.bv_const(1, 8), T.bv_const(8, 8)).data == 0
        assert T.bvlshr(T.bv_const(255, 8), T.bv_const(9, 8)).data == 0
        assert T.bvashr(T.bv_const(0x80, 8), T.bv_const(200, 8)).data == 0xFF
        assert T.bvashr(T.bv_const(0x40, 8), T.bv_const(200, 8)).data == 0

    def test_ashr_sign_fill(self):
        assert T.bvashr(T.bv_const(0x80, 8), T.bv_const(1, 8)).data == 0xC0


class TestStructural:
    def test_concat(self):
        assert T.concat(T.bv_const(0xA, 4), T.bv_const(0xB, 4)).data == 0xAB

    def test_extract(self):
        assert T.extract(T.bv_const(0xAB, 8), 7, 4).data == 0xA
        assert T.extract(T.bv_const(0xAB, 8), 3, 0).data == 0xB
        x = T.bv_var("x", 8)
        assert T.extract(x, 7, 0) is x

    def test_extract_of_extract(self):
        x = T.bv_var("x", 8)
        assert T.extract(T.extract(x, 6, 2), 2, 1) is T.extract(x, 4, 3)

    def test_extract_bounds(self):
        with pytest.raises(ValueError):
            T.extract(T.bv_var("x", 8), 8, 0)
        with pytest.raises(ValueError):
            T.extract(T.bv_var("x", 8), 2, 3)

    def test_extensions(self):
        assert T.zext(T.bv_const(0x80, 8), 8).data == 0x80
        assert T.sext(T.bv_const(0x80, 8), 8).data == 0xFF80
        x = T.bv_var("x", 8)
        assert T.zext(x, 0) is x
        assert T.zext_to(x, 12).width == 12
        assert T.trunc_to(x, 4).width == 4


class TestComparisons:
    def test_const_comparisons(self):
        a, b = T.bv_const(3, 4), T.bv_const(12, 4)
        assert T.ult(a, b) is T.TRUE
        assert T.slt(a, b) is T.FALSE  # 12 is -4 signed
        assert T.ule(a, a) is T.TRUE
        assert T.sle(b, a) is T.TRUE

    def test_reflexive(self):
        x = T.bv_var("x", 4)
        assert T.ult(x, x) is T.FALSE
        assert T.ule(x, x) is T.TRUE
        assert T.sle(x, x) is T.TRUE

    def test_width_mismatch(self):
        with pytest.raises(TypeError):
            T.ult(T.bv_var("x", 4), T.bv_var("y", 5))


class TestHelpers:
    def test_to_signed(self):
        assert T.to_signed(0xFF, 8) == -1
        assert T.to_signed(0x7F, 8) == 127
        assert T.to_signed(0x80, 8) == -128

    def test_free_vars(self):
        x, y = T.bv_var("x", 4), T.bv_var("y", 4)
        f = T.eq(T.bvadd(x, y), T.bvmul(x, x))
        assert T.free_vars(f) == {x, y}

    def test_substitute(self):
        x, y = T.bv_var("x", 4), T.bv_var("y", 4)
        f = T.bvadd(x, y)
        g = T.substitute(f, {x: T.bv_const(1, 4), y: T.bv_const(2, 4)})
        assert g.data == 3

    def test_substitute_resimplifies(self):
        x = T.bv_var("x", 4)
        f = T.ult(x, T.bv_var("y", 4))
        g = T.substitute(f, {T.bv_var("y", 4): x})
        assert g is T.FALSE

    def test_term_size(self):
        x = T.bv_var("x", 4)
        f = T.bvadd(T.bvmul(x, x), T.bvmul(x, x))
        # shared mul node counted once: var, mul, add
        assert T.term_size(f) == 3


class TestCanonicalOrderDeterminism:
    """Commutative canonicalization must be a function of term content.

    The engine's warm workers reuse one process (and its interned term
    table) across many jobs; if operand order were derived from ``id()``
    or seeded string hashes, the same rule would encode differently on a
    cold worker than on a warm one — breaking warm/cold worker parity and
    cold-rerun determinism (this exact bug shipped once: a refuted
    rule's counterexample model depended on which jobs the worker had
    run before).
    """

    SCRIPT = r"""
import sys
from repro.smt import terms as T
from repro.smt.printer import term_to_str

w = 4
x, y, z = (T.bv_var(n, w) for n in ("x", "y", "z"))
c1, c2 = T.bv_const(3, w), T.bv_const(5, w)
f = T.and_(
    T.eq(T.bvmul(x, y), T.bvmul(y, z)),
    T.eq(c1, z),
    T.not_(T.eq(T.bvadd(z, x), c2)),
    T.xor_bool(T.ult(x, y), T.ult(y, z)),
)
sys.stdout.write(term_to_str(f))
"""

    def test_order_stable_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        outs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            r = subprocess.run([sys.executable, "-c", self.SCRIPT],
                               capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            outs.add(r.stdout)
        assert len(outs) == 1

    def test_order_ignores_operand_allocation_history(self):
        # allocate operands in both orders under fresh names; the
        # canonical rendering must agree modulo the renaming
        a1 = T.bv_var("hist_a1", 4)
        b1 = T.bv_var("hist_b1", 4)
        first = T.bvmul(a1, b1)

        b2 = T.bv_var("hist_b2", 4)   # swapped creation order
        a2 = T.bv_var("hist_a2", 4)
        second = T.bvmul(a2, b2)

        rename = {"hist_a2": "hist_a1", "hist_b2": "hist_b1"}
        from repro.smt.printer import term_to_str
        got = term_to_str(second)
        for old, new in rename.items():
            got = got.replace(old, new)
        assert got == term_to_str(first)

    def test_content_keys_survive_reconstruction(self):
        x, y = T.bv_var("x", 4), T.bv_var("y", 4)
        assert T.bvadd(x, y)._ckey == T.bvadd(y, x)._ckey
        assert T.bvadd(x, y)._ckey != T.bvmul(x, y)._ckey
        assert T.bv_const(1, 4)._ckey != T.bv_const(1, 8)._ckey
