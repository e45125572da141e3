"""Differential unit tests for the soft-float circuits.

Every circuit in :mod:`repro.smt.softfloat` is compared against the
concrete IEEE-754 ground truth of :mod:`repro.ir.fpops` by evaluating
it on constant bit patterns — special values exhaustively, plus a
seeded random sample.  Two evaluation styles are used on purpose:

* **via variables** — operands are symbolic and bound through the
  model, so the *general* rounding circuits are exercised;
* **via literals** — operands are constant terms, so the encoder's
  literal fast paths (``x + -0.0``, ``x * 1.0``, ...) kick in.  Both
  must agree with fpops (and hence with each other).

The campaign-scale version of this check is ``fuzz --fp``; these are
the deterministic always-on pins.
"""

import random

import pytest

from repro.fuzz.fpgen import special_bits
from repro.ir import fpops
from repro.smt import softfloat as SF
from repro.smt import terms as T
from repro.smt.eval import evaluate

HALF = SF.format_for_kind("half")
FLOAT = SF.format_for_kind("float")

_X = T.bv_var("sfx", 16)
_Y = T.bv_var("sfy", 16)


def _sample_pairs(count=40, seed=7):
    rng = random.Random(seed)
    specials = special_bits(16)
    pairs = [(a, b) for a in specials for b in specials]
    rng.shuffle(pairs)
    pairs = pairs[:count]
    pairs += [(rng.getrandbits(16), rng.getrandbits(16))
              for _ in range(count)]
    return pairs


def _canon(bits, kind):
    return fpops.qnan_bits(kind) if fpops.is_nan(bits, kind) else bits


class TestBinopsAgainstFpops:
    @pytest.mark.parametrize("op", ["fadd", "fsub", "fmul", "fdiv"])
    def test_general_circuit_at_half(self, op):
        circuit = SF.fbinop(op, HALF, _X, _Y)
        for a, b in _sample_pairs():
            got = evaluate(circuit, {_X: a, _Y: b})
            want = fpops.fbinop(op, a, b, "half")
            assert _canon(got, "half") == _canon(want, "half"), (
                op, hex(a), hex(b))

    @pytest.mark.parametrize("op,const", [
        ("fadd", 0.0), ("fadd", -0.0), ("fsub", 0.0),
        ("fmul", 1.0), ("fmul", -1.0), ("fdiv", 1.0),
    ])
    def test_literal_fast_paths_match(self, op, const):
        # constant second operand: the fast path fires; it must agree
        # with fpops on every special value
        lit = SF.fp_const(HALF, const)
        circuit = SF.fbinop(op, HALF, _X, lit)
        cbits = fpops.encode_literal(const, "half")
        for a in special_bits(16):
            got = evaluate(circuit, {_X: a})
            want = fpops.fbinop(op, a, cbits, "half")
            assert _canon(got, "half") == _canon(want, "half"), (
                op, const, hex(a))


class TestFcmpAgainstFpops:
    @pytest.mark.parametrize("cond", sorted(
        {"false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
         "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true"}))
    def test_all_predicates_at_half(self, cond):
        circuit = SF.fcmp(cond, HALF, _X, _Y)
        for a, b in _sample_pairs(count=25):
            got = bool(evaluate(circuit, {_X: a, _Y: b}))
            assert got == fpops.fcmp(cond, a, b, "half"), (
                cond, hex(a), hex(b))


class TestConversionsAgainstFpops:
    def test_fpext_half_to_float(self):
        circuit = SF.fpconvert_value("fpext", HALF, FLOAT, _X)
        for a in special_bits(16):
            got = evaluate(circuit, {_X: a})
            want = fpops.fpconvert("fpext", a, "half", "float")
            assert _canon(got, "float") == _canon(want, "float"), hex(a)

    def test_fptrunc_float_to_half(self):
        x32 = T.bv_var("sfx32", 32)
        circuit = SF.fpconvert_value("fptrunc", FLOAT, HALF, x32)
        cases = list(special_bits(32))
        # the overflow boundary: rounds to inf at half
        cases.append(fpops.from_float(65520.0, "float"))
        for a in cases:
            got = evaluate(circuit, {x32: a})
            want = fpops.fpconvert("fptrunc", a, "float", "half")
            assert _canon(got, "half") == _canon(want, "half"), hex(a)

    def test_fptosi_value_and_range(self):
        value, in_range = SF.fp_to_int("fptosi", HALF, 16, _X)
        for a in special_bits(16):
            want = fpops.fpconvert("fptosi", a, "half", 16)
            ok = bool(evaluate(in_range, {_X: a}))
            assert ok == (want is not None), hex(a)
            if want is not None:
                assert evaluate(value, {_X: a}) == want, hex(a)

    def test_sitofp_and_uitofp(self):
        xi = T.bv_var("sfi", 16)
        for op in ("sitofp", "uitofp"):
            circuit = SF.int_to_fp(op, 16, HALF, xi)
            for a in (0, 1, 2049, 0x7FFF, 0x8000, 0xFFFF):
                got = evaluate(circuit, {xi: a})
                want = fpops.fpconvert(op, a, 16, "half")
                assert _canon(got, "half") == _canon(want, "half"), (
                    op, hex(a))


class TestBruteBudgetAdmitsHalf:
    """A 22-bit brute budget: the exhaustive oracle covers half rules."""

    def test_half_domain_within_default_budget(self):
        from repro.smt.brute import brute_check_sat

        # a genuinely FP-flavoured property, decided exhaustively over
        # all 2^16 half patterns: x * 1.0 == x (up to NaN payloads)
        prod = SF.fbinop("fmul", HALF, _X, SF.fp_const(HALF, 1.0))
        differs = T.and_(T.not_(T.eq(prod, _X)),
                         T.not_(SF.is_nan(HALF, _X)))
        status, _ = brute_check_sat(differs, max_bits=22)
        assert status == "unsat"

    def test_budget_is_enforced(self):
        import pytest as _pytest

        from repro.smt.brute import brute_check_sat

        with _pytest.raises(ValueError):
            brute_check_sat(T.eq(_X, _Y), max_bits=8)


class TestRefinement:
    def _refines(self, a, b, nsz):
        cond = SF.refines_eq(HALF, T.bv_const(a, 16), T.bv_const(b, 16),
                             sign_of_zero_insensitive=nsz)
        return bool(evaluate(cond, {}))

    def test_exact_bits_refine(self):
        one = fpops.from_float(1.0, "half")
        assert self._refines(one, one, nsz=False)

    def test_any_nan_refines_any_nan(self):
        # payload-insensitive: the canonical qnan refines a signalling
        # payload and vice versa
        q = fpops.qnan_bits("half")
        weird = 0x7E01
        assert fpops.is_nan(weird, "half")
        assert self._refines(q, weird, nsz=False)
        assert self._refines(weird, q, nsz=False)

    def test_nan_does_not_refine_number(self):
        q = fpops.qnan_bits("half")
        one = fpops.from_float(1.0, "half")
        assert not self._refines(one, q, nsz=False)
        assert not self._refines(q, one, nsz=False)

    def test_zero_signs_need_nsz(self):
        pos = fpops.from_float(0.0, "half")
        neg = fpops.from_float(-0.0, "half")
        assert not self._refines(pos, neg, nsz=False)
        assert self._refines(pos, neg, nsz=True)
        assert self._refines(neg, pos, nsz=True)
        # nsz does not blur zero against non-zero
        one = fpops.from_float(1.0, "half")
        assert not self._refines(pos, one, nsz=True)
