"""End-to-end verification of FP rules through the soft-float encoding.

Most rules here ride the encoder's literal fast paths (or small fcmp
circuits) and verify in milliseconds; the conversion round-trips pay
for full rounding circuits and take seconds.  The interesting
assertions are the refuted ones: counterexamples must decode to the
IEEE-754 special values that make the rule wrong (-0.0, NaN).
"""

import pytest

from repro.core import Config, verify
from repro.ir import parse_transformation

CFG = Config()


def v(text):
    return verify(parse_transformation(text), CFG)


class TestValidIdentities:
    @pytest.mark.parametrize("body", [
        "%r = fadd half %x, -0.0\n=>\n%r = %x",
        "%r = fsub half %x, 0.0\n=>\n%r = %x",
        "%r = fmul half %x, 1.0\n=>\n%r = %x",
        "%r = fmul half 1.0, %x\n=>\n%r = %x",
        "%r = fdiv half %x, 1.0\n=>\n%r = %x",
    ], ids=["fadd-neg-zero", "fsub-zero", "fmul-one", "fmul-one-comm",
            "fdiv-one"])
    def test_half_identity(self, body):
        assert v("Name: t\n" + body).status == "valid"

    def test_identity_is_width_generic(self):
        assert v("Name: t\n%r = fmul double %x, 1.0\n=>\n%r = %x"
                 ).status == "valid"

    def test_fneg_fneg(self):
        r = v("Name: t\n%a = fsub half -0.0, %x\n"
              "%r = fsub half -0.0, %a\n=>\n%r = %x")
        assert r.status == "valid"

    def test_fcmp_swap(self):
        r = v("Name: t\n%r = fcmp olt half %x, %y\n=>\n"
              "%r = fcmp ogt half %y, %x")
        assert r.status == "valid"


class TestConversionRoundTrips:
    """Variable-operand proofs through two conversion circuits.

    ``frem`` has no proof here: a ``frem`` sign proof, such as
    ``frem (fneg x), y -> fneg (frem x, y)``, still runs past 120 s in
    SAT through the pure-Python solver."""

    def test_sitofp_fptosi_i8_through_half(self):
        # every i8 is exact in half (11-bit significand), so converting
        # back truncates nothing
        r = v("Name: t\n%f = sitofp i8 %x to half\n"
              "%r = fptosi half %f to i8\n=>\n%r = %x")
        assert r.status == "valid"

    def test_fpext_fptrunc_half_through_float(self):
        # widening is exact, so narrowing back rounds nothing
        r = v("Name: t\n%e = fpext half %x to float\n"
              "%r = fptrunc float %e to half\n=>\n%r = %x")
        assert r.status == "valid"


class TestFastMathFlags:
    def test_nsz_makes_fadd_zero_legal(self):
        r = v("Name: t\n%r = fadd nsz half %x, 0.0\n=>\n%r = %x")
        assert r.status == "valid"

    def test_fast_implies_nsz(self):
        r = v("Name: t\n%r = fadd fast half %x, 0.0\n=>\n%r = %x")
        assert r.status == "valid"

    def test_target_may_drop_flags(self):
        # flags grant freedom; the rewritten code needs none of it
        r = v("Name: t\n%r = fmul nnan ninf half %x, 1.0\n=>\n%r = %x")
        assert r.status == "valid"

    def test_arcp_grants_reciprocal_multiply(self):
        # arcp lets the target compute x * (1/C); with a literal
        # divisor the reciprocal constant-folds, so the proof rides the
        # fast path even though 1/3 is inexact in half
        r = v("Name: t\n%r = fdiv arcp half %x, 3.0\n=>\n"
              "%r = fmul arcp half %x, 0.333251953125")
        assert r.status == "valid"

    def test_arcp_pow2_reciprocal_is_exact(self):
        r = v("Name: t\n%r = fdiv arcp half %x, 2.0\n=>\n"
              "%r = fmul arcp half %x, 0.5")
        assert r.status == "valid"

    def test_arcp_does_not_accept_wrong_reciprocal(self):
        # freedom is limited to a * (1 / b): a reciprocal of the wrong
        # *literal* divisor folds to a different constant and the
        # literal-vs-literal comparison refutes on the fast path
        r = v("Name: t\n%r = fdiv arcp half 1.0, 2.0\n=>\n"
              "%r = 0.25")
        assert r.status == "invalid"


class TestRefutations:
    def test_fadd_zero_refuted_by_negative_zero(self):
        # the canonical wrong rule: x + 0.0 -> x breaks at x = -0.0
        r = v("Name: t\n%r = fadd half %x, 0.0\n=>\n%r = %x")
        assert r.status == "invalid"
        cex = r.counterexample.format()
        assert "-0.0" in cex
        assert "0x8000" in cex

    def test_fcmp_ord_self_is_not_always_true(self):
        # refuted by NaN, and the counterexample must say so
        r = v("Name: t\n%r = fcmp ord half %x, %x\n=>\n%r = true")
        assert r.status == "invalid"
        assert "nan" in r.counterexample.format().lower()

    def test_ole_is_not_olt(self):
        r = v("Name: t\n%r = fcmp ole half %x, %y\n=>\n"
              "%r = fcmp olt half %x, %y")
        assert r.status == "invalid"

    def test_dropping_nsz_freedom_detected(self):
        # source has no flags, so the target's exact -0.0 semantics
        # must be honoured: rewriting x*1.0 to x+0.0 flips the sign of
        # -0.0 and must refute
        r = v("Name: t\n%r = fmul half %x, 1.0\n=>\n"
              "%r = fadd half %x, 0.0")
        assert r.status == "invalid"
        assert "-0.0" in r.counterexample.format()
