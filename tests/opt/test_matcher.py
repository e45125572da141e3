"""Tests for template matching against concrete IR (paper §4's match
semantics, hosted in Python)."""

import pytest

from repro.ir import parse_transformation
from repro.ir.module import MArg, MConst, MFunction
from repro.opt import Analyses, TemplateMatcher


def fn8(nargs=2):
    return MFunction("f", [MArg("%%a%d" % i, 8) for i in range(nargs)])


def matcher_for(text):
    return TemplateMatcher(parse_transformation(text))


class TestBasicMatching:
    def test_binop_with_constant_symbol(self):
        m = matcher_for("%r = add %x, C\n=>\n%r = add C, %x")
        fn = fn8()
        inst = fn.add("add", [fn.args[0], MConst(7, 8)], 8)
        match = m.match(inst, Analyses(fn))
        assert match is not None
        assert match.bindings["%x"] is fn.args[0]
        assert match.bindings["C"].value == 7

    def test_constant_symbol_requires_constant(self):
        m = matcher_for("%r = add %x, C\n=>\n%r = add C, %x")
        fn = fn8()
        inst = fn.add("add", [fn.args[0], fn.args[1]], 8)
        assert m.match(inst, Analyses(fn)) is None

    def test_opcode_mismatch(self):
        m = matcher_for("%r = add %x, C\n=>\n%r = add C, %x")
        fn = fn8()
        inst = fn.add("sub", [fn.args[0], MConst(7, 8)], 8)
        assert m.match(inst, Analyses(fn)) is None

    def test_nested_pattern(self):
        m = matcher_for("""
        %1 = xor %x, -1
        %2 = add %1, C
        =>
        %2 = sub C-1, %x
        """)
        fn = fn8()
        t1 = fn.add("xor", [fn.args[0], MConst(0xFF, 8)], 8)
        t2 = fn.add("add", [t1, MConst(3, 8)], 8)
        match = m.match(t2, Analyses(fn))
        assert match is not None
        assert match.bindings["%1"] is t1

    def test_literal_must_equal(self):
        m = matcher_for("%r = xor %x, -1\n=>\n%r = sub -1, %x")
        fn = fn8()
        good = fn.add("xor", [fn.args[0], MConst(0xFF, 8)], 8)
        bad = fn.add("xor", [fn.args[0], MConst(0xFE, 8)], 8)
        assert m.match(good, Analyses(fn)) is not None
        assert m.match(bad, Analyses(fn)) is None

    def test_repeated_input_must_be_same_value(self):
        m = matcher_for("%r = add %x, %x\n=>\n%r = shl %x, 1")
        fn = fn8()
        same = fn.add("add", [fn.args[0], fn.args[0]], 8)
        diff = fn.add("add", [fn.args[0], fn.args[1]], 8)
        assert m.match(same, Analyses(fn)) is not None
        assert m.match(diff, Analyses(fn)) is None

    def test_repeated_constant_matches_by_value(self):
        m = matcher_for("""
        %a = and %x, C
        %r = and %a, C
        =>
        %r = %a
        """)
        fn = fn8()
        a = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        r = fn.add("and", [a, MConst(0x0F, 8)], 8)
        assert m.match(r, Analyses(fn)) is not None

    def test_flags_required_by_pattern(self):
        m = matcher_for("%r = add nsw %x, %y\n=>\n%r = add nsw %y, %x")
        fn = fn8()
        plain = fn.add("add", [fn.args[0], fn.args[1]], 8)
        flagged = fn.add("add", [fn.args[0], fn.args[1]], 8, flags=["nsw"])
        assert m.match(plain, Analyses(fn)) is None
        assert m.match(flagged, Analyses(fn)) is not None

    def test_pattern_without_flags_matches_flagged(self):
        m = matcher_for("%r = add %x, 0\n=>\n%r = %x")
        fn = fn8()
        inst = fn.add("add", [fn.args[0], MConst(0, 8)], 8, flags=["nuw"])
        assert m.match(inst, Analyses(fn)) is not None

    def test_icmp_condition_must_match(self):
        m = matcher_for("%c = icmp eq %x, %x\n=>\n%c = true")
        fn = fn8()
        eq = fn.add("icmp", [fn.args[0], fn.args[0]], 1, cond="eq")
        ne = fn.add("icmp", [fn.args[0], fn.args[0]], 1, cond="ne")
        assert m.match(eq, Analyses(fn)) is not None
        assert m.match(ne, Analyses(fn)) is None

    def test_explicit_type_annotation_restricts_width(self):
        m = matcher_for("%r = add i8 %x, %y\n=>\n%r = add %y, %x")
        fn16 = MFunction("g", [MArg("%x", 16), MArg("%y", 16)])
        wide = fn16.add("add", [fn16.args[0], fn16.args[1]], 16)
        assert m.match(wide, Analyses(fn16)) is None
        fn = fn8()
        narrow = fn.add("add", [fn.args[0], fn.args[1]], 8)
        assert m.match(narrow, Analyses(fn)) is not None

    def test_constexpr_operand_in_source(self):
        # `icmp sle %x, -1 u>> 1` style: constant expression must equal
        # the matched constant
        m = matcher_for("%r = and %x, -1 u>> C\n=>\n%a = shl %x, C\n%r = lshr %a, C")
        fn = fn8()
        # C is unbound when the constexpr is evaluated -> no match;
        # this documents that constexpr source operands only match once
        # their symbols are bound elsewhere first
        inst = fn.add("and", [fn.args[0], MConst(0x3F, 8)], 8)
        assert m.match(inst, Analyses(fn)) is None


class TestPreconditionEvaluation:
    def test_power_of_two_constant(self):
        m = matcher_for("Pre: isPowerOf2(C)\n%r = mul %x, C\n=>\n%r = shl %x, log2(C)")
        fn = fn8()
        good = fn.add("mul", [fn.args[0], MConst(8, 8)], 8)
        bad = fn.add("mul", [fn.args[0], MConst(6, 8)], 8)
        assert m.match(good, Analyses(fn)) is not None
        assert m.match(bad, Analyses(fn)) is None

    def test_comparison_preconditions(self):
        m = matcher_for(
            "Pre: C1 u>= C2\n%a = shl %x, C1\n%r = lshr %a, C2\n=>\n"
            "%r = and %x, -1 u>> C2"
        )
        fn = fn8()
        a = fn.add("shl", [fn.args[0], MConst(3, 8)], 8)
        ok = fn.add("lshr", [a, MConst(2, 8)], 8)
        assert m.match(ok, Analyses(fn)) is not None
        b = fn.add("shl", [fn.args[0], MConst(1, 8)], 8)
        no = fn.add("lshr", [b, MConst(2, 8)], 8)
        assert m.match(no, Analyses(fn)) is None

    def test_signed_comparison(self):
        m = matcher_for("Pre: C > 0\n%r = sdiv %x, C\n=>\n%r = sdiv %x, C")
        fn = fn8()
        pos = fn.add("sdiv", [fn.args[0], MConst(3, 8)], 8)
        neg = fn.add("sdiv", [fn.args[0], MConst(0xFD, 8)], 8)
        assert m.match(pos, Analyses(fn)) is not None
        assert m.match(neg, Analyses(fn)) is None

    def test_masked_value_is_zero_via_known_bits(self):
        m = matcher_for(
            "Pre: MaskedValueIsZero(%x, ~C)\n%r = and %x, C\n=>\n%r = %x"
        )
        fn = fn8()
        # x = arg & 0x0F has its top nibble known zero
        masked = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        covered = fn.add("and", [masked, MConst(0x0F, 8)], 8)
        assert m.match(covered, Analyses(fn)) is not None
        not_covered = fn.add("and", [masked, MConst(0x07, 8)], 8)
        assert m.match(not_covered, Analyses(fn)) is None

    def test_has_one_use(self):
        m = matcher_for(
            "Pre: hasOneUse(%a)\n%a = add %x, %y\n%r = mul %a, 2\n=>\n"
            "%b = shl %a, 1\n%r = %b"
        )
        fn = fn8()
        a = fn.add("add", [fn.args[0], fn.args[1]], 8)
        r = fn.add("mul", [a, MConst(2, 8)], 8)
        fn.ret = r
        assert m.match(r, Analyses(fn)) is not None
        # add a second use of %a: the precondition now fails
        extra = fn.add("xor", [a, r], 8)
        fn.ret = extra
        assert m.match(r, Analyses(fn)) is None

    def test_builtin_over_constant_expression(self):
        m = matcher_for("Pre: isPowerOf2(C+1)\n%r = and %x, C\n"
                        "=>\n%r = urem %x, C+1")
        fn = fn8()
        hit = fn.add("and", [fn.args[0], MConst(7, 8)], 8)
        miss = fn.add("and", [fn.args[0], MConst(5, 8)], 8)
        assert m.match(hit, Analyses(fn)) is not None
        assert m.match(miss, Analyses(fn)) is None

    def test_negated_predicate(self):
        m = matcher_for(
            "Pre: !isPowerOf2(C)\n%r = urem %x, C\n=>\n%r = urem %x, C"
        )
        fn = fn8()
        npow = fn.add("urem", [fn.args[0], MConst(6, 8)], 8)
        pow_ = fn.add("urem", [fn.args[0], MConst(8, 8)], 8)
        assert m.match(npow, Analyses(fn)) is not None
        assert m.match(pow_, Analyses(fn)) is None


class TestShlOverflowBuiltins:
    """Constant arguments take the verifier's semantics of the
    ``WillNotOverflow*Shl`` built-ins, shift amounts >= width included."""

    @pytest.mark.parametrize("fn,flag", [
        ("WillNotOverflowSignedShl", "nsw"),
        ("WillNotOverflowUnsignedShl", "nuw"),
    ])
    def test_fires_exactly_where_the_builtin_holds(self, fn, flag):
        from repro.ir.precond import builtin_holds
        from repro.opt import PeepholePass, compile_opts

        t = parse_transformation(
            "Name: shl-%s\nPre: %s(C1, C2)\n%%r = shl C1, C2\n=>\n"
            "%%r = shl %s C1, C2" % (flag, fn, flag))
        peephole = PeepholePass(compile_opts([t]), max_iterations=1)
        wrong = []
        for a in range(16):
            for b in range(16):
                f = MFunction("f", [])
                f.ret = f.add("shl", [MConst(a, 4), MConst(b, 4)], 4)
                fired = peephole.run_function(f) == 1
                if fired != builtin_holds(fn, [a, b], 4):
                    wrong.append((a, b))
        assert wrong == []
