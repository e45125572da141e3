"""Tests for the known-bits dataflow analysis and friends."""

import os

import pytest

import repro.opt.pass_manager as pass_manager
from repro.ir.module import MArg, MConst, MFunction
from repro.opt import Analyses, PeepholePass, compile_opts, folding_rules
from repro.opt.analysis import KnownBitsAnalysis
from repro.suite import load_all_flat
from repro.workload import WorkloadConfig, generate_module

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"


def fn8():
    return MFunction("f", [MArg("%x", 8), MArg("%y", 8)])


class TestKnownBits:
    def test_constant_fully_known(self):
        fn = fn8()
        kb = KnownBitsAnalysis(fn)
        kz, ko = kb.known(MConst(0b1010, 8))
        assert ko == 0b1010
        assert kz == 0b11110101

    def test_argument_unknown(self):
        fn = fn8()
        kb = KnownBitsAnalysis(fn)
        assert kb.known(fn.args[0]) == (0, 0)

    def test_and_clears(self):
        fn = fn8()
        a = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        kz, ko = KnownBitsAnalysis(fn).known(a)
        assert kz & 0xF0 == 0xF0
        assert ko == 0

    def test_or_sets(self):
        fn = fn8()
        a = fn.add("or", [fn.args[0], MConst(0xF0, 8)], 8)
        kz, ko = KnownBitsAnalysis(fn).known(a)
        assert ko == 0xF0

    def test_xor_with_known(self):
        fn = fn8()
        a = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        b = fn.add("xor", [a, MConst(0xFF, 8)], 8)
        kz, ko = KnownBitsAnalysis(fn).known(b)
        assert ko & 0xF0 == 0xF0  # known-zero bits flip to known-one

    def test_shl_by_constant(self):
        fn = fn8()
        a = fn.add("shl", [fn.args[0], MConst(4, 8)], 8)
        kz, ko = KnownBitsAnalysis(fn).known(a)
        assert kz & 0x0F == 0x0F

    def test_lshr_by_constant(self):
        fn = fn8()
        a = fn.add("lshr", [fn.args[0], MConst(4, 8)], 8)
        kz, ko = KnownBitsAnalysis(fn).known(a)
        assert kz & 0xF0 == 0xF0

    def test_zext_high_bits_zero(self):
        fn = MFunction("g", [MArg("%x", 4)])
        a = fn.add("zext", [fn.args[0]], 8)
        kz, ko = KnownBitsAnalysis(fn).known(a)
        assert kz & 0xF0 == 0xF0

    def test_add_with_fully_known_operands(self):
        fn = fn8()
        a = fn.add("add", [MConst(3, 8), MConst(4, 8)], 8)
        kz, ko = KnownBitsAnalysis(fn).known(a)
        assert ko == 7
        assert kz == 0xF8

    def test_select_intersects(self):
        fn = fn8()
        c = fn.add("icmp", [fn.args[0], fn.args[1]], 1, cond="ult")
        a = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        b = fn.add("and", [fn.args[1], MConst(0x3F, 8)], 8)
        s = fn.add("select", [c, a, b], 8)
        kz, ko = KnownBitsAnalysis(fn).known(s)
        assert kz & 0xC0 == 0xC0  # both arms have top two bits zero

    def test_soundness_random(self):
        """Property: known bits are always consistent with execution."""
        import random

        from repro.ir.interp import run_function

        rng = random.Random(3)
        fn = fn8()
        a = fn.add("and", [fn.args[0], MConst(0x3C, 8)], 8)
        b = fn.add("or", [a, MConst(0x81, 8)], 8)
        c = fn.add("lshr", [b, MConst(1, 8)], 8)
        d = fn.add("xor", [c, MConst(0x55, 8)], 8)
        fn.ret = d
        kb = KnownBitsAnalysis(fn)
        for inst in fn.instrs:
            kz, ko = kb.known(inst)
            sub = MFunction("sub", fn.args)
            sub.instrs = fn.instrs[: fn.instrs.index(inst) + 1]
            sub.ret = inst
            for _ in range(50):
                x, y = rng.randrange(256), rng.randrange(256)
                value = run_function(sub, {"%x": x, "%y": y})
                assert value & kz == 0
                assert value & ko == ko


class TestFacadePredicates:
    def test_masked_value_is_zero(self):
        fn = fn8()
        a = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        analyses = Analyses(fn)
        assert analyses.masked_value_is_zero(a, 0xF0)
        assert not analyses.masked_value_is_zero(a, 0x01)

    def test_is_power_of_2(self):
        fn = fn8()
        analyses = Analyses(fn)
        assert analyses.is_power_of_2(MConst(64, 8))
        assert not analyses.is_power_of_2(MConst(0, 8))
        assert not analyses.is_power_of_2(MConst(66, 8))
        # 1 << x is a power of two whenever defined
        shl = fn.add("shl", [MConst(1, 8), fn.args[0]], 8)
        assert analyses.is_power_of_2(shl)

    def test_has_one_use(self):
        fn = fn8()
        a = fn.add("add", [fn.args[0], fn.args[1]], 8)
        b = fn.add("mul", [a, a], 8)
        fn.ret = b
        analyses = Analyses(fn)
        assert analyses.has_one_use(b)
        assert not analyses.has_one_use(a)  # two uses in %b

    def test_sign_bit_known_zero(self):
        fn = fn8()
        a = fn.add("lshr", [fn.args[0], MConst(1, 8)], 8)
        assert Analyses(fn).sign_bit_known_zero(a)
        assert not Analyses(fn).sign_bit_known_zero(fn.args[0])


class TestBruteForceCrossCheck:
    """Satellite soundness sweep: every claim the analysis makes must
    hold on every *defined* execution, checked exhaustively over all
    argument values at widths up to 6.  Executions that raise
    ``UndefinedBehavior`` (division by zero, oversized shifts) are
    exempt — the pass engine never observes them."""

    BINOPS = ("add", "sub", "mul", "and", "or", "xor",
              "shl", "lshr", "ashr", "udiv", "sdiv", "urem", "srem")

    def _check_fn(self, fn, width):
        from itertools import product

        from repro.ir.interp import POISON, run_function
        from repro.ir.intops import UndefinedBehavior

        kb = KnownBitsAnalysis(fn)
        names = [a.name for a in fn.args]
        for idx, inst in enumerate(fn.instrs):
            av = kb.abstract(inst)
            kz, ko = av.bits.kz, av.bits.ko
            sub = MFunction("sub", fn.args)
            sub.instrs = fn.instrs[: idx + 1]
            sub.ret = inst
            for vals in product(range(1 << width), repeat=len(names)):
                try:
                    value = run_function(sub, dict(zip(names, vals)))
                except UndefinedBehavior:
                    continue
                if value is POISON:
                    continue
                ctx = (inst.opcode, width, vals)
                assert value & kz == 0, ctx
                assert value & ko == ko, ctx
                assert av.ur.lo <= value <= av.ur.hi, ctx
                assert av.sr.contains(value), ctx

    @pytest.mark.parametrize("width", (2, 3, 4))
    def test_binops_exhaustive(self, width):
        half = (1 << width) // 2
        for op in self.BINOPS:
            fn = MFunction("f", [MArg("%x", width), MArg("%y", width)])
            a = fn.add("or", [fn.args[0], MConst(1, width)], width)
            v = fn.add(op, [a, fn.args[1]], width)
            u = fn.add(op, [fn.args[1], MConst(half, width)], width)
            fn.ret = u
            self._check_fn(fn, width)

    def test_binops_width6(self):
        for op in self.BINOPS:
            fn = MFunction("f", [MArg("%x", 6), MArg("%y", 6)])
            v = fn.add(op, [fn.args[0], fn.args[1]], 6)
            fn.ret = v
            self._check_fn(fn, 6)

    @pytest.mark.parametrize("width", (2, 3, 4, 6))
    def test_convs_select_icmp_exhaustive(self, width):
        fn = MFunction("f", [MArg("%x", width), MArg("%y", width)])
        z = fn.add("zext", [fn.args[0]], width + 2)
        s = fn.add("sext", [fn.args[0]], width + 2)
        t = fn.add("trunc", [fn.args[0]], width - 1)
        c = fn.add("icmp", [fn.args[0], fn.args[1]], 1, cond="slt")
        a = fn.add("and", [fn.args[0], MConst(3, width)], width)
        b = fn.add("or", [fn.args[1], MConst(1, width)], width)
        sel = fn.add("select", [c, a, b], width)
        fn.ret = sel
        self._check_fn(fn, width)

    @pytest.mark.parametrize("width", (3, 4, 6))
    def test_deep_expression_exhaustive(self, width):
        mask_c = (1 << width) - 2
        fn = MFunction("f", [MArg("%x", width), MArg("%y", width)])
        a = fn.add("and", [fn.args[0], MConst(mask_c, width)], width)
        b = fn.add("lshr", [a, MConst(1, width)], width)
        c = fn.add("mul", [b, MConst(3, width)], width)
        d = fn.add("sub", [c, fn.args[1]], width)
        e = fn.add("xor", [d, MConst(1, width)], width)
        fn.ret = e
        self._check_fn(fn, width)


class TestPinnedRegressions:
    """Counterexamples for bugs the brute-force sweep flushed out."""

    def test_shl_pow2_base_not_claimed(self):
        # the old analysis claimed `shl C, %s` stayed a power of two for
        # any power-of-two constant C; 2 << 3 at i4 wraps to 0
        from repro.ir.interp import run_function

        fn = MFunction("f", [MArg("%s", 4)])
        shl = fn.add("shl", [MConst(2, 4), fn.args[0]], 4)
        fn.ret = shl
        assert run_function(fn, {"%s": 3}) == 0  # the witness
        assert not Analyses(fn).is_power_of_2(shl)

    def test_shl_one_base_claimed_and_sound(self):
        from repro.ir.interp import run_function
        from repro.ir.intops import UndefinedBehavior

        fn = MFunction("f", [MArg("%s", 4)])
        shl = fn.add("shl", [MConst(1, 4), fn.args[0]], 4)
        fn.ret = shl
        assert Analyses(fn).is_power_of_2(shl)
        for s in range(16):
            try:
                value = run_function(fn, {"%s": s})
            except UndefinedBehavior:
                continue
            assert value != 0 and value & (value - 1) == 0

    def test_signed_add_overflow_via_ranges(self):
        fn = fn8()
        a = fn.add("lshr", [fn.args[0], MConst(1, 8)], 8)  # [0, 127]
        z = fn.add("and", [fn.args[1], MConst(0, 8)], 8)   # exactly 0
        b = fn.add("lshr", [fn.args[1], MConst(2, 8)], 8)  # [0, 63]
        analyses = Analyses(fn)
        # 127 + 0 fits; the old two-top-bits rule could not see it
        assert analyses.will_not_overflow_signed_add(a, z)
        # 127 + 63 = 190 overflows i8 and must stay rejected
        assert not analyses.will_not_overflow_signed_add(a, b)

    def test_sub_and_udiv_no_longer_top(self):
        # the hand-written analysis returned top for sub and udiv; the
        # delegated transfers track ranges through both
        fn = fn8()
        a = fn.add("or", [fn.args[0], MConst(0x80, 8)], 8)  # [128, 255]
        d = fn.add("sub", [a, MConst(1, 8)], 8)             # [127, 254]
        q = fn.add("udiv", [fn.args[1], MConst(4, 8)], 8)   # [0, 63]
        kb = KnownBitsAnalysis(fn)
        assert kb.abstract(d).ur.lo == 127
        assert kb.abstract(d).ur.hi == 254
        assert kb.abstract(q).ur.hi == 63


class TestFactReuse:
    """The pass keeps known-bits facts across its rewrites of a function
    (``Analyses(fn, facts)``).  A kept fact must equal the one a fresh
    analysis of the function computes: after a rewrite changes an
    operand, after a freed value's address is reused, and on every
    query the pass makes.  On the seeded modules no rewrite changes the
    fact of a user of the value it replaces, so only the first two
    tests fail on a store keyed by ``id()`` or one that skips the
    operand-fact check.  The modules are sliced for tier-1; set
    ``ALIVE_REPRO_PARITY_FULL=1`` for the perfbench ``optimize`` size
    (300 x 40, seeds 1-3)."""

    def test_rewritten_operand_is_recomputed(self):
        fn = fn8()
        a = fn.add("and", [fn.args[0], MConst(0x0F, 8)], 8)
        u = fn.add("or", [a, MConst(0x10, 8)], 8)
        fn.ret = u
        facts = {}
        assert Analyses(fn, facts).known_bits.known(u)[1] == 0x10
        fn.replace_all_uses(a, MConst(0x03, 8))
        assert Analyses(fn, facts).known_bits.known(u) == (0xEC, 0x13)

    def test_a_new_value_never_takes_a_freed_values_fact(self):
        # a store keyed by id() would hand the freed constant's fact to
        # the new constant that CPython allocates at the same address
        fn = fn8()
        u = fn.add("and", [fn.args[0], MConst(0, 8)], 8)
        fn.ret = u
        facts = {}
        for value in range(1, 256):
            Analyses(fn, facts).known_bits.known(u)
            u.operands[1] = fn.args[1]
            u.operands[1] = MConst(value, 8)
            assert Analyses(fn, facts).known_bits.known(u) == \
                KnownBitsAnalysis(fn).known(u)

    @pytest.mark.parametrize("seed", (1, 2, 3) if FULL else (1, 2))
    def test_every_query_of_the_pass(self, seed, monkeypatch):
        queries = []

        class Checked(KnownBitsAnalysis):
            def abstract(self, v):
                if self._cache.get(v) is not None:
                    return self._cache[v]
                kept = super().abstract(v)
                fresh = KnownBitsAnalysis(self.fn).abstract(v)
                queries.append((repr(v), kept == fresh))
                return kept

        class CheckedAnalyses(Analyses):
            def __init__(self, fn, facts=None):
                super().__init__(fn, facts)
                self.known_bits.__class__ = Checked

        monkeypatch.setattr(pass_manager, "Analyses", CheckedAnalyses)
        functions, instructions = (300, 40) if FULL else (120, 40)
        module = generate_module(WorkloadConfig(
            seed=seed, functions=functions, instructions=instructions))
        PeepholePass(folding_rules() + compile_opts(load_all_flat())
                     ).run_module(module)
        assert [v for v, same in queries if not same] == []
        assert len(queries) > 1000
