"""Tests for the rewriter, DCE, and the pass driver."""

import pytest

from repro.ir import parse_transformation
from repro.ir.interp import run_function
from repro.ir.module import MArg, MConst, MFunction, Module
from repro.opt import (
    Analyses,
    NativeRule,
    PeepholeOpt,
    PeepholePass,
    baseline_rules,
    compile_opts,
    folding_rules,
    run_dce,
)


def fn8(nargs=2):
    return MFunction("f", [MArg("%%a%d" % i, 8) for i in range(nargs)])


def opt_for(text):
    return PeepholeOpt(parse_transformation(text))


class TestRewriter:
    def test_constant_materialization(self):
        opt = opt_for("""
        %1 = xor %x, -1
        %2 = add %1, C
        =>
        %2 = sub C-1, %x
        """)
        fn = fn8()
        t1 = fn.add("xor", [fn.args[0], MConst(0xFF, 8)], 8)
        t2 = fn.add("add", [t1, MConst(10, 8)], 8)
        fn.ret = t2
        assert opt.try_apply(fn, t2, Analyses(fn))
        run_dce(fn)
        fn.verify()
        assert len(fn.instrs) == 1
        new = fn.instrs[0]
        assert new.opcode == "sub"
        assert new.operands[0].value == 9

    def test_log2_evaluation(self):
        opt = opt_for("Pre: isPowerOf2(C)\n%r = mul %x, C\n=>\n%r = shl %x, log2(C)")
        fn = fn8()
        inst = fn.add("mul", [fn.args[0], MConst(16, 8)], 8)
        fn.ret = inst
        assert opt.try_apply(fn, inst, Analyses(fn))
        run_dce(fn)
        assert fn.instrs[0].opcode == "shl"
        assert fn.instrs[0].operands[1].value == 4

    def test_width_function(self):
        opt = opt_for("""
        %c = icmp slt %x, 0
        %r = select %c, -1, 0
        =>
        %r = ashr %x, width(%x)-1
        """)
        fn = fn8()
        c = fn.add("icmp", [fn.args[0], MConst(0, 8)], 1, cond="slt")
        r = fn.add("select", [c, MConst(0xFF, 8), MConst(0, 8)], 8)
        fn.ret = r
        assert opt.try_apply(fn, r, Analyses(fn))
        run_dce(fn)
        assert fn.instrs[0].opcode == "ashr"
        assert fn.instrs[0].operands[1].value == 7

    def test_target_flags_installed(self):
        opt = opt_for("%r = add nsw %x, %y\n=>\n%r = add nsw %y, %x")
        fn = fn8()
        inst = fn.add("add", [fn.args[0], fn.args[1]], 8, flags=["nsw"])
        fn.ret = inst
        assert opt.try_apply(fn, inst, Analyses(fn))
        run_dce(fn)
        assert fn.instrs[0].flags == {"nsw"}

    def test_copy_target_rewires_without_new_instr(self):
        opt = opt_for("%r = add %x, 0\n=>\n%r = %x")
        fn = fn8()
        inst = fn.add("add", [fn.args[0], MConst(0, 8)], 8)
        user = fn.add("mul", [inst, inst], 8)
        fn.ret = user
        assert opt.try_apply(fn, inst, Analyses(fn))
        assert user.operands == [fn.args[0], fn.args[0]]

    def test_multi_instruction_target(self):
        opt = opt_for("""
        %nx = xor %x, -1
        %ny = xor %y, -1
        %r = and %nx, %ny
        =>
        %o = or %x, %y
        %r = xor %o, -1
        """)
        fn = fn8()
        nx = fn.add("xor", [fn.args[0], MConst(0xFF, 8)], 8)
        ny = fn.add("xor", [fn.args[1], MConst(0xFF, 8)], 8)
        r = fn.add("and", [nx, ny], 8)
        fn.ret = r
        before = {(x, y): run_function(fn, {"%a0": x, "%a1": y})
                  for x in (0, 5, 255) for y in (0, 9, 254)}
        assert opt.try_apply(fn, r, Analyses(fn))
        run_dce(fn)
        fn.verify()
        opcodes = [i.opcode for i in fn.instrs]
        assert opcodes == ["or", "xor"]
        for (x, y), expected in before.items():
            assert run_function(fn, {"%a0": x, "%a1": y}) == expected


class TestDce:
    def test_removes_transitively_dead(self):
        fn = fn8()
        a = fn.add("add", [fn.args[0], fn.args[1]], 8)
        b = fn.add("mul", [a, a], 8)
        fn.add("xor", [b, b], 8)  # dead chain head
        live = fn.add("sub", [fn.args[0], fn.args[1]], 8)
        fn.ret = live
        removed = run_dce(fn)
        assert removed == 3
        assert fn.instrs == [live]

    def test_keeps_ret(self):
        fn = fn8()
        a = fn.add("add", [fn.args[0], fn.args[1]], 8)
        fn.ret = a
        assert run_dce(fn) == 0
        assert fn.instrs == [a]


class TestPassDriver:
    def test_fixpoint_chains_rewrites(self):
        # ((x + 1) + 2) + 3 folds down to x + 6 through repeated
        # add-const-reassoc applications
        opts = compile_opts([parse_transformation("""
        Name: reassoc
        %a = add %x, C1
        %r = add %a, C2
        =>
        %r = add %x, C1+C2
        """)])
        fn = fn8(1)
        v = fn.args[0]
        for c in (1, 2, 3):
            v = fn.add("add", [v, MConst(c, 8)], 8)
        fn.ret = v
        pass_ = PeepholePass(opts)
        fired = pass_.run_function(fn)
        assert fired == 2
        assert len(fn.instrs) == 1
        assert fn.instrs[0].operands[1].value == 6

    def test_stats_recorded(self):
        opts = compile_opts([parse_transformation(
            "Name: add-zero\n%r = add %x, 0\n=>\n%r = %x"
        )])
        fn = fn8(1)
        a = fn.add("add", [fn.args[0], MConst(0, 8)], 8)
        b = fn.add("add", [a, MConst(0, 8)], 8)
        fn.ret = b
        pass_ = PeepholePass(opts)
        pass_.run_function(fn)
        assert pass_.stats.fired == {"add-zero": 2}
        assert pass_.stats.total_fired() == 2
        assert pass_.stats.sorted_counts() == [("add-zero", 2)]

    def test_module_run(self):
        opts = compile_opts([parse_transformation(
            "Name: mul-one\n%r = mul %x, 1\n=>\n%r = %x"
        )])
        module = Module()
        for i in range(3):
            fn = fn8(1)
            fn.ret = fn.add("mul", [fn.args[0], MConst(1, 8)], 8)
            module.add_function(fn)
        fired = PeepholePass(opts).run_module(module)
        assert fired == 3

    def test_memory_templates_skipped_by_compile(self):
        ts = [parse_transformation(
            "store %v, %p\n%r = load %p\n=>\nstore %v, %p\n%r = %v"
        ), parse_transformation(
            "Name: keep\n%r = add %x, 0\n=>\n%r = %x"
        )]
        opts = compile_opts(ts)
        assert [o.name for o in opts] == ["keep"]


class TestBaselineRules:
    def test_every_rule_has_unique_name(self):
        names = [r.name for r in baseline_rules()]
        assert len(names) == len(set(names))

    def test_folding_subset(self):
        fold_names = {r.name for r in folding_rules()}
        assert fold_names < {r.name for r in baseline_rules()}
        assert all(n.startswith("fold-") for n in fold_names)

    def test_constant_folding_preserves_semantics(self):
        fn = fn8(0)
        a = MConst(200, 8)
        b = MConst(100, 8)
        inst = fn.add("add", [a, b], 8)
        fn.ret = inst
        pass_ = PeepholePass(folding_rules())
        pass_.run_function(fn)
        assert isinstance(fn.ret, MConst)
        assert fn.ret.value == 44

    def test_conversions_of_constants_fold(self):
        fn = fn8(0)
        inst = fn.add("zext", [MConst(3, 4)], 8)
        fn.ret = inst
        pass_ = PeepholePass(folding_rules())
        pass_.run_function(fn)
        assert isinstance(fn.ret, MConst)
        assert (fn.ret.value, fn.ret.width) == (3, 8)
        assert pass_.stats.fired == {"fold-conv": 1}

    @pytest.mark.parametrize("opcode, c, name", [
        ("sdiv", 1, "Baseline:sdiv-one"), ("urem", 1, "Baseline:urem-one"),
        ("ashr", 0, "Baseline:ashr-zero")])
    def test_multi_opcode_rules_fire(self, opcode, c, name):
        fn = fn8(1)
        fn.ret = fn.add(opcode, [fn.args[0], MConst(c, 8)], 8)
        pass_ = PeepholePass(baseline_rules())
        pass_.run_function(fn)
        assert pass_.stats.fired == {name: 1}

    def test_rule_without_opcode_is_tried_on_every_instruction(self):
        rule = NativeRule("any-zero", None,
                          lambda func, inst, analyses: MConst(0, inst.width))
        fn = fn8()
        fn.ret = fn.add("icmp", fn.args, 1, cond="ult")
        pass_ = PeepholePass([rule], max_iterations=1)
        pass_.run_function(fn)
        assert pass_.stats.fired == {"any-zero": 1}

    def test_folding_leaves_ub_in_place(self):
        fn = fn8(0)
        inst = fn.add("udiv", [MConst(1, 8), MConst(0, 8)], 8)
        fn.ret = inst
        PeepholePass(folding_rules()).run_function(fn)
        assert fn.ret is inst  # not folded away

    def test_mul_pow2_does_not_claim_nsw(self):
        # the PR21242 lesson, encoded in the baseline too
        fn = fn8(1)
        inst = fn.add("mul", [fn.args[0], MConst(8, 8)], 8, flags=["nsw"])
        fn.ret = inst
        pass_ = PeepholePass(baseline_rules())
        pass_.run_function(fn)
        shl = fn.ret
        assert shl.opcode == "shl"
        assert "nsw" not in shl.flags
