"""Shape-indexed dispatch in the peephole pass changes nothing.

:class:`~repro.opt.pass_manager.PeepholePass` tries on an instruction
only the rules whose :class:`~repro.opt.matcher.Guard` admits its key
(opcode, cond, flags, operand shapes).  These tests pin the two facts
that make that sound:

* the pass gives byte-identical functions and firing counts to a
  reference loop that tries every rule in list order;
* no rule the matcher accepts is missing from an instruction's
  candidate list (a guard is never stricter than the matcher).

The generated modules are sliced for tier-1; set
``ALIVE_REPRO_PARITY_FULL=1`` to run the perfbench ``optimize`` size
(300 functions x 40 instructions, seeds 1-3).
"""

import os

import pytest

from repro.ir import parse_transformation
from repro.ir.module import MArg, MConst, MFunction
from repro.opt import (
    Analyses,
    PassStatistics,
    PeepholeOpt,
    PeepholePass,
    compile_opts,
    folding_rules,
    run_dce,
)
from repro.suite import load_all_flat, load_fp
from repro.workload import WorkloadConfig, generate_module

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"
SEEDS = (1, 2, 3) if FULL else (1, 2)
FUNCTIONS, INSTRUCTIONS = (300, 40) if FULL else (30, 25)


@pytest.fixture(scope="module")
def opts():
    return folding_rules() + compile_opts(load_all_flat())


def reference_run(opts, fn, max_iterations, stats, visit=None):
    """The pass loop with no index: every rule, in list order, on every
    instruction; *visit(inst, analyses)* sees each instruction tried."""
    for _ in range(max_iterations):
        stats.iterations += 1
        changed = False
        analyses = Analyses(fn)
        replaced = set()
        for inst in list(fn.instrs):
            if id(inst) in replaced:
                continue
            if visit is not None:
                visit(inst, analyses)
            for opt in opts:
                if opt.try_apply(fn, inst, analyses):
                    stats.record(opt.name)
                    replaced.add(id(inst))
                    changed = True
                    analyses = Analyses(fn)
                    break
        stats.instructions_removed += run_dce(fn)
        if not changed:
            break


def module(seed):
    return generate_module(WorkloadConfig(
        seed=seed, functions=FUNCTIONS, instructions=INSTRUCTIONS))


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_pass_matches_reference_loop(opts, seed):
    indexed, reference = module(seed), module(seed)
    pass_ = PeepholePass(opts)
    pass_.run_module(indexed)
    stats = PassStatistics()
    for fn in reference.functions:
        reference_run(opts, fn, pass_.max_iterations, stats)
    assert [repr(fn) for fn in indexed.functions] \
        == [repr(fn) for fn in reference.functions]
    assert pass_.stats.fired == stats.fired
    assert pass_.stats.iterations == stats.iterations
    assert pass_.stats.instructions_removed == stats.instructions_removed
    assert stats.total_fired() > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_every_matching_rule_is_a_candidate(opts, seed):
    pass_ = PeepholePass(opts)
    templates = [opt for opt in opts if isinstance(opt, PeepholeOpt)]
    seen = []

    def visit(inst, analyses):
        admitted = {id(opt) for opt in pass_.candidates(inst)}
        for opt in templates:
            if id(opt) not in admitted:
                assert opt.matcher.match(inst, analyses) is None, \
                    (opt.name, repr(inst))
        seen.append(len(admitted))

    stats = PassStatistics()
    for fn in module(seed).functions:
        reference_run(opts, fn, pass_.max_iterations, stats, visit)
    # the index must also discriminate: far fewer candidates than rules
    assert sum(seen) < len(seen) * len(opts) / 4


# ----------------------------------------------------------------------
# guards of single templates


def candidates(text, inst):
    return PeepholePass([PeepholeOpt(parse_transformation(text))]) \
        .candidates(inst)


def fn8(nargs=2):
    return MFunction("f", [MArg("%%a%d" % i, 8) for i in range(nargs)])


def test_icmp_cond_is_part_of_the_key():
    text = "%c = icmp eq %x, 0\n=>\n%c = icmp ule %x, 0"
    fn = fn8()
    assert candidates(text, fn.add("icmp", [fn.args[0], MConst(0, 8)], 1,
                                   cond="eq"))
    assert not candidates(text, fn.add("icmp", [fn.args[0], MConst(0, 8)],
                                       1, cond="ult"))


def test_required_flags_must_be_present():
    text = "%r = add nsw %x, %y\n=>\n%r = add nsw %y, %x"
    fn = fn8()
    a, b = fn.args
    assert not candidates(text, fn.add("add", [a, b], 8))
    assert not candidates(text, fn.add("add", [a, b], 8, flags=["nuw"]))
    assert candidates(text, fn.add("add", [a, b], 8, flags=["nuw", "nsw"]))


def test_literal_operand_needs_a_constant():
    text = "%r = add %x, 0\n=>\n%r = %x"
    fn = fn8()
    a, b = fn.args
    assert not candidates(text, fn.add("add", [a, b], 8))
    assert not candidates(text, fn.add("add", [a, fn.add("xor", [a, b], 8)],
                                       8))
    # the guard asks for a constant, the matcher for its value
    assert candidates(text, fn.add("add", [a, MConst(5, 8)], 8))


def test_operand_instruction_opcode_and_cond():
    text = ("%c = icmp slt %x, 0\n%r = select %c, %x, 0\n=>\n"
            "%r = select %c, %x, 0")
    fn = MFunction("f", [MArg("%a", 8), MArg("%b", 1)])
    (a, b), zero = fn.args, MConst(0, 8)
    slt = fn.add("icmp", [a, zero], 1, cond="slt")
    sgt = fn.add("icmp", [a, zero], 1, cond="sgt")
    assert candidates(text, fn.add("select", [slt, a, zero], 8))
    assert not candidates(text, fn.add("select", [sgt, a, zero], 8))
    assert not candidates(text, fn.add("select", [b, a, zero], 8))


def test_undef_operand_never_matches():
    opt = PeepholeOpt(parse_transformation("%r = add %x, undef\n=>\n%r = undef"))
    fn = fn8()
    inst = fn.add("add", [fn.args[0], MConst(0, 8)], 8)
    assert not PeepholePass([opt]).candidates(inst)
    assert opt.matcher.match(inst, Analyses(fn)) is None


def test_fp_root_is_never_a_candidate():
    fp = [PeepholeOpt(t) for t in load_fp()]
    assert fp
    fn = MFunction("g", [MArg("%x", 16), MArg("%y", 16)])
    inst = fn.add("fadd", fn.args, 16)
    assert not PeepholePass(fp).candidates(inst)
    assert all(not opt.guard.opcodes for opt in fp)
