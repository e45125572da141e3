"""The benchmark's four workloads.

Each workload splits one *pass* into the three parts the benchmark
reports separately:

* ``setup(seed, pass_index)`` — what a user pays before any verdict or rewrite:
  parsing the rule files and planning jobs, or compiling the rules into
  matchers, generating the module and snapshotting reference outputs;
* ``work(state)`` — the timed work, one item at a time (a rule to its
  verdict, a function through the peephole pass), returning the
  seconds each item took;
* ``check(state)`` — comparison of every output with an answer the
  program under test did not produce.  It runs after the timed work.

The seed drives module generation and the sampled inputs, and with the
pass index it permutes the order the items run in, so the same seed
always gives the same inputs.  A new order each pass spreads
order-dependent costs (which item triggers a full garbage collection,
which one first builds a shared term) over different items, so an
item's median over the passes is its own cost.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

import repro.engine as engine
import repro.ir.interp as interp
import repro.opt as opt
import repro.workload as workload
from repro import suite
from repro.core import Config
from repro.ir.intops import UndefinedBehavior

from replay import replays
from speed import SpeedProbe

_pc = time.perf_counter


class PassResult:
    """What one pass measured and checked."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        #: reference seconds per measured second (see speed.py)
        self.speed = 1.0
        #: seconds spent in kernel samples during the pass
        self.calibration_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: item label -> seconds for that item
        self.items: Dict[str, float] = {}
        self.attempted = 0
        self.ok = 0
        self.decided = 0
        self.peak_rss_mb = 0.0
        #: called with each item's label before it runs (tracing only)
        self.on_item = None
        self.size_ratio = 1.0
        self.cost_ratio = 1.0
        self.failures: List[str] = []


def _order_seed(seed: int, pass_index: int) -> int:
    return seed * 1009 + pass_index


def _timed_work(result: PassResult, items, run_item) -> None:
    """Run every item, timing each one and the whole loop.

    Kernel samples between items give the pass's speed factor; their
    own time is taken out of the loop's wall and CPU time.  A traced
    pass sets ``result.on_item`` to label its spans with the item.
    """
    probe = SpeedProbe()
    spent = probe.sample()
    c0 = time.process_time()
    t0 = _pc()
    for label, item in items:
        if result.on_item is not None:
            result.on_item(label)
        i0 = _pc()
        run_item(item)
        result.items[label] = _pc() - i0
        spent += probe.between_items()
    result.wall_s = _pc() - t0 - (spent - probe.samples[0])
    result.cpu_s = time.process_time() - c0 - (spent - probe.samples[0])
    result.speed = probe.factor()
    result.calibration_s = spent


# ----------------------------------------------------------------------
# verification workloads
# ----------------------------------------------------------------------


class VerifyWorkload:
    """Verify a rule set to verdicts with the in-process batch engine."""

    #: modules a command-line verification run imports
    imports = ["repro.suite", "repro.core"]

    def __init__(self, name: str, config: Config, load):
        self.name = name
        self.config = config
        #: () -> [(transformation, expected verdict)]
        self._load = load

    def setup(self, seed: int, pass_index: int) -> dict:
        rules = self._load()
        random.Random(_order_seed(seed, pass_index)).shuffle(rules)
        fingerprint = engine.semantics_fingerprint()
        plans = [(engine.plan_transformation(t, self.config, fingerprint),
                  expected) for t, expected in rules]
        return {"plans": plans, "verdicts": {}}

    def work(self, state: dict, result: PassResult) -> None:
        verdicts = state["verdicts"]

        def verify(plan):
            payloads = [job.payload() for job in plan.jobs]
            outcomes = engine.submit_jobs(payloads, jobs=1)
            verdicts[plan.transformation.name] = \
                engine.aggregate_plan(plan, outcomes)

        _timed_work(result, [(p.transformation.name, p)
                             for p, _e in state["plans"]], verify)

    def check(self, state: dict, result: PassResult) -> None:
        for plan, expected in state["plans"]:
            t = plan.transformation
            verdict = state["verdicts"][t.name]
            result.attempted += 1
            result.decided += verdict.status in ("valid", "invalid")
            ok = verdict.status == expected
            if ok and verdict.status == "invalid":
                ok = replays(t, self.config, verdict.counterexample)
                if not ok:
                    result.failures.append(
                        "%s: counterexample does not replay" % t.name)
            elif not ok:
                result.failures.append("%s: %s, expected %s"
                                       % (t.name, verdict.status, expected))
            result.ok += ok


def _valid(rules) -> List[Tuple[object, str]]:
    return [(t, "valid") for t in rules]


def _invalid(rules) -> List[Tuple[object, str]]:
    return [(t, "invalid") for t in rules]


def _corpus_rules():
    patches = suite.load_patches()
    expected = ("invalid", "invalid", "valid")  # the §6.2 revisions
    return (_valid(suite.load_all_flat()) + _invalid(suite.load_bugs())
            + list(zip(patches, expected)))


def _muldiv_rules():
    return _valid(suite.load_category("MulDivRem")) + _invalid(suite.load_bugs())


#: fp.opt rules that each run longer than the other 22 together (the
#: shortest, fsub-self-nnan-ninf, about 32 s), too long to repeat in
#: every run; the simplifier cost they share is exercised by the rules
#: that stay in
SOFTFLOAT_LEFT_OUT = frozenset((
    "FP:fsub-self-nnan-ninf",
    "FP:fptosi-sitofp-wrong",
    "FP:fdiv-recip-wrong",
))


def _softfloat_rules():
    return [(t, suite.FP_EXPECTED[t.name]) for t in suite.load_fp()
            if t.name not in SOFTFLOAT_LEFT_OUT]


# ----------------------------------------------------------------------
# the optimizer workload
# ----------------------------------------------------------------------


class OptimizeWorkload:
    """Run verified rules as a peephole pass over a generated module."""

    imports = ["repro.suite", "repro.opt", "repro.workload", "repro.ir.interp"]
    functions = 300
    instructions = 40
    inputs_per_function = 4

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int, pass_index: int) -> dict:
        opts = opt.folding_rules() + opt.compile_opts(suite.load_all_flat())
        module = workload.generate_module(workload.WorkloadConfig(
            seed=seed, functions=self.functions,
            instructions=self.instructions))
        rng = random.Random(seed)
        samples = []
        for fn in module.functions:
            for _ in range(self.inputs_per_function):
                args = {a.name: rng.randrange(1 << a.width) for a in fn.args}
                samples.append((fn, args, _run(fn, args)))
        order = list(module.functions)
        random.Random(_order_seed(seed, pass_index)).shuffle(order)
        return {
            "pass": opt.PeepholePass(opts),
            "module": module,
            "order": order,
            "samples": samples,
            "size_before": sum(len(fn.instrs) for fn in module.functions),
            "cost_before": workload.module_cost(module),
            "iterations": {},
        }

    def work(self, state: dict, result: PassResult) -> None:
        peephole = state["pass"]
        iterations = state["iterations"]

        def optimize(fn):
            before = peephole.stats.iterations
            peephole.run_function(fn)
            iterations[fn.name] = peephole.stats.iterations - before

        _timed_work(result, [(fn.name, fn) for fn in state["order"]], optimize)

    def check(self, state: dict, result: PassResult) -> None:
        limit = state["pass"].max_iterations
        for used in state["iterations"].values():
            # a function that used every iteration may not be at a fixpoint
            result.decided += used < limit
        for fn, args, reference in state["samples"]:
            result.attempted += 1
            after = _run(fn, args)
            ok = reference is _UB or (after is not _UB
                                      and interp.refines(reference, after))
            if not ok:
                result.failures.append("%s%r: %r after the pass, %r before"
                                       % (fn.name, args, after, reference))
            result.ok += ok
        module = state["module"]
        result.size_ratio = (sum(len(fn.instrs) for fn in module.functions)
                             / state["size_before"])
        result.cost_ratio = workload.module_cost(module) / state["cost_before"]


_UB = object()


def _run(fn, args) -> object:
    """The function's result on *args*, or ``_UB`` for undefined behavior."""
    try:
        return interp.run_function(fn, args)
    except UndefinedBehavior:
        return _UB


# ----------------------------------------------------------------------

_W4 = dict(max_width=4, prefer_widths=(4,), ptr_width=8, max_type_assignments=2)

#: why each workload is here: see README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        VerifyWorkload("corpus", Config(**_W4), _corpus_rules),
        VerifyWorkload("muldiv", Config(max_width=5, prefer_widths=(5,),
                                        ptr_width=8, max_type_assignments=1),
                       _muldiv_rules),
        VerifyWorkload("softfloat", Config(**_W4), _softfloat_rules),
        OptimizeWorkload("optimize"),
    )
}
