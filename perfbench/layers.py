"""Which ``repro`` functions mark which layer, and the per-layer metrics.

:func:`install` attaches a :class:`~tracer.Tracer` to the program's
layer boundaries; :func:`layer_metrics` turns what it recorded into the
``per_layer`` metrics of ``BENCHMARK.json``.  Every layer boundary is a
public function or method; nothing inside a layer is wrapped, so the
recursion in the bit-blaster, the encoder and the matcher runs
untouched.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Tracer

#: boundary names whose call counts are published as ``<name>.calls``
_CALL_COUNTS = ("ir.parse", "ir.interp", "absint.prove", "core.counterexample",
                "smt.simplify", "opt.match", "opt.fold", "opt.rewrite",
                "opt.analysis")


def dag_size(term) -> int:
    """Distinct nodes of a hash-consed term DAG."""
    seen = set()
    todo = [term]
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        todo.extend(t.args)
    return len(seen)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; :meth:`Tracer.unpatch` undoes it."""
    import repro.absint.prove as absint_prove
    import repro.core.memory as memory
    import repro.core.refinement as refinement
    import repro.core.semantics as semantics
    import repro.core.typecheck as typecheck
    import repro.core.verifier  # noqa: F401  (binds check_assignment)
    import repro.engine as engine
    import repro.engine.jobs as jobs
    import repro.engine.scheduler as scheduler
    import repro.ir.interp as interp
    import repro.ir.parser as parser
    import repro.opt.analysis as analysis
    import repro.opt.baseline as baseline
    import repro.opt.dce as dce
    import repro.opt.matcher as matcher
    import repro.opt.pass_manager as pass_manager
    import repro.opt.rewriter as rewriter
    import repro.smt.bitblast as bitblast
    import repro.smt.sat as sat
    import repro.smt.simplify as simplify
    import repro.smt.solver as solver
    import repro.suite  # noqa: F401  (binds parse_transformations)
    import repro.typing.enumerate as enumerate_
    import repro.workload.generator as generator

    counts = tracer.counts

    def function(fn, name, **kwargs) -> None:
        if tracer.patch_function(fn, tracer.wrapper(fn, name, **kwargs)) == 0:
            raise RuntimeError("no binding of %s to trace" % fn.__qualname__)

    def method(cls, attr, name, **kwargs) -> None:
        tracer.patch_attr(cls, attr,
                          tracer.wrapper(vars(cls)[attr], name, **kwargs))

    def hot(cls, attr, name, hit=None) -> None:
        tracer.patch_attr(cls, attr,
                          tracer.aggregate(vars(cls)[attr], name, hit))

    def adder(key, of=lambda result: result):
        def after(_state, _args, result):
            counts[key] += of(result)
        return after

    # -- ir, typing, core typing --------------------------------------
    function(parser.parse_transformations, "ir.parse",
             after=adder("ir.parse.rules", len))
    tracer.patch_function(interp.run_function, tracer.aggregate(
        interp.run_function, "ir.interp"))
    method(typecheck.TypeChecker, "check_transformation", "core.typecheck")
    function(enumerate_.enumerate_assignments, "typing.enumerate",
             consume=True, after=adder("typing.assignments", len))

    # -- engine --------------------------------------------------------
    function(jobs.plan_transformation, "engine.plan")
    function(engine.submit_jobs, "engine.scheduler")
    function(scheduler.run_job, "engine.job",
             after=adder("engine.jobs", lambda _r: 1))
    function(engine.aggregate_plan, "engine.aggregate")

    # -- absint and core -------------------------------------------------
    function(absint_prove.prove_refinement, "absint.prove",
             after=adder("absint.proved", bool))
    function(refinement.check_assignment, "core.check")
    method(semantics.TemplateEncoder, "encode_template", "core.encode")
    function(semantics.encode_precondition, "core.encode")
    function(refinement._value_mismatch, "core.encode")
    method(memory.MemoryModel, "alloca_constraints", "core.encode")
    method(memory.MemoryModel, "memory_equality_refutation", "core.encode")
    function(refinement.build_counterexample, "core.counterexample")

    # -- smt -------------------------------------------------------------
    def simplify_before(args):
        return dag_size(args[0])

    def simplify_after(nodes_in, _args, result):
        counts["smt.simplify.nodes_in"] += nodes_in
        counts["smt.simplify.nodes_out"] += dag_size(result)

    function(simplify.simplify, "smt.simplify",
             before=simplify_before, after=simplify_after)

    def cnf_before(builder):
        return builder.num_vars, len(builder.clauses)

    def cnf_after(builder, before):
        counts["smt.cnf.vars"] += builder.num_vars - before[0]
        counts["smt.cnf.clauses"] += len(builder.clauses) - before[1]

    method(bitblast.BitBlaster, "assert_formula", "smt.bitblast",
           before=lambda args: cnf_before(args[0].builder),
           after=lambda st, args, _r: cnf_after(args[0].builder, st))

    class_lit = bitblast.BitBlaster.lit

    def trace_session_blaster(session) -> None:
        # BitBlaster.lit recurses through ``self.lit``.  The session's
        # top-level calls go through an instance attribute that removes
        # itself for the duration of the call, so the recursion below
        # it runs on the untouched class method.
        blaster = session.blaster
        traced = tracer.wrapper(
            lambda term: class_lit(blaster, term), "smt.bitblast",
            before=lambda _args: cnf_before(blaster.builder),
            after=lambda st, _args, _r: cnf_after(blaster.builder, st))

        def top_level_lit(term):
            del blaster.lit
            try:
                return traced(term)
            finally:
                blaster.lit = top_level_lit

        blaster.lit = top_level_lit

    for attr in ("__init__", "reset"):
        method(solver.IncrementalSession, attr, "smt.solver", event=False,
               after=lambda _st, args, _r: trace_session_blaster(args[0]))

    def sat_before(args):
        s = args[0]
        return s.conflicts, s.decisions, s.propagations

    def sat_after(before, args, result):
        s = args[0]
        counts["smt.sat.solves"] += 1
        counts["smt.sat.conflicts"] += s.conflicts - before[0]
        counts["smt.sat.decisions"] += s.decisions - before[1]
        counts["smt.sat.propagations"] += s.propagations - before[2]
        counts["smt.sat.unknown"] += result == sat.UNKNOWN

    method(sat.SatSolver, "solve", "smt.sat",
           before=sat_before, after=sat_after)
    # clause loading into a session's solver (add_clause in aggregate)
    method(solver.IncrementalSession, "_sync", "smt.sat", event=False)

    def solver_after(_state, _args, result):
        counts["smt.solver.queries"] += 1
        counts["smt.cegis.rounds"] += result.stats.get("cegis_rounds", 0)

    function(solver.solve_exists_forall, "smt.solver", after=solver_after)
    function(solver.check_sat, "smt.solver")
    method(solver.IncrementalSession, "check", "smt.solver")

    # -- opt and workload -----------------------------------------------
    function(pass_manager.compile_opts, "opt.compile")
    function(generator.generate_module, "workload.generate")
    method(pass_manager.PeepholePass, "run_function", "opt.pass",
           after=adder("opt.fired"))
    hot(matcher.TemplateMatcher, "match", "opt.match",
        hit=lambda result: result is not None)
    hot(baseline.NativeRule, "try_apply", "opt.fold")
    hot(rewriter.Rewriter, "apply", "opt.rewrite")
    hot(analysis.Analyses, "__init__", "opt.analysis")
    for attr in ("masked_value_is_zero", "is_power_of_2", "has_one_use",
                 "sign_bit_known_zero", "will_not_overflow_signed_add"):
        hot(analysis.Analyses, attr, "opt.analysis")
    function(dce.run_dce, "opt.dce", event=False,
             after=adder("opt.dce.removed"))


def layer_metrics(tracers: List[Tracer], overhead_ratio: float,
                  names: List[str]) -> Dict[str, float]:
    """The per-layer metrics *names* from one or more traced passes.

    ``<boundary>.self_s`` is a self time, ``<boundary>.calls`` a call
    count, anything else a named counter or one of the ratios below.
    Counts come from the first pass (the caller checks that every pass
    counted the same); times are medians over the passes.
    """
    from statistics import median

    first = tracers[0]
    out: Dict[str, float] = {}
    for name in names:
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            out[name] = median(t.self_time.get(layer, 0.0) for t in tracers)
        elif name.endswith(".calls") and name[: -len(".calls")] in _CALL_COUNTS:
            out[name] = first.calls.get(name[: -len(".calls")], 0)
        else:
            out[name] = first.counts.get(name, 0)
    calls = first.calls
    out["absint.proved_ratio"] = _ratio(first.counts["absint.proved"],
                                        calls.get("absint.prove", 0))
    out["opt.match.hit_ratio"] = _ratio(first.counts["opt.match.hits"],
                                        calls.get("opt.match", 0))
    out["smt.simplify.size_ratio"] = _ratio(
        first.counts["smt.simplify.nodes_out"],
        first.counts["smt.simplify.nodes_in"])
    out["trace.coverage"] = median(t.coverage() for t in tracers)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def where_the_time_goes(tracers: List[Tracer]) -> List[Tuple[str, float]]:
    """Median self time per boundary name, largest first."""
    from statistics import median

    names = set().union(*(t.self_time for t in tracers))
    rows = [(name, median(t.self_time.get(name, 0.0) for t in tracers))
            for name in names]
    return sorted(rows, key=lambda row: -row[1])


def count_signature(tracer: Tracer) -> Dict[str, int]:
    """Every count the tracer made: the part that must repeat exactly."""
    sig = {"calls." + k: v for k, v in tracer.calls.items()}
    sig.update({"counts." + k: v for k, v in tracer.counts.items()})
    return dict(sorted(sig.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
