"""The discovery pipeline: harvest -> verify -> rank -> emit.

Batch-mode driver for ``repro discover``.  Candidates come from two
harvesters — bottom-up enumeration (:mod:`repro.discover.harvest`) and
workload mining (:mod:`repro.discover.mine`) — and flow through a
funnel:

1. **pair** fingerprint-equivalent (source, cheaper target) pairs;
2. **select** the most promising ``max_candidates`` by claimed saving;
3. **verify** through the batch engine (or a ``repro serve`` endpoint),
   content-addressed and cache-friendly like every other engine client;
4. **salvage**: candidates refuted on the full constant space but
   fingerprint-equal on a proper constant subspace get one
   precondition-inference attempt (:mod:`repro.core.preinfer`);
5. **rank** survivors by estimated payoff — cycles saved (cost model)
   times measured fire rate over the synthetic workload mix;
6. **dedup** against the shipped corpus and against better-ranked
   survivors with the lint subsumption checker;
7. **emit** a parseable ``.opt`` file with per-rule provenance.

Everything is deterministic for a fixed seed: sample sets, enumeration
order, selection and ranking use total orders with textual tie-breaks,
and the emitted file contains no timestamps.  The optional time budget
is only consulted *between* deterministic units of work (stages, verify
chunks, salvage attempts), so a run that finishes inside its budget is
byte-identical to an unbudgeted run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..core import Config, DEFAULT_CONFIG, verify
from ..core.preinfer import infer_precondition
from ..engine import EngineStats, run_batch
from ..ir import ast, parse_transformation
from ..lint import subsumes
from ..lint.subsume import match_templates
from ..opt.analysis import Analyses
from ..opt.matcher import TemplateMatcher
from ..suite import load_all_flat
from ..workload import WorkloadConfig, generate_module
from .harvest import (
    DEFAULT_OPS,
    Candidate,
    build_samples,
    enumerate_exprs,
    pair_candidates,
)
from .mine import mine_candidate_stubs

#: rules verified per engine batch; the time budget is consulted
#: between chunks, never inside one
VERIFY_CHUNK = 32


class DiscoverOptions:
    """Knobs for one discovery run (all deterministic given ``seed``)."""

    def __init__(self, seed: int = 0, max_insts: int = 3,
                 ops: Optional[Sequence[str]] = None, n_inputs: int = 2,
                 rep_cap: int = 64, max_exprs: int = 40_000,
                 max_candidates: int = 128, max_salvage: int = 4,
                 min_saving: float = 0.5,
                 time_budget: Optional[float] = None,
                 jobs: int = 1, serve: Optional[str] = None,
                 enum: bool = True, mine: bool = True,
                 workload_functions: int = 60,
                 workload_instructions: int = 30,
                 pattern_rate: float = 0.45):
        self.seed = seed
        self.max_insts = max_insts
        self.ops = tuple(ops) if ops else DEFAULT_OPS
        self.n_inputs = n_inputs
        self.rep_cap = rep_cap
        self.max_exprs = max_exprs
        self.max_candidates = max_candidates
        self.max_salvage = max_salvage
        self.min_saving = min_saving
        self.time_budget = time_budget
        self.jobs = jobs
        self.serve = serve
        self.enum = enum
        self.mine = mine
        self.workload_functions = workload_functions
        self.workload_instructions = workload_instructions
        self.pattern_rate = pattern_rate

    def workload_config(self) -> WorkloadConfig:
        return WorkloadConfig(
            seed=self.seed,
            functions=self.workload_functions,
            instructions=self.workload_instructions,
            pattern_rate=self.pattern_rate,
        )


class DiscoveredRule:
    """One accepted rule with its provenance trail."""

    __slots__ = ("name", "candidate", "pre", "text", "fires", "score")

    def __init__(self, name: str, candidate: Candidate,
                 pre: Optional[str], text: str):
        self.name = name
        self.candidate = candidate
        self.pre = pre          # synthesized precondition, or None
        self.text = text
        self.fires = 0
        self.score = 0.0

    def provenance(self) -> List[str]:
        cand = self.candidate
        origin = cand.origin
        if cand.occurrences > 1:
            origin += " (x%d in the workload mix)" % cand.occurrences
        lines = ["; origin: %s" % origin]
        if self.pre is not None:
            lines.append(
                "; verdict: valid under synthesized precondition "
                "(refuted without it; fingerprint hint: %s)" % cand.hint
            )
        else:
            lines.append("; verdict: valid (exact fingerprint match)")
        lines.append(
            "; cost: %.1f -> %.1f  saving %.1f  fires %d  score %.1f"
            % (cand.src.cost, cand.tgt.cost, cand.saving,
               self.fires, self.score)
        )
        return lines


class DiscoveryReport:
    """Everything ``repro discover`` learned, plus the emitted text."""

    def __init__(self):
        self.funnel: Dict[str, int] = {}
        self.rules: List[DiscoveredRule] = []
        self.dropped_subsumed: List[str] = []
        self.rediscovered: List[str] = []  # corpus rules found again
        self.opt_text: str = ""
        self.truncated: bool = False
        self.stats = EngineStats()

    def summary(self) -> str:
        f = self.funnel
        lines = ["discovery funnel (seed deterministic):"]
        order = [
            ("enumerated expressions", "enumerated_exprs"),
            ("fingerprint classes", "fingerprint_classes"),
            ("mined templates", "mined_templates"),
            ("paired candidates", "candidates"),
            ("selected for verification", "selected"),
            ("verified valid", "verified_valid"),
            ("refuted", "refuted"),
            ("salvage attempts", "salvage_attempts"),
            ("salvaged with precondition", "salvaged"),
            ("dropped as subsumed", "subsumed_dropped"),
            ("rediscovered corpus rules", "rediscovered"),
            ("emitted", "emitted"),
        ]
        for label, key in order:
            if key in f:
                lines.append("  %-28s %6d" % (label, f[key]))
        if self.truncated:
            lines.append("  (time budget hit: stream truncated)")
        return "\n".join(lines)


class _Deadline:
    """Budget checks at deterministic stage boundaries only."""

    def __init__(self, budget: Optional[float]):
        self._until = time.monotonic() + budget if budget else None
        self.tripped = False

    def over(self) -> bool:
        if self._until is not None and time.monotonic() > self._until:
            self.tripped = True
        return self.tripped


def _parse(cand: Candidate, name: str,
           pre: Optional[str] = None) -> ast.Transformation:
    return parse_transformation(cand.rule_text(name, pre=pre))


def _verify_texts(names_texts, options: DiscoverOptions, config: Config,
                  cache, stats: EngineStats) -> Dict[str, str]:
    """name -> status for a chunk, via engine or serve endpoint."""
    if options.serve:
        from ..serve.client import VerifyClient

        with VerifyClient(options.serve) as client:
            response = client.submit_batch(
                [text for _, text in names_texts],
                knobs=config.to_dict(),
            )
        if response.get("error"):
            raise RuntimeError(
                "serve endpoint error: %s" % response["error"])
        return {r["name"]: r["status"] for r in response["results"]}
    rules = [parse_transformation(text) for _, text in names_texts]
    results = run_batch(rules, config, jobs=options.jobs, cache=cache,
                        stats=stats)
    return {r.name: r.status for r in results}


def _count_fires(t: ast.Transformation, module) -> int:
    """How often *t*'s source template matches in the workload mix."""
    try:
        matcher = TemplateMatcher(t)
    except ast.AliveError:
        return 0
    fires = 0
    for fn in module.functions:
        analyses = Analyses(fn)
        for inst in fn.instrs:
            try:
                if matcher.match(inst, analyses) is not None:
                    fires += 1
            except ast.AliveError:
                continue
    return fires


def run_discovery(options: DiscoverOptions,
                  config: Config = DEFAULT_CONFIG,
                  cache=None,
                  log: Optional[Callable[[str], None]] = None
                  ) -> DiscoveryReport:
    """Run the full pipeline and return the report (never writes files)."""
    say = log if log is not None else (lambda message: None)
    report = DiscoveryReport()
    deadline = _Deadline(options.time_budget)
    samples = build_samples(options.seed)

    # ------------------------------------------------------------- harvest
    pool_by_key: Dict[str, object] = {}
    stubs: List[Candidate] = []

    if options.mine:
        module = generate_module(options.workload_config())
        mined = mine_candidate_stubs(module, samples, options.max_insts)
        report.funnel["mined_templates"] = len(mined)
        # mined stubs go first so their occurrence counts win the
        # per-source dedup inside pair_candidates
        stubs.extend(mined)
        for stub in mined:
            pool_by_key.setdefault(stub.src.key, stub.src)
        say("mined %d templates from the workload mix" % len(mined))
    else:
        module = generate_module(options.workload_config())

    if options.enum:
        enum = enumerate_exprs(
            samples, ops=options.ops, max_insts=options.max_insts,
            n_inputs=options.n_inputs, rep_cap=options.rep_cap,
            max_exprs=options.max_exprs,
        )
        report.funnel["enumerated_exprs"] = len(enum.exprs)
        report.funnel["fingerprint_classes"] = enum.reps
        # hitting the (deterministic) expression ceiling is not a time
        # truncation: the run is still byte-reproducible
        report.funnel["enumeration_capped"] = 1 if enum.truncated else 0
        for e in enum.exprs:
            pool_by_key.setdefault(e.key, e)
        stubs.extend(
            Candidate(e, None, "stub", "", "enumerated")
            for e in enum.exprs
        )
        say("enumerated %d expressions (%d fingerprint classes)"
            % (len(enum.exprs), enum.reps))

    pool = list(pool_by_key.values())
    candidates = pair_candidates(stubs, pool, samples,
                                 min_saving=options.min_saving)
    report.funnel["candidates"] = len(candidates)
    say("paired %d candidate rewrites" % len(candidates))

    # ------------------------------------------------------------- select
    # round-robin over source root opcodes so one expensive family
    # (division sources claim huge savings) cannot crowd out the
    # classics; within a bucket, simplest sources first — they verify
    # in milliseconds and are the rules that actually fire
    buckets: Dict[str, List[Candidate]] = {}
    for c in candidates:
        buckets.setdefault(c.src.op, []).append(c)
    for bucket in buckets.values():
        bucket.sort(key=lambda c: (c.src.size, -c.saving,
                                   -c.occurrences, c.src.key, c.tgt.key))
    opcode_order = list(options.ops) + sorted(
        set(buckets) - set(options.ops))
    selected: List[Candidate] = []
    while len(selected) < options.max_candidates and any(
            buckets.get(op) for op in opcode_order):
        for op in opcode_order:
            bucket = buckets.get(op)
            if bucket:
                selected.append(bucket.pop(0))
                if len(selected) >= options.max_candidates:
                    break
    report.funnel["selected"] = len(selected)
    if len(selected) < len(candidates):
        say("selected %d of %d candidates (opcode round-robin, "
            "simplest first)" % (len(selected), len(candidates)))

    # ------------------------------------------------------------- verify
    named = [("cand:%04d" % i, c) for i, c in enumerate(selected)]
    statuses: Dict[str, str] = {}
    for lo in range(0, len(named), VERIFY_CHUNK):
        if deadline.over():
            say("time budget hit: stopping verification early")
            break
        chunk = named[lo:lo + VERIFY_CHUNK]
        texts = [(name, c.rule_text(name)) for name, c in chunk]
        statuses.update(
            _verify_texts(texts, options, config, cache, report.stats))
    valid = [(name, c) for name, c in named
             if statuses.get(name) == "valid"]
    refuted = [(name, c) for name, c in named
               if statuses.get(name) == "invalid"]
    report.funnel["verified_valid"] = len(valid)
    report.funnel["refuted"] = len(refuted)
    say("verified: %d valid, %d refuted" % (len(valid), len(refuted)))

    accepted: List[DiscoveredRule] = [
        DiscoveredRule(name, c, None, c.rule_text(name))
        for name, c in valid
    ]

    # ------------------------------------------------------------ salvage
    corpus = load_all_flat()
    salvage_pool = []
    for name, cand in refuted:
        if cand.kind != "partial":
            continue
        t = _parse(cand, name)
        # do not spend salvage attempts on candidates a shipped corpus
        # rule already shadows structurally — the inferred rule would
        # be dropped as subsumed anyway
        if any(match_templates(c, t) is not None for c in corpus):
            continue
        salvage_pool.append((name, cand, t))
    attempts = 0
    for name, cand, t in salvage_pool:
        if attempts >= options.max_salvage or deadline.over():
            break
        attempts += 1
        # salvage always runs in-process: inference needs many quick
        # verifier round-trips, not one batched job
        result = infer_precondition(t, config, max_conjuncts=1)
        if result.precondition is None:
            continue
        pre = str(result.precondition)
        accepted.append(DiscoveredRule(
            name, cand, pre, cand.rule_text(name, pre=pre)))
        say("salvaged %s with Pre: %s (fingerprint hint was %s)"
            % (cand.src.key, pre, cand.hint))
    report.funnel["salvage_attempts"] = attempts
    report.funnel["salvaged"] = sum(
        1 for r in accepted if r.pre is not None)

    # --------------------------------------------------------------- rank
    for rule in accepted:
        t = parse_transformation(rule.text)
        rule.fires = _count_fires(t, module)
        rule.score = rule.candidate.saving * rule.fires
    accepted.sort(
        key=lambda r: (-r.score, -r.candidate.saving, r.text))

    # -------------------------------------------------------------- dedup
    final: List[DiscoveredRule] = []
    kept_parsed: List[ast.Transformation] = []
    for rule in accepted:
        t = parse_transformation(rule.text)
        shadow = None
        corpus_shadow = False
        for other in corpus:
            if subsumes(other, t, config):
                shadow = other.name
                corpus_shadow = True
                break
        if shadow is None:
            for kept, kt in zip(final, kept_parsed):
                if subsumes(kt, t, config):
                    shadow = kept.name
                    break
        if shadow is not None:
            report.dropped_subsumed.append(
                "%s (subsumed by %s)" % (rule.candidate.src.key, shadow))
            if corpus_shadow:
                # a verified candidate subsumed by a shipped rule IS
                # that rule, rediscovered from scratch — the smoke
                # test's ground truth for the whole pipeline
                report.rediscovered.append(shadow)
                say("rediscovered known rule %s (dropping: already "
                    "in the corpus)" % shadow)
            continue
        final.append(rule)
        kept_parsed.append(t)
    report.funnel["subsumed_dropped"] = len(report.dropped_subsumed)
    report.funnel["rediscovered"] = len(report.rediscovered)

    # --------------------------------------------------------------- emit
    for i, rule in enumerate(final, start=1):
        name = "discovered:%03d" % i
        rule.text = rule.candidate.rule_text(name, pre=rule.pre)
        rule.name = name
    report.rules = final
    report.funnel["emitted"] = len(final)
    report.truncated |= deadline.tripped
    report.opt_text = render_opt(options, report)
    say("emitting %d rules" % len(final))
    return report


def render_opt(options: DiscoverOptions, report: DiscoveryReport) -> str:
    """The emitted ``.opt`` file: parseable, provenance-annotated,
    deterministic (no timestamps, no machine identifiers)."""
    f = report.funnel
    lines = [
        "; Rules discovered by `repro discover` "
        "(harvest -> verify -> rank -> emit).",
        "; seed=%d max-insts=%d n-inputs=%d min-saving=%g ops=%s"
        % (options.seed, options.max_insts, options.n_inputs,
           options.min_saving, ",".join(options.ops)),
        "; funnel: %s" % " ".join(
            "%s=%d" % (key, f[key]) for key in sorted(f)),
        "; Every rule was machine-verified; `Pre:` clauses were",
        "; synthesized by precondition inference after the",
        "; unconditional candidate was refuted.",
    ]
    if report.truncated:
        lines.append("; NOTE: time budget hit; the candidate stream "
                     "was truncated.")
    for rule in report.rules:
        lines.append("")
        lines.extend(rule.provenance())
        lines.append(rule.text.rstrip("\n"))
    return "\n".join(lines) + "\n"
