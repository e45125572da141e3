"""Lint driver: plan passes, dispatch semantic jobs, collect findings.

The runner keeps a clean split between *where* a problem is and *what*
the problem is.  Workers (possibly separate processes) receive only
printed rule text and return structured data keyed by rule identity;
the runner maps that data back onto the parsed AST it kept in the main
process — whose nodes carry the parser's line/column spans — so every
finding points at a real source location even though the check itself
ran on a round-tripped copy.

Semantic checks are engine jobs (:func:`repro.engine.submit_jobs`):
content-addressed, deduplicated, cached across runs and dispatched by
the PR-1 scheduler, which also gives the lint tier the chaos-site
instrumentation and crash-retry behaviour of the verification path for
free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.attrs import attribute_slots
from ..core.config import Config, DEFAULT_CONFIG
from ..engine import submit_jobs
from ..engine.jobs import normalized_text
from ..engine.scheduler import Scheduler
from ..engine.stats import EngineStats
from ..ir import ast, parse_transformations
from ..ir.precond import PredTrue
from .findings import (
    Finding,
    LintReport,
    SEMANTIC_PASSES,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    finding_id,
)
from .passes import run_ast_passes, _pre_clauses, _span
from .semantic import lint_job_key, run_lint_job
from .subsume import (integer_only_pre, match_templates, uses_fp,
                      uses_memory)


class LintOptions:
    """Knobs for one lint run."""

    def __init__(self, config: Config = DEFAULT_CONFIG, jobs: int = 1,
                 cache=None, semantic: bool = True,
                 only: Optional[frozenset] = None,
                 allowlist: frozenset = frozenset(),
                 cycle_width: int = 8, cycle_samples: int = 3,
                 cycle_spin_limit: int = 64, cycle_seed: int = 0,
                 max_retries: int = 1):
        self.config = config
        self.jobs = jobs
        self.cache = cache
        self.semantic = semantic
        self.only = only
        self.allowlist = allowlist
        self.cycle_width = cycle_width
        self.cycle_samples = cycle_samples
        self.cycle_spin_limit = cycle_spin_limit
        self.cycle_seed = cycle_seed
        self.max_retries = max_retries

    def enabled(self, pass_id: str) -> bool:
        return self.only is None or pass_id in self.only


def lint_files(paths: Sequence[str],
               options: Optional[LintOptions] = None,
               stats: Optional[EngineStats] = None) -> LintReport:
    """Parse and lint a list of ``.opt`` files as one rule set."""
    rules: List[ast.Transformation] = []
    for path in paths:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as e:
            raise ast.AliveError(str(e))
        try:
            rules.extend(parse_transformations(text, path=path))
        except ast.AliveError as e:
            raise ast.AliveError("%s: %s" % (path, e))
    report = lint_rules(rules, options, stats)
    report.files = list(paths)
    return report


def lint_rules(rules: Sequence[ast.Transformation],
               options: Optional[LintOptions] = None,
               stats: Optional[EngineStats] = None) -> LintReport:
    """Lint an already-parsed rule set."""
    options = options if options is not None else LintOptions()
    findings = run_ast_passes(rules, only=options.only)
    if options.semantic and any(
            options.enabled(p) for p in SEMANTIC_PASSES):
        findings.extend(_run_semantic(rules, options, stats))
    live: List[Finding] = []
    suppressed: List[Finding] = []
    for f in findings:
        (suppressed if f.id in options.allowlist else live).append(f)
    return LintReport(live, suppressed, rules_checked=len(rules),
                      stats=stats)


# ---------------------------------------------------------------------------
# semantic tier: plan → dispatch → map back


def _plan_jobs(rules: Sequence[ast.Transformation],
               options: LintOptions,
               fp_pre_rules: Sequence[ast.Transformation] = ()
               ) -> Tuple[List[dict], Dict[str, dict]]:
    """Build engine payloads; returns (payloads, key → plan record).

    The plan record remembers which rule objects (with their spans) a
    job's structured outcome belongs to.  *fp_pre_rules* are FP rules
    whose precondition is integer-only: they get the feasibility job
    (the precondition encoding never touches the FP circuits) but none
    of the other semantic jobs.
    """
    from ..ir.printer import transformation_str

    knobs = options.config.to_dict()
    payloads: List[dict] = []
    plans: Dict[str, dict] = {}

    def add(kind: str, texts: List[str], params: dict, record: dict):
        key = lint_job_key(kind, texts, params, knobs)
        payloads.append({"key": key, "kind": kind, "texts": texts,
                         "params": params, "knobs": knobs})
        record["kind"] = kind
        plans[key] = record

    def want_feasibility(t: ast.Transformation) -> bool:
        return ((options.enabled("dead-precondition")
                 or options.enabled("redundant-pre-clause"))
                and not isinstance(t.pre, PredTrue)
                and not uses_memory(t))

    for t in rules:
        body = transformation_str(t)
        if want_feasibility(t):
            add("feasibility", [body], {}, {"rule": t})
        if options.enabled("attr-slack") and attribute_slots(t):
            add("attrs", [body], {}, {"rule": t})
        if ((options.enabled("provable-by-absint")
                or options.enabled("absint-refuted-pre"))
                and not uses_memory(t)):
            add("absint", [body], {}, {"rule": t})

    for t in fp_pre_rules:
        if want_feasibility(t):
            add("feasibility", [transformation_str(t)], {}, {"rule": t})

    if options.enabled("subsumed-rule"):
        for i, general in enumerate(rules):
            for specific in rules[i + 1:]:
                if general is specific:
                    continue
                # cheap in-process structural prefilter: only pairs
                # whose templates actually overlap become jobs
                if match_templates(general, specific) is None:
                    continue
                add("subsume",
                    [transformation_str(general),
                     transformation_str(specific)],
                    {},
                    {"rule": specific, "general": general})

    if options.enabled("rewrite-cycle") and rules:
        add("cycles",
            [transformation_str(t) for t in rules],
            {"width": options.cycle_width,
             "samples": options.cycle_samples,
             "spin_limit": options.cycle_spin_limit,
             "seed": options.cycle_seed},
            {"rules": list(rules)})

    return payloads, plans


def _unsupported_fp_finding(t: ast.Transformation,
                            feasibility_ran: bool = False) -> Finding:
    path, line, col = _span(t)
    skipped = ["attribute inference", "subsumption", "cycle detection",
               "absint provability"]
    if not feasibility_ran:
        skipped.insert(0, "feasibility")
    message = ("rule uses floating-point instructions; semantic passes "
               "that do not model IEEE-754 (%s) were skipped"
               % ", ".join(skipped))
    if feasibility_ran:
        message += ("; the precondition is integer-only, so the "
                    "feasibility passes still ran")
    return Finding(
        finding_id("unsupported-fp", normalized_text(t)),
        "unsupported-fp", SEV_INFO, t.name, message,
        path=path, line=line, col=col,
        data={"feasibility_ran": feasibility_ran},
    )


def _run_semantic(rules: Sequence[ast.Transformation],
                  options: LintOptions,
                  stats: Optional[EngineStats]) -> List[Finding]:
    # FP rules mostly skip the semantic tier: the integer-only machinery
    # would either crash on them or silently prove nonsense.  Each gets
    # one explicit info finding naming the skipped passes.  The one
    # carve-out is feasibility for FP rules whose precondition atoms
    # are integer-only — the exact precondition encoding never touches
    # the FP circuits, so dead/redundant clause analysis is sound there.
    fp_findings: List[Finding] = []
    supported: List[ast.Transformation] = []
    fp_pre_rules: List[ast.Transformation] = []
    for t in rules:
        if uses_fp(t):
            feasible = (not isinstance(t.pre, PredTrue)
                        and integer_only_pre(t))
            if feasible:
                fp_pre_rules.append(t)
            if options.enabled("unsupported-fp"):
                fp_findings.append(
                    _unsupported_fp_finding(t, feasibility_ran=feasible))
        else:
            supported.append(t)
    payloads, plans = _plan_jobs(supported, options,
                                 fp_pre_rules=fp_pre_rules)
    if not payloads:
        return fp_findings
    scheduler = Scheduler(jobs=options.jobs,
                          max_retries=options.max_retries,
                          worker=run_lint_job)
    outcomes = submit_jobs(payloads, jobs=options.jobs,
                           cache=options.cache, stats=stats,
                           max_retries=options.max_retries,
                           scheduler=scheduler)
    findings: List[Finding] = list(fp_findings)
    for key, plan in plans.items():
        outcome = outcomes.get(key)
        if outcome is None or outcome.get("status") != "ok":
            continue  # crashed / transient: no verdict, stay silent
        data = outcome.get("data", {})
        if "skipped" in data:
            continue  # unsupported / untypeable: no lint claim
        findings.extend(_findings_for(plan, data, options))
    return findings


def _findings_for(plan: dict, data: dict,
                  options: LintOptions) -> List[Finding]:
    kind = plan["kind"]
    if kind == "feasibility":
        return _feasibility_findings(plan["rule"], data, options)
    if kind == "attrs":
        return _attr_findings(plan["rule"], data, options)
    if kind == "absint":
        return _absint_findings(plan["rule"], data, options)
    if kind == "subsume":
        return _subsume_findings(plan["general"], plan["rule"], data,
                                 options)
    if kind == "cycles":
        return _cycle_findings(plan["rules"], data, options)
    return []


def _feasibility_findings(t: ast.Transformation, data: dict,
                          options: LintOptions) -> List[Finding]:
    findings: List[Finding] = []
    body = normalized_text(t)
    clauses = _pre_clauses(t.pre)
    if data.get("dead") and options.enabled("dead-precondition"):
        path, line, col = _span(t, t.pre)
        if line is None:
            line = t.pre_line
        findings.append(Finding(
            finding_id("dead-precondition", body),
            "dead-precondition", SEV_ERROR, t.name,
            "precondition '%s' is unsatisfiable for all %d feasible "
            "type assignment(s); the rule can never fire"
            % (t.pre, data.get("assignments", 0)),
            path=path, line=line, col=col,
            data={"assignments": data.get("assignments", 0)},
        ))
        return findings  # clause-level reports would be noise
    if options.enabled("redundant-pre-clause"):
        for index in data.get("redundant", []):
            clause = clauses[index] if index < len(clauses) else t.pre
            path, line, col = _span(t, clause)
            if line is None:
                line = t.pre_line
            findings.append(Finding(
                finding_id("redundant-pre-clause", body,
                           "clause#%d" % index),
                "redundant-pre-clause", SEV_WARNING, t.name,
                "precondition clause '%s' is implied by the other "
                "clause(s) and can be dropped" % clause,
                path=path, line=line, col=col,
                data={"clause": index},
            ))
    return findings


def _absint_findings(t: ast.Transformation, data: dict,
                     options: LintOptions) -> List[Finding]:
    findings: List[Finding] = []
    body = normalized_text(t)
    if data.get("provable") and options.enabled("provable-by-absint"):
        path, line, col = _span(t)
        findings.append(Finding(
            finding_id("provable-by-absint", body),
            "provable-by-absint", SEV_INFO, t.name,
            "refinement is discharged by the abstract-interpretation "
            "tier alone at all %d feasible type assignment(s), without "
            "a solver query" % data.get("assignments", 0),
            path=path, line=line, col=col,
            data={"assignments": data.get("assignments", 0)},
        ))
    if options.enabled("absint-refuted-pre"):
        from .subsume import _pre_atom_list

        atoms = {str(a): a for a in _pre_atom_list(t.pre)}
        for entry in data.get("refuted", []):
            # worker spans are relative to the round-tripped text; map
            # the atom back onto the original AST by printed form
            anchor = atoms.get(entry["atom"], t.pre)
            path, line, col = _span(t, anchor)
            if line is None:
                line = t.pre_line
            witness = entry.get("witness", {})
            witness_str = ", ".join(
                "%s=%d" % (n, v) for n, v in sorted(witness.items()))
            findings.append(Finding(
                finding_id("absint-refuted-pre", body, entry["atom"]),
                "absint-refuted-pre", SEV_WARNING, t.name,
                "precondition atom '%s' can never hold: the known-bits/"
                "interval analysis refutes it at every feasible type "
                "assignment (witness %s at %s)"
                % (entry["atom"], witness_str or "<none>",
                   entry.get("types", "?")),
                path=path, line=line, col=col,
                data={"atom": entry["atom"], "witness": witness,
                      "types": entry.get("types")},
            ))
    return findings


def _attr_findings(t: ast.Transformation, data: dict,
                   options: LintOptions) -> List[Finding]:
    findings: List[Finding] = []
    body = normalized_text(t)

    def span_for(slot: str, template: str):
        name = slot.split(".", 1)[0]
        primary, other = ((t.src, t.tgt) if template == "src"
                          else (t.tgt, t.src))
        inst = primary.get(name) or other.get(name)
        return _span(t, inst)

    for slot in data.get("droppable", []):
        path, line, col = span_for(slot, "src")
        findings.append(Finding(
            finding_id("attr-slack", body, "drop:%s" % slot),
            "attr-slack", SEV_WARNING, t.name,
            "source attribute %s is not needed: the rule verifies "
            "without it (Figure 6 weakest-precondition inference)"
            % slot,
            path=path, line=line, col=col,
            data={"slot": slot, "direction": "droppable"},
        ))
    for slot in data.get("strengthenable", []):
        path, line, col = span_for(slot, "tgt")
        findings.append(Finding(
            finding_id("attr-slack", body, "strengthen:%s" % slot),
            "attr-slack", SEV_INFO, t.name,
            "target attribute %s could be added: the rewrite preserves "
            "it (Figure 6 strongest-postcondition inference)" % slot,
            path=path, line=line, col=col,
            data={"slot": slot, "direction": "strengthenable"},
        ))
    return findings


def _subsume_findings(general: ast.Transformation,
                      specific: ast.Transformation, data: dict,
                      options: LintOptions) -> List[Finding]:
    if not data.get("subsumed"):
        return []
    path, line, col = _span(specific)
    return [Finding(
        finding_id("subsumed-rule", normalized_text(specific),
                   normalized_text(general)),
        "subsumed-rule", SEV_WARNING, specific.name,
        "rule is shadowed by the earlier, more general rule %r (%s): "
        "its source pattern and precondition are fully covered"
        % (general.name, general.location() or "<memory>"),
        path=path, line=line, col=col,
        data={"general": general.name,
              "reason": data.get("reason", "")},
        related=[{"rule": general.name, "path": general.path,
                  "line": general.line}],
    )]


def _cycle_findings(rules: Sequence[ast.Transformation], data: dict,
                    options: LintOptions) -> List[Finding]:
    """One error per rule that keeps firing in a cycle.

    The rule whose instance seeds a cycle need not take part in it, so
    each cycle is charged to its spinning rules, once per rule.  A
    rule's own seed describes its cycle best, so those entries go
    first."""
    by_name: Dict[str, ast.Transformation] = {}
    for t in rules:
        by_name.setdefault(t.name, t)
    entries = sorted(data.get("cycles", []),
                     key=lambda e: e["opt"] not in e["rules"])
    findings: List[Finding] = []
    charged = set()
    for entry in entries:
        spinning = entry["rules"]
        for name in spinning:
            t = by_name.get(name)
            if t is None or name in charged:
                continue
            charged.add(name)
            path, line, col = _span(t)
            findings.append(Finding(
                finding_id("rewrite-cycle", normalized_text(t),
                           ",".join(spinning)),
                "rewrite-cycle", SEV_ERROR, name, entry["describe"],
                path=path, line=line, col=col,
                data={"rules": spinning, "consts": entry["consts"],
                      "fired": entry["fired"]},
            ))
    return findings
