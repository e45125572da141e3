"""Finding model for the rule-set linter.

A *finding* is one diagnosed hygiene problem in an Alive rule set:
identified by the pass that produced it, carrying a severity, a source
span (``path:line:col`` from the parser), a human message and stable
machine data.  Finding IDs are content-addressed — hashed over the pass
name, the rule's *normalized body* (name header stripped, exactly like
the engine's cache keys) and a per-pass discriminator — so renaming a
rule, moving it between files or re-running the linter never changes an
ID.  That is what makes allowlists and SARIF baselines workable.

Severities follow the usual linter contract:

* ``error`` — the rule is broken (can never fire, references undefined
  names, makes the optimizer loop); the ``lint`` command exits 1.
* ``warning`` — the rule works but carries dead weight (redundant
  clause, shadowed by an earlier rule, droppable attribute).
* ``info`` — stylistic or opportunity notes (unused binding, a target
  attribute that could be strengthened).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

_SEV_RANK = {SEV_ERROR: 0, SEV_WARNING: 1, SEV_INFO: 2}

#: severity -> SARIF 2.1.0 result level
_SARIF_LEVEL = {SEV_ERROR: "error", SEV_WARNING: "warning", SEV_INFO: "note"}

#: pass id -> (tier, one-line description); the single registry shared
#: by --help text, SARIF rule metadata and the docs
PASSES = {
    "duplicate-name": (
        "ast", "two rules share one name; tools keyed on rule names "
        "silently report only the first"),
    "noop-rule": (
        "ast", "source and target templates are identical; the rule "
        "rewrites nothing"),
    "undefined-pre-name": (
        "ast", "the precondition references a name the source template "
        "never binds, so the predicate can never be evaluated"),
    "unused-binding": (
        "ast", "a matched abstract constant is used neither by the "
        "precondition nor the target"),
    "pre-constant-fold": (
        "ast", "a precondition (or one clause) built from literals "
        "folds to a fixed truth value at every width"),
    "dead-precondition": (
        "semantic", "the precondition is unsatisfiable over every "
        "feasible type assignment; the rule can never fire"),
    "redundant-pre-clause": (
        "semantic", "a precondition clause is implied by the "
        "conjunction of the other clauses"),
    "subsumed-rule": (
        "semantic", "an earlier, more general rule already covers this "
        "rule's source pattern and precondition"),
    "attr-slack": (
        "semantic", "declared nsw/nuw/exact attributes differ from the "
        "inferred weakest-source / strongest-target placement"),
    "rewrite-cycle": (
        "semantic", "this rule keeps firing in a rewrite cycle: driving "
        "the rule set to fixpoint from some rule's instances does not "
        "converge"),
    "provable-by-absint": (
        "semantic", "the rule's refinement obligation is discharged by "
        "the verified abstract-interpretation tier alone at every "
        "feasible type assignment; the rule is trivially valid"),
    "absint-refuted-pre": (
        "semantic", "a precondition atom is contradicted by the "
        "known-bits/interval analysis at every feasible type "
        "assignment; a concrete witness confirms it can never hold"),
    "unsupported-fp": (
        "semantic", "the rule uses floating-point instructions; the "
        "semantic passes that do not model IEEE-754 semantics are "
        "skipped for this rule"),
}

AST_PASSES = tuple(p for p, (tier, _) in PASSES.items() if tier == "ast")
SEMANTIC_PASSES = tuple(
    p for p, (tier, _) in PASSES.items() if tier == "semantic")


def finding_id(pass_id: str, body: str, extra: str = "") -> str:
    """Stable content-addressed finding ID.

    *body* should be the rule's normalized printed form (not its name or
    file position) so the ID survives renames and file reshuffles.
    """
    digest = hashlib.sha256()
    for part in (pass_id, body, extra):
        blob = part.encode("utf-8")
        # length-prefixed so adjacent fields can never be re-split
        digest.update(b"%d:" % len(blob))
        digest.update(blob)
    return "%s-%s" % (pass_id, digest.hexdigest()[:12])


class Finding:
    """One lint diagnosis, with span, severity and stable identity."""

    __slots__ = ("id", "pass_id", "severity", "rule", "message",
                 "path", "line", "col", "data", "related")

    def __init__(self, fid: str, pass_id: str, severity: str, rule: str,
                 message: str, path: Optional[str] = None,
                 line: Optional[int] = None, col: Optional[int] = None,
                 data: Optional[dict] = None,
                 related: Optional[List[dict]] = None):
        if pass_id not in PASSES:
            raise ValueError("unknown lint pass %r" % pass_id)
        if severity not in _SEV_RANK:
            raise ValueError("unknown severity %r" % severity)
        self.id = fid
        self.pass_id = pass_id
        self.severity = severity
        self.rule = rule
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        self.data = data or {}
        self.related = related or []

    def location(self) -> str:
        """``path:line:col`` with whatever parts are known."""
        parts = [self.path or "<memory>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.col is not None:
                parts.append(str(self.col))
        return ":".join(parts)

    def sort_key(self):
        return (self.path or "~", self.line or 0, self.col or 0,
                _SEV_RANK[self.severity], self.pass_id, self.id)

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "pass": self.pass_id,
            "severity": self.severity,
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }
        if self.data:
            out["data"] = self.data
        if self.related:
            out["related"] = self.related
        return out

    def format(self) -> str:
        return "%s: %s: [%s] %s: %s  (%s)" % (
            self.location(), self.severity, self.pass_id, self.rule,
            self.message, self.id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Finding(%s, %s)" % (self.id, self.rule)


class LintReport:
    """The result of linting one rule set.

    ``findings`` are the live diagnoses (sorted by span), ``suppressed``
    the ones an allowlist filtered out (kept so staleness of the
    allowlist itself is checkable), ``files`` the inputs, ``stats`` the
    :class:`~repro.engine.stats.EngineStats` of the semantic-job
    dispatch (None when the semantic tier was skipped).
    """

    def __init__(self, findings: Sequence[Finding],
                 suppressed: Sequence[Finding] = (),
                 files: Sequence[str] = (),
                 rules_checked: int = 0,
                 stats=None):
        self.findings = sorted(findings, key=Finding.sort_key)
        self.suppressed = sorted(suppressed, key=Finding.sort_key)
        self.files = list(files)
        self.rules_checked = rules_checked
        self.stats = stats

    def counts(self) -> Dict[str, int]:
        out = {SEV_ERROR: 0, SEV_WARNING: 0, SEV_INFO: 0}
        for f in self.findings:
            out[f.severity] += 1
        return out

    def by_pass(self, pass_id: str) -> List[Finding]:
        return [f for f in self.findings if f.pass_id == pass_id]

    def exit_code(self) -> int:
        """1 only when an error-severity finding survived the allowlist."""
        return 1 if self.counts()[SEV_ERROR] else 0

    def format_text(self) -> str:
        lines = [f.format() for f in self.findings]
        counts = self.counts()
        summary = (
            "%d finding(s) in %d rule(s): %d error(s), %d warning(s), "
            "%d info" % (len(self.findings), self.rules_checked,
                         counts[SEV_ERROR], counts[SEV_WARNING],
                         counts[SEV_INFO])
        )
        if self.suppressed:
            summary += "; %d suppressed by allowlist" % len(self.suppressed)
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "files": self.files,
            "rules_checked": self.rules_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "summary": self.counts(),
        }

    def to_sarif(self, tool_version: str = "1.0.0") -> dict:
        """SARIF 2.1.0 log with one run and per-pass rule metadata."""
        rules = []
        rule_index = {}
        for pass_id, (tier, description) in PASSES.items():
            rule_index[pass_id] = len(rules)
            rules.append({
                "id": pass_id,
                "shortDescription": {"text": description},
                "properties": {"tier": tier},
            })
        results = []
        for f in self.findings:
            location = {
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path or "<memory>"},
                }
            }
            region = {}
            if f.line is not None:
                region["startLine"] = f.line
            if f.col is not None:
                region["startColumn"] = f.col
            if region:
                location["physicalLocation"]["region"] = region
            results.append({
                "ruleId": f.pass_id,
                "ruleIndex": rule_index[f.pass_id],
                "level": _SARIF_LEVEL[f.severity],
                "message": {"text": "%s: %s" % (f.rule, f.message)},
                "locations": [location],
                "partialFingerprints": {"alive/findingId": f.id},
            })
        return {
            "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "alive-repro-lint",
                    "informationUri":
                        "https://github.com/nunoplopes/alive",
                    "version": tool_version,
                    "rules": rules,
                }},
                "results": results,
            }],
        }


def load_allowlist(path: str) -> frozenset:
    """Read an allowlist file: one finding ID per line, ``#`` comments."""
    ids = set()
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                ids.add(line)
    return frozenset(ids)


def dump_json(report: LintReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)
