"""Tier-2 semantic lint checks and the engine worker that runs them.

Every check here is phrased as an SMT question over the same encodings
the verifier uses (:mod:`repro.core.semantics`), quantified over the
same feasible-type enumeration (:mod:`repro.typing.enumerate`):

* **dead precondition** — ``pre ∧ defined(src) ∧ ¬poison(src)`` is
  UNSAT for *every* feasible type assignment: the rule can never fire.
* **redundant clause** — for clause *i* of ``c₁ && … && cₙ``, the
  query ``(⋀_{j≠i} cⱼ) ∧ ¬cᵢ`` (under the same feasibility context) is
  UNSAT for every assignment: the other clauses already imply it.
* **subsumption** — the earlier rule's precondition, substituted
  through the structural match (:mod:`repro.lint.subsume`), is implied
  by the later rule's precondition: ``pre_specific ∧ ¬pre_general[σ]``
  UNSAT everywhere.
* **attribute slack** — Figure 6 inference (:mod:`repro.core.attrs`)
  disagrees with the declared nsw/nuw/exact placement.
* **rewrite cycle** — the concrete rewriter of :mod:`repro.opt.loops`
  fails to converge from this rule's instances.

Unlike verification-side precondition encoding — where an imprecise
``MUST`` analysis is modelled by a free boolean implied by the exact
condition — lint questions ask whether the rule can fire *at all*, so
:func:`encode_pre_exact` uses the exact semantic condition for MUST
builtins and a deterministic named boolean per SYNTACTIC call (two
occurrences of ``hasOneUse(%a)`` agree; distinct calls stay free).
This keeps "dead" meaning *semantically unsatisfiable*, not "the
analysis might not prove it".

The checks run as content-addressed jobs through the PR-1 engine
scheduler: each payload carries rule text (parse → print round-trips),
parameters and Config knobs; keys additionally bake in
:func:`lint_fingerprint`, which extends the engine's semantics
fingerprint with the ``lint`` and ``opt`` package sources so cached
lint verdicts invalidate when the linter itself changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional

from ..core.attrs import attribute_slots, infer_attributes
from ..core.config import Config
from ..core.semantics import (
    EncodeContext,
    TemplateEncoder,
    Unsupported,
    builtin_semantic_condition,
)
from ..core.typecheck import TypeAssignment, TypeChecker
from ..core.verifier import type_assignments
from ..engine.cache import semantics_fingerprint
from ..ir import ast, parse_transformation
from ..ir.precond import (
    SYNTACTIC,
    Predicate,
    PredAnd,
    PredCall,
    PredCmp,
    PredNot,
    PredOr,
    PredTrue,
)
from ..opt import compile_opts
from ..opt.loops import detect_cycles
from ..smt import terms as T
from ..smt.solver import check_sat
from ..typing.constraints import TypeConstraintError
from .subsume import match_templates, substitute_predicate

_lint_fingerprint_memo: Optional[str] = None

#: packages beyond the engine's semantic set that define lint meaning
_LINT_PACKAGES = ("lint", "opt", "absint")


def lint_fingerprint() -> str:
    """Semantics fingerprint extended with the lint and opt sources.

    The engine cache already refuses entries whose fingerprint differs
    from the current tree; baking the extended hash into every job key
    additionally separates lint outcomes from verification outcomes
    and from older linter versions sharing one cache file.
    """
    global _lint_fingerprint_memo
    if _lint_fingerprint_memo is not None:
        return _lint_fingerprint_memo
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    digest.update(semantics_fingerprint().encode())
    for package in _LINT_PACKAGES:
        pkg_dir = os.path.join(root, package)
        for name in sorted(os.listdir(pkg_dir)):
            if not name.endswith(".py"):
                continue
            digest.update(("%s/%s\n" % (package, name)).encode())
            with open(os.path.join(pkg_dir, name), "rb") as handle:
                digest.update(handle.read())
    _lint_fingerprint_memo = digest.hexdigest()
    return _lint_fingerprint_memo


def lint_job_key(kind: str, bodies: List[str], params: dict,
                 knobs: dict) -> str:
    """Content-addressed key of one semantic lint job."""
    blob = json.dumps({
        "kind": kind,
        "bodies": bodies,
        "params": params,
        "knobs": knobs,
        "fingerprint": lint_fingerprint(),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact precondition encoding


def encode_pre_exact(pred: Predicate, encoder: TemplateEncoder) -> T.Term:
    """Encode a precondition with exact MUST semantics.

    Mirrors :func:`repro.core.semantics.encode_precondition` except:
    MUST builtins contribute their exact semantic condition (feasibility
    questions quantify over programs, not over analysis power), and
    SYNTACTIC builtins become named booleans keyed on their printed
    form, so the same call is one unknown rather than ``true``.
    """
    if isinstance(pred, PredTrue):
        return T.TRUE
    if isinstance(pred, PredAnd):
        return T.and_(*[encode_pre_exact(p, encoder) for p in pred.ps])
    if isinstance(pred, PredOr):
        return T.or_(*[encode_pre_exact(p, encoder) for p in pred.ps])
    if isinstance(pred, PredNot):
        return T.not_(encode_pre_exact(pred.p, encoder))
    if isinstance(pred, PredCmp):
        from ..core.semantics import _PRED_CMP_TERM
        a = encoder.value(pred.a)
        b = encoder.value(pred.b)
        return _PRED_CMP_TERM[pred.op](a, b)
    if isinstance(pred, PredCall):
        if pred.kind == SYNTACTIC:
            return T.bool_var("syn!%s" % pred)
        args = [encoder.value(a) for a in pred.args]
        return builtin_semantic_condition(pred.fn, args)
    raise Unsupported("cannot encode predicate %r" % (pred,))


def _feasibility_base(t: ast.Transformation, types: TypeAssignment,
                      config: Config):
    """(encoder, base) — source well-definedness under one assignment."""
    ctx = EncodeContext(types, config)
    encoder = TemplateEncoder(ctx, is_target=False)
    encoder.encode_template(t.src.values())
    root = t.src[t.root]
    base = T.and_(
        encoder.defined(root),
        encoder.poison_free(root),
        *ctx.side_constraints,
    )
    return encoder, base


def _clauses(pred: Predicate) -> List[Predicate]:
    if isinstance(pred, PredAnd):
        return list(pred.ps)
    return [pred]


# ---------------------------------------------------------------------------
# the checks (run inside worker processes)


def check_feasibility(t: ast.Transformation, config: Config) -> dict:
    """Dead-precondition + redundant-clause analysis for one rule.

    Returns ``{"assignments", "clauses", "dead", "redundant",
    "unknown"}``.  "dead" requires UNSAT at *every* feasible assignment
    with no solver give-ups; a clause is "redundant" only when the
    implication holds at every assignment (set-intersection semantics —
    one SAT or unknown at any assignment acquits it).
    """
    checker = TypeChecker()
    system = checker.check_transformation(t)
    clauses = _clauses(t.pre)
    n_clauses = len(clauses) if not isinstance(t.pre, PredTrue) else 0
    alive = False
    unknown = False
    candidates = set(range(n_clauses)) if n_clauses > 1 else set()
    assignments = 0
    for mapping in type_assignments(system, config):
        assignments += 1
        types = TypeAssignment(checker, mapping)
        encoder, base = _feasibility_base(t, types, config)
        pre = encode_pre_exact(t.pre, encoder)
        result = check_sat(T.and_(pre, base),
                           conflict_limit=config.conflict_limit)
        if result.is_sat():
            alive = True
        elif not result.is_unsat():
            unknown = True
        for i in sorted(candidates):
            others = [encode_pre_exact(c, encoder)
                      for j, c in enumerate(clauses) if j != i]
            query = T.and_(*(others + [
                T.not_(encode_pre_exact(clauses[i], encoder)), base]))
            verdict = check_sat(query, conflict_limit=config.conflict_limit)
            if not verdict.is_unsat():
                candidates.discard(i)
    dead = assignments > 0 and not alive and not unknown
    redundant = sorted(candidates) if (alive and not unknown) else []
    return {
        "assignments": assignments,
        "clauses": n_clauses,
        "dead": dead,
        "redundant": redundant,
        "unknown": unknown,
    }


def check_subsumption(general: ast.Transformation,
                      specific: ast.Transformation,
                      config: Config) -> dict:
    """Does *general* (earlier in the file) shadow *specific*?

    Structural match first; then the precondition implication
    ``pre_specific ⇒ pre_general[σ]`` must hold at every feasible type
    assignment of the specific rule.
    """
    bindings = match_templates(general, specific)
    if bindings is None:
        return {"subsumed": False, "reason": "no structural match"}
    try:
        subst_pre = substitute_predicate(general.pre, bindings)
    except ast.AliveError as e:
        return {"subsumed": False, "reason": str(e)}
    if isinstance(subst_pre, PredTrue):
        # an unconditional general rule covers everything it matches
        return {"subsumed": True, "assignments": 0,
                "reason": "general precondition is trivially true"}
    checker = TypeChecker()
    system = checker.check_transformation(specific)
    # the substituted predicate may introduce literals/expressions the
    # specific rule never typed; register them before enumerating
    checker.visit_predicate(subst_pre)
    assignments = 0
    for mapping in type_assignments(system, config):
        assignments += 1
        types = TypeAssignment(checker, mapping)
        encoder, base = _feasibility_base(specific, types, config)
        query = T.and_(
            encode_pre_exact(specific.pre, encoder),
            T.not_(encode_pre_exact(subst_pre, encoder)),
            base,
        )
        result = check_sat(query, conflict_limit=config.conflict_limit)
        if not result.is_unsat():
            return {"subsumed": False, "assignments": assignments,
                    "reason": "implication fails"}
    if assignments == 0:
        return {"subsumed": False, "reason": "untypeable"}
    return {"subsumed": True, "assignments": assignments,
            "reason": "precondition implied"}


class SubsumptionVerdict:
    """Result of :func:`subsumes`; truthy exactly when subsumed.

    Attributes:
        subsumed: does the general rule shadow the specific one?
        reason: human-readable justification either way.
        assignments: feasible type assignments the implication was
            proven at (0 when decided structurally).
    """

    __slots__ = ("subsumed", "reason", "assignments")

    def __init__(self, subsumed: bool, reason: str, assignments: int = 0):
        self.subsumed = subsumed
        self.reason = reason
        self.assignments = assignments

    def __bool__(self) -> bool:
        return self.subsumed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SubsumptionVerdict(%r, %r)" % (self.subsumed, self.reason)


def subsumes(general: ast.Transformation,
             specific: ast.Transformation,
             config: Optional[Config] = None) -> SubsumptionVerdict:
    """Stable library entry point: does *general* shadow *specific*?

    True exactly when a pattern-directed rewriter trying *general*
    first would fire on every program *specific* matches: the general
    source template structurally covers the specific one (see
    :mod:`repro.lint.subsume` — purely syntactic, no commutativity)
    and ``pre_specific ⇒ pre_general[σ]`` holds at every feasible type
    assignment.  The structural check is a cheap AST walk, so callers
    (e.g. :mod:`repro.discover`'s rank stage) can fire this against a
    whole corpus without pre-filtering; the SMT implication only runs
    on structural matches.

    Memory rules never subsume (aliasing context is invisible to the
    structural matcher) and floating-point rules are declined rather
    than half-analyzed with the integer feasibility machinery.
    """
    if config is None:
        from ..core.config import DEFAULT_CONFIG
        config = DEFAULT_CONFIG
    from .subsume import uses_fp
    if uses_fp(general) or uses_fp(specific):
        return SubsumptionVerdict(
            False, "floating-point rules are outside the subsumption "
                   "lint's integer-only scope")
    raw = check_subsumption(general, specific, config)
    return SubsumptionVerdict(bool(raw.get("subsumed")),
                              raw.get("reason", ""),
                              raw.get("assignments", 0))


def check_attr_slack(t: ast.Transformation, config: Config) -> dict:
    """Diff declared nsw/nuw/exact flags against Figure 6 inference."""
    if not attribute_slots(t):
        return {"droppable": [], "strengthenable": []}
    result = infer_attributes(t, config)
    if result.weakest_source is None:
        return {"skipped": "rule does not verify as written"}
    original = set(result.original)
    weakest = set(result.weakest_source)
    strongest = set(result.strongest_target or ())
    droppable = sorted(
        "%s.%s" % (name, flag)
        for (template, name, flag) in original
        if template == "src" and ("src", name, flag) not in weakest)
    strengthenable = sorted(
        "%s.%s" % (name, flag)
        for (template, name, flag) in strongest
        if template == "tgt" and ("tgt", name, flag) not in original)
    return {
        "droppable": droppable,
        "strengthenable": strengthenable,
    }


def check_absint(t: ast.Transformation, config: Config) -> dict:
    """Abstract-interpretation lint for one rule.

    Two questions, both quantified over the feasible type enumeration:

    * **provable** — :func:`repro.absint.prove_refinement` discharges
      the refinement at *every* assignment, i.e. the rule holds by
      known-bits/interval reasoning alone, with no solver query.
    * **refuted** — a precondition atom that the must-analysis proves
      always-false at every assignment, each carrying the concrete
      witness :func:`repro.absint.refuted_pre_atoms` validated through
      the interpreter semantics.  Intersection across assignments: an
      atom satisfiable at any width is acquitted.
    """
    from ..absint.prove import prove_refinement, refuted_pre_atoms

    checker = TypeChecker()
    system = checker.check_transformation(t)
    assignments = 0
    proved_all = True
    refuted: Optional[Dict[str, dict]] = None
    for mapping in type_assignments(system, config):
        assignments += 1
        types = TypeAssignment(checker, mapping)
        if proved_all and not prove_refinement(t, types, config):
            proved_all = False
        found = {f["atom"]: f for f in refuted_pre_atoms(t, types, config)}
        if refuted is None:
            refuted = found
        else:
            refuted = {k: v for k, v in refuted.items() if k in found}
        if not proved_all and not refuted:
            break
    return {
        "assignments": assignments,
        "provable": assignments > 0 and proved_all,
        "refuted": sorted((refuted or {}).values(),
                          key=lambda f: f["atom"]),
    }


def check_cycles(rules: List[ast.Transformation], params: dict) -> dict:
    """Run the fixpoint-divergence detector over the whole rule set."""
    opts = compile_opts(rules)
    reports = detect_cycles(
        opts,
        width=int(params.get("width", 8)),
        samples_per_opt=int(params.get("samples", 3)),
        spin_limit=int(params.get("spin_limit", 64)),
        seed=int(params.get("seed", 0)),
    )
    return {"cycles": [{
        "opt": r.opt_name,
        "consts": {k: v for k, v in sorted(r.const_values.items())},
        "rules": list(r.spinning_rules),
        "fired": r.fired,
        "describe": r.describe(),
    } for r in reports]}


# ---------------------------------------------------------------------------
# the engine worker


def run_lint_job(payload: dict) -> dict:
    """Module-level worker for :class:`repro.engine.scheduler.Scheduler`.

    ``payload``: ``{"key", "kind", "texts": [rule text, ...], "params",
    "knobs"}``.  Returns an outcome dict with ``status: "ok"`` and the
    check's structured result under ``data`` — checks that cannot run
    (unsupported features, untypeable rules) report ``data.skipped``
    rather than failing the job, so the cache still learns them.
    """
    start = time.monotonic()
    kind = payload["kind"]
    params = payload.get("params", {})
    config = Config.from_dict(payload["knobs"])
    try:
        rules = [parse_transformation(text) for text in payload["texts"]]
        if kind == "feasibility":
            data = check_feasibility(rules[0], config)
        elif kind == "subsume":
            data = check_subsumption(rules[0], rules[1], config)
        elif kind == "attrs":
            data = check_attr_slack(rules[0], config)
        elif kind == "absint":
            data = check_absint(rules[0], config)
        elif kind == "cycles":
            data = check_cycles(rules, params)
        else:
            raise ast.AliveError("unknown lint job kind %r" % kind)
    except (Unsupported, TypeConstraintError, ast.AliveError) as e:
        data = {"skipped": str(e)}
    return {
        "key": payload["key"],
        "status": "ok",
        "kind": kind,
        "data": data,
        "elapsed": time.monotonic() - start,
    }
