"""Tier-1 AST/dataflow lint passes.

These run in-process, need no solver, and finish in microseconds per
rule: duplicate names, no-op rewrites, preconditions over names the
source never binds, unused constant bindings, and preconditions (or
single clauses) that constant-fold to a fixed truth value.

The constant folder is deliberately three-valued: ``_fold`` returns
``True``/``False`` only when the clause evaluates from literals alone
— at *every* probed bit width — and ``None`` as soon as an abstract
constant, a syntactic builtin, or a width disagreement appears.
Anything the folder cannot decide is left to the SMT tier.  Literal
atoms are decided by the concrete semantics of :mod:`repro.ir.precond`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..engine.jobs import normalized_text
from ..ir import ast
from ..ir.constexpr import ConstExpr, eval_constexpr
from ..ir.intops import mask
from ..ir.precond import (
    SYNTACTIC,
    Predicate,
    PredAnd,
    PredCall,
    PredCmp,
    PredNot,
    PredOr,
    PredTrue,
    builtin_holds,
    compare,
    evaluate,
)
from .findings import Finding, finding_id, SEV_ERROR, SEV_INFO, SEV_WARNING

#: widths every foldable clause must agree on before we call it constant
_FOLD_WIDTHS = (4, 8, 16, 32)


def _span(t: ast.Transformation, node=None):
    """(path, line, col) for a finding: the node's own span when the
    parser stamped one, else the rule header."""
    if node is not None and getattr(node, "line", None) is not None:
        return t.path, node.line, getattr(node, "col", None)
    return t.path, t.line, None


def _pre_clauses(pred: Predicate) -> List[Predicate]:
    """Top-level conjuncts of a precondition (the `&&` clauses)."""
    if isinstance(pred, PredAnd):
        return list(pred.ps)
    return [pred]


def iter_pred_leaves(pred: Predicate) -> Iterable[ast.Value]:
    """Every value leaf mentioned anywhere in a predicate tree."""
    if isinstance(pred, (PredAnd, PredOr)):
        for p in pred.ps:
            yield from iter_pred_leaves(p)
    elif isinstance(pred, PredNot):
        yield from iter_pred_leaves(pred.p)
    elif isinstance(pred, PredCmp):
        yield from _iter_value_leaves(pred.a)
        yield from _iter_value_leaves(pred.b)
    elif isinstance(pred, PredCall):
        for arg in pred.args:
            yield from _iter_value_leaves(arg)


def _iter_value_leaves(v: ast.Value) -> Iterable[ast.Value]:
    if isinstance(v, ConstExpr):
        for a in v.args:
            yield from _iter_value_leaves(a)
    else:
        yield v


# ---------------------------------------------------------------------------
# individual passes


def check_duplicate_names(rules: Sequence[ast.Transformation]
                          ) -> List[Finding]:
    findings: List[Finding] = []
    seen: Dict[str, ast.Transformation] = {}
    for index, t in enumerate(rules):
        first = seen.get(t.name)
        if first is None:
            seen[t.name] = t
            continue
        path, line, col = _span(t)
        fpath, fline, _ = _span(first)
        findings.append(Finding(
            finding_id("duplicate-name", normalized_text(t),
                       "%s#%d" % (t.name, index)),
            "duplicate-name", SEV_WARNING, t.name,
            "rule name %r already used by the rule at %s" % (
                t.name, first.location() or "<memory>"),
            path=path, line=line, col=col,
            related=[{"rule": first.name, "path": fpath, "line": fline}],
        ))
    return findings


def check_noop_rules(rules: Sequence[ast.Transformation]) -> List[Finding]:
    from ..ir.printer import instruction_str
    findings: List[Finding] = []
    for t in rules:
        src = [instruction_str(i) for i in t.src.values()]
        tgt = [instruction_str(i) for i in t.tgt.values()]
        if src == tgt:
            path, line, col = _span(t)
            findings.append(Finding(
                finding_id("noop-rule", normalized_text(t)),
                "noop-rule", SEV_WARNING, t.name,
                "source and target templates are identical; the rule "
                "rewrites nothing",
                path=path, line=line, col=col,
            ))
    return findings


def check_undefined_pre_names(rules: Sequence[ast.Transformation]
                              ) -> List[Finding]:
    """Names the precondition mentions but the source never binds.

    The parser resolves unknown names into fresh ``Input`` /
    ``ConstantSymbol`` objects without complaint (preconditions are
    parsed last), so a typo like ``isPowerOf2(C2)`` against a source
    binding only ``C1`` silently creates an unconstrained symbol: the
    predicate then never talks about the matched program at all.
    """
    findings: List[Finding] = []
    for t in rules:
        if isinstance(t.pre, PredTrue):
            continue
        bound: Set[str] = set()
        for v in t.source_values():
            name = getattr(v, "name", None)
            if name is not None:
                bound.add(name)
        reported: Set[str] = set()
        for leaf in iter_pred_leaves(t.pre):
            if not isinstance(leaf, (ast.Input, ast.ConstantSymbol)):
                continue
            if leaf.name in bound or leaf.name in reported:
                continue
            reported.add(leaf.name)
            path, line, col = _span(t, leaf)
            findings.append(Finding(
                finding_id("undefined-pre-name", normalized_text(t),
                           leaf.name),
                "undefined-pre-name", SEV_ERROR, t.name,
                "precondition references %s, which the source template "
                "never binds" % leaf.name,
                path=path, line=line, col=col,
                data={"name": leaf.name},
            ))
    return findings


def check_unused_bindings(rules: Sequence[ast.Transformation]
                          ) -> List[Finding]:
    """Abstract constants matched by the source but never consulted.

    A constant the source names twice is consulted by the match itself:
    both occurrences must bind the same value (``shl %x, C`` then
    ``lshr %a, C``)."""
    findings: List[Finding] = []
    for t in rules:
        used: Set[str] = set()
        for leaf in iter_pred_leaves(t.pre):
            name = getattr(leaf, "name", None)
            if name is not None:
                used.add(name)
        for v in t.target_values():
            name = getattr(v, "name", None)
            if name is not None:
                used.add(name)
        seen: Set[str] = set()
        for v in t.source_values():
            for op in v.operands():
                if isinstance(op, ast.ConstantSymbol):
                    if op.name in seen:
                        used.add(op.name)
                    seen.add(op.name)
        for v in t.source_values():
            if not isinstance(v, ast.ConstantSymbol):
                continue
            if v.name in used:
                continue
            path, line, col = _span(t, v)
            findings.append(Finding(
                finding_id("unused-binding", normalized_text(t), v.name),
                "unused-binding", SEV_INFO, t.name,
                "constant %s is matched by the source but used neither "
                "by the precondition nor the target" % v.name,
                path=path, line=line, col=col,
                data={"name": v.name},
            ))
    return findings


class _NotConstant(Exception):
    """Internal: a leaf was not a literal; the clause is unfoldable."""


def _lookup_fail(name: str) -> int:
    raise _NotConstant(name)


def _eval_const(v: ast.Value, width: int) -> Optional[int]:
    """Evaluate a constant expression from literals only, else None."""
    if isinstance(v, ast.Literal):
        ty = getattr(v, "ty", None)
        w = ty.width if ty is not None and hasattr(ty, "width") else width
        return v.value & mask(w)
    if isinstance(v, ConstExpr):
        try:
            return eval_constexpr(v, width, _lookup_fail)
        except _NotConstant:
            return None
        except (ZeroDivisionError, ValueError, ast.AliveError):
            return None
    return None


def _fold_at(pred: Predicate, width: int) -> Optional[bool]:
    """Three-valued fold of one predicate at one width."""
    return evaluate(pred, lambda atom: _fold_atom(atom, width))


def _fold_atom(atom: Predicate, width: int) -> Optional[bool]:
    """Exact truth of an atom whose arguments are all literals."""
    if isinstance(atom, PredCall) and atom.kind == SYNTACTIC:
        return None  # depends on the matched program
    args = [atom.a, atom.b] if isinstance(atom, PredCmp) else atom.args
    vals = [_eval_const(a, width) for a in args]
    if any(v is None for v in vals):
        return None
    if isinstance(atom, PredCmp):
        return compare(atom.op, vals[0], vals[1], width)
    return builtin_holds(atom.fn, vals, width)


def _fold(pred: Predicate) -> Optional[bool]:
    """Fold across all probe widths; a verdict needs unanimity."""
    verdicts = {_fold_at(pred, w) for w in _FOLD_WIDTHS}
    if verdicts == {True}:
        return True
    if verdicts == {False}:
        return False
    return None


def check_pre_constant_folds(rules: Sequence[ast.Transformation]
                             ) -> List[Finding]:
    findings: List[Finding] = []
    for t in rules:
        if isinstance(t.pre, PredTrue):
            continue
        whole = _fold(t.pre)
        if whole is False:
            path, line, col = _span(t, t.pre)
            if line is None:
                line = t.pre_line
            findings.append(Finding(
                finding_id("pre-constant-fold", normalized_text(t), "pre"),
                "pre-constant-fold", SEV_ERROR, t.name,
                "precondition '%s' folds to false at every width; the "
                "rule can never fire" % t.pre,
                path=path, line=line, col=col,
                data={"folds_to": False},
            ))
            continue  # per-clause reports would be redundant noise
        for index, clause in enumerate(_pre_clauses(t.pre)):
            verdict = _fold(clause)
            if verdict is None:
                continue
            path, line, col = _span(t, clause)
            if line is None:
                line = t.pre_line
            if verdict is True:
                findings.append(Finding(
                    finding_id("pre-constant-fold", normalized_text(t),
                               "clause#%d" % index),
                    "pre-constant-fold", SEV_WARNING, t.name,
                    "precondition clause '%s' folds to true at every "
                    "width and can be dropped" % clause,
                    path=path, line=line, col=col,
                    data={"clause": index, "folds_to": True},
                ))
            else:
                findings.append(Finding(
                    finding_id("pre-constant-fold", normalized_text(t),
                               "clause#%d" % index),
                    "pre-constant-fold", SEV_ERROR, t.name,
                    "precondition clause '%s' folds to false at every "
                    "width; the rule can never fire" % clause,
                    path=path, line=line, col=col,
                    data={"clause": index, "folds_to": False},
                ))
    return findings


#: pass id -> callable over the whole rule list
AST_PASS_FUNCS = {
    "duplicate-name": check_duplicate_names,
    "noop-rule": check_noop_rules,
    "undefined-pre-name": check_undefined_pre_names,
    "unused-binding": check_unused_bindings,
    "pre-constant-fold": check_pre_constant_folds,
}


def run_ast_passes(rules: Sequence[ast.Transformation],
                   only: Optional[frozenset] = None) -> List[Finding]:
    """Run the tier-1 passes (all, or the ``only`` subset) in order."""
    findings: List[Finding] = []
    for pass_id, func in AST_PASS_FUNCS.items():
        if only is not None and pass_id not in only:
            continue
        findings.extend(func(rules))
    return findings
