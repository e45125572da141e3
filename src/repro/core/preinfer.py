"""Precondition inference: synthesize the weakest precondition that
makes a transformation correct.

The paper's attribute inference (§3.4) synthesizes weakest preconditions
*in terms of instruction attributes*; the authors' companion work
(Lopes & Monteiro, VMCAI'14 [19], later grown into Alive-Infer,
PLDI'17) generalizes this to full predicate preconditions.  This module
implements that extension over a candidate grammar:

* unary predicates on each abstract constant: ``C != 0``, ``C > 0``,
  ``C >= 0``, ``C != -1``, ``isPowerOf2(C)``, ``isPowerOf2OrZero(C)``,
  ``isSignBit(C)``, ``!isSignBit(C)``;
* binary comparisons between constants: ``C1 u>= C2``, ``C1 u< C2``,
  ``C1 == C2``, ``C1 != C2``.

Search strategy: enumerate conjunctions up to ``max_conjuncts``
candidates, keep those under which the transformation verifies, and
return the *weakest* — the one accepting the largest number of concrete
constant assignments at the sample width (the acceptance measure
Alive-Infer optimizes).  ``Pre: true`` is tried first, so an already
correct transformation gets the trivial precondition.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import ast
from ..ir.constexpr import ConstExpr, eval_constexpr
from ..ir.intops import mask
from ..ir.precond import (
    PredAnd,
    PredCall,
    PredCmp,
    PredNot,
    PredTrue,
    Predicate,
    builtin_holds,
    compare,
    evaluate,
)
from .config import Config, DEFAULT_CONFIG
from .verifier import VALID, verify


def _eval_candidate(pred: Predicate, env: Dict[str, int], width: int) -> bool:
    """Concrete evaluation of a candidate predicate over constants."""
    def atom(p: Predicate) -> bool:
        args = [p.a, p.b] if isinstance(p, PredCmp) else p.args
        vals = [_leaf_value(a, env, width) for a in args]
        if isinstance(p, PredCmp):
            return compare(p.op, vals[0], vals[1], width)
        return builtin_holds(p.fn, vals, width)

    return evaluate(pred, atom)


def _leaf_value(v: ast.Value, env: Dict[str, int], width: int) -> int:
    if isinstance(v, ConstExpr):
        if v.op == "width":
            return width & mask(width)
        return eval_constexpr(v, width, lambda sym: _width_aware(sym, env, width))
    if isinstance(v, ast.Literal):
        return v.value & mask(width)
    if isinstance(v, ast.ConstantSymbol):
        return env[v.name]
    raise ast.AliveError("non-constant leaf in candidate: %r" % v)


def _width_aware(sym: ast.Value, env: Dict[str, int], width: int) -> int:
    if isinstance(sym, ConstExpr) and sym.op == "width":
        return width
    return env[sym.name]


def candidate_predicates(t: ast.Transformation) -> List[Predicate]:
    """The candidate grammar instantiated for *t*'s abstract constants."""
    constants = [v for v in t.inputs() if isinstance(v, ast.ConstantSymbol)]
    out: List[Predicate] = []
    zero = ast.Literal(0)
    one = ast.Literal(1)
    minus1 = ast.Literal(-1)
    for c in constants:
        out.append(PredCmp("!=", c, zero))
        out.append(PredCmp(">", c, zero))
        out.append(PredCmp(">=", c, zero))
        out.append(PredCmp("!=", c, one))
        out.append(PredCmp("!=", c, minus1))
        out.append(PredCall("isPowerOf2", [c]))
        out.append(PredCall("isPowerOf2OrZero", [c]))
        out.append(PredCall("isSignBit", [c]))
        out.append(PredNot(PredCall("isSignBit", [c])))
    for c in constants:
        out.append(PredCmp("u<", c, ConstExpr("width", (c,))))
    for c1, c2 in itertools.combinations(constants, 2):
        out.append(PredCmp("u>=", c1, c2))
        out.append(PredCmp("u<", c1, c2))
        out.append(PredCmp("==", c1, c2))
        out.append(PredCmp("!=", c1, c2))
        out.append(
            PredCmp("u<", ConstExpr("add", (c1, c2)),
                    ConstExpr("width", (c1,)))
        )
    return out


def acceptance_count(pred: Predicate, constants: Sequence[str],
                     width: int = 4) -> int:
    """How many concrete constant assignments satisfy *pred* at *width*.

    This is the weakness measure: a weaker precondition accepts more
    assignments, so the optimization fires more often.
    """
    total = 0
    for values in itertools.product(range(1 << width), repeat=len(constants)):
        env = dict(zip(constants, values))
        if _eval_candidate(pred, env, width):
            total += 1
    return total


class PreconditionResult:
    """Outcome of precondition inference.

    Attributes:
        name: transformation name.
        precondition: the weakest valid predicate found (None if even the
            candidate grammar cannot repair the transformation).
        acceptance: fraction of constant assignments accepted (1.0 means
            ``Pre: true`` suffices).
        tried: number of verifier calls made.
    """

    def __init__(self, name: str, precondition: Optional[Predicate],
                 acceptance: float, tried: int):
        self.name = name
        self.precondition = precondition
        self.acceptance = acceptance
        self.tried = tried

    def describe(self) -> str:
        if self.precondition is None:
            return "%s: no precondition in the grammar makes this correct" % self.name
        return "%s: weakest precondition: %s  (accepts %.0f%% of constants)" % (
            self.name, self.precondition, self.acceptance * 100.0
        )


def _psi_satisfiable(t: ast.Transformation, config: Config) -> bool:
    """Is φ ∧ δ ∧ ρ satisfiable for some feasible type assignment?

    Guards against vacuous preconditions that "fix" a transformation by
    making its source template always undefined."""
    from ..smt.solver import check_sat
    from .semantics import EncodeContext, TemplateEncoder, encode_precondition
    from .typecheck import TypeAssignment, TypeChecker
    from .verifier import type_assignments
    from ..smt import terms as T

    checker = TypeChecker()
    system = checker.check_transformation(t)
    for mapping in type_assignments(system, config):
        ctx = EncodeContext(TypeAssignment(checker, mapping), config)
        src = TemplateEncoder(ctx, is_target=False)
        src.encode_template(t.src.values())
        phi = encode_precondition(t.pre, src)
        root = t.src[t.root]
        psi = T.and_(phi, src.defined(root), src.poison_free(root),
                     *ctx.side_constraints)
        if check_sat(psi, conflict_limit=config.conflict_limit).is_sat():
            return True
    return False


def infer_precondition(
    t: ast.Transformation,
    config: Config = DEFAULT_CONFIG,
    max_conjuncts: int = 2,
) -> PreconditionResult:
    """Find the weakest precondition (from the candidate grammar) under
    which *t* verifies.  The transformation's own precondition is
    ignored during the search and restored afterwards."""
    constants = [
        v.name for v in t.inputs() if isinstance(v, ast.ConstantSymbol)
    ]
    original = t.pre
    tried = 0

    def valid_with(pred: Predicate) -> bool:
        """Correct under *pred*, and not vacuously so: there must exist
        defined, poison-free source executions satisfying it (real
        Alive-Infer enforces this with positive examples)."""
        nonlocal tried
        tried += 1
        t.pre = pred
        try:
            if verify(t, config).status != VALID:
                return False
            return _psi_satisfiable(t, config)
        finally:
            t.pre = original

    try:
        if valid_with(PredTrue()):
            return PreconditionResult(t.name, PredTrue(), 1.0, tried)

        candidates = candidate_predicates(t)
        total_space = (1 << 4) ** max(1, len(constants))

        # order conjunctions by decreasing acceptance so that the first
        # valid one found is the weakest
        conjunctions: List[Tuple[int, Predicate]] = []
        for size in range(1, max_conjuncts + 1):
            for combo in itertools.combinations(candidates, size):
                pred = combo[0] if size == 1 else PredAnd(*combo)
                count = acceptance_count(pred, constants)
                if count:
                    conjunctions.append((count, pred))
        conjunctions.sort(key=lambda kv: -kv[0])

        for count, pred in conjunctions:
            if valid_with(pred):
                return PreconditionResult(
                    t.name, pred, count / total_space, tried
                )
        return PreconditionResult(t.name, None, 0.0, tried)
    finally:
        t.pre = original
