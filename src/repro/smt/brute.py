"""Brute-force model enumeration backend.

Exhaustively enumerates assignments over a formula's free variables and
evaluates with :mod:`repro.smt.eval`.  Exponential, so only usable for a
handful of narrow variables — which is exactly what the test suite needs
to *differentially test* the CDCL + bit-blasting pipeline: on tiny
domains both backends must agree on sat/unsat and on ∃∀ outcomes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import terms as T
from .eval import evaluate
from .sorts import is_bool
from .terms import Term


def _domain(v: Term) -> range:
    if is_bool(v.sort):
        return range(2)
    return range(1 << v.sort.width)


def domain_size(variables: Iterable[Term]) -> int:
    """Total number of assignments over *variables*."""
    size = 1
    for v in variables:
        size *= 2 if is_bool(v.sort) else (1 << v.sort.width)
    return size


def _budget(max_assignments: int, max_bits: Optional[int]) -> int:
    """Resolve the enumeration budget.

    ``max_bits`` expresses the budget as a total input bit count,
    which is how callers reason about FP rules: one half operand is
    16 bits, so ``max_bits=22`` admits a unary half rule plus a few
    analysis booleans, while two half operands (32 bits) stay out of
    reach."""
    if max_bits is not None:
        return 1 << max_bits
    return max_assignments


def brute_check_sat(formula: Term, max_assignments: int = 1 << 22,
                    max_bits: Optional[int] = None) -> Tuple[str, Optional[Dict[Term, int]]]:
    """Return ("sat", model) or ("unsat", None) by exhaustive search."""
    max_assignments = _budget(max_assignments, max_bits)
    variables = sorted(T.free_vars(formula), key=lambda v: v.data)
    if domain_size(variables) > max_assignments:
        raise ValueError("domain too large for brute force")
    for values in itertools.product(*[_domain(v) for v in variables]):
        model = dict(zip(variables, values))
        if evaluate(formula, model):
            return "sat", model
    return "unsat", None


def brute_exists_forall(
    outer_vars: Sequence[Term],
    inner_vars: Sequence[Term],
    phi: Term,
    max_assignments: int = 1 << 22,
    max_bits: Optional[int] = None,
) -> Tuple[str, Optional[Dict[Term, int]]]:
    """Decide ∃ outer ∀ inner : phi by exhaustive two-level search."""
    max_assignments = _budget(max_assignments, max_bits)
    free = T.free_vars(phi)
    inner = [v for v in inner_vars if v in free]
    outer = sorted(
        {v for v in free if v not in set(inner)} | {v for v in outer_vars if v in free},
        key=lambda v: v.data,
    )
    if domain_size(outer) * max(1, domain_size(inner)) > max_assignments:
        raise ValueError("domain too large for brute force")
    inner_domains = [_domain(v) for v in inner]
    for values in itertools.product(*[_domain(v) for v in outer]):
        model = dict(zip(outer, values))
        ok = True
        for ivalues in itertools.product(*inner_domains):
            model.update(zip(inner, ivalues))
            if not evaluate(phi, model):
                ok = False
                break
        if ok:
            return "sat", {v: model[v] for v in outer}
    return "unsat", None


def brute_count_models(formula: Term, max_assignments: int = 1 << 22,
                       max_bits: Optional[int] = None) -> int:
    """Count satisfying assignments (for property tests on simplifiers)."""
    max_assignments = _budget(max_assignments, max_bits)
    variables = sorted(T.free_vars(formula), key=lambda v: v.data)
    if domain_size(variables) > max_assignments:
        raise ValueError("domain too large for brute force")
    count = 0
    for values in itertools.product(*[_domain(v) for v in variables]):
        if evaluate(formula, dict(zip(variables, values))):
            count += 1
    return count
