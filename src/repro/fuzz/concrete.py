"""A concrete re-implementation of the refinement checks.

This is the fuzzing harness's independent oracle for rule-level
campaigns: it decides the same three refinement conditions as
:mod:`repro.core.refinement` — target definedness, target
poison-freedom, value equality — but at a *single concrete point*
(inputs, constants, analysis Booleans, undef choices), evaluating the
instruction semantics with the plain-integer operations of
:mod:`repro.ir.intops` instead of SMT terms.  No formula construction,
no solver, no bit-blasting: a disagreement between this module and the
SMT pipeline on any sampled point is a bug in one of them.

The quantifier structure of paper §3.1.2 is preserved exactly:

* inputs ``I``, abstract constants, analysis Booleans ``P`` and target
  undefs ``Ū`` are chosen first (sampled by the caller, ``P`` enumerated
  here because its admissible values are constrained by ``p ⇒ s``);
* source undefs ``U`` are universally quantified in the *refutation*:
  a point witnesses non-refinement only if **every** source undef
  choice satisfies ``ψ`` while violating the goal.

Select is lazy in δ/ρ (only the chosen arm taints the result) and every
other instruction is strict, mirroring
:class:`repro.core.semantics.TemplateEncoder`; values of operations
outside their defined domain use the SMT-LIB totalizations so that
value comparisons agree with the encoder bit-for-bit even where δ is
false.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import Config
from ..core.counterexample import KIND_DOMAIN, KIND_POISON, KIND_VALUE
from ..core.typecheck import TypeAssignment
from ..ir import ast, intops
from ..ir.constexpr import ConstExpr, eval_constexpr, is_constant_value
from ..ir.intops import binop_poisons, icmp, mask, to_signed, total_binop
from ..ir.precond import (
    MUST,
    SYNTACTIC,
    PredCall,
    PredCmp,
    Predicate,
    builtin_holds,
    compare,
    evaluate,
)


class ConcreteUnsupported(Exception):
    """The transformation uses a feature this oracle does not model."""


def approximated_calls(pred: Predicate) -> List[PredCall]:
    """MUST-analysis calls that get a fresh Boolean in the encoding.

    These are exactly the calls for which
    :func:`repro.core.semantics.encode_precondition` introduces an
    approximation; calls whose arguments are all compile-time constants
    are encoded precisely and excluded.
    """
    return [
        c for c in pred.calls()
        if c.kind == MUST and not all(is_constant_value(a) for a in c.args)
    ]


# ---------------------------------------------------------------------------
# Template evaluation
# ---------------------------------------------------------------------------


class ConcreteTemplate:
    """Evaluates one template's (ι, δ, ρ) triples at a concrete point.

    ``undefs`` maps ``id(UndefValue)`` to the chosen bit pattern; a
    target template passes the source evaluation so that values already
    evaluated there are shared rather than re-derived (mirroring
    ``TemplateEncoder._delegate``).
    """

    def __init__(self, types: TypeAssignment, ptr_width: int,
                 inputs: Dict[str, int], undefs: Dict[int, int],
                 source: Optional["ConcreteTemplate"] = None):
        self.types = types
        self.ptr_width = ptr_width
        self.inputs = inputs
        self.undefs = undefs
        self.source = source
        self._value: Dict[int, int] = {}
        self._defined: Dict[int, bool] = {}
        self._poison: Dict[int, bool] = {}

    def width_of(self, v: ast.Value) -> int:
        return self.types.width_of(v, self.ptr_width)

    def _delegate(self, v: ast.Value) -> bool:
        return self.source is not None and id(v) in self.source._value

    def run(self, instructions: Iterable[ast.Instruction]) -> None:
        for inst in instructions:
            self.value(inst)
            self.defined(inst)
            self.poison_free(inst)

    # -- ι ---------------------------------------------------------------

    def value(self, v: ast.Value) -> int:
        if self._delegate(v):
            return self.source.value(v)
        cached = self._value.get(id(v))
        if cached is None:
            cached = self._eval_value(v)
            self._value[id(v)] = cached
        return cached

    def _eval_value(self, v: ast.Value) -> int:
        w = self.width_of(v)
        if isinstance(v, (ast.Input, ast.ConstantSymbol)):
            return self.inputs[v.name] & mask(w)
        if isinstance(v, ast.Literal):
            return v.value & mask(w)
        if isinstance(v, ast.UndefValue):
            return self.undefs[id(v)] & mask(w)
        if isinstance(v, ConstExpr):
            return eval_constexpr(v, w, self._const_lookup)
        if isinstance(v, ast.BinOp):
            return total_binop(v.opcode, self.value(v.a), self.value(v.b), w)
        if isinstance(v, ast.ICmp):
            return icmp(v.cond, self.value(v.a), self.value(v.b),
                        self.width_of(v.a))
        if isinstance(v, ast.Select):
            return self.value(v.a) if self.value(v.c) else self.value(v.b)
        if isinstance(v, ast.ConvOp):
            return self._eval_conv(v, w)
        if isinstance(v, ast.Copy):
            return self.value(v.x)
        raise ConcreteUnsupported("cannot evaluate %r" % (v,))

    def _eval_conv(self, v: ast.ConvOp, w_out: int) -> int:
        x = self.value(v.x)
        w_in = self.width_of(v.x)
        if v.opcode == "zext":
            return x & mask(w_in)
        if v.opcode == "sext":
            return to_signed(x, w_in) & mask(w_out)
        if v.opcode in ("trunc", "bitcast", "ptrtoint", "inttoptr"):
            return x & mask(min(w_in, w_out))
        raise ConcreteUnsupported("conversion %r" % v.opcode)

    def _const_lookup(self, v: ast.Value) -> int:
        # ConstantSymbol leaves resolve to the sampled constant; the
        # `width` function resolves to its argument's assigned width
        if isinstance(v, ConstExpr) and v.op == "width":
            return self.width_of(v.args[0])
        return self.inputs[v.name]

    # -- δ ---------------------------------------------------------------

    def defined(self, v: ast.Value) -> bool:
        if self._delegate(v):
            return self.source.defined(v)
        cached = self._defined.get(id(v))
        if cached is None:
            cached = self._eval_defined(v)
            self._defined[id(v)] = cached
        return cached

    def _eval_defined(self, v: ast.Value) -> bool:
        if isinstance(v, ast.BinOp):
            own = intops.defined(v.opcode, self.value(v.a),
                                 self.value(v.b), self.width_of(v))
            return own and self.defined(v.a) and self.defined(v.b)
        if isinstance(v, ast.Select):
            chosen = v.a if self.value(v.c) else v.b
            return self.defined(v.c) and self.defined(chosen)
        if isinstance(v, ast.Unreachable):
            return False
        if isinstance(v, (ast.Alloca, ast.Load, ast.Store, ast.GEP)):
            raise ConcreteUnsupported("memory instruction %s" % v.name)
        return all(self.defined(op) for op in v.operands())

    # -- ρ ---------------------------------------------------------------

    def poison_free(self, v: ast.Value) -> bool:
        if self._delegate(v):
            return self.source.poison_free(v)
        cached = self._poison.get(id(v))
        if cached is None:
            cached = self._eval_poison(v)
            self._poison[id(v)] = cached
        return cached

    def _eval_poison(self, v: ast.Value) -> bool:
        if isinstance(v, ast.BinOp):
            a, b = self.value(v.a), self.value(v.b)
            w = self.width_of(v)
            own = not binop_poisons(v.opcode, v.flags, a, b, w)
            return own and self.poison_free(v.a) and self.poison_free(v.b)
        if isinstance(v, ast.Select):
            chosen = v.a if self.value(v.c) else v.b
            return self.poison_free(v.c) and self.poison_free(chosen)
        return all(self.poison_free(op) for op in v.operands())

    # -- φ ---------------------------------------------------------------

    def eval_precondition(self, pred: Predicate,
                          must_choice: Dict[int, bool]) -> bool:
        """φ at this point, reading approximated analyses from
        *must_choice* (keyed by ``id(PredCall)``)."""
        def atom(p: Predicate) -> bool:
            if isinstance(p, PredCmp):
                return compare(p.op, self.value(p.a), self.value(p.b),
                               self.width_of(p.a))
            if p.kind == SYNTACTIC:
                return True
            if id(p) in must_choice:
                return must_choice[id(p)]
            return self.semantic_condition(p)

        return evaluate(pred, atom)

    def semantic_condition(self, call: PredCall) -> bool:
        """The exact condition *s* of a built-in call at this point."""
        args = [self.value(a) for a in call.args]
        return builtin_holds(call.fn, args, self.width_of(call.args[0]))


# ---------------------------------------------------------------------------
# Refinement at a point
# ---------------------------------------------------------------------------


class Violation:
    """A concrete witness that refinement fails at one sampled point."""

    def __init__(self, kind: str, name: str, inputs: Dict[str, int],
                 tgt_undefs: Dict[int, int], must_choice: Dict[int, bool]):
        self.kind = kind
        self.name = name
        self.inputs = dict(inputs)
        self.tgt_undefs = dict(tgt_undefs)
        self.must_choice = dict(must_choice)

    def __repr__(self) -> str:
        return "Violation(%s at %s, inputs=%r)" % (
            self.kind, self.name, self.inputs)


def source_undef_values(t: ast.Transformation) -> List[ast.UndefValue]:
    return [v for v in t.source_values() if isinstance(v, ast.UndefValue)]


def target_undef_values(t: ast.Transformation) -> List[ast.UndefValue]:
    src_ids = {id(v) for v in t.source_values()}
    return [v for v in t.target_values()
            if isinstance(v, ast.UndefValue) and id(v) not in src_ids]


def undef_domain_size(t: ast.Transformation, types: TypeAssignment,
                      ptr_width: int) -> int:
    size = 1
    for u in source_undef_values(t):
        size <<= types.width_of(u, ptr_width)
    return size


def _undef_assignments(undefs: List[ast.UndefValue], types: TypeAssignment,
                       ptr_width: int):
    """All source-undef choices, as id → value dicts."""
    if not undefs:
        yield {}
        return
    ranges = [range(1 << types.width_of(u, ptr_width)) for u in undefs]
    for combo in itertools.product(*ranges):
        yield {id(u): val for u, val in zip(undefs, combo)}


def check_point(
    t: ast.Transformation,
    types: TypeAssignment,
    config: Config,
    inputs: Dict[str, int],
    tgt_undefs: Dict[int, int],
    max_undef_domain: int = 256,
) -> Optional[Violation]:
    """Decide refinement at one (I, Ū) point; None means it holds.

    Enumerates source undefs exhaustively (the ∀U of the refutation) and
    analysis-Boolean choices (the ∃P); raises
    :class:`ConcreteUnsupported` when the rule is outside this oracle's
    scope or the undef domain exceeds *max_undef_domain*.
    """
    src_undefs = source_undef_values(t)
    if undef_domain_size(t, types, config.ptr_width) > max_undef_domain:
        raise ConcreteUnsupported("source undef domain too large")

    # One template evaluation per source-undef choice; everything the
    # per-name checks need is then a cache lookup.
    points: List[Tuple[ConcreteTemplate, ConcreteTemplate]] = []
    for u_choice in _undef_assignments(src_undefs, types, config.ptr_width):
        undefs = dict(u_choice)
        undefs.update(tgt_undefs)
        src = ConcreteTemplate(types, config.ptr_width, inputs, undefs)
        src.run(t.src.values())
        tgt = ConcreteTemplate(types, config.ptr_width, inputs, undefs,
                               source=src)
        tgt.run(t.tgt.values())
        points.append((src, tgt))

    approx = approximated_calls(t.pre)
    if len(approx) > 6:
        raise ConcreteUnsupported("too many approximated analyses")
    choices = [
        {id(c): bit for c, bit in zip(approx, bits)}
        for bits in itertools.product((False, True), repeat=len(approx))
    ]

    def psi(src: ConcreteTemplate, src_inst: ast.Instruction,
            choice: Dict[int, bool]) -> bool:
        # ψ ≡ φ ∧ (p ⇒ s side constraints) ∧ δ ∧ ρ of the checked
        # source instruction — same shape as refinement.psi_for
        if not src.eval_precondition(t.pre, choice):
            return False
        for call in approx:
            if choice[id(call)] and not src.semantic_condition(call):
                return False
        return src.defined(src_inst) and src.poison_free(src_inst)

    common = [n for n in t.tgt if n in t.src]
    for name in common:
        src_inst = t.src[name]
        tgt_inst = t.tgt[name]
        checks = [KIND_DOMAIN, KIND_POISON]
        if not isinstance(src_inst, (ast.Store, ast.Unreachable)):
            checks.append(KIND_VALUE)
        for kind in checks:
            for choice in choices:
                witnessed = True
                for src, tgt in points:
                    if not psi(src, src_inst, choice):
                        witnessed = False
                        break
                    if kind == KIND_DOMAIN:
                        ok = not tgt.defined(tgt_inst)
                    elif kind == KIND_POISON:
                        ok = not tgt.poison_free(tgt_inst)
                    else:
                        ok = src.value(src_inst) != tgt.value(tgt_inst)
                    if not ok:
                        witnessed = False
                        break
                if witnessed and points:
                    return Violation(kind, name, inputs, tgt_undefs, choice)
    return None
