"""Refinement checking for one concrete type assignment (paper §3.1.2).

Correctness of a transformation at a type assignment requires, for every
instruction name common to the source and target templates:

1. ``∀ I,P,Ū ∃ U : ψ ⇒ δ̄``   — target defined when source is;
2. ``∀ I,P,Ū ∃ U : ψ ⇒ ρ̄``   — target poison-free when source is;
3. ``∀ I,P,Ū ∃ U : ψ ⇒ ι = ῑ`` — equal results;

with ``ψ ≡ φ ∧ δ ∧ ρ`` — the precondition plus the aggregated
definedness/poison constraints of the *checked source instruction*
(§3.1.3 builds ψ per instruction) and the side constraints of
approximated analyses.  With memory operations, ``ψ`` additionally includes the
alloca constraints α and ᾱ and a fourth condition equates the final
memories pointwise (§3.3.2).

Validity is decided by refuting the negation, which peels one quantifier
alternation (paper §5): the negated query is ∃ I,P,Ū (,i) ∀ U and goes
to :func:`repro.smt.solver.solve_exists_forall`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..ir import ast
from ..smt import softfloat as SF
from ..smt import terms as T
from ..smt.sat import UNKNOWN
from ..smt.solver import solve_exists_forall
from ..typing.types import FloatType
from .config import Config
from .counterexample import (
    KIND_DOMAIN,
    KIND_MEMORY,
    KIND_POISON,
    KIND_VALUE,
    Counterexample,
    build_counterexample,
)
from .semantics import EncodeContext, TemplateEncoder, Unsupported, encode_precondition
from .typecheck import TypeAssignment


class CheckOutcome:
    """Result of checking one type assignment.

    ``status`` is "valid", "invalid", "unknown" or "unsupported"; on
    "invalid" the counterexample describes the failure in the paper's
    Figure 5 format.  All fields are plain data — no solver handles or
    closures — so outcomes pickle across the batch engine's process
    pool and serialize to JSON for its persistent cache.

    ``detail`` carries the human-readable reason for "unsupported";
    ``timed_out`` distinguishes a wall-clock budget expiry from a
    conflict-budget expiry among "unknown" outcomes.
    """

    def __init__(self, status: str, counterexample: Optional[Counterexample] = None,
                 kind: Optional[str] = None, queries: int = 0,
                 detail: str = "", timed_out: bool = False):
        self.status = status
        self.counterexample = counterexample
        self.kind = kind
        self.queries = queries
        self.detail = detail
        self.timed_out = timed_out

    def to_dict(self) -> dict:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "status": self.status,
            "counterexample": (
                None if self.counterexample is None
                else self.counterexample.to_dict()
            ),
            "kind": self.kind,
            "queries": self.queries,
            "detail": self.detail,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckOutcome":
        cex = data.get("counterexample")
        return cls(
            status=data["status"],
            counterexample=None if cex is None else Counterexample.from_dict(cex),
            kind=data.get("kind"),
            queries=data.get("queries", 0),
            detail=data.get("detail", ""),
            timed_out=data.get("timed_out", False),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CheckOutcome):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CheckOutcome(%s, kind=%r)" % (self.status, self.kind)


def _value_mismatch(ctx, src_enc, src_inst: ast.Instruction,
                    src_val: T.Term, tgt_val: T.Term) -> T.Term:
    """The negated value-equality goal for one checked instruction.

    Integer values must match bit for bit.  Floating-point values use
    :func:`repro.smt.softfloat.refines_eq`: NaN-payload-insensitive
    always (LLVM may return any NaN), and additionally ±0-insensitive
    when the checked source instruction carries ``nsz`` (or ``fast``) —
    the flag's entire licence is to ignore the sign of a zero result.

    ``arcp`` (or ``fast``) on a source ``fdiv`` grants the reciprocal
    freedom: the target may compute ``a * (1/b)`` instead of ``a / b``,
    so the goal accepts either value.  The alternative is encoded from
    the *source* operand encodings — for the ``x / C`` rules the
    ``1/C`` sub-circuit constant-folds (see :func:`SF.fbinop`) and the
    target circuit becomes structurally identical, which is what keeps
    those proofs cheap.
    """
    ty = ctx.type_of(src_inst)
    if isinstance(ty, FloatType):
        fmt = SF.format_for_kind(ty.kind)
        flags = getattr(src_inst, "flags", ())
        nsz = "nsz" in flags or "fast" in flags
        mismatch = T.not_(SF.refines_eq(fmt, src_val, tgt_val,
                                        sign_of_zero_insensitive=nsz))
        arcp = "arcp" in flags or "fast" in flags
        if arcp and isinstance(src_inst, ast.FBinOp) and \
                src_inst.opcode == "fdiv":
            recip = SF.fbinop(
                "fmul", fmt, src_enc.value(src_inst.a),
                SF.fbinop("fdiv", fmt, SF.fp_const(fmt, 1.0),
                          src_enc.value(src_inst.b)))
            mismatch = T.and_(mismatch, T.not_(SF.refines_eq(
                fmt, recip, tgt_val, sign_of_zero_insensitive=nsz)))
        return mismatch
    return T.ne(src_val, tgt_val)


def _uses_memory(t: ast.Transformation) -> bool:
    for inst in list(t.src.values()) + list(t.tgt.values()):
        if isinstance(inst, (ast.Alloca, ast.Load, ast.Store, ast.GEP)):
            return True
        if isinstance(inst, ast.ConvOp) and inst.opcode in ("inttoptr",):
            return True
    return False


def check_assignment(
    t: ast.Transformation,
    types: TypeAssignment,
    config: Config,
) -> CheckOutcome:
    """Run the refinement checks for one concrete type assignment.

    Each of the 3×k refinement queries is an independent
    :func:`solve_exists_forall` call with its own solver: a one-shot
    query, or a CEGIS loop with its own session when the source has
    ``undef``.  No solver state outlives a query, so the outcome is a
    function of (t, types, config) alone.
    """
    deadline = (
        time.monotonic() + config.time_limit
        if config.time_limit is not None
        else None
    )

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    ctx = EncodeContext(types, config)
    src_enc = TemplateEncoder(ctx, is_target=False)
    tgt_enc = TemplateEncoder(ctx, is_target=True, source=src_enc)

    memory = None
    if _uses_memory(t):
        from .memory import MemoryModel

        memory = MemoryModel(ctx)
        ctx.memory = memory
        src_enc.memory = memory.template_state(is_target=False)
        tgt_enc.memory = memory.template_state(is_target=True)

    src_enc.encode_template(t.src.values())
    phi = encode_precondition(t.pre, src_enc)
    tgt_enc.encode_template(t.tgt.values())

    common_parts = [phi]
    common_parts.extend(ctx.side_constraints)
    if memory is not None:
        common_parts.extend(memory.alloca_constraints())

    def psi_for(src_inst: ast.Instruction) -> T.Term:
        """ψ ≡ φ ∧ δ ∧ ρ — with δ/ρ of the *checked* source instruction
        (paper §3.1.3 builds ψ per instruction: the formulas for %0 use
        δ%0, the ones for %1 use δ%1)."""
        return T.and_(
            *common_parts,
            src_enc.defined(src_inst),
            src_enc.poison_free(src_inst),
        )

    outer = (
        list(ctx.input_terms().values())
        + list(ctx.analysis_bools)
        + list(tgt_enc.undef_vars)
    )
    if memory is not None:
        outer.extend(memory.outer_vars())
    inner = list(src_enc.undef_vars)
    if memory is not None:
        inner.extend(
            v for v in memory.source_undef_vars() if v not in inner
        )

    queries = 0
    # Pairs with identical encodings are skipped implicitly: the solver
    # refutes `x != x` immediately through constant folding.
    common = [n for n in t.tgt if n in t.src]
    for name in common:
        src_inst = t.src[name]
        tgt_inst = t.tgt[name]
        psi = psi_for(src_inst)
        checks = [
            (KIND_DOMAIN, T.not_(tgt_enc.defined(tgt_inst))),
            (KIND_POISON, T.not_(tgt_enc.poison_free(tgt_inst))),
        ]
        if not isinstance(src_inst, (ast.Store, ast.Unreachable)):
            checks.append(
                (
                    KIND_VALUE,
                    _value_mismatch(ctx, src_enc, src_inst,
                                    src_enc.value(src_inst),
                                    tgt_enc.value(tgt_inst)),
                )
            )
        for kind, negated_goal in checks:
            query = T.and_(psi, negated_goal)
            if config.simplify_queries:
                from ..smt.simplify import simplify

                query = simplify(query)
            queries += 1
            result = solve_exists_forall(
                outer, inner, query, conflict_limit=config.conflict_limit,
                deadline=deadline)
            if result.status == UNKNOWN:
                return CheckOutcome("unknown", kind=kind, queries=queries,
                                    timed_out=expired())
            if result.is_sat():
                cex = build_counterexample(
                    kind, name, t, ctx, src_enc, tgt_enc, result.model
                )
                return CheckOutcome("invalid", cex, kind, queries)

    if memory is not None:
        queries += 1
        mem_query = memory.memory_equality_refutation(
            psi=T.and_(*common_parts),
            src_state=src_enc.memory,
            tgt_state=tgt_enc.memory,
        )
        result = solve_exists_forall(
            outer + [memory.probe_address()],
            inner,
            mem_query,
            conflict_limit=config.conflict_limit,
            deadline=deadline,
        )
        if result.status == UNKNOWN:
            return CheckOutcome("unknown", kind=KIND_MEMORY, queries=queries,
                                timed_out=expired())
        if result.is_sat():
            cex = build_counterexample(
                KIND_MEMORY, t.root, t, ctx, src_enc, tgt_enc, result.model
            )
            return CheckOutcome("invalid", cex, KIND_MEMORY, queries)

    return CheckOutcome("valid", queries=queries)
