"""Solver-verified abstract-interpretation tier.

A compositional abstract interpreter over template rule terms with
three forward domains — known bits, unsigned intervals, signed
intervals (reduced product :class:`AbsValue`) — and a backward
demanded-bits transfer.  Unlike the historical trusted dataflow code
in ``repro.opt.analysis``, every transfer function here is *verified*
against the SMT semantics by :mod:`repro.absint.selfcheck`.

The tier is a **must-analysis**: it answers "provably yes" or
"unknown", never "no".  The verifier does not consult it — every
refinement check goes to the solver — but lint reports the rules
:func:`prove_refinement` discharges alone, discover drops candidates
:func:`refute_candidate` refutes with a replayed witness, and
``repro.opt.analysis`` reuses the transfers; see DESIGN.md.
"""

from .domains import AbsValue, KnownBits, SRange, URange
from .prove import (
    AbsintUnsupported, Analysis, prove_refinement, refute_candidate,
    refuted_pre_atoms,
)
from .transfer import (
    demanded_conv, demanded_operands, icmp_decide, total_binop, total_conv,
    total_icmp, transfer_binop, transfer_constexpr, transfer_conv,
    transfer_icmp, transfer_select,
)

__all__ = [
    "AbsValue", "KnownBits", "SRange", "URange",
    "AbsintUnsupported", "Analysis", "prove_refinement",
    "refute_candidate", "refuted_pre_atoms",
    "demanded_conv", "demanded_operands", "icmp_decide",
    "total_binop", "total_conv", "total_icmp",
    "transfer_binop", "transfer_constexpr", "transfer_conv",
    "transfer_icmp", "transfer_select",
]
