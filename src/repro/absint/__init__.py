"""Solver-verified abstract-interpretation tier.

A compositional abstract interpreter over template rule terms with
three forward domains — known bits, unsigned intervals, signed
intervals (reduced product :class:`AbsValue`).  Unlike the historical
trusted dataflow code in ``repro.opt.analysis``, every transfer
function here is *verified* against the SMT semantics by
:mod:`repro.absint.selfcheck`.

The tier is a **must-analysis**: it answers "provably yes" or
"unknown", never "no".  The verifier does not consult it — every
refinement check goes to the solver — but lint reports the rules
:func:`prove_refinement` discharges alone and the precondition atoms
:func:`refuted_pre_atoms` refutes with a replayed witness, and
``repro.opt.analysis`` reuses the transfers; see DESIGN.md.
"""

from .domains import AbsValue, KnownBits, SRange, URange
from .prove import (
    AbsintUnsupported, Analysis, prove_refinement, refuted_pre_atoms,
)
from .transfer import (
    icmp_decide, transfer_binop, transfer_constexpr, transfer_conv,
    transfer_icmp, transfer_select,
)

__all__ = [
    "AbsValue", "KnownBits", "SRange", "URange",
    "AbsintUnsupported", "Analysis", "prove_refinement",
    "refuted_pre_atoms",
    "icmp_decide",
    "transfer_binop", "transfer_constexpr", "transfer_conv",
    "transfer_icmp", "transfer_select",
]
