"""Dataflow analyses backing the precondition predicates (paper §2.3).

The Alive verifier *trusts* these analyses; the pass engine must supply
real implementations so that generated optimizations only fire when
their preconditions actually hold.  The central one is a known-bits
analysis equivalent to LLVM's ``computeKnownBits``.

Since the abstract-interpretation tier landed, this module no longer
carries hand-written bit-twiddling: :class:`KnownBitsAnalysis` is a
thin fixed-shape walk over the function that delegates every opcode to
the solver-verified transfer functions in :mod:`repro.absint.transfer`
(self-checked exhaustively at small widths and against the SMT
semantics by ``repro.absint.selfcheck``).  The transfers use the total
SMT semantics — ``udiv x, 0`` and oversized shifts get the solver's
totalized values — which strictly over-approximates every *defined*
execution of :mod:`repro.ir.interp` (those inputs raise
``UndefinedBehavior`` there), so a must-claim derived here is sound for
any program the pass engine actually runs.

All analyses here are *must*-analyses: a true answer is definitive, a
false answer means "cannot prove".
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..absint.domains import AbsValue
from ..absint.transfer import (
    transfer_binop,
    transfer_conv,
    transfer_icmp,
    transfer_select,
)
from ..ir import intops
from ..ir.module import MArg, MConst, MFunction, MInstr, MValue
from ..ir.precond import builtin_holds

KnownBits = Tuple[int, int]  # (known_zero, known_one)

_BINOPS = frozenset((
    "and", "or", "xor", "add", "sub", "mul",
    "shl", "lshr", "ashr", "udiv", "sdiv", "urem", "srem",
))
_CONVOPS = frozenset(("zext", "sext", "trunc"))


class KnownBitsAnalysis:
    """Forward abstract interpretation over a single-block function.

    Despite the historical name this now propagates the full reduced
    product (known bits × unsigned range × signed range); ``known``
    keeps the original ``(known_zero, known_one)`` interface while
    ``abstract`` exposes the whole :class:`AbsValue` for the predicates
    that want ranges.
    """

    def __init__(self, fn: MFunction):
        self.fn = fn
        self._cache: Dict[int, AbsValue] = {}

    def known(self, v: MValue) -> KnownBits:
        av = self.abstract(v)
        return av.bits.kz, av.bits.ko

    def abstract(self, v: MValue) -> AbsValue:
        cached = self._cache.get(id(v))
        if cached is None:
            cached = self._compute(v)
            self._cache[id(v)] = cached
        return cached

    def _compute(self, v: MValue) -> AbsValue:
        w = v.width
        if isinstance(v, MConst):
            return AbsValue.const(v.value, w)
        if isinstance(v, MArg):
            return AbsValue.top(w)
        assert isinstance(v, MInstr)
        op = v.opcode
        if op in _BINOPS:
            return transfer_binop(op,
                                  self.abstract(v.operands[0]),
                                  self.abstract(v.operands[1]))
        if op in _CONVOPS:
            return transfer_conv(op, self.abstract(v.operands[0]), w)
        if op == "select":
            return transfer_select(self.abstract(v.operands[0]),
                                   self.abstract(v.operands[1]),
                                   self.abstract(v.operands[2]))
        if op == "icmp":
            return transfer_icmp(v.cond,
                                 self.abstract(v.operands[0]),
                                 self.abstract(v.operands[1]))
        # floating-point instructions and conversions: no bit-level facts
        return AbsValue.top(w)


class Analyses:
    """Facade bundling the per-function analyses the matcher consults."""

    def __init__(self, fn: MFunction):
        self.fn = fn
        self.known_bits = KnownBitsAnalysis(fn)
        self._use_counts = None

    def masked_value_is_zero(self, v: MValue, mask: int) -> bool:
        """LLVM's MaskedValueIsZero: all bits of *mask* known zero in v."""
        kz, _ = self.known_bits.known(v)
        return (kz & mask) == (mask & intops.mask(v.width))

    def is_power_of_2(self, v: MValue) -> bool:
        if isinstance(v, MConst):
            return builtin_holds("isPowerOf2", [v.value], v.width)
        if isinstance(v, MInstr) and v.opcode == "shl":
            # `shl 1, %s` is a power of two on every defined execution:
            # a shift amount >= width is UB, so s < w and 1 << s is a
            # single set bit.  Any larger power-of-two base can wrap to
            # zero (2 << 3 at i4), so only base == 1 is provable here.
            base = v.operands[0]
            if isinstance(base, MConst) and base.value == 1:
                return True
        kz, ko = self.known_bits.known(v)
        # exactly one bit not known-zero, and that bit known-one
        unknown_or_one = intops.mask(v.width) & ~kz
        return unknown_or_one != 0 and (unknown_or_one & (unknown_or_one - 1)) == 0 \
            and (ko & unknown_or_one) == unknown_or_one

    def has_one_use(self, v: MValue) -> bool:
        if self._use_counts is None:
            self._use_counts = self.fn.use_counts()
        return self._use_counts.get(id(v), 0) == 1

    def sign_bit_known_zero(self, v: MValue) -> bool:
        # the reduced product pushes a non-negative signed range into
        # the sign bit, so asking the range is at least as precise as
        # asking the bit mask directly
        return self.known_bits.abstract(v).sr.lo >= 0

    def will_not_overflow_signed_add(self, a: MValue, b: MValue) -> bool:
        """Signed ranges: the sum of the extremes stays representable."""
        ra = self.known_bits.abstract(a).sr
        rb = self.known_bits.abstract(b).sr
        w = a.width
        lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
        return lo <= ra.lo + rb.lo and ra.hi + rb.hi <= hi
