"""Abstract transfer functions over :class:`~repro.absint.domains.AbsValue`.

Every function here abstracts the *total* SMT-LIB semantics used by the
encoder (:mod:`repro.core.semantics`): ``bvudiv x 0 = all-ones``,
``bvsdiv x 0 = ±1``, ``bvurem/bvsrem x 0 = x``, shifts saturate at
``amount ≥ width``.  Definedness and poison are *not* part of the value
abstraction — they are separate obligations discharged by
:mod:`repro.absint.prove`, exactly mirroring the ι/δ/ρ split of the
encoder.

The soundness contract, checked by :mod:`repro.absint.selfcheck`:

    for all abstract A, B and concrete x ∈ γ(A), y ∈ γ(B):
        intops.total_binop(op, x, y, w) ∈ γ(transfer_binop(op, A, B))

The concrete side is :mod:`repro.ir.intops`, the one concrete semantics
the interpreter and the optimizer also run; the test suite checks it
against :mod:`repro.smt.eval` on every input at small widths.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..ir import intops
from ..ir.constexpr import apply_op
from ..ir.intops import mask
from .domains import AbsValue, KnownBits, SRange, URange


# ---------------------------------------------------------------------------
# Known-bits helpers
# ---------------------------------------------------------------------------


def _bit_choices(kb: KnownBits, i: int) -> Tuple[int, ...]:
    if (kb.kz >> i) & 1:
        return (0,)
    if (kb.ko >> i) & 1:
        return (1,)
    return (0, 1)


def _bits_add(a: KnownBits, b: KnownBits, carry_in: int) -> KnownBits:
    """Ripple-carry known-bits addition (exact per-bit propagation)."""
    w = a.width
    carries = {carry_in}
    kz = ko = 0
    for i in range(w):
        sums = set()
        outs = set()
        for x in _bit_choices(a, i):
            for y in _bit_choices(b, i):
                for c in carries:
                    s = x + y + c
                    sums.add(s & 1)
                    outs.add(s >> 1)
        if sums == {0}:
            kz |= 1 << i
        elif sums == {1}:
            ko |= 1 << i
        carries = outs
    return KnownBits(w, kz, ko)


def _bits_not(a: KnownBits) -> KnownBits:
    return KnownBits(a.width, a.ko, a.kz)


# ---------------------------------------------------------------------------
# Binary operations
# ---------------------------------------------------------------------------


def transfer_binop(opcode: str, a: AbsValue, b: AbsValue) -> AbsValue:
    """Abstract a binop under the total SMT semantics."""
    w = a.width
    if a.empty or b.empty:
        return AbsValue.bottom(w)
    if a.is_singleton() and b.is_singleton():
        return AbsValue.const(
            intops.total_binop(opcode, a.value(), b.value(), w), w)
    handler = _BINOP_TRANSFERS[opcode]
    return handler(a, b, w)


def _t_add(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    bits = _bits_add(a.bits, b.bits, 0)
    full = mask(w)
    if a.ur.hi + b.ur.hi <= full:
        ur = URange(w, a.ur.lo + b.ur.lo, a.ur.hi + b.ur.hi)
    else:
        ur = URange.top(w)
    slo = a.sr.lo + b.sr.lo
    shi = a.sr.hi + b.sr.hi
    if -(1 << (w - 1)) <= slo and shi <= (1 << (w - 1)) - 1:
        sr = SRange(w, slo, shi)
    else:
        sr = SRange.top(w)
    return AbsValue(bits, ur, sr)


def _t_sub(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    bits = _bits_add(a.bits, _bits_not(b.bits), 1)
    if a.ur.lo >= b.ur.hi:
        ur = URange(w, a.ur.lo - b.ur.hi, a.ur.hi - b.ur.lo)
    else:
        ur = URange.top(w)
    slo = a.sr.lo - b.sr.hi
    shi = a.sr.hi - b.sr.lo
    if -(1 << (w - 1)) <= slo and shi <= (1 << (w - 1)) - 1:
        sr = SRange(w, slo, shi)
    else:
        sr = SRange.top(w)
    return AbsValue(bits, ur, sr)


def _t_mul(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    full = mask(w)
    # low bits: the low k bits of a product depend only on the low k
    # bits of the operands; trailing zeros of the operands add up
    ka = a.bits.trailing_known()
    kb = b.bits.trailing_known()
    k = min(ka, kb)
    kz = ko = 0
    if k:
        low = (a.bits.ko & mask(k)) * (b.bits.ko & mask(k)) & mask(k)
        kz = mask(k) & ~low
        ko = low
    tz = min(a.bits.trailing_zeros() + b.bits.trailing_zeros(), w)
    kz |= mask(tz) & ~ko
    bits = KnownBits(w, kz & full, ko & full)
    if a.ur.hi * b.ur.hi <= full:
        ur = URange(w, a.ur.lo * b.ur.lo, a.ur.hi * b.ur.hi)
    else:
        ur = URange.top(w)
    # signed: a bilinear form attains its extrema at box corners
    corners = [a.sr.lo * b.sr.lo, a.sr.lo * b.sr.hi,
               a.sr.hi * b.sr.lo, a.sr.hi * b.sr.hi]
    if -(1 << (w - 1)) <= min(corners) and max(corners) <= (1 << (w - 1)) - 1:
        sr = SRange(w, min(corners), max(corners))
    else:
        sr = SRange.top(w)
    return AbsValue(bits, ur, sr)


def _t_udiv(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    full = mask(w)
    out = AbsValue.bottom(w)
    if b.contains(0):
        out = out.join(AbsValue.const(full, w))  # bvudiv x 0 = all-ones
    if b.ur.hi >= 1:
        ylo = max(1, b.ur.lo)
        out = out.join(AbsValue.from_urange(
            URange(w, a.ur.lo // b.ur.hi, a.ur.hi // ylo)))
    return out


def _t_sdiv(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    if b.is_singleton() and b.value() == 1:
        return a
    int_min = -(1 << (w - 1))
    int_max = (1 << (w - 1)) - 1
    out = AbsValue.bottom(w)
    if b.contains(0):
        # bvsdiv x 0 = 1 for negative x, -1 otherwise
        out = out.join(AbsValue.from_srange(SRange(w, -1, min(1, int_max))))
    # |q| <= |x| for y != 0 (INT_MIN / -1 truncates back to INT_MIN)
    m = max(-a.sr.lo, a.sr.hi, 0)
    out = out.join(AbsValue.from_srange(
        SRange(w, max(int_min, -m), min(int_max, m))))
    return out


def _t_urem(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    out = AbsValue.bottom(w)
    if b.contains(0):
        out = out.join(a)  # bvurem x 0 = x
    if b.ur.hi >= 1:
        cand = AbsValue.from_urange(
            URange(w, 0, min(a.ur.hi, b.ur.hi - 1)))
        if b.is_singleton():
            p = b.value()
            if p and p & (p - 1) == 0:
                # power-of-two modulus is a bitwise and with p-1
                bits = KnownBits(
                    w,
                    (a.bits.kz & (p - 1)) | (mask(w) & ~(p - 1)),
                    a.bits.ko & (p - 1),
                )
                cand = cand.meet(AbsValue.from_bits(bits))
        out = out.join(cand)
    return out


def _t_srem(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    int_max = (1 << (w - 1)) - 1
    out = AbsValue.bottom(w)
    if b.contains(0):
        out = out.join(a)  # bvsrem x 0 = x
    # y != 0: |r| < |y| and |r| <= |x|; sign follows the dividend
    big = max(-b.sr.lo, b.sr.hi, 1)
    m = min(max(-a.sr.lo, a.sr.hi, 0), big - 1, int_max)
    lo = -m if a.sr.lo < 0 else 0
    hi = m if a.sr.hi > 0 else 0
    out = out.join(AbsValue.from_srange(SRange(w, lo, hi)))
    return out


def _shift_saturated(opcode: str, a: AbsValue, w: int) -> AbsValue:
    """The ``amount >= width`` case: 0 for shl/lshr, sign-fill for ashr."""
    if opcode != "ashr":
        return AbsValue.const(0, w)
    sign = 1 << (w - 1)
    if a.bits.kz & sign or a.sr.lo >= 0:
        return AbsValue.const(0, w)
    if a.bits.ko & sign or a.sr.hi < 0:
        return AbsValue.const(mask(w), w)
    return AbsValue.const(0, w).join(AbsValue.const(mask(w), w))


def _shift_const(opcode: str, a: AbsValue, s: int, w: int) -> AbsValue:
    """Shift by the known in-range amount ``s`` (0 <= s < w)."""
    if s == 0:
        return a
    full = mask(w)
    if opcode == "shl":
        bits = KnownBits(w, ((a.bits.kz << s) | mask(s)) & full,
                         (a.bits.ko << s) & full)
        if a.ur.hi << s <= full:
            ur = URange(w, a.ur.lo << s, a.ur.hi << s)
        else:
            ur = URange.top(w)
        return AbsValue(bits, ur, SRange.top(w))
    if opcode == "lshr":
        bits = KnownBits(w, (a.bits.kz >> s) | (full & ~mask(w - s)),
                         a.bits.ko >> s)
        ur = URange(w, a.ur.lo >> s, a.ur.hi >> s)
        return AbsValue(bits, ur, SRange.top(w))
    # ashr: bit i of the result is bit min(i+s, w-1) of the operand
    kz = ko = 0
    for i in range(w):
        j = min(i + s, w - 1)
        if (a.bits.kz >> j) & 1:
            kz |= 1 << i
        elif (a.bits.ko >> j) & 1:
            ko |= 1 << i
    sr = SRange(w, a.sr.lo >> s, a.sr.hi >> s)
    return AbsValue(KnownBits(w, kz, ko), URange.top(w), sr)


def _t_shift(opcode: str):
    def transfer(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
        out = AbsValue.bottom(w)
        for s in range(max(0, b.ur.lo), min(w - 1, b.ur.hi) + 1):
            if b.contains(s):
                out = out.join(_shift_const(opcode, a, s, w))
        if b.ur.hi >= w:
            out = out.join(_shift_saturated(opcode, a, w))
        return out

    return transfer


def _t_and(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    bits = KnownBits(w, a.bits.kz | b.bits.kz, a.bits.ko & b.bits.ko)
    ur = URange(w, 0, min(a.ur.hi, b.ur.hi))
    return AbsValue(bits, ur, SRange.top(w))


def _t_or(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    bits = KnownBits(w, a.bits.kz & b.bits.kz, a.bits.ko | b.bits.ko)
    hi = min(mask(w), (1 << max(a.ur.hi.bit_length(), b.ur.hi.bit_length())) - 1)
    ur = URange(w, max(a.ur.lo, b.ur.lo), max(hi, max(a.ur.lo, b.ur.lo)))
    return AbsValue(bits, ur, SRange.top(w))


def _t_xor(a: AbsValue, b: AbsValue, w: int) -> AbsValue:
    bits = KnownBits(
        w,
        (a.bits.kz & b.bits.kz) | (a.bits.ko & b.bits.ko),
        (a.bits.kz & b.bits.ko) | (a.bits.ko & b.bits.kz),
    )
    hi = min(mask(w), (1 << max(a.ur.hi.bit_length(), b.ur.hi.bit_length())) - 1)
    ur = URange(w, 0, hi)
    return AbsValue(bits, ur, SRange.top(w))


_BINOP_TRANSFERS = {
    "add": _t_add,
    "sub": _t_sub,
    "mul": _t_mul,
    "udiv": _t_udiv,
    "sdiv": _t_sdiv,
    "urem": _t_urem,
    "srem": _t_srem,
    "shl": _t_shift("shl"),
    "lshr": _t_shift("lshr"),
    "ashr": _t_shift("ashr"),
    "and": _t_and,
    "or": _t_or,
    "xor": _t_xor,
}


# ---------------------------------------------------------------------------
# Comparisons, selects, conversions
# ---------------------------------------------------------------------------


def icmp_decide(cond: str, a: AbsValue, b: AbsValue) -> Optional[bool]:
    """True/False when the comparison is abstractly decided, else None."""
    if a.empty or b.empty:
        return None
    if cond == "eq":
        if a.is_singleton() and b.is_singleton():
            return a.value() == b.value()
        if a.meet(b).empty:
            return False
        return None
    if cond == "ne":
        decided = icmp_decide("eq", a, b)
        return None if decided is None else not decided
    if cond in ("ugt", "uge", "sgt", "sge"):
        flipped = {"ugt": "ult", "uge": "ule", "sgt": "slt", "sge": "sle"}
        return icmp_decide(flipped[cond], b, a)
    if cond == "ult":
        if a.ur.hi < b.ur.lo:
            return True
        if a.ur.lo >= b.ur.hi:
            return False
        return None
    if cond == "ule":
        if a.ur.hi <= b.ur.lo:
            return True
        if a.ur.lo > b.ur.hi:
            return False
        return None
    if cond == "slt":
        if a.sr.hi < b.sr.lo:
            return True
        if a.sr.lo >= b.sr.hi:
            return False
        return None
    if cond == "sle":
        if a.sr.hi <= b.sr.lo:
            return True
        if a.sr.lo > b.sr.hi:
            return False
        return None
    raise ValueError("unknown icmp condition %r" % cond)


def transfer_icmp(cond: str, a: AbsValue, b: AbsValue) -> AbsValue:
    decided = icmp_decide(cond, a, b)
    if decided is None:
        return AbsValue.top(1)
    return AbsValue.const(1 if decided else 0, 1)


def transfer_select(c: AbsValue, a: AbsValue, b: AbsValue) -> AbsValue:
    if c.is_singleton():
        return a if c.value() == 1 else b
    return a.join(b)


def conv_kind(opcode: str, w_in: int, w_out: int) -> str:
    """The :func:`repro.ir.intops.convert` kind an integer conversion
    computes: ``sext`` stays itself, every other cast (``bitcast``,
    ``ptrtoint``, ``inttoptr`` included) is a zext or trunc by width."""
    if opcode == "sext":
        return "sext"
    return "zext" if w_out >= w_in else "trunc"


def transfer_conv(opcode: str, a: AbsValue, w_out: int) -> AbsValue:
    """zext / sext / trunc plus the width-adjusting pointer casts
    (``bitcast``/``ptrtoint``/``inttoptr`` reduce to these by width)."""
    w_in = a.width
    if a.empty:
        return AbsValue.bottom(w_out)
    if w_out == w_in:
        return a
    if a.is_singleton():
        return AbsValue.const(intops.convert(
            conv_kind(opcode, w_in, w_out), a.value(), w_in, w_out), w_out)
    if w_out > w_in and opcode == "sext":
        high = mask(w_out) & ~mask(w_in)
        sign = 1 << (w_in - 1)
        kz, ko = a.bits.kz, a.bits.ko
        if kz & sign:
            kz |= high
        elif ko & sign:
            ko |= high
        bits = KnownBits(w_out, kz, ko)
        sr = SRange(w_out, a.sr.lo, a.sr.hi)
        return AbsValue(bits, URange.top(w_out), sr)
    if w_out > w_in:
        # zext (and the widening pointer casts: zero-extension by width)
        full_out = mask(w_out)
        bits = KnownBits(w_out, a.bits.kz | (full_out & ~mask(w_in)), a.bits.ko)
        ur = URange(w_out, a.ur.lo, a.ur.hi)
        sr = SRange(w_out, a.ur.lo, a.ur.hi)
        return AbsValue(bits, ur, sr)
    # narrowing: trunc (and the narrowing pointer casts)
    low = mask(w_out)
    bits = KnownBits(w_out, a.bits.kz & low, a.bits.ko & low)
    if a.ur.hi <= low:
        ur = URange(w_out, a.ur.lo, a.ur.hi)
    else:
        ur = URange.top(w_out)
    int_min = -(1 << (w_out - 1))
    int_max = (1 << (w_out - 1)) - 1
    if int_min <= a.sr.lo and a.sr.hi <= int_max:
        sr = SRange(w_out, a.sr.lo, a.sr.hi)
    else:
        sr = SRange.top(w_out)
    return AbsValue(bits, ur, sr)


# ---------------------------------------------------------------------------
# Constant-expression operators (beyond the shared binops)
# ---------------------------------------------------------------------------


def transfer_constexpr(op: str, args, width: int) -> AbsValue:
    """Abstract the unary/function constant-expression operators."""
    w = width
    if any(a.empty for a in args):
        return AbsValue.bottom(w)
    if op == "neg":
        return transfer_binop("sub", AbsValue.const(0, w), args[0])
    if op == "not":
        return transfer_binop("xor", AbsValue.const(mask(w), w), args[0])
    if op in _BINOP_TRANSFERS:
        return transfer_binop(op, args[0], args[1])
    a = args[0]
    int_min = -(1 << (w - 1))
    int_max = (1 << (w - 1)) - 1
    if op == "abs":
        if a.is_singleton():
            return AbsValue.const(apply_op(op, [a.value()], w), w)
        if a.sr.lo > int_min:
            m = max(-a.sr.lo, a.sr.hi, 0)
            return AbsValue.from_srange(SRange(w, 0, min(m, int_max)))
        return AbsValue.top(w)
    if op == "log2":
        hi = max(0, a.ur.hi.bit_length() - 1)
        return AbsValue.from_urange(URange(w, 0, min(hi, mask(w))))
    if op == "umax":
        b = args[1]
        return AbsValue.from_urange(
            URange(w, max(a.ur.lo, b.ur.lo), max(a.ur.hi, b.ur.hi)))
    if op == "umin":
        b = args[1]
        return AbsValue.from_urange(
            URange(w, min(a.ur.lo, b.ur.lo), min(a.ur.hi, b.ur.hi)))
    if op == "smax":
        b = args[1]
        return AbsValue.from_srange(
            SRange(w, max(a.sr.lo, b.sr.lo), max(a.sr.hi, b.sr.hi)))
    if op == "smin":
        b = args[1]
        return AbsValue.from_srange(
            SRange(w, min(a.sr.lo, b.sr.lo), min(a.sr.hi, b.sr.hi)))
    raise ValueError("unknown constant-expression op %r" % op)
