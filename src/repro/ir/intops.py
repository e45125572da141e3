"""Concrete two's-complement integer operation semantics.

The one concrete implementation of the instruction semantics, used by
the IR interpreter, the baseline optimizer's constant folder, the
constant-expression evaluator, the precondition built-ins of
:mod:`repro.ir.precond` and the fuzzer's concrete refinement oracle.
The test suite cross-checks it against the SMT semantics of
:mod:`repro.core.semantics` and :mod:`repro.smt.terms`.

All functions take/return unsigned representatives in ``[0, 2^w)``.
:func:`total_binop` is the SMT-LIB totalization, defined everywhere;
:func:`defined` is Table 1 and :func:`binop_poisons` Table 2 of the
paper; :func:`binop` raises :class:`UndefinedBehavior` where Table 1
says the operation has no defined result.
"""

from __future__ import annotations


class UndefinedBehavior(Exception):
    """Raised by the interpreter when an operation has no defined result."""


def mask(w: int) -> int:
    return (1 << w) - 1


def to_signed(x: int, w: int) -> int:
    x &= mask(w)
    return x - (1 << w) if x >= 1 << (w - 1) else x


def total_binop(op: str, a: int, b: int, w: int) -> int:
    """The SMT-LIB totalization of a binop (defined on all inputs)."""
    a &= mask(w)
    b &= mask(w)
    if op == "add":
        return (a + b) & mask(w)
    if op == "sub":
        return (a - b) & mask(w)
    if op == "mul":
        return (a * b) & mask(w)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "udiv":
        return mask(w) if b == 0 else a // b
    if op == "urem":
        return a if b == 0 else a % b
    if op == "sdiv":
        sa, sb = to_signed(a, w), to_signed(b, w)
        if sb == 0:
            return (1 if sa < 0 else -1) & mask(w)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return q & mask(w)
    if op == "srem":
        sa, sb = to_signed(a, w), to_signed(b, w)
        if sb == 0:
            return sa & mask(w)
        r = abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & mask(w)
    if op == "shl":
        return 0 if b >= w else (a << b) & mask(w)
    if op == "lshr":
        return 0 if b >= w else a >> b
    if op == "ashr":
        sa = to_signed(a, w)
        if b >= w:
            return mask(w) if sa < 0 else 0
        return (sa >> b) & mask(w)
    raise ValueError("unknown binop %r" % op)


def defined(op: str, a: int, b: int, w: int) -> bool:
    """Table 1: whether the operation has defined behavior on (a, b)."""
    if op in ("udiv", "urem"):
        return b != 0
    if op in ("sdiv", "srem"):
        return b != 0 and not (a == 1 << (w - 1) and b == mask(w))
    if op in ("shl", "lshr", "ashr"):
        return b < w
    return True


def binop(op: str, a: int, b: int, w: int) -> int:
    """Evaluate a defined binop; raises UndefinedBehavior per Table 1."""
    a &= mask(w)
    b &= mask(w)
    if not defined(op, a, b, w):
        raise UndefinedBehavior("%s %d, %d is undefined at i%d"
                                % (op, a, b, w))
    return total_binop(op, a, b, w)


def binop_poisons(op: str, flags, a: int, b: int, w: int) -> bool:
    """Table 2: whether the flagged operation produces poison.

    Agrees with ``POISON_CONDITIONS`` in :mod:`repro.core.semantics` on
    *all* inputs: where the operation is undefined (shift amounts ≥
    width, division by zero) the conditions are stated over
    :func:`total_binop`, exactly as the SMT formulas are.  A flag
    without a Table 2 row never poisons, as in the encoder.
    """
    for flag in flags:
        if not _poison_free(op, flag, a, b, w):
            return True
    return False


def _poison_free(op: str, flag: str, a: int, b: int, w: int) -> bool:
    if (op, flag) == ("add", "nuw"):
        return a + b < (1 << w)
    if (op, flag) == ("sub", "nuw"):
        return a >= b
    if (op, flag) == ("mul", "nuw"):
        return a * b < (1 << w)
    lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
    if (op, flag) == ("add", "nsw"):
        return lo <= to_signed(a, w) + to_signed(b, w) <= hi
    if (op, flag) == ("sub", "nsw"):
        return lo <= to_signed(a, w) - to_signed(b, w) <= hi
    if (op, flag) == ("mul", "nsw"):
        return lo <= to_signed(a, w) * to_signed(b, w) <= hi
    if (op, flag) == ("shl", "nsw"):
        return total_binop("ashr", total_binop("shl", a, b, w), b, w) == a
    if (op, flag) == ("shl", "nuw"):
        return total_binop("lshr", total_binop("shl", a, b, w), b, w) == a
    if (op, flag) == ("sdiv", "exact"):
        return total_binop("mul", total_binop("sdiv", a, b, w), b, w) == a
    if (op, flag) == ("udiv", "exact"):
        return total_binop("mul", total_binop("udiv", a, b, w), b, w) == a
    if (op, flag) == ("ashr", "exact"):
        return total_binop("shl", total_binop("ashr", a, b, w), b, w) == a
    if (op, flag) == ("lshr", "exact"):
        return total_binop("shl", total_binop("lshr", a, b, w), b, w) == a
    return True


def icmp(cond: str, a: int, b: int, w: int) -> int:
    a &= mask(w)
    b &= mask(w)
    sa, sb = to_signed(a, w), to_signed(b, w)
    table = {
        "eq": a == b,
        "ne": a != b,
        "ugt": a > b,
        "uge": a >= b,
        "ult": a < b,
        "ule": a <= b,
        "sgt": sa > sb,
        "sge": sa >= sb,
        "slt": sa < sb,
        "sle": sa <= sb,
    }
    return int(table[cond])


def convert(op: str, x: int, src_w: int, dst_w: int) -> int:
    x &= mask(src_w)
    if op == "zext":
        return x
    if op == "sext":
        return to_signed(x, src_w) & mask(dst_w)
    if op == "trunc":
        return x & mask(dst_w)
    raise ValueError("unknown conversion %r" % op)
