"""The constant-expression language (paper §2.2).

Preconditions and target templates may compute new compile-time
constants from abstract ones: ``C-1``, ``C2 / (1 << C1)``, ``log2(C1)``,
``C1 ^ C2`` and so on.  A :class:`ConstExpr` node is a
:class:`~repro.ir.ast.Value`, so it can appear anywhere an operand can.

Binary operators are signed by default (``/`` and ``%`` are ``sdiv`` /
``srem``); unsigned variants are spelled ``/u`` and ``%u`` as in the
original Alive.  ``>>`` is a logical shift right (``u>>`` is accepted as
an alias); ``>>a`` selects the arithmetic shift.

Built-in functions (a subset of the original's, covering the corpus):

====================  =====================================================
``abs(a)``            two's-complement absolute value
``log2(a)``           floor of the base-2 logarithm (0 for input 0)
``width(v)``          bit width of *v*'s type (a literal after typing)
``umax/umin(a, b)``   unsigned maximum / minimum
``smax/smin(a, b)``   signed maximum / minimum
====================  =====================================================

The SMT encoding of these expressions lives in
:mod:`repro.core.semantics`; concrete evaluation (for the optimizer's
rewriter) in :func:`eval_constexpr`.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from .ast import AliveError, ConstantSymbol, Literal, Value
from .intops import mask, to_signed, total_binop

# Binary operator surface syntax -> canonical op tag
BINOP_TOKENS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "sdiv",
    "/u": "udiv",
    "%": "srem",
    "%u": "urem",
    "<<": "shl",
    ">>": "lshr",
    "u>>": "lshr",
    ">>a": "ashr",
    "&": "and",
    "|": "or",
    "^": "xor",
}

UNOP_TOKENS = {"-": "neg", "~": "not"}

# binary operators evaluate as the instructions' SMT-LIB totalizations
_BINOPS = frozenset(BINOP_TOKENS.values())

FUNCTIONS: Dict[str, int] = {
    "abs": 1,
    "log2": 1,
    "width": 1,
    "umax": 2,
    "umin": 2,
    "smax": 2,
    "smin": 2,
}


class ConstExpr(Value):
    """An operator or function applied to constant expressions."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Sequence[Value]):
        super().__init__("(%s %s)" % (op, " ".join(a.name for a in args)), None)
        self.op = op
        self.args = tuple(args)

    def operands(self) -> Tuple[Value, ...]:
        return self.args


def is_constant_value(v: Value) -> bool:
    """True if *v* is a compile-time constant expression.

    ``width`` applied to any value is compile-time too, since the width
    is fixed once types are assigned.
    """
    if isinstance(v, (Literal, ConstantSymbol)):
        return True
    if isinstance(v, ConstExpr):
        if v.op == "width":
            return True
        return all(is_constant_value(a) for a in v.args)
    return False


# ---------------------------------------------------------------------------
# Concrete evaluation (used by the rewriting engine)
# ---------------------------------------------------------------------------


def _floor_log2(x: int) -> int:
    return x.bit_length() - 1 if x > 0 else 0


def eval_constexpr(expr: Value, width: int,
                   lookup: Callable[[Value], int]) -> int:
    """Evaluate a constant expression to an unsigned value at *width*.

    *lookup* resolves :class:`ConstantSymbol` leaves (and, for ``width``,
    the bit width of an arbitrary value's type).
    """
    if isinstance(expr, Literal):
        return expr.value & mask(width)
    if isinstance(expr, ConstantSymbol):
        return lookup(expr) & mask(width)
    if not isinstance(expr, ConstExpr):
        raise AliveError("not a constant expression: %r" % (expr,))

    op = expr.op
    if op == "width":
        return lookup(expr) & mask(width)  # resolved by the caller

    vals = [eval_constexpr(a, width, lookup) for a in expr.args]
    if op == "neg":
        return (-vals[0]) & mask(width)
    if op == "not":
        return (~vals[0]) & mask(width)
    if op in _BINOPS:
        return total_binop(op, vals[0], vals[1], width)
    if op == "abs":
        s = to_signed(vals[0], width)
        return (-s if s < 0 else s) & mask(width)
    if op == "log2":
        return _floor_log2(vals[0]) & mask(width)
    if op == "umax":
        return max(vals[0], vals[1])
    if op == "umin":
        return min(vals[0], vals[1])
    if op == "smax":
        return max(vals, key=lambda v: to_signed(v, width))
    if op == "smin":
        return min(vals, key=lambda v: to_signed(v, width))
    raise AliveError("unknown constant-expression op %r" % op)
