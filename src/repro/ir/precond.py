"""Precondition predicates (paper §2.3).

A precondition is a Boolean combination of comparisons over constant
expressions and *built-in predicates* that expose LLVM dataflow-analysis
results (``isPowerOf2``, ``MaskedValueIsZero``, ...).

Each built-in carries:

* its arity,
* its *analysis kind*, which drives the SMT encoding (paper §3.1.1):

  - ``PRECISE`` — the predicate is an exact function of its arguments
    and is encoded directly;
  - ``MUST`` — a must-analysis: a fresh Boolean ``p`` is introduced with
    the side constraint ``p ⇒ s`` (when ``p`` holds, the semantic
    condition ``s`` definitely holds, but ``¬p`` tells us nothing).
    When every argument is a compile-time constant the analysis is
    precise in LLVM, so the encoder switches to the exact condition;
  - ``SYNTACTIC`` — structural properties like ``hasOneUse`` that do not
    constrain runtime values at all (encoded as true for verification,
    honored by the pattern matcher).

Every built-in's semantic condition exists twice, once per side of the
fuzzer's cross-check: symbolically in
:func:`repro.core.semantics.builtin_semantic_condition`, which the
verifier proves rules against, and concretely here in
:func:`builtin_holds`, together with the comparisons (:func:`compare`)
and one three-valued connective walker (:func:`evaluate`).  Every
module that decides a precondition on concrete values runs these: the
peephole matcher's compiled preconditions call :func:`builtin_holds`
and :func:`compare`, and the lint constant folder, precondition
inference, the abstract tier's witnesses and the fuzzer's concrete
oracle supply only their own atoms to :func:`evaluate`; a test checks
the two sides agree on every input at widths 1 to 4.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .ast import AliveError, Value
from .intops import binop_poisons, icmp, mask, to_signed

PRECISE = "precise"
MUST = "must"
SYNTACTIC = "syntactic"

# name -> (arity, kind)
BUILTIN_PREDICATES = {
    "isPowerOf2": (1, MUST),
    "isPowerOf2OrZero": (1, MUST),
    "isSignBit": (1, PRECISE),
    "isShiftedMask": (1, PRECISE),
    "MaskedValueIsZero": (2, MUST),
    "WillNotOverflowSignedAdd": (2, MUST),
    "WillNotOverflowUnsignedAdd": (2, MUST),
    "WillNotOverflowSignedSub": (2, MUST),
    "WillNotOverflowUnsignedSub": (2, MUST),
    "WillNotOverflowSignedMul": (2, MUST),
    "WillNotOverflowUnsignedMul": (2, MUST),
    "WillNotOverflowSignedShl": (2, MUST),
    "WillNotOverflowUnsignedShl": (2, MUST),
    "hasOneUse": (1, SYNTACTIC),
    "isConstant": (1, SYNTACTIC),
}

#: precondition comparison -> the icmp condition it means (the plain
#: orderings are signed)
CMP_TO_ICMP = {
    "==": "eq", "!=": "ne",
    "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge",
    "u<": "ult", "u<=": "ule", "u>": "ugt", "u>=": "uge",
}
CMP_OPS = tuple(CMP_TO_ICMP)


def builtin_holds(fn: str, args: Sequence[int], w: int) -> bool:
    """The exact semantic condition *s* of a built-in, concretely.

    *args* are unsigned values of the first argument's width *w*.
    """
    a = args[0] & mask(w)
    if fn == "isPowerOf2":
        return a != 0 and a & (a - 1) == 0
    if fn == "isPowerOf2OrZero":
        return a & (a - 1) & mask(w) == 0
    if fn == "isSignBit":
        return a == 1 << (w - 1)
    if fn == "isShiftedMask":
        filled = a | ((a - 1) & mask(w))
        return a != 0 and filled & ((filled + 1) & mask(w)) == 0
    if fn == "MaskedValueIsZero":
        return a & args[1] & mask(w) == 0
    sa = to_signed(a, w)
    sb = to_signed(args[1], w) if len(args) > 1 else 0
    b = args[1] & mask(w) if len(args) > 1 else 0
    lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
    if fn == "WillNotOverflowSignedAdd":
        return lo <= sa + sb <= hi
    if fn == "WillNotOverflowUnsignedAdd":
        return a + b < (1 << w)
    if fn == "WillNotOverflowSignedSub":
        return lo <= sa - sb <= hi
    if fn == "WillNotOverflowUnsignedSub":
        return a >= b
    if fn == "WillNotOverflowSignedMul":
        return lo <= sa * sb <= hi
    if fn == "WillNotOverflowUnsignedMul":
        return a * b < (1 << w)
    if fn == "WillNotOverflowSignedShl":
        return not binop_poisons("shl", ("nsw",), a, b, w)
    if fn == "WillNotOverflowUnsignedShl":
        return not binop_poisons("shl", ("nuw",), a, b, w)
    raise AliveError("built-in %r has no concrete semantics" % fn)


def compare(op: str, a: int, b: int, w: int) -> bool:
    """A precondition comparison on *w*-bit values."""
    return icmp(CMP_TO_ICMP[op], a, b, w) == 1


class Predicate:
    """Base class for precondition AST nodes.

    ``line``/``col`` are 1-based source coordinates stamped by the
    parser on each node (class-level ``None`` when built in memory), so
    lint findings can point at the exact precondition atom.
    """

    line = None
    col = None

    def children(self) -> Sequence["Predicate"]:
        return ()

    def calls(self) -> List["PredCall"]:
        """All built-in predicate calls in this precondition."""
        out: List[PredCall] = []
        stack: List[Predicate] = [self]
        while stack:
            p = stack.pop()
            if isinstance(p, PredCall):
                out.append(p)
            stack.extend(p.children())
        return out


class PredTrue(Predicate):
    """The trivial precondition (no ``Pre:`` line)."""

    def __str__(self) -> str:
        return "true"


class PredNot(Predicate):
    def __init__(self, p: Predicate):
        self.p = p

    def children(self):
        return (self.p,)

    def __str__(self) -> str:
        return "!%s" % _paren(self.p)


class PredAnd(Predicate):
    def __init__(self, *ps: Predicate):
        self.ps = tuple(ps)

    def children(self):
        return self.ps

    def __str__(self) -> str:
        return " && ".join(_paren(p) for p in self.ps)


class PredOr(Predicate):
    def __init__(self, *ps: Predicate):
        self.ps = tuple(ps)

    def children(self):
        return self.ps

    def __str__(self) -> str:
        return " || ".join(_paren(p) for p in self.ps)


class PredCmp(Predicate):
    """A comparison over constant expressions, e.g. ``C1 u>= C2``."""

    def __init__(self, op: str, a: Value, b: Value):
        if op not in CMP_OPS:
            raise AliveError("unknown comparison operator %r" % op)
        self.op = op
        self.a = a
        self.b = b

    def __str__(self) -> str:
        from .printer import constexpr_str

        return "%s %s %s" % (
            constexpr_str(self.a, True), self.op, constexpr_str(self.b, True)
        )


class PredCall(Predicate):
    """A built-in predicate applied to values, e.g. ``isPowerOf2(C1)``."""

    def __init__(self, fn: str, args: Sequence[Value]):
        info = BUILTIN_PREDICATES.get(fn)
        if info is None:
            raise AliveError("unknown built-in predicate %r" % fn)
        arity, kind = info
        if len(args) != arity:
            raise AliveError(
                "%s expects %d argument(s), got %d" % (fn, arity, len(args))
            )
        self.fn = fn
        self.kind = kind
        self.args = tuple(args)

    def __str__(self) -> str:
        from .printer import constexpr_str

        return "%s(%s)" % (self.fn, ", ".join(constexpr_str(a) for a in self.args))


def evaluate(pred: Predicate,
             atom: Callable[["Predicate"], Optional[bool]]) -> Optional[bool]:
    """Evaluate a precondition's connectives over *atom*'s answers.

    *atom* decides each :class:`PredCmp` and :class:`PredCall` and may
    answer ``None`` (unknown); the connectives follow Kleene's
    three-valued logic.  When *atom* never answers ``None`` this is
    plain Boolean logic that stops at the first false conjunct or true
    disjunct, exactly as ``all``/``any`` would.
    """
    if isinstance(pred, PredTrue):
        return True
    if isinstance(pred, PredNot):
        inner = evaluate(pred.p, atom)
        return None if inner is None else not inner
    if isinstance(pred, (PredAnd, PredOr)):
        decisive = isinstance(pred, PredOr)
        result = not decisive
        for p in pred.ps:
            value = evaluate(p, atom)
            if value is None:
                result = None
            elif value == decisive:
                return decisive
        return result
    if isinstance(pred, (PredCmp, PredCall)):
        return atom(pred)
    raise AliveError("cannot evaluate predicate %r" % (pred,))


def _paren(p: Predicate) -> str:
    s = str(p)
    if isinstance(p, (PredAnd, PredOr)) and (" && " in s or " || " in s):
        return "(%s)" % s
    return s
