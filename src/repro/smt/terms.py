"""Hash-consed SMT term DAG for the Bool + fixed-width BitVec fragment.

This module is the foundation of the reproduction's SMT substrate (the
original Alive delegates to Z3; we build the solver ourselves).  Terms are
immutable and hash-consed: structurally equal terms are the same Python
object, which makes equality checks O(1) and lets the bit-blaster memoize
on identity.

Construction performs light algebraic simplification (constant folding,
neutral/absorbing elements, double negation) so that the formulas shipped
to the SAT backend stay small.  The simplifier is deliberately local; the
heavier rewrites live in :mod:`repro.smt.simplify`.

The semantics of every operation follows SMT-LIB (which is also what Z3
implements), including the totalization of division by zero:
``bvudiv x 0 = all-ones`` and ``bvurem x 0 = x``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple
from zlib import crc32 as _crc32

from .sorts import BOOL, BitVecSort, Sort, is_bool, is_bv

# ---------------------------------------------------------------------------
# Operation tags
# ---------------------------------------------------------------------------

# Nullary
OP_TRUE = "true"
OP_FALSE = "false"
OP_BVCONST = "bvconst"
OP_VAR = "var"

# Boolean connectives
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_XOR_BOOL = "xorb"
OP_IMPLIES = "=>"

# Polymorphic
OP_EQ = "="
OP_ITE = "ite"

# Bitvector arithmetic / logic
OP_BVNOT = "bvnot"
OP_BVNEG = "bvneg"
OP_BVADD = "bvadd"
OP_BVSUB = "bvsub"
OP_BVMUL = "bvmul"
OP_BVUDIV = "bvudiv"
OP_BVSDIV = "bvsdiv"
OP_BVUREM = "bvurem"
OP_BVSREM = "bvsrem"
OP_BVSHL = "bvshl"
OP_BVLSHR = "bvlshr"
OP_BVASHR = "bvashr"
OP_BVAND = "bvand"
OP_BVOR = "bvor"
OP_BVXOR = "bvxor"

# Structural
OP_CONCAT = "concat"
OP_EXTRACT = "extract"
OP_ZEXT = "zero_extend"
OP_SEXT = "sign_extend"

# Comparisons (BV -> Bool)
OP_ULT = "bvult"
OP_ULE = "bvule"
OP_SLT = "bvslt"
OP_SLE = "bvsle"

COMMUTATIVE_OPS = frozenset(
    {OP_AND, OP_OR, OP_XOR_BOOL, OP_EQ, OP_BVADD, OP_BVMUL, OP_BVAND, OP_BVOR, OP_BVXOR}
)

# ---------------------------------------------------------------------------
# Content keys.  Commutative constructors put their operands in a canonical
# order so that ``a+b`` and ``b+a`` intern to one node.  The order must be a
# function of term *content* only: anything address- or hash-seed-based
# (``id()``, the built-in ``hash`` of strings) varies with allocation
# history, so a warm worker process whose term table was populated by
# earlier jobs would canonicalize the same rule differently than a cold
# one — semantically equal but structurally different queries, different
# solver trajectories, different counterexample models, and warm/cold
# worker parity breaks.  Every term therefore carries a 64-bit key mixed
# from its op, sort, payload and its children's keys via CRC32 (stable
# across processes, unlike seeded string hashes).  Key ties keep the
# caller's operand order, which is itself content-deterministic.
# ---------------------------------------------------------------------------

_CKEY_MASK = (1 << 64) - 1
_CKEY_PRIME = 0x100000001B3
_OP_CKEYS: Dict[str, int] = {}


def _content_key(op, sort, args, data) -> int:
    h = _OP_CKEYS.get(op)
    if h is None:
        h = _crc32(op.encode()) ^ 0x9E3779B97F4A7C15
        _OP_CKEYS[op] = h
    h = (h * _CKEY_PRIME + (sort.width + 2 if sort is not BOOL else 1)) \
        & _CKEY_MASK
    if data is not None:
        if type(data) is int:
            d = data
        elif type(data) is str:
            d = _crc32(data.encode())
        else:  # extract's (hi, lo)
            d = data[0] * 131071 + data[1]
        h = (h * _CKEY_PRIME + (d & _CKEY_MASK) + 1) & _CKEY_MASK
    for a in args:
        h = (h * _CKEY_PRIME + a._ckey) & _CKEY_MASK
    return h


class Term:
    """An immutable, hash-consed SMT term.

    Attributes:
        op: operation tag (one of the ``OP_*`` constants).
        sort: the term's sort.
        args: child terms.
        data: op-specific payload — the value of a constant, the name of a
            variable, or the ``(hi, lo)`` pair of an extract.
    """

    __slots__ = ("op", "sort", "args", "data", "_hash", "_ckey")

    _table: Dict[tuple, "Term"] = {}

    def __new__(cls, op: str, sort: Sort, args: Tuple["Term", ...] = (), data=None):
        key = (op, sort, tuple(id(a) for a in args), data)
        inst = cls._table.get(key)
        if inst is None:
            inst = object.__new__(cls)
            inst.op = op
            inst.sort = sort
            inst.args = tuple(args)
            inst.data = data
            inst._hash = hash(key)
            inst._ckey = _content_key(op, sort, args, data)
            cls._table[key] = inst
        return inst

    def __hash__(self) -> int:
        return self._hash

    # Hash-consing makes structural equality identity; inherit object.__eq__.

    @property
    def width(self) -> int:
        """Width of a bitvector term (raises for Boolean terms)."""
        if not is_bv(self.sort):
            raise TypeError("term %s has no width (sort %s)" % (self, self.sort))
        return self.sort.width

    def is_const(self) -> bool:
        """True for Boolean and bitvector literals."""
        return self.op in (OP_TRUE, OP_FALSE, OP_BVCONST)

    def is_true(self) -> bool:
        return self.op == OP_TRUE

    def is_false(self) -> bool:
        return self.op == OP_FALSE

    def const_value(self) -> int:
        """The integer value of a constant term (Bool maps to 0/1)."""
        if self.op == OP_BVCONST:
            return self.data
        if self.op == OP_TRUE:
            return 1
        if self.op == OP_FALSE:
            return 0
        raise ValueError("not a constant term: %s" % (self,))

    def __str__(self) -> str:
        from .printer import term_to_str

        return term_to_str(self)

    def __repr__(self) -> str:
        return "Term(%s)" % term_brief(self)


def term_brief(t: Term, depth: int = 3) -> str:
    """A short, depth-bounded rendering used in reprs and error messages."""
    if t.op == OP_VAR:
        return t.data
    if t.op == OP_BVCONST:
        return "#x%0*x" % ((t.width + 3) // 4, t.data)
    if t.op in (OP_TRUE, OP_FALSE):
        return t.op
    if depth <= 0:
        return "(%s ...)" % t.op
    inner = " ".join(term_brief(a, depth - 1) for a in t.args)
    return "(%s %s)" % (t.op, inner)


# ---------------------------------------------------------------------------
# Integer helpers (two's complement at a given width)
# ---------------------------------------------------------------------------


def mask(width: int) -> int:
    """All-ones value at *width*."""
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Reduce *value* modulo 2**width into the canonical [0, 2^w) range."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret the unsigned *value* as a two's complement signed integer."""
    value = truncate(value, width)
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def min_signed(width: int) -> int:
    """INT_MIN at *width* as an unsigned bit pattern."""
    return 1 << (width - 1)


def max_signed(width: int) -> int:
    """INT_MAX at *width* as an unsigned bit pattern."""
    return (1 << (width - 1)) - 1


# ---------------------------------------------------------------------------
# Leaf constructors
# ---------------------------------------------------------------------------

TRUE = Term(OP_TRUE, BOOL)
FALSE = Term(OP_FALSE, BOOL)


def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


def bv_const(value: int, width: int) -> Term:
    """A bitvector literal; the value is truncated into range."""
    return Term(OP_BVCONST, BitVecSort(width), (), truncate(value, width))


def bool_var(name: str) -> Term:
    return Term(OP_VAR, BOOL, (), name)


def bv_var(name: str, width: int) -> Term:
    return Term(OP_VAR, BitVecSort(width), (), name)


def var(name: str, sort: Sort) -> Term:
    return Term(OP_VAR, sort, (), name)


def is_var(t: Term) -> bool:
    return t.op == OP_VAR


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def not_(a: Term) -> Term:
    if not is_bool(a.sort):
        raise TypeError("not_ expects Bool, got %s" % a.sort)
    if a.is_true():
        return FALSE
    if a.is_false():
        return TRUE
    if a.op == OP_NOT:
        return a.args[0]
    return Term(OP_NOT, BOOL, (a,))


def _flatten(op: str, terms: Iterable[Term]):
    for t in terms:
        if t.op == op:
            yield from t.args
        else:
            yield t


def and_(*terms: Term) -> Term:
    """N-ary conjunction with flattening, absorption and deduplication."""
    out = []
    seen = set()
    for t in _flatten(OP_AND, terms):
        if not is_bool(t.sort):
            raise TypeError("and_ expects Bool, got %s" % t.sort)
        if t.is_false():
            return FALSE
        if t.is_true() or t in seen:
            continue
        seen.add(t)
        out.append(t)
    for t in out:
        if not_(t) in seen:
            return FALSE
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return Term(OP_AND, BOOL, tuple(out))


def or_(*terms: Term) -> Term:
    """N-ary disjunction with flattening, absorption and deduplication."""
    out = []
    seen = set()
    for t in _flatten(OP_OR, terms):
        if not is_bool(t.sort):
            raise TypeError("or_ expects Bool, got %s" % t.sort)
        if t.is_true():
            return TRUE
        if t.is_false() or t in seen:
            continue
        seen.add(t)
        out.append(t)
    for t in out:
        if not_(t) in seen:
            return TRUE
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Term(OP_OR, BOOL, tuple(out))


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def xor_bool(a: Term, b: Term) -> Term:
    if a.is_const() and b.is_const():
        return bool_const(a.const_value() != b.const_value())
    if a.is_false():
        return b
    if b.is_false():
        return a
    if a.is_true():
        return not_(b)
    if b.is_true():
        return not_(a)
    if a is b:
        return FALSE
    if a._ckey > b._ckey:
        a, b = b, a
    return Term(OP_XOR_BOOL, BOOL, (a, b))


def iff(a: Term, b: Term) -> Term:
    return not_(xor_bool(a, b))


# ---------------------------------------------------------------------------
# Polymorphic
# ---------------------------------------------------------------------------


def eq(a: Term, b: Term) -> Term:
    if a.sort is not b.sort:
        raise TypeError("eq between different sorts: %s vs %s" % (a.sort, b.sort))
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return bool_const(a.const_value() == b.const_value())
    if is_bool(a.sort):
        return iff(a, b)
    if a._ckey > b._ckey:
        a, b = b, a
    return Term(OP_EQ, BOOL, (a, b))


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ite(c: Term, a: Term, b: Term) -> Term:
    if not is_bool(c.sort):
        raise TypeError("ite condition must be Bool, got %s" % c.sort)
    if a.sort is not b.sort:
        raise TypeError("ite arms differ in sort: %s vs %s" % (a.sort, b.sort))
    if c.is_true():
        return a
    if c.is_false():
        return b
    if a is b:
        return a
    if is_bool(a.sort):
        if a.is_true() and b.is_false():
            return c
        if a.is_false() and b.is_true():
            return not_(c)
        return or_(and_(c, a), and_(not_(c), b))
    return Term(OP_ITE, a.sort, (c, a, b))


# ---------------------------------------------------------------------------
# Bitvector constructors
# ---------------------------------------------------------------------------


def _bv_binop_check(a: Term, b: Term, opname: str) -> int:
    if not is_bv(a.sort) or not is_bv(b.sort):
        raise TypeError("%s expects bitvectors" % opname)
    if a.sort is not b.sort:
        raise TypeError(
            "%s width mismatch: %d vs %d" % (opname, a.width, b.width)
        )
    return a.width


def bvnot(a: Term) -> Term:
    if a.op == OP_BVCONST:
        return bv_const(~a.data, a.width)
    if a.op == OP_BVNOT:
        return a.args[0]
    return Term(OP_BVNOT, a.sort, (a,))


def bvneg(a: Term) -> Term:
    if a.op == OP_BVCONST:
        return bv_const(-a.data, a.width)
    if a.op == OP_BVNEG:
        return a.args[0]
    return Term(OP_BVNEG, a.sort, (a,))


def _fold2(op: str, a: Term, b: Term, fn) -> Optional[Term]:
    if a.op == OP_BVCONST and b.op == OP_BVCONST:
        return bv_const(fn(a.data, b.data, a.width), a.width)
    return None


def _canon2(a: Term, b: Term) -> Tuple[Term, Term]:
    """Canonical argument order for commutative ops (constants last)."""
    if a.op == OP_BVCONST and b.op != OP_BVCONST:
        return b, a
    if b.op == OP_BVCONST:
        return a, b
    if a._ckey > b._ckey:
        return b, a
    return a, b


def bvadd(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvadd")
    folded = _fold2(OP_BVADD, a, b, lambda x, y, _w: x + y)
    if folded is not None:
        return folded
    a, b = _canon2(a, b)
    if b.op == OP_BVCONST and b.data == 0:
        return a
    return Term(OP_BVADD, BitVecSort(w), (a, b))


def bvsub(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvsub")
    folded = _fold2(OP_BVSUB, a, b, lambda x, y, _w: x - y)
    if folded is not None:
        return folded
    if b.op == OP_BVCONST and b.data == 0:
        return a
    if a is b:
        return bv_const(0, w)
    return Term(OP_BVSUB, BitVecSort(w), (a, b))


def bvmul(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvmul")
    folded = _fold2(OP_BVMUL, a, b, lambda x, y, _w: x * y)
    if folded is not None:
        return folded
    a, b = _canon2(a, b)
    if b.op == OP_BVCONST:
        if b.data == 0:
            return bv_const(0, w)
        if b.data == 1:
            return a
    return Term(OP_BVMUL, BitVecSort(w), (a, b))


def _udiv_val(x: int, y: int, w: int) -> int:
    return mask(w) if y == 0 else x // y


def _urem_val(x: int, y: int, w: int) -> int:
    return x if y == 0 else x % y


def _sdiv_val(x: int, y: int, w: int) -> int:
    # SMT-LIB bvsdiv: truncated (round toward zero) signed division;
    # division by zero yields 1 if dividend negative else -1... per
    # SMT-LIB it is defined via bvudiv on magnitudes: x/0 = -1 for x >= 0
    # and 1 for x < 0.
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return truncate(1 if sx < 0 else -1, w)
    q = abs(sx) // abs(sy)
    if (sx < 0) != (sy < 0):
        q = -q
    return truncate(q, w)


def _srem_val(x: int, y: int, w: int) -> int:
    # Remainder has the sign of the dividend; rem by zero yields dividend.
    sx, sy = to_signed(x, w), to_signed(y, w)
    if sy == 0:
        return truncate(sx, w)
    r = abs(sx) % abs(sy)
    if sx < 0:
        r = -r
    return truncate(r, w)


def _shl_val(x: int, y: int, w: int) -> int:
    return 0 if y >= w else truncate(x << y, w)


def _lshr_val(x: int, y: int, w: int) -> int:
    return 0 if y >= w else x >> y


def _ashr_val(x: int, y: int, w: int) -> int:
    sx = to_signed(x, w)
    if y >= w:
        return mask(w) if sx < 0 else 0
    return truncate(sx >> y, w)


def bvudiv(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvudiv")
    folded = _fold2(OP_BVUDIV, a, b, _udiv_val)
    if folded is not None:
        return folded
    if b.op == OP_BVCONST and b.data == 1:
        return a
    return Term(OP_BVUDIV, BitVecSort(w), (a, b))


def bvsdiv(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvsdiv")
    folded = _fold2(OP_BVSDIV, a, b, _sdiv_val)
    if folded is not None:
        return folded
    if b.op == OP_BVCONST and b.data == 1:
        return a
    return Term(OP_BVSDIV, BitVecSort(w), (a, b))


def bvurem(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvurem")
    folded = _fold2(OP_BVUREM, a, b, _urem_val)
    if folded is not None:
        return folded
    return Term(OP_BVUREM, BitVecSort(w), (a, b))


def bvsrem(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvsrem")
    folded = _fold2(OP_BVSREM, a, b, _srem_val)
    if folded is not None:
        return folded
    return Term(OP_BVSREM, BitVecSort(w), (a, b))


def bvshl(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvshl")
    folded = _fold2(OP_BVSHL, a, b, _shl_val)
    if folded is not None:
        return folded
    if b.op == OP_BVCONST and b.data == 0:
        return a
    return Term(OP_BVSHL, BitVecSort(w), (a, b))


def bvlshr(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvlshr")
    folded = _fold2(OP_BVLSHR, a, b, _lshr_val)
    if folded is not None:
        return folded
    if b.op == OP_BVCONST and b.data == 0:
        return a
    return Term(OP_BVLSHR, BitVecSort(w), (a, b))


def bvashr(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvashr")
    folded = _fold2(OP_BVASHR, a, b, _ashr_val)
    if folded is not None:
        return folded
    if b.op == OP_BVCONST and b.data == 0:
        return a
    return Term(OP_BVASHR, BitVecSort(w), (a, b))


def bvand(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvand")
    folded = _fold2(OP_BVAND, a, b, lambda x, y, _w: x & y)
    if folded is not None:
        return folded
    a, b = _canon2(a, b)
    if a is b:
        return a
    if b.op == OP_BVCONST:
        if b.data == 0:
            return bv_const(0, w)
        if b.data == mask(w):
            return a
    return Term(OP_BVAND, BitVecSort(w), (a, b))


def bvor(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvor")
    folded = _fold2(OP_BVOR, a, b, lambda x, y, _w: x | y)
    if folded is not None:
        return folded
    a, b = _canon2(a, b)
    if a is b:
        return a
    if b.op == OP_BVCONST:
        if b.data == 0:
            return a
        if b.data == mask(w):
            return bv_const(mask(w), w)
    return Term(OP_BVOR, BitVecSort(w), (a, b))


def bvxor(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvxor")
    folded = _fold2(OP_BVXOR, a, b, lambda x, y, _w: x ^ y)
    if folded is not None:
        return folded
    a, b = _canon2(a, b)
    if a is b:
        return bv_const(0, w)
    if b.op == OP_BVCONST:
        if b.data == 0:
            return a
        if b.data == mask(w):
            return bvnot(a)
    return Term(OP_BVXOR, BitVecSort(w), (a, b))


# ---------------------------------------------------------------------------
# Structural bitvector ops
# ---------------------------------------------------------------------------


def concat(hi: Term, lo: Term) -> Term:
    """Concatenation; *hi* supplies the most significant bits."""
    if not is_bv(hi.sort) or not is_bv(lo.sort):
        raise TypeError("concat expects bitvectors")
    w = hi.width + lo.width
    if hi.op == OP_BVCONST and lo.op == OP_BVCONST:
        return bv_const((hi.data << lo.width) | lo.data, w)
    return Term(OP_CONCAT, BitVecSort(w), (hi, lo))


def extract(a: Term, hi: int, lo: int) -> Term:
    """Bits ``hi..lo`` inclusive (SMT-LIB ``(_ extract hi lo)``)."""
    if not is_bv(a.sort):
        raise TypeError("extract expects a bitvector")
    if not (0 <= lo <= hi < a.width):
        raise ValueError(
            "bad extract range [%d:%d] on width %d" % (hi, lo, a.width)
        )
    if lo == 0 and hi == a.width - 1:
        return a
    w = hi - lo + 1
    if a.op == OP_BVCONST:
        return bv_const(a.data >> lo, w)
    if a.op == OP_EXTRACT:
        inner_lo = a.data[1]
        return extract(a.args[0], inner_lo + hi, inner_lo + lo)
    return Term(OP_EXTRACT, BitVecSort(w), (a,), (hi, lo))


def zext(a: Term, extra: int) -> Term:
    """Zero-extend by *extra* bits."""
    if extra < 0:
        raise ValueError("negative extension")
    if extra == 0:
        return a
    if a.op == OP_BVCONST:
        return bv_const(a.data, a.width + extra)
    return Term(OP_ZEXT, BitVecSort(a.width + extra), (a,), extra)


def sext(a: Term, extra: int) -> Term:
    """Sign-extend by *extra* bits."""
    if extra < 0:
        raise ValueError("negative extension")
    if extra == 0:
        return a
    if a.op == OP_BVCONST:
        return bv_const(to_signed(a.data, a.width), a.width + extra)
    return Term(OP_SEXT, BitVecSort(a.width + extra), (a,), extra)


def zext_to(a: Term, width: int) -> Term:
    """Zero-extend *a* up to exactly *width* bits."""
    return zext(a, width - a.width)


def sext_to(a: Term, width: int) -> Term:
    """Sign-extend *a* up to exactly *width* bits."""
    return sext(a, width - a.width)


def trunc_to(a: Term, width: int) -> Term:
    """Truncate *a* down to the low *width* bits."""
    return extract(a, width - 1, 0)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def ult(a: Term, b: Term) -> Term:
    _bv_binop_check(a, b, "bvult")
    if a.op == OP_BVCONST and b.op == OP_BVCONST:
        return bool_const(a.data < b.data)
    if a is b:
        return FALSE
    if b.op == OP_BVCONST and b.data == 0:
        return FALSE
    return Term(OP_ULT, BOOL, (a, b))


def ule(a: Term, b: Term) -> Term:
    _bv_binop_check(a, b, "bvule")
    if a.op == OP_BVCONST and b.op == OP_BVCONST:
        return bool_const(a.data <= b.data)
    if a is b:
        return TRUE
    if a.op == OP_BVCONST and a.data == 0:
        return TRUE
    return Term(OP_ULE, BOOL, (a, b))


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def uge(a: Term, b: Term) -> Term:
    return ule(b, a)


def slt(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvslt")
    if a.op == OP_BVCONST and b.op == OP_BVCONST:
        return bool_const(to_signed(a.data, w) < to_signed(b.data, w))
    if a is b:
        return FALSE
    return Term(OP_SLT, BOOL, (a, b))


def sle(a: Term, b: Term) -> Term:
    w = _bv_binop_check(a, b, "bvsle")
    if a.op == OP_BVCONST and b.op == OP_BVCONST:
        return bool_const(to_signed(a.data, w) <= to_signed(b.data, w))
    if a is b:
        return TRUE
    return Term(OP_SLE, BOOL, (a, b))


def sgt(a: Term, b: Term) -> Term:
    return slt(b, a)


def sge(a: Term, b: Term) -> Term:
    return sle(b, a)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def free_vars(term: Term):
    """The set of variable terms occurring in *term* (iterative walk)."""
    out = set()
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.op == OP_VAR:
            out.add(t)
        else:
            stack.extend(t.args)
    return out


def dag_size(term: Term, limit: Optional[int] = None) -> int:
    """Number of distinct nodes in *term*'s DAG (iterative walk).

    With *limit*, counting stops at ``limit + 1`` nodes, so callers
    using the size only as a threshold pay O(limit) regardless of how
    large the term really is.
    """
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        i = id(t)
        if i in seen:
            continue
        seen.add(i)
        if limit is not None and len(seen) > limit:
            break
        stack.extend(t.args)
    return len(seen)


def substitute(term: Term, mapping: Dict[Term, Term]) -> Term:
    """Simultaneously replace variables (or subterms) per *mapping*.

    Reconstruction goes through the smart constructors, so the result is
    re-simplified — substituting constants usually collapses the term.
    """
    cache: Dict[int, Term] = {}

    def walk(t: Term) -> Term:
        hit = mapping.get(t)
        if hit is not None:
            return hit
        if not t.args:
            return t
        cached = cache.get(id(t))
        if cached is not None:
            return cached
        new_args = tuple(walk(a) for a in t.args)
        if all(n is o for n, o in zip(new_args, t.args)):
            result = t
        else:
            result = rebuild(t.op, new_args, t.data, t.sort)
        cache[id(t)] = result
        return result

    return walk(term)


_REBUILDERS = {}


def _init_rebuilders():
    _REBUILDERS.update(
        {
            OP_NOT: lambda a, d: not_(a[0]),
            OP_AND: lambda a, d: and_(*a),
            OP_OR: lambda a, d: or_(*a),
            OP_XOR_BOOL: lambda a, d: xor_bool(a[0], a[1]),
            OP_EQ: lambda a, d: eq(a[0], a[1]),
            OP_ITE: lambda a, d: ite(a[0], a[1], a[2]),
            OP_BVNOT: lambda a, d: bvnot(a[0]),
            OP_BVNEG: lambda a, d: bvneg(a[0]),
            OP_BVADD: lambda a, d: bvadd(a[0], a[1]),
            OP_BVSUB: lambda a, d: bvsub(a[0], a[1]),
            OP_BVMUL: lambda a, d: bvmul(a[0], a[1]),
            OP_BVUDIV: lambda a, d: bvudiv(a[0], a[1]),
            OP_BVSDIV: lambda a, d: bvsdiv(a[0], a[1]),
            OP_BVUREM: lambda a, d: bvurem(a[0], a[1]),
            OP_BVSREM: lambda a, d: bvsrem(a[0], a[1]),
            OP_BVSHL: lambda a, d: bvshl(a[0], a[1]),
            OP_BVLSHR: lambda a, d: bvlshr(a[0], a[1]),
            OP_BVASHR: lambda a, d: bvashr(a[0], a[1]),
            OP_BVAND: lambda a, d: bvand(a[0], a[1]),
            OP_BVOR: lambda a, d: bvor(a[0], a[1]),
            OP_BVXOR: lambda a, d: bvxor(a[0], a[1]),
            OP_CONCAT: lambda a, d: concat(a[0], a[1]),
            OP_EXTRACT: lambda a, d: extract(a[0], d[0], d[1]),
            OP_ZEXT: lambda a, d: zext(a[0], d),
            OP_SEXT: lambda a, d: sext(a[0], d),
            OP_ULT: lambda a, d: ult(a[0], a[1]),
            OP_ULE: lambda a, d: ule(a[0], a[1]),
            OP_SLT: lambda a, d: slt(a[0], a[1]),
            OP_SLE: lambda a, d: sle(a[0], a[1]),
        }
    )


_init_rebuilders()


def rebuild(op: str, args: Tuple[Term, ...], data, sort: Sort) -> Term:
    """Re-apply the smart constructor for *op* to fresh arguments."""
    builder = _REBUILDERS.get(op)
    if builder is None:
        return Term(op, sort, args, data)
    return builder(args, data)


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes reachable from *term*."""
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t.args)
    return len(seen)
