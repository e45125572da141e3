"""Bit-blasting: lowering Bool+BitVec terms to CNF.

Every bitvector term is compiled to a little-endian list of SAT literals
(index 0 = least significant bit); Boolean terms compile to a single
literal.  Compilation is memoized on term identity, so shared DAG nodes
(ubiquitous in the ite-chain memory encoding) are compiled once.  Below
the terms, the :class:`~repro.smt.cnf.CnfBuilder` hashes every gate
structurally: distinct terms that build the same gate over the same
literals share its output variable.  ``bvurem x, y`` after
``bvudiv x, y`` re-walks the same restoring divider and adds nothing,
and the source and target halves of a refinement query share every
gate they have in common.

Circuit constructions are the classic ones: ripple-carry adders, a
shift-add multiplier, a restoring divider, logarithmic barrel shifters,
and borrow-chain comparators.  Each row of the divider subtracts the
divisor from the shifted partial remainder ``r`` (w+1 bits) as
``r + ~y + 1``; that sum carries out exactly when ``r >= y``, so the
carry-out is the row's quotient bit and selects ``r - y`` or ``r``
with no comparator of its own.  The divisor's top bit is 0, so the
top stage is ``top | carry`` and only the low w bits of the difference
are built.  Division by zero follows SMT-LIB (``bvudiv x 0 =
all-ones``, ``bvurem x 0 = x``) to stay consistent with
:mod:`repro.smt.eval` — Alive's verification conditions always guard
division anyway, so any consistent totalization works.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import terms as T
from .cnf import CnfBuilder
from .sorts import is_bool, is_bv
from .terms import Term


class BitBlaster:
    """Compiles terms into a :class:`~repro.smt.cnf.CnfBuilder`.

    Attributes:
        builder: the CNF under construction.
        var_bits: map from variable terms to their literal lists (length 1
            for Booleans), used for model extraction.
    """

    def __init__(self, builder: CnfBuilder = None):
        self.builder = builder if builder is not None else CnfBuilder()
        self.var_bits: Dict[Term, List[int]] = {}
        self._bool_cache: Dict[int, int] = {}
        self._bv_cache: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def assert_formula(self, formula: Term) -> None:
        """Assert a Boolean term at the top level."""
        if not is_bool(formula.sort):
            raise TypeError("can only assert Boolean terms")
        self.builder.assert_lit(self.lit(formula))

    def lit(self, term: Term) -> int:
        """Compile a Boolean term to a literal."""
        if not is_bool(term.sort):
            raise TypeError("lit() expects a Boolean term, got %s" % term.sort)
        cached = self._bool_cache.get(id(term))
        if cached is not None:
            return cached
        result = self._compile_bool(term)
        self._bool_cache[id(term)] = result
        return result

    def bits(self, term: Term) -> List[int]:
        """Compile a bitvector term to its list of literals (LSB first)."""
        if not is_bv(term.sort):
            raise TypeError("bits() expects a bitvector term, got %s" % term.sort)
        cached = self._bv_cache.get(id(term))
        if cached is not None:
            return cached
        result = self._compile_bv(term)
        assert len(result) == term.width, (term.op, len(result), term.width)
        self._bv_cache[id(term)] = result
        return result

    def extract_model(self, sat_solver) -> Dict[Term, int]:
        """Read back variable values from a SAT model."""
        model: Dict[Term, int] = {}
        for var, lits in self.var_bits.items():
            value = 0
            for i, l in enumerate(lits):
                if sat_solver.model_value(l) if l > 0 else not sat_solver.model_value(-l):
                    value |= 1 << i
            model[var] = value
        return model

    # ------------------------------------------------------------------
    # Boolean compilation
    # ------------------------------------------------------------------

    def _compile_bool(self, t: Term) -> int:
        b = self.builder
        op = t.op
        if op == T.OP_TRUE:
            return b.true_lit
        if op == T.OP_FALSE:
            return b.false_lit
        if op == T.OP_VAR:
            lits = self.var_bits.get(t)
            if lits is None:
                lits = [b.new_var()]
                self.var_bits[t] = lits
            return lits[0]
        if op == T.OP_NOT:
            return -self.lit(t.args[0])
        if op == T.OP_AND:
            return b.gate_and([self.lit(a) for a in t.args])
        if op == T.OP_OR:
            return b.gate_or([self.lit(a) for a in t.args])
        if op == T.OP_XOR_BOOL:
            return b.gate_xor(self.lit(t.args[0]), self.lit(t.args[1]))
        if op == T.OP_EQ:
            x, y = t.args
            if is_bool(x.sort):
                return b.gate_iff(self.lit(x), self.lit(y))
            xs, ys = self.bits(x), self.bits(y)
            return b.gate_and([b.gate_iff(p, q) for p, q in zip(xs, ys)])
        if op == T.OP_ULT:
            return self._ult(self.bits(t.args[0]), self.bits(t.args[1]))
        if op == T.OP_ULE:
            return -self._ult(self.bits(t.args[1]), self.bits(t.args[0]))
        if op == T.OP_SLT:
            return self._slt(self.bits(t.args[0]), self.bits(t.args[1]))
        if op == T.OP_SLE:
            return -self._slt(self.bits(t.args[1]), self.bits(t.args[0]))
        raise ValueError("cannot bit-blast Boolean op %r" % op)

    # ------------------------------------------------------------------
    # Bitvector compilation
    # ------------------------------------------------------------------

    def _compile_bv(self, t: Term) -> List[int]:
        b = self.builder
        op = t.op
        w = t.width
        if op == T.OP_BVCONST:
            return [b.lit_const(bool(t.data >> i & 1)) for i in range(w)]
        if op == T.OP_VAR:
            lits = self.var_bits.get(t)
            if lits is None:
                lits = b.new_vars(w)
                self.var_bits[t] = lits
            return lits
        if op == T.OP_ITE:
            c = self.lit(t.args[0])
            xs, ys = self.bits(t.args[1]), self.bits(t.args[2])
            return [b.gate_ite(c, x, y) for x, y in zip(xs, ys)]
        if op == T.OP_BVNOT:
            return [-x for x in self.bits(t.args[0])]
        if op == T.OP_BVNEG:
            return self._negate(self.bits(t.args[0]))
        if op == T.OP_BVAND:
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            return [b.gate_and([x, y]) for x, y in zip(xs, ys)]
        if op == T.OP_BVOR:
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            return [b.gate_or([x, y]) for x, y in zip(xs, ys)]
        if op == T.OP_BVXOR:
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            return [b.gate_xor(x, y) for x, y in zip(xs, ys)]
        if op == T.OP_BVADD:
            return self._adder(self.bits(t.args[0]), self.bits(t.args[1]),
                               b.lit_const(False))[0]
        if op == T.OP_BVSUB:
            ys = self.bits(t.args[1])
            return self._adder(self.bits(t.args[0]), [-y for y in ys],
                               b.lit_const(True))[0]
        if op == T.OP_BVMUL:
            return self._multiplier(self.bits(t.args[0]), self.bits(t.args[1]))
        if op == T.OP_BVUDIV:
            q, _ = self._udivider(self.bits(t.args[0]), self.bits(t.args[1]))
            return q
        if op == T.OP_BVUREM:
            _, r = self._udivider(self.bits(t.args[0]), self.bits(t.args[1]))
            return r
        if op == T.OP_BVSDIV:
            return self._sdiv(self.bits(t.args[0]), self.bits(t.args[1]), rem=False)
        if op == T.OP_BVSREM:
            return self._sdiv(self.bits(t.args[0]), self.bits(t.args[1]), rem=True)
        if op == T.OP_BVSHL:
            return self._shifter(t, left=True, arith=False)
        if op == T.OP_BVLSHR:
            return self._shifter(t, left=False, arith=False)
        if op == T.OP_BVASHR:
            return self._shifter(t, left=False, arith=True)
        if op == T.OP_CONCAT:
            hi, lo = t.args
            return self.bits(lo) + self.bits(hi)
        if op == T.OP_EXTRACT:
            hi, lo = t.data
            return self.bits(t.args[0])[lo : hi + 1]
        if op == T.OP_ZEXT:
            return self.bits(t.args[0]) + [b.lit_const(False)] * t.data
        if op == T.OP_SEXT:
            xs = self.bits(t.args[0])
            return xs + [xs[-1]] * t.data
        raise ValueError("cannot bit-blast bitvector op %r" % op)

    # ------------------------------------------------------------------
    # Circuits
    # ------------------------------------------------------------------

    def _adder(self, xs: List[int], ys: List[int],
               carry: int) -> Tuple[List[int], int]:
        """Ripple-carry addition; returns (sum bits, carry-out)."""
        out = []
        for x, y in zip(xs, ys):
            s, carry = self.builder.gate_full_adder(x, y, carry)
            out.append(s)
        return out, carry

    def _multiplier(self, xs: List[int], ys: List[int]) -> List[int]:
        """Shift-and-add multiplication (O(w^2) gates)."""
        b = self.builder
        w = len(xs)
        acc = [b.lit_const(False)] * w
        for i, yi in enumerate(ys):
            if yi == b.false_lit:
                continue
            addend = [b.lit_const(False)] * i + [
                b.gate_and([x, yi]) for x in xs[: w - i]
            ]
            acc = self._adder(acc, addend, b.lit_const(False))[0]
        return acc

    def _ult(self, xs: List[int], ys: List[int]) -> int:
        """Unsigned less-than via an LSB-to-MSB borrow chain."""
        b = self.builder
        lt = b.lit_const(False)
        for x, y in zip(xs, ys):
            eq_bit = b.gate_iff(x, y)
            lt_bit = b.gate_and([-x, y])
            lt = b.gate_or([lt_bit, b.gate_and([eq_bit, lt])])
        return lt

    def _slt(self, xs: List[int], ys: List[int]) -> int:
        """Signed less-than: flip the sign bits and compare unsigned."""
        xs2 = xs[:-1] + [-xs[-1]]
        ys2 = ys[:-1] + [-ys[-1]]
        return self._ult(xs2, ys2)

    def _is_zero(self, xs: List[int]) -> int:
        return self.builder.gate_and([-x for x in xs])

    def _mux_vec(self, c: int, xs: List[int], ys: List[int]) -> List[int]:
        b = self.builder
        return [b.gate_ite(c, x, y) for x, y in zip(xs, ys)]

    def _udivider(self, xs: List[int], ys: List[int]):
        """Restoring division; returns (quotient, remainder) with the
        SMT-LIB convention for a zero divisor."""
        b = self.builder
        w = len(xs)
        r = [b.lit_const(False)] * w
        not_ys = [-y for y in ys]
        q = [b.lit_const(False)] * w
        for i in range(w - 1, -1, -1):
            # (r << 1) | x_i has w+1 bits; its top bit is r's top bit
            top, r = r[-1], [xs[i]] + r[:-1]
            # r + ~y + 1 carries out of w+1 bits exactly when r >= y; the
            # top bit adds 0 + ~0, so its carry-out is top | carry
            diff, carry = self._adder(r, not_ys, b.lit_const(True))
            ge = b.gate_or([top, carry])
            r = self._mux_vec(ge, diff, r)
            q[i] = ge
        div_zero = self._is_zero(ys)
        ones = [b.lit_const(True)] * w
        q = self._mux_vec(div_zero, ones, q)
        r_out = self._mux_vec(div_zero, xs, r)
        return q, r_out

    def _negate(self, xs: List[int]) -> List[int]:
        b = self.builder
        return self._adder([-x for x in xs], [b.lit_const(False)] * len(xs),
                           b.lit_const(True))[0]

    def _sdiv(self, xs: List[int], ys: List[int], rem: bool) -> List[int]:
        """Signed division/remainder via magnitudes (truncated division).

        Matches SMT-LIB: the quotient rounds toward zero, the remainder
        takes the dividend's sign, and a zero divisor falls through to the
        unsigned convention on magnitudes (which reproduces
        ``bvsdiv x 0 = x<0 ? 1 : -1`` and ``bvsrem x 0 = x``).
        """
        sx, sy = xs[-1], ys[-1]
        ax = self._mux_vec(sx, self._negate(xs), xs)
        ay = self._mux_vec(sy, self._negate(ys), ys)
        q, r = self._udivider(ax, ay)
        if rem:
            return self._mux_vec(sx, self._negate(r), r)
        neg_q = self.builder.gate_xor(sx, sy)
        return self._mux_vec(neg_q, self._negate(q), q)

    def _shifter(self, t: Term, left: bool, arith: bool) -> List[int]:
        """Logarithmic barrel shifter with out-of-range handling."""
        b = self.builder
        xs = self.bits(t.args[0])
        ys = self.bits(t.args[1])
        w = len(xs)
        fill = xs[-1] if arith else b.lit_const(False)

        acc = xs
        k = 0
        while (1 << k) < w:
            amount = 1 << k
            bit = ys[k]
            if left:
                # left shifts always fill with zeros
                shifted = [b.lit_const(False) if i < amount else acc[i - amount]
                           for i in range(w)]
            else:
                shifted = [acc[i + amount] if i + amount < w else fill
                           for i in range(w)]
            acc = self._mux_vec(bit, shifted, acc)
            k += 1

        # overflow: shift amount >= w (any bit at position >= k set, or the
        # already-consumed bits encode a value >= w)
        high_bits = ys[k:]
        consumed = ys[:k]
        # value of consumed bits >= w ?
        over_low = b.lit_const(False)
        if (1 << k) > w:
            # possible for non-power-of-two widths: compare consumed >= w
            wval = [b.lit_const(bool(w >> i & 1)) for i in range(k)]
            over_low = -self._ult(consumed, wval)
        over = b.gate_or([over_low] + list(high_bits))
        fill_vec = [fill] * w
        return self._mux_vec(over, fill_vec, acc)


def blast(formula: Term) -> BitBlaster:
    """Convenience: bit-blast a single asserted formula."""
    bb = BitBlaster()
    bb.assert_formula(formula)
    return bb
