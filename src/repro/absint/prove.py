"""Must-analysis proofs over template rules.

This module turns the forward domains of :mod:`repro.absint.domains`
into answers the verification pipeline can act on *without* a solver:

* :func:`prove_refinement` — a sound "yes or unknown" version of
  :func:`repro.core.refinement.check_assignment`.  It discharges the
  same three per-name obligations the encoder emits (target
  definedness, target poison-freedom, value equality) purely
  abstractly.  ``True`` means the target refines the source for this
  type assignment; ``False`` means *unknown*.  Lint's
  ``provable-by-absint`` pass reports the rules it proves at every
  assignment; the verifier itself always asks the solver.
* :func:`refuted_pre_atoms` — precondition atoms that are abstractly
  always-false given only the structure of the rule, each validated
  with a concrete witness before being reported (lint tier).

Soundness hinges on three facts, each covered by the test suite:

1. every transfer function over-approximates the total SMT semantics
   (exhaustive + solver self-checks, :mod:`repro.absint.selfcheck`);
2. facts harvested from the precondition are *top-level positive
   conjuncts* only, so they hold under the encoder's ψ (a ``MUST``
   atom's analysis boolean ``p`` comes with the side constraint
   ``p ⇒ s``, hence its semantic condition ``s`` also holds);
3. the δ̄/ρ̄ obligations of the target are skipped only for nodes whose
   own conditions are already implied by ψ's ``δ(src) ∧ ρ(src)`` —
   and because the encoder's select is *lazy* (``δ(select) = δ(c) ∧
   ite(c, δ(a), δ(b))``), that guaranteed set must not descend into
   select arms (:func:`_guaranteed_ids`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..ir import ast, intops
from ..ir.ast import (
    Alloca, BinOp, ConstantSymbol, ConvOp, Copy, GEP, ICmp, Input, Literal,
    Load, Select, Store, UndefValue, Unreachable, _collect_values,
)
from ..ir.constexpr import ConstExpr, eval_constexpr
from ..ir.intops import mask, to_signed
from ..ir.precond import (
    CMP_TO_ICMP, SYNTACTIC, PredAnd, PredCall, PredCmp, PredNot, PredOr,
    Predicate, builtin_holds, compare,
)
from ..typing.types import FloatType
from .domains import AbsValue, KnownBits, SRange, URange
from .transfer import (
    conv_kind, icmp_decide, transfer_binop, transfer_constexpr,
    transfer_conv, transfer_icmp, transfer_select,
)


class AbsintUnsupported(Exception):
    """The rule uses features outside the abstract tier (FP, memory)."""


#: ``x cond y``  ⟺  ``y swap(cond) x``
_SWAP = {
    "eq": "eq", "ne": "ne",
    "ult": "ugt", "ule": "uge", "ugt": "ult", "uge": "ule",
    "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
}

_MEMORY_INSTS = (Alloca, Load, Store, GEP)

#: conversions the abstract tier understands (FP conversions bail)
_INT_CONVOPS = ("zext", "sext", "trunc", "bitcast", "ptrtoint", "inttoptr")


# ---------------------------------------------------------------------------
# Forward analysis over a typed template
# ---------------------------------------------------------------------------


class Analysis:
    """Forward abstract interpretation of one typed transformation.

    ``env`` maps ``id(value)`` to its :class:`AbsValue`; ``sym`` maps
    ``id(value)`` to a canonical symbolic key with the property that
    equal keys denote equal SMT ι-terms for *every* assignment
    (including every undef choice).  ``infeasible`` is set when the
    harvested precondition facts contradict each other — ψ is then
    unsatisfiable and every proof obligation holds vacuously.
    """

    def __init__(self, t: ast.Transformation, types, config,
                 use_pre: bool = True):
        self.t = t
        self.types = types
        self.config = config
        self.use_pre = use_pre
        self.env: Dict[int, AbsValue] = {}
        self.sym: Dict[int, tuple] = {}
        self.refine: Dict[int, AbsValue] = {}
        self.infeasible = False
        self._order: List[ast.Value] = []

    # -- setup ----------------------------------------------------------

    def run(self) -> "Analysis":
        roots: List[ast.Value] = list(self.t.src.values())
        roots += list(self.t.tgt.values())
        for atom in _all_atoms(self.t.pre):
            roots.extend(_atom_args(atom))
        self._order = _collect_values(roots)
        for v in self._order:
            if isinstance(v, _MEMORY_INSTS + (Unreachable, ast.FPLiteral,
                                              ast.FBinOp, ast.FCmp)):
                raise AbsintUnsupported(type(v).__name__)
            if isinstance(v, ConvOp) and v.opcode not in _INT_CONVOPS:
                raise AbsintUnsupported(v.opcode)
            if isinstance(v, ConvOp) and v.opcode == "inttoptr":
                # inttoptr attaches the memory model in the encoder
                raise AbsintUnsupported("inttoptr")
        # propagate + harvest to a (cheap) local fixpoint: the term DAG
        # is acyclic so two extra rounds settle the refinements
        for _ in range(3):
            self._propagate()
            if not self.use_pre or not self._harvest():
                break
        self._propagate()
        for v in self._order:
            self.sym[id(v)] = self._symbolic(v)
        return self

    def width(self, v: ast.Value) -> int:
        ty = self.types.type_of(v)
        if isinstance(ty, FloatType):
            raise AbsintUnsupported("floating-point value %s" % v.name)
        return self.types.width_of(v, self.config.ptr_width)

    # -- forward value propagation --------------------------------------

    def _propagate(self) -> None:
        for v in self._order:
            av = self._abstract(v)
            constraint = self.refine.get(id(v))
            if constraint is not None:
                av = av.meet(constraint)
            self.env[id(v)] = av
            if av.empty:
                self.infeasible = True

    def _abstract(self, v: ast.Value) -> AbsValue:
        w = self.width(v)
        if isinstance(v, Literal):
            return AbsValue.const(v.value, w)
        if isinstance(v, (Input, ConstantSymbol, UndefValue)):
            return AbsValue.top(w)
        if isinstance(v, ConstExpr):
            if v.op == "width":
                return AbsValue.const(self.width(v.args[0]), w)
            args = [self._at_width(a, w) for a in v.args]
            return transfer_constexpr(v.op, args, w)
        if isinstance(v, BinOp):
            return transfer_binop(v.opcode, self.env[id(v.a)],
                                  self.env[id(v.b)])
        if isinstance(v, ICmp):
            return transfer_icmp(v.cond, self.env[id(v.a)],
                                 self.env[id(v.b)])
        if isinstance(v, Select):
            return transfer_select(self.env[id(v.c)], self.env[id(v.a)],
                                   self.env[id(v.b)])
        if isinstance(v, ConvOp):
            return transfer_conv(v.opcode, self.env[id(v.x)], w)
        if isinstance(v, Copy):
            return self.env[id(v.x)]
        raise AbsintUnsupported(type(v).__name__)

    def _at_width(self, v: ast.Value, w: int) -> AbsValue:
        """Constant-expression operands are evaluated at the parent's
        width (mirroring :func:`eval_constexpr`)."""
        av = self.env[id(v)]
        if av.width == w:
            return av
        if av.is_singleton():
            return AbsValue.const(av.value() & mask(w), w)
        return AbsValue.top(w)

    # -- precondition fact harvesting ------------------------------------

    def _harvest(self) -> bool:
        new: Dict[int, AbsValue] = {}

        def add(vobj: ast.Value, constraint: Optional[AbsValue]) -> None:
            if constraint is None:
                return
            key = id(vobj)
            cur = new.get(key)
            new[key] = constraint if cur is None else cur.meet(constraint)

        for atom in _toplevel_conjuncts(self.t.pre):
            if isinstance(atom, PredCmp):
                self._harvest_cmp(atom, add)
            elif isinstance(atom, PredCall):
                self._harvest_call(atom, add)
        changed = new != self.refine
        self.refine = new
        return changed

    def _harvest_cmp(self, atom: PredCmp, add) -> None:
        av_a = self.env[id(atom.a)]
        av_b = self.env[id(atom.b)]
        if av_a.width != av_b.width:
            return
        cond = CMP_TO_ICMP[atom.op]
        if av_b.is_singleton():
            add(atom.a, _range_from_cmp(cond, av_b.value(), av_b.width))
        if av_a.is_singleton():
            add(atom.b, _range_from_cmp(_SWAP[cond], av_a.value(),
                                        av_a.width))

    def _harvest_call(self, atom: PredCall, add) -> None:
        if atom.kind == SYNTACTIC:
            return  # no semantic content
        args = atom.args
        a = args[0]
        av_a = self.env[id(a)]
        w = av_a.width
        full = mask(w)
        int_min = -(1 << (w - 1))
        int_max = (1 << (w - 1)) - 1
        fn = atom.fn
        if fn == "isPowerOf2":
            add(a, AbsValue.from_urange(URange(w, 1, max(1, 1 << (w - 1)))))
        elif fn == "isPowerOf2OrZero":
            add(a, AbsValue.from_urange(URange(w, 0, max(1, 1 << (w - 1)))))
        elif fn == "isSignBit":
            add(a, AbsValue.const(1 << (w - 1), w))
        elif fn == "isShiftedMask":
            add(a, AbsValue.from_urange(URange(w, 1, full)))
        elif fn == "MaskedValueIsZero":
            m = args[1]
            av_m = self.env[id(m)]
            if av_m.is_singleton():
                add(a, AbsValue.from_bits(KnownBits(w, av_m.value(), 0)))
            if av_a.is_singleton():
                add(m, AbsValue.from_bits(KnownBits(w, av_a.value(), 0)))
        elif fn == "WillNotOverflowUnsignedAdd":
            b = args[1]
            av_b = self.env[id(b)]
            add(a, AbsValue.from_urange(URange(w, 0, full - av_b.ur.lo)))
            add(b, AbsValue.from_urange(URange(w, 0, full - av_a.ur.lo)))
        elif fn == "WillNotOverflowUnsignedSub":
            b = args[1]
            av_b = self.env[id(b)]
            add(a, AbsValue.from_urange(URange(w, av_b.ur.lo, full)))
            add(b, AbsValue.from_urange(URange(w, 0, av_a.ur.hi)))
        elif fn == "WillNotOverflowUnsignedMul":
            b = args[1]
            av_b = self.env[id(b)]
            if av_b.ur.lo > 1:
                add(a, AbsValue.from_urange(URange(w, 0, full // av_b.ur.lo)))
            if av_a.ur.lo > 1:
                add(b, AbsValue.from_urange(URange(w, 0, full // av_a.ur.lo)))
        elif fn == "WillNotOverflowSignedAdd":
            b = args[1]
            av_b = self.env[id(b)]
            add(a, _srange_clamped(w, int_min - av_b.sr.hi,
                                   int_max - av_b.sr.lo))
            add(b, _srange_clamped(w, int_min - av_a.sr.hi,
                                   int_max - av_a.sr.lo))
        elif fn == "WillNotOverflowSignedSub":
            b = args[1]
            av_b = self.env[id(b)]
            add(a, _srange_clamped(w, int_min + av_b.sr.lo,
                                   int_max + av_b.sr.hi))

    # -- canonical symbolic keys ------------------------------------------

    def _symbolic(self, v: ast.Value) -> tuple:
        av = self.env[id(v)]
        if av.is_singleton():
            return ("lit", av.width, av.value())
        if isinstance(v, (Input, ConstantSymbol)):
            return ("in", v.name)
        if isinstance(v, UndefValue):
            return ("undef", id(v))
        if isinstance(v, Copy):
            return self.sym[id(v.x)]
        if isinstance(v, BinOp):
            return self._sym_binop(v.opcode, v.a, v.b)
        if isinstance(v, ConstExpr):
            if v.op in ast.BINOPS and len(v.args) == 2:
                return self._sym_binop(v.op, v.args[0], v.args[1])
            keys = tuple(self.sym[id(a)] for a in v.args)
            if v.op in ("umax", "umin", "smax", "smin"):
                keys = tuple(sorted(keys, key=repr))
            return ("ce", v.op, keys)
        if isinstance(v, ICmp):
            return self._sym_icmp(v)
        if isinstance(v, Select):
            kc = self.sym[id(v.c)]
            ka = self.sym[id(v.a)]
            kb = self.sym[id(v.b)]
            if ka == kb:
                return ka
            cond = self.env[id(v.c)]
            if cond.is_singleton():
                return ka if cond.value() == 1 else kb
            return ("sel", kc, ka, kb)
        if isinstance(v, ConvOp):
            kx = self.sym[id(v.x)]
            w_in = self.width(v.x)
            w_out = self.width(v)
            if w_out == w_in:
                return kx  # every integer conversion is identity here
            kind = "sext" if v.opcode == "sext" and w_out > w_in else (
                "zext" if w_out > w_in else "trunc")
            return ("conv", kind, w_out, kx)
        raise AbsintUnsupported(type(v).__name__)

    def _sym_binop(self, op: str, a: ast.Value, b: ast.Value) -> tuple:
        ka = self.sym[id(a)]
        kb = self.sym[id(b)]
        av_a = self.env[id(a)]
        av_b = self.env[id(b)]
        w = av_a.width
        ca = av_a.value() if av_a.is_singleton() else None
        cb = av_b.value() if av_b.is_singleton() else None
        full = mask(w)
        # total-semantics identities only (sound for every input,
        # including the SMT totalizations of division and shifts)
        if op == "add":
            if cb == 0:
                return ka
            if ca == 0:
                return kb
        elif op == "sub":
            if cb == 0:
                return ka
            if ka == kb:
                return ("lit", w, 0)
        elif op == "mul":
            if cb == 1:
                return ka
            if ca == 1:
                return kb
        elif op == "and":
            if ka == kb or ca == full:
                return kb if ca == full else ka
            if cb == full:
                return ka
        elif op == "or":
            if ka == kb or cb == 0:
                return ka
            if ca == 0:
                return kb
        elif op == "xor":
            if ka == kb:
                return ("lit", w, 0)
            if cb == 0:
                return ka
            if ca == 0:
                return kb
        elif op in ("udiv", "sdiv"):
            if cb == 1:
                return ka
        elif op == "urem":
            if cb == 1:
                return ("lit", w, 0)
            if cb == 0:
                return ka  # bvurem x 0 = x
        elif op == "srem":
            if cb == 1:
                return ("lit", w, 0)
            if cb == 0:
                return ka  # bvsrem x 0 = x
        elif op in ("shl", "lshr", "ashr"):
            if cb == 0:
                return ka
        if op in ("add", "mul", "and", "or", "xor"):
            ka, kb = sorted((ka, kb), key=repr)
        return ("bin", op, ka, kb)

    def _sym_icmp(self, v: ICmp) -> tuple:
        ka = self.sym[id(v.a)]
        kb = self.sym[id(v.b)]
        cond = v.cond
        if ka == kb:
            reflexive = cond in ("eq", "ule", "uge", "sle", "sge")
            return ("lit", 1, 1 if reflexive else 0)
        if cond in ("ugt", "uge", "sgt", "sge"):
            cond = _SWAP[cond]
            ka, kb = kb, ka
        if cond in ("eq", "ne"):
            ka, kb = sorted((ka, kb), key=repr)
        return ("icmp", cond, ka, kb)


def _srange_clamped(w: int, lo: int, hi: int) -> Optional[AbsValue]:
    int_min = -(1 << (w - 1))
    int_max = (1 << (w - 1)) - 1
    lo = max(lo, int_min)
    hi = min(hi, int_max)
    if lo > hi:
        v = AbsValue.bottom(w)
        return v
    if lo == int_min and hi == int_max:
        return None
    return AbsValue.from_srange(SRange(w, lo, hi))


def _range_from_cmp(cond: str, c: int, w: int) -> Optional[AbsValue]:
    """Abstraction of ``{ x | x cond c }``; None means no constraint."""
    full = mask(w)
    sc = to_signed(c, w)
    int_min = -(1 << (w - 1))
    int_max = (1 << (w - 1)) - 1
    if cond == "eq":
        return AbsValue.const(c, w)
    if cond == "ne":
        return None
    if cond == "ult":
        return AbsValue.bottom(w) if c == 0 else AbsValue.from_urange(
            URange(w, 0, c - 1))
    if cond == "ule":
        return AbsValue.from_urange(URange(w, 0, c))
    if cond == "ugt":
        return AbsValue.bottom(w) if c == full else AbsValue.from_urange(
            URange(w, c + 1, full))
    if cond == "uge":
        return AbsValue.from_urange(URange(w, c, full))
    if cond == "slt":
        return AbsValue.bottom(w) if sc == int_min else AbsValue.from_srange(
            SRange(w, int_min, sc - 1))
    if cond == "sle":
        return AbsValue.from_srange(SRange(w, int_min, sc))
    if cond == "sgt":
        return AbsValue.bottom(w) if sc == int_max else AbsValue.from_srange(
            SRange(w, sc + 1, int_max))
    if cond == "sge":
        return AbsValue.from_srange(SRange(w, sc, int_max))
    raise ValueError("unknown condition %r" % cond)


# ---------------------------------------------------------------------------
# Predicate tree walks
# ---------------------------------------------------------------------------


def _toplevel_conjuncts(p: Predicate) -> List[Predicate]:
    """Positive top-level atoms: the only facts implied by ψ."""
    if isinstance(p, PredAnd):
        out: List[Predicate] = []
        for q in p.ps:
            out.extend(_toplevel_conjuncts(q))
        return out
    if isinstance(p, (PredCmp, PredCall)):
        return [p]
    return []  # PredTrue, PredNot, PredOr contribute no must-facts


def _all_atoms(p: Predicate) -> List[Predicate]:
    if isinstance(p, PredAnd) or isinstance(p, PredOr):
        out: List[Predicate] = []
        for q in p.ps:
            out.extend(_all_atoms(q))
        return out
    if isinstance(p, PredNot):
        return _all_atoms(p.p)
    if isinstance(p, (PredCmp, PredCall)):
        return [p]
    return []


def _atom_args(atom: Predicate) -> List[ast.Value]:
    if isinstance(atom, PredCmp):
        return [atom.a, atom.b]
    if isinstance(atom, PredCall):
        return list(atom.args)
    return []


# ---------------------------------------------------------------------------
# Refinement proof
# ---------------------------------------------------------------------------


def _guaranteed_ids(root: ast.Value) -> set:
    """Nodes whose own δ/ρ conditions are implied by ``δ(root) ∧
    ρ(root)``.  The encoder's select is lazy, so arms of a select are
    *not* guaranteed — only its condition cone is."""
    out: set = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if id(v) in out:
            continue
        out.add(id(v))
        if isinstance(v, Select):
            stack.append(v.c)
        else:
            stack.extend(v.operands())
    return out


def _defined_always(v: BinOp, env: Dict[int, AbsValue]) -> bool:
    """ψ-independent proof of the binop's own definedness condition
    (mirrors :func:`repro.core.semantics.definedness_condition`)."""
    a = env[id(v.a)]
    b = env[id(v.b)]
    w = b.width
    op = v.opcode
    if op in ("udiv", "urem"):
        return not b.contains(0)
    if op in ("sdiv", "srem"):
        if b.contains(0):
            return False
        return not (a.contains(1 << (w - 1)) and b.contains(mask(w)))
    if op in ("shl", "lshr", "ashr"):
        return b.ur.hi < w
    return True


def _flag_sound(op: str, flag: str, a: AbsValue, b: AbsValue) -> bool:
    """ψ-independent proof that the flagged operation never poisons
    (mirrors :data:`repro.core.semantics.POISON_CONDITIONS`)."""
    w = a.width
    full = mask(w)
    int_min = -(1 << (w - 1))
    int_max = (1 << (w - 1)) - 1
    if op == "add":
        if flag == "nsw":
            return (a.sr.lo + b.sr.lo >= int_min
                    and a.sr.hi + b.sr.hi <= int_max)
        if flag == "nuw":
            return a.ur.hi + b.ur.hi <= full
    if op == "sub":
        if flag == "nsw":
            return (a.sr.lo - b.sr.hi >= int_min
                    and a.sr.hi - b.sr.lo <= int_max)
        if flag == "nuw":
            return a.ur.lo >= b.ur.hi
    if op == "mul":
        corners = [a.sr.lo * b.sr.lo, a.sr.lo * b.sr.hi,
                   a.sr.hi * b.sr.lo, a.sr.hi * b.sr.hi]
        if flag == "nsw":
            return int_min <= min(corners) and max(corners) <= int_max
        if flag == "nuw":
            return a.ur.hi * b.ur.hi <= full
    if op == "shl":
        if b.ur.hi >= w:
            return False
        s = b.ur.hi  # the constraint is tightest at the largest shift
        if flag == "nsw":
            return (a.sr.lo >= -(1 << (w - 1 - s))
                    and a.sr.hi <= (1 << (w - 1 - s)) - 1)
        if flag == "nuw":
            return a.ur.hi <= (1 << (w - s)) - 1
    if op in ("udiv", "sdiv") and flag == "exact":
        if not b.is_singleton():
            return False
        p = b.value()
        if p == 0 or p & (p - 1):
            return False
        # a multiple of 2^k divides exactly (signed and unsigned)
        return (a.bits.kz & (p - 1)) == p - 1
    if op in ("lshr", "ashr") and flag == "exact":
        if b.ur.hi >= w:
            return False
        s = b.ur.hi  # zero low bits at the largest shift cover smaller
        return (a.bits.kz & mask(s)) == mask(s)
    return False


def prove_refinement(t: ast.Transformation, types, config) -> bool:
    """True when the target provably refines the source under this type
    assignment; False means *unknown*.

    A ``True`` here implies :func:`repro.core.refinement.check_assignment`
    returns "valid" for the same (t, types, config): the obligations
    proven are exactly the queries it would find UNSAT.
    """
    try:
        ana = Analysis(t, types, config, use_pre=True).run()
    except (AbsintUnsupported, ast.AliveError):
        return False
    except Exception:
        return False  # "unknown" is always the safe direction
    if ana.infeasible:
        return True  # harvested ψ-facts contradict: goals hold vacuously
    try:
        for name, tgt_inst in t.tgt.items():
            if name not in t.src:
                continue
            src_inst = t.src[name]
            if isinstance(src_inst, (Store, Unreachable)):
                return False  # memory rules never reach here, be safe
            guaranteed = _guaranteed_ids(src_inst)
            for v in _collect_values([tgt_inst]):
                if id(v) in guaranteed or not isinstance(v, BinOp):
                    continue
                if not _defined_always(v, ana.env):
                    return False
                for flag in v.flags:
                    if not _flag_sound(v.opcode, flag, ana.env[id(v.a)],
                                       ana.env[id(v.b)]):
                        return False
            if ana.sym.get(id(src_inst)) != ana.sym.get(id(tgt_inst)):
                return False
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Concrete evaluation (witness validation)
# ---------------------------------------------------------------------------


def _concrete_eval(v: ast.Value, assign: Dict[str, int],
                   ana: Analysis) -> int:
    """Evaluate ι(v) concretely under the total SMT semantics (the
    encoder's ι)."""
    w = ana.width(v)
    if isinstance(v, Literal):
        return v.value & mask(w)
    if isinstance(v, (Input, ConstantSymbol)):
        return assign[v.name] & mask(w)
    if isinstance(v, ConstExpr):
        def lookup(node):
            if isinstance(node, ConstExpr) and node.op == "width":
                return ana.width(node.args[0])
            return assign[node.name]
        return eval_constexpr(v, w, lookup)
    if isinstance(v, BinOp):
        a = _concrete_eval(v.a, assign, ana)
        b = _concrete_eval(v.b, assign, ana)
        return intops.total_binop(v.opcode, a, b, w)
    if isinstance(v, ICmp):
        wa = ana.width(v.a)
        a = _concrete_eval(v.a, assign, ana)
        b = _concrete_eval(v.b, assign, ana)
        return intops.icmp(v.cond, a, b, wa)
    if isinstance(v, Select):
        c = _concrete_eval(v.c, assign, ana)
        # lazy select: only the chosen arm is evaluated (matches the
        # encoder's ite-structured δ/ρ)
        arm = v.a if c == 1 else v.b
        return _concrete_eval(arm, assign, ana)
    if isinstance(v, ConvOp):
        w_in = ana.width(v.x)
        x = _concrete_eval(v.x, assign, ana)
        return intops.convert(conv_kind(v.opcode, w_in, w), x, w_in, w)
    if isinstance(v, Copy):
        return _concrete_eval(v.x, assign, ana)
    raise AbsintUnsupported(type(v).__name__)


def _atom_concrete(atom: Predicate, assign: Dict[str, int],
                   ana: Analysis) -> Optional[bool]:
    """Concrete truth of a precondition atom's semantic condition;
    None when it cannot be evaluated (syntactic predicates)."""
    if isinstance(atom, PredCall) and atom.kind == SYNTACTIC:
        return None
    args = _atom_args(atom)
    vals = [_concrete_eval(a, assign, ana) for a in args]
    w = ana.width(args[0])
    if isinstance(atom, PredCmp):
        return compare(atom.op, vals[0], vals[1], w)
    return builtin_holds(atom.fn, vals, w)


def _leaf_names(values: Iterable[ast.Value]) -> List[str]:
    out = []
    seen = set()
    for v in values:
        if isinstance(v, (Input, ConstantSymbol)) and v.name not in seen:
            seen.add(v.name)
            out.append(v.name)
    return out


def _witness_candidates(ana: Analysis,
                        leaves: List[ast.Value]) -> List[Dict[str, int]]:
    """A small deterministic pool of assignments: uniform patterns plus
    abstraction-guided extremes for each leaf."""
    named = [v for v in leaves if isinstance(v, (Input, ConstantSymbol))]
    out: List[Dict[str, int]] = []

    def uniform(pick) -> Dict[str, int]:
        return {v.name: pick(ana.width(v)) & mask(ana.width(v))
                for v in named}

    out.append(uniform(lambda w: 0))
    out.append(uniform(lambda w: 1))
    out.append(uniform(lambda w: mask(w)))
    out.append(uniform(lambda w: 0x5555555555555555))
    out.append(uniform(lambda w: 1 << (w - 1)))
    base = {v.name: ana.env[id(v)].ur.lo for v in named}
    out.append(base)
    for v in named:
        tweaked = dict(base)
        tweaked[v.name] = ana.env[id(v)].ur.hi
        out.append(tweaked)
    return out


# ---------------------------------------------------------------------------
# Lint: abstractly-refuted precondition atoms
# ---------------------------------------------------------------------------


def _atom_always_false(atom: Predicate, ana: Analysis) -> bool:
    env = ana.env
    if isinstance(atom, PredCmp):
        av_a = env[id(atom.a)]
        av_b = env[id(atom.b)]
        if av_a.width != av_b.width:
            return False
        return icmp_decide(CMP_TO_ICMP[atom.op], av_a, av_b) is False
    if not isinstance(atom, PredCall) or atom.kind == SYNTACTIC:
        return False
    a = env[id(atom.args[0])]
    w = a.width
    full = mask(w)
    int_min = -(1 << (w - 1))
    int_max = (1 << (w - 1)) - 1
    fn = atom.fn
    if fn == "isPowerOf2":
        return not any(a.contains(1 << s) for s in range(w))
    if fn == "isPowerOf2OrZero":
        return (not a.contains(0)
                and not any(a.contains(1 << s) for s in range(w)))
    if fn == "isSignBit":
        return not a.contains(1 << (w - 1))
    if fn == "isShiftedMask":
        for run in range(1, w + 1):
            for shift in range(0, w - run + 1):
                if a.contains(mask(run) << shift):
                    return False
        return True
    if fn == "MaskedValueIsZero":
        m = env[id(atom.args[1])]
        return (a.bits.ko & m.bits.ko) != 0
    if fn.startswith("WillNotOverflow") and len(atom.args) == 2:
        b = env[id(atom.args[1])]
        if fn == "WillNotOverflowUnsignedAdd":
            return a.ur.lo + b.ur.lo > full
        if fn == "WillNotOverflowUnsignedSub":
            return a.ur.hi < b.ur.lo
        if fn == "WillNotOverflowUnsignedMul":
            return a.ur.lo * b.ur.lo > full
        if fn == "WillNotOverflowSignedAdd":
            return (a.sr.lo + b.sr.lo > int_max
                    or a.sr.hi + b.sr.hi < int_min)
        if fn == "WillNotOverflowSignedSub":
            return (a.sr.lo - b.sr.hi > int_max
                    or a.sr.hi - b.sr.lo < int_min)
        if fn == "WillNotOverflowSignedMul":
            corners = [a.sr.lo * b.sr.lo, a.sr.lo * b.sr.hi,
                       a.sr.hi * b.sr.lo, a.sr.hi * b.sr.hi]
            return min(corners) > int_max or max(corners) < int_min
    return False


def refuted_pre_atoms(t: ast.Transformation, types, config) -> List[dict]:
    """Precondition atoms that are abstractly always-false, each with a
    concrete witness revalidated through the concrete semantics of
    :mod:`repro.ir.intops` (a finding is silently dropped if no witness
    survives — the witness is the guard against analysis bugs, not the
    user)."""
    try:
        ana = Analysis(t, types, config, use_pre=False).run()
    except (AbsintUnsupported, ast.AliveError):
        return []
    except Exception:
        return []
    findings = []
    for atom in _all_atoms(t.pre):
        if any(isinstance(x, UndefValue)
               for a in _atom_args(atom)
               for x in _collect_values([a])):
            continue
        try:
            if not _atom_always_false(atom, ana):
                continue
        except Exception:
            continue
        leaves = [x for a in _atom_args(atom) for x in _collect_values([a])]
        witness = None
        for cand in _witness_candidates(ana, leaves):
            try:
                if _atom_concrete(atom, cand, ana) is False:
                    witness = {n: cand[n] for n in _leaf_names(leaves)}
                    break
            except (ast.AliveError, KeyError):
                continue
        if witness is None:
            continue
        findings.append({
            "atom": str(atom),
            "line": getattr(atom, "line", None),
            "col": getattr(atom, "col", None),
            "witness": witness,
            "types": types.signature(),
        })
    return findings
