"""Self-verification of the abstract transfer functions.

The absint tier is never *trusted* the way ``opt/analysis.py``
historically was: every transfer function is checked against the same
semantics the verifier uses, two ways —

* **exhaustive** at small widths: enumerate abstract elements from a
  structured family, enumerate both concretizations, and assert
  membership of the concrete result (γ-soundness);
* **solver-backed** at width 8/16: encode γ-membership as bitvector
  terms and ask the CDCL stack to prove that no concrete pair can
  escape the abstract result (the *same* CDCL stack the verifier runs
  on, so the analysis and the solver cannot disagree about semantics).

The concrete side of the exhaustive checks is :mod:`repro.ir.intops`
and :func:`repro.ir.constexpr.apply_op`, the semantics the interpreter
and the optimizer run.

Run as a module for the CI ``absint-soundness`` job::

    python -m repro.absint.selfcheck --width 4 --solver-width 8
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..ir import intops
from ..ir.ast import BINOPS, CONVOPS, ICMP_CONDS
from ..ir.constexpr import apply_op
from ..ir.intops import mask
from ..smt import terms as T
from ..smt.solver import UNSAT, check_sat
from .domains import AbsValue, KnownBits, SRange, URange
from .transfer import (
    conv_kind, transfer_binop, transfer_constexpr, transfer_conv,
    transfer_icmp, transfer_select,
)

#: constant-expression operators with their arity (beyond the binops)
CONSTEXPR_OPS = (
    ("neg", 1), ("not", 1), ("abs", 1), ("log2", 1),
    ("umax", 2), ("umin", 2), ("smax", 2), ("smin", 2),
)


# ---------------------------------------------------------------------------
# Abstract-element families
# ---------------------------------------------------------------------------


def iter_known_bits(width: int) -> Iterator[KnownBits]:
    """All 3^w known-bits elements."""
    for states in itertools.product((0, 1, 2), repeat=width):
        kz = ko = 0
        for i, s in enumerate(states):
            if s == 0:
                kz |= 1 << i
            elif s == 1:
                ko |= 1 << i
        yield KnownBits(width, kz, ko)


def iter_uranges(width: int) -> Iterator[URange]:
    full = mask(width)
    for lo in range(full + 1):
        for hi in range(lo, full + 1):
            yield URange(width, lo, hi)


def iter_sranges(width: int) -> Iterator[SRange]:
    int_min = -(1 << (width - 1))
    int_max = (1 << (width - 1)) - 1
    for lo in range(int_min, int_max + 1):
        for hi in range(lo, int_max + 1):
            yield SRange(width, lo, hi)


def abs_family(width: int) -> List[AbsValue]:
    """Every pure-domain element lifted into the reduced product.

    Mixed products are exercised indirectly: reduction folds each pure
    element into all three components, so the transfer inputs already
    carry cross-domain information.
    """
    out = [AbsValue.from_bits(kb) for kb in iter_known_bits(width)]
    out.extend(AbsValue.from_urange(ur) for ur in iter_uranges(width))
    out.extend(AbsValue.from_srange(sr) for sr in iter_sranges(width))
    return [av for av in out if not av.empty]


def members(av: AbsValue) -> List[int]:
    return [x for x in range(1 << av.width) if av.contains(x)]


# ---------------------------------------------------------------------------
# Exhaustive γ-soundness checks (width ≤ 4)
# ---------------------------------------------------------------------------


def check_binop(opcode: str, width: int,
                family: Optional[Sequence[AbsValue]] = None) -> List[str]:
    """γ-soundness of one binop transfer; returns failure descriptions."""
    fam = family if family is not None else abs_family(width)
    failures: List[str] = []
    cached = [(av, members(av)) for av in fam]
    for a, xs in cached:
        for b, ys in cached:
            r = transfer_binop(opcode, a, b)
            for x in xs:
                for y in ys:
                    z = intops.total_binop(opcode, x, y, width)
                    if not r.contains(z):
                        failures.append(
                            "%s @%d: %r op %r -> %r misses %d (x=%d y=%d)"
                            % (opcode, width, a, b, r, z, x, y))
                        if len(failures) > 5:
                            return failures
    return failures


def check_icmp(cond: str, width: int,
               family: Optional[Sequence[AbsValue]] = None) -> List[str]:
    fam = family if family is not None else abs_family(width)
    failures: List[str] = []
    cached = [(av, members(av)) for av in fam]
    for a, xs in cached:
        for b, ys in cached:
            r = transfer_icmp(cond, a, b)
            for x in xs:
                for y in ys:
                    z = intops.icmp(cond, x, y, width)
                    if not r.contains(z):
                        failures.append(
                            "icmp %s @%d: %r, %r -> %r misses %d"
                            % (cond, width, a, b, r, z))
                        if len(failures) > 5:
                            return failures
    return failures


def check_select(width: int,
                 family: Optional[Sequence[AbsValue]] = None) -> List[str]:
    fam = family if family is not None else abs_family(width)
    conds = abs_family(1)
    failures: List[str] = []
    cached = [(av, members(av)) for av in fam]
    for c in conds:
        cs = members(c)
        for a, xs in cached:
            for b, ys in cached:
                r = transfer_select(c, a, b)
                for cv in cs:
                    pool = xs if cv == 1 else ys
                    for z in pool:
                        if not r.contains(z):
                            failures.append(
                                "select @%d: c=%r %r %r -> %r misses %d"
                                % (width, c, a, b, r, z))
                            if len(failures) > 5:
                                return failures
    return failures


def check_conv(opcode: str, w_in: int, w_out: int,
               family: Optional[Sequence[AbsValue]] = None) -> List[str]:
    fam = family if family is not None else abs_family(w_in)
    failures: List[str] = []
    kind = conv_kind(opcode, w_in, w_out)
    for a in fam:
        r = transfer_conv(opcode, a, w_out)
        for x in members(a):
            z = intops.convert(kind, x, w_in, w_out)
            if not r.contains(z):
                failures.append("%s %d->%d: %r -> %r misses %d"
                                % (opcode, w_in, w_out, a, r, z))
                if len(failures) > 5:
                    return failures
    return failures


def check_constexpr(op: str, arity: int, width: int,
                    family: Optional[Sequence[AbsValue]] = None) -> List[str]:
    fam = family if family is not None else abs_family(width)
    failures: List[str] = []
    cached = [(av, members(av)) for av in fam]
    pairs = ([(a, b) for a in cached for b in cached] if arity == 2
             else [(a, None) for a in cached])
    for a, b in pairs:
        args = [a[0]] if b is None else [a[0], b[0]]
        r = transfer_constexpr(op, args, width)
        ys = [0] if b is None else b[1]
        for x in a[1]:
            for y in ys:
                z = apply_op(op, (x, y), width)
                if not r.contains(z):
                    failures.append("ce %s @%d: %r -> %r misses %d"
                                    % (op, width, args, r, z))
                    if len(failures) > 5:
                        return failures
    return failures


# ---------------------------------------------------------------------------
# Solver-backed checks (width 8/16)
# ---------------------------------------------------------------------------


def membership_term(av: AbsValue, x: T.Term) -> T.Term:
    """γ-membership of *x* in *av* as a bitvector formula."""
    w = av.width
    parts = [
        T.eq(T.bvand(x, T.bv_const(av.bits.kz, w)), T.bv_const(0, w)),
        T.eq(T.bvand(x, T.bv_const(av.bits.ko, w)),
             T.bv_const(av.bits.ko, w)),
        T.ule(T.bv_const(av.ur.lo, w), x),
        T.ule(x, T.bv_const(av.ur.hi, w)),
        T.sle(T.bv_const(av.sr.lo & mask(w), w), x),
        T.sle(x, T.bv_const(av.sr.hi & mask(w), w)),
    ]
    return T.and_(*parts)


_TERM_BINOP = {
    "add": T.bvadd, "sub": T.bvsub, "mul": T.bvmul,
    "udiv": T.bvudiv, "sdiv": T.bvsdiv, "urem": T.bvurem,
    "srem": T.bvsrem, "shl": T.bvshl, "lshr": T.bvlshr,
    "ashr": T.bvashr, "and": T.bvand, "or": T.bvor, "xor": T.bvxor,
}


def solver_check_binop(opcode: str, a: AbsValue, b: AbsValue,
                       conflict_limit: int = 200_000) -> Optional[str]:
    """Prove (via CDCL) that no concrete pair escapes the abstract
    result; returns a failure description or None."""
    w = a.width
    x = T.bv_var("sc_x", w)
    y = T.bv_var("sc_y", w)
    z = _TERM_BINOP[opcode](x, y)
    r = transfer_binop(opcode, a, b)
    if r.empty:
        escape = T.TRUE  # empty result must mean empty inputs
    else:
        escape = T.not_(membership_term(r, z))
    formula = T.and_(membership_term(a, x), membership_term(b, y), escape)
    res = check_sat(formula, conflict_limit=conflict_limit)
    if res.status == UNSAT:
        return None
    return ("solver %s @%d: %r op %r -> %r not proven sound (%s)"
            % (opcode, w, a, b, r, res.status))


_TERM_ICMP = {
    "eq": T.eq, "ne": T.ne, "ugt": T.ugt, "uge": T.uge, "ult": T.ult,
    "ule": T.ule, "sgt": T.sgt, "sge": T.sge, "slt": T.slt, "sle": T.sle,
}


def solver_check_icmp(cond: str, a: AbsValue, b: AbsValue,
                      conflict_limit: int = 200_000) -> Optional[str]:
    w = a.width
    x = T.bv_var("sc_x", w)
    y = T.bv_var("sc_y", w)
    z = T.ite(_TERM_ICMP[cond](x, y), T.bv_const(1, 1), T.bv_const(0, 1))
    r = transfer_icmp(cond, a, b)
    formula = T.and_(membership_term(a, x), membership_term(b, y),
                     T.not_(membership_term(r, z)))
    res = check_sat(formula, conflict_limit=conflict_limit)
    if res.status == UNSAT:
        return None
    return ("solver icmp %s @%d: %r, %r -> %r not proven sound (%s)"
            % (cond, w, a, b, r, res.status))


def solver_check_conv(opcode: str, a: AbsValue, w_out: int,
                      conflict_limit: int = 200_000) -> Optional[str]:
    w_in = a.width
    x = T.bv_var("sc_x", w_in)
    if opcode == "sext":
        z = T.sext_to(x, w_out) if w_out >= w_in else T.trunc_to(x, w_out)
    elif w_out >= w_in:
        z = T.zext_to(x, w_out)
    else:
        z = T.trunc_to(x, w_out)
    r = transfer_conv(opcode, a, w_out)
    formula = T.and_(membership_term(a, x), T.not_(membership_term(r, z)))
    res = check_sat(formula, conflict_limit=conflict_limit)
    if res.status == UNSAT:
        return None
    return ("solver %s %d->%d: %r -> %r not proven sound (%s)"
            % (opcode, w_in, w_out, a, r, res.status))


def solver_check_select(c: AbsValue, a: AbsValue, b: AbsValue,
                        conflict_limit: int = 200_000) -> Optional[str]:
    w = a.width
    cv = T.bv_var("sc_c", 1)
    x = T.bv_var("sc_x", w)
    y = T.bv_var("sc_y", w)
    z = T.ite(T.eq(cv, T.bv_const(1, 1)), x, y)
    r = transfer_select(c, a, b)
    formula = T.and_(membership_term(c, cv), membership_term(a, x),
                     membership_term(b, y), T.not_(membership_term(r, z)))
    res = check_sat(formula, conflict_limit=conflict_limit)
    if res.status == UNSAT:
        return None
    return ("solver select @%d: %r %r %r -> %r not proven sound (%s)"
            % (w, c, a, b, r, res.status))


def _spread_samples(width: int, count: int) -> List[AbsValue]:
    """A deterministic, structurally diverse sample of abstract values
    at a width too large to enumerate."""
    full = mask(width)
    out: List[AbsValue] = [AbsValue.top(width)]
    seeds = [0, 1, 3, full, full >> 1, 1 << (width - 1),
             0x55 & full, 0xA3 & full, full ^ 1]
    for i, s in enumerate(seeds):
        out.append(AbsValue.const(s, width))
        out.append(AbsValue.from_bits(KnownBits(width, s, 0)))
        out.append(AbsValue.from_bits(KnownBits(width, 0, s)))
        lo = s % (full + 1)
        hi = min(full, lo + (i + 1) * (full // 7 + 1))
        out.append(AbsValue.from_urange(URange(width, lo, hi)))
        int_min = -(1 << (width - 1))
        int_max = (1 << (width - 1)) - 1
        slo = int_min + (s % (full + 1)) // 2
        shi = min(int_max, slo + (i + 1))
        out.append(AbsValue.from_srange(SRange(width, slo, shi)))
    dedup: Dict[AbsValue, None] = {}
    for av in out:
        if not av.empty:
            dedup.setdefault(av, None)
    return list(dedup)[:count]


def solver_check_width(width: int, opcodes: Iterable[str] = BINOPS,
                       samples: int = 12,
                       conflict_limit: int = 200_000) -> List[str]:
    """Sampled solver-backed soundness sweep at one width."""
    fam = _spread_samples(width, samples)
    failures: List[str] = []
    for opcode in opcodes:
        for i, a in enumerate(fam):
            # pair each sample with a rotation of the family: covers
            # diverse (A, B) combinations in O(n) solver calls
            b = fam[(i * 5 + 3) % len(fam)]
            msg = solver_check_binop(opcode, a, b,
                                     conflict_limit=conflict_limit)
            if msg:
                failures.append(msg)
    for cond in ICMP_CONDS:
        for i, a in enumerate(fam[:6]):
            b = fam[(i * 3 + 1) % len(fam)]
            msg = solver_check_icmp(cond, a, b,
                                    conflict_limit=conflict_limit)
            if msg:
                failures.append(msg)
    for opcode in ("zext", "sext", "trunc"):
        for a in fam[:6]:
            w_out = width // 2 if opcode == "trunc" else width * 2
            msg = solver_check_conv(opcode, a, max(1, w_out),
                                    conflict_limit=conflict_limit)
            if msg:
                failures.append(msg)
    for i, a in enumerate(fam[:6]):
        b = fam[(i * 7 + 2) % len(fam)]
        for c in (AbsValue.top(1), AbsValue.const(0, 1), AbsValue.const(1, 1)):
            msg = solver_check_select(c, a, b,
                                      conflict_limit=conflict_limit)
            if msg:
                failures.append(msg)
    return failures


# ---------------------------------------------------------------------------
# Aggregate runner
# ---------------------------------------------------------------------------


def run_selfcheck(width: int = 3,
                  solver_width: Optional[int] = None) -> Dict[str, object]:
    """Run the full obligation suite; returns a report dict with a
    ``failures`` list (empty = every transfer proven sound)."""
    failures: List[str] = []
    checked = 0
    fam = abs_family(width)
    for opcode in BINOPS:
        failures += check_binop(opcode, width, fam)
        checked += 1
    for cond in ICMP_CONDS:
        failures += check_icmp(cond, width, fam)
        checked += 1
    failures += check_select(width, fam)
    checked += 1
    for opcode in CONVOPS:
        for w_out in (max(1, width - 1), width, width + 1):
            failures += check_conv(opcode, width, w_out, fam)
            checked += 1
    for op, arity in CONSTEXPR_OPS:
        failures += check_constexpr(op, arity, width, fam)
        checked += 1
    if solver_width:
        failures += solver_check_width(solver_width)
        checked += len(BINOPS)
    return {"width": width, "solver_width": solver_width,
            "obligations": checked, "failures": failures}


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import json
    import sys

    ap = argparse.ArgumentParser(
        description="absint transfer-function soundness self-check")
    ap.add_argument("--width", type=int, default=4,
                    help="exhaustive enumeration width (default 4)")
    ap.add_argument("--solver-width", type=int, default=None,
                    help="also run sampled solver-backed checks (e.g. 8)")
    args = ap.parse_args(argv)
    report = run_selfcheck(args.width, args.solver_width)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if report["failures"] else 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    raise SystemExit(main())
