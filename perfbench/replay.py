"""Independent checks of the verifier's "invalid" verdicts.

A counterexample is trusted only after it reproduces without the
solver.  Integer rules go through :func:`repro.fuzz.concrete.check_point`
(plain-integer evaluation of the three refinement conditions, source
undefs enumerated, analysis Booleans enumerated).  Floating-point rules
are built into concrete functions and run by the IR interpreter, whose
IEEE-754 arithmetic (:mod:`repro.ir.fpops`) shares no code with the
soft-float circuits the verifier bit-blasts.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.core.counterexample import KIND_POISON, KIND_VALUE
from repro.core.typecheck import TypeAssignment
from repro.core.verifier import decompose
from repro.fuzz.concrete import ConcreteUnsupported, check_point, target_undef_values
from repro.ir import ast, fpops
from repro.ir.interp import POISON, run_function
from repro.ir.intops import UndefinedBehavior
from repro.ir.module import MArg, MConst, MFunction
from repro.typing.types import FloatType


def replays(t: ast.Transformation, config, cex) -> bool:
    """Does *cex* witness that *t* is wrong, checked without the solver?"""
    _early, checker, mappings = decompose(t, config)
    inputs = {name: value for name, _tstr, _w, value in cex.inputs}
    for mapping in mappings:
        types = TypeAssignment(checker, mapping)
        if any(types.width_of(v, config.ptr_width) != w
               for v, (_n, _t, w, _v) in zip(t.inputs(), cex.inputs)):
            continue
        if _uses_fp(t, types):
            if _replay_fp(t, types, config, inputs, cex):
                return True
        elif _replay_int(t, types, config, inputs, cex):
            return True
    return False


def _uses_fp(t: ast.Transformation, types: TypeAssignment) -> bool:
    return any(isinstance(types.type_of(v), FloatType)
               for v in t.source_values() + t.target_values()
               if not isinstance(v, ast.FPLiteral))


def _replay_int(t, types, config, inputs, cex) -> bool:
    undefs = target_undef_values(t)
    ranges = [range(1 << types.width_of(u, config.ptr_width)) for u in undefs]
    for combo in itertools.product(*ranges):
        choice = {id(u): value for u, value in zip(undefs, combo)}
        try:
            violation = check_point(t, types, config, inputs, choice,
                                    max_undef_domain=1 << 12)
        except ConcreteUnsupported:
            return False
        if violation is not None and \
                (violation.kind, violation.name) == (cex.kind, cex.value_name):
            return True
    return False


def _replay_fp(t, types, config, inputs: Dict[str, int], cex) -> bool:
    """Run source and target as concrete functions at the cex inputs."""
    name = cex.value_name
    try:
        src = _build(t, t.src, types, config, name)
        tgt = _build(t, t.tgt, types, config, name)
    except (KeyError, ValueError):
        return False
    try:
        src_out = run_function(src, inputs)
    except UndefinedBehavior:
        return False  # undefined source licenses any target
    if src_out is POISON:
        return False
    try:
        tgt_out = run_function(tgt, inputs)
    except UndefinedBehavior:
        return False  # FP rules have no UB; a domain cex is not expected
    if cex.kind == KIND_POISON:
        return tgt_out is POISON
    if cex.kind != KIND_VALUE or tgt_out is POISON:
        return False
    root = t.src[name]
    ty = types.type_of(root)
    if not isinstance(ty, FloatType):
        return src_out != tgt_out
    kind = ty.kind
    if fpops.is_nan(src_out, kind) and fpops.is_nan(tgt_out, kind):
        return False  # any NaN refines any NaN
    flags = getattr(root, "flags", ())
    if ("nsz" in flags or "fast" in flags) and \
            fpops.is_zero(src_out, kind) and fpops.is_zero(tgt_out, kind):
        return False
    return src_out != tgt_out


def _build(t, template, types, config, root_name) -> MFunction:
    """A concrete function computing *template*'s value named *root_name*."""
    fn = MFunction("replay", [])
    built: Dict[int, object] = {}

    def width(v) -> int:
        return types.width_of(v, config.ptr_width)

    def build(v):
        if id(v) in built:
            return built[id(v)]
        if isinstance(v, (ast.Input, ast.ConstantSymbol)):
            result = MArg(v.name, width(v))
            fn.args.append(result)
        elif isinstance(v, ast.FPLiteral):
            result = MConst(fpops.encode_literal(v.value, types.type_of(v).kind),
                            width(v))
        elif isinstance(v, ast.Literal):
            result = MConst(v.value & ((1 << width(v)) - 1), width(v))
        elif isinstance(v, ast.Copy):
            result = build(v.x)
        elif isinstance(v, (ast.BinOp, ast.FBinOp)):
            result = fn.add(v.opcode, [build(v.a), build(v.b)], width(v),
                            flags=v.flags)
        elif isinstance(v, ast.FCmp):
            result = fn.add("fcmp", [build(v.a), build(v.b)], 1,
                            flags=v.flags, cond=v.cond)
        elif isinstance(v, ast.ICmp):
            result = fn.add("icmp", [build(v.a), build(v.b)], 1, cond=v.cond)
        elif isinstance(v, ast.Select):
            result = fn.add("select", [build(v.c), build(v.a), build(v.b)],
                            width(v))
        elif isinstance(v, ast.ConvOp):
            result = fn.add(v.opcode, [build(v.x)], width(v))
        else:
            raise ValueError("cannot replay %r concretely" % (v,))
        built[id(v)] = result
        return result

    fn.ret = build(template[root_name])
    return fn
