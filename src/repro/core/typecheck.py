"""Type constraint generation for transformations (Figure 3).

Walks both templates and the precondition of a transformation and emits
constraints into a :class:`~repro.typing.constraints.ConstraintSystem`.
Type variables are keyed by *name* for named values (inputs, constants,
instructions), which automatically unifies a source instruction with the
target instruction that overwrites it (they must agree in type), and by
object identity for anonymous values (literals, undef, constant
expressions).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir import ast
from ..ir.constexpr import ConstExpr
from ..ir.precond import PredCall, PredCmp, Predicate
from ..typing.constraints import ConstraintSystem
from ..typing.types import FloatType, IntType, Type


def literal_min_width(value: int) -> int:
    """Minimum width representing *value* as a *signed* integer.

    Literals in Alive denote signed integers: ``1`` requires two bits, so
    a transformation mentioning ``%x + 1`` is never instantiated at i1
    (where the bit pattern 1 would mean -1).  This mirrors the original
    implementation and is essential for e.g. the paper's
    ``(x+1) > x ==> true`` example, which would be wrong at i1 otherwise.
    """
    if value >= 0:
        return value.bit_length() + 1
    return (-value - 1).bit_length() + 1


class TypeChecker:
    """Builds the constraint system for one transformation."""

    def __init__(self) -> None:
        self.system = ConstraintSystem()
        self._anon: Dict[int, str] = {}

    # ------------------------------------------------------------------

    def tv(self, v: ast.Value) -> str:
        """The type variable key for a value."""
        if isinstance(v, (ast.Input, ast.ConstantSymbol, ast.Instruction)):
            return self.system.var("v:" + v.name)
        key = self._anon.get(id(v))
        if key is None:
            key = self.system.fresh(type(v).__name__.lower())
            self._anon[id(v)] = key
        return key

    # ------------------------------------------------------------------

    def check_transformation(self, t: ast.Transformation) -> ConstraintSystem:
        for inst in t.src.values():
            self.visit(inst)
        for inst in t.tgt.values():
            self.visit(inst)
        self.visit_predicate(t.pre)
        return self.system

    # ------------------------------------------------------------------

    def visit_operand(self, v: ast.Value) -> str:
        """Emit constraints for an operand value; returns its type var."""
        key = self.tv(v)
        if v.ty is not None:
            self.system.fixed(key, v.ty)
        if isinstance(v, ast.Literal):
            self.system.int_(key)
            if v.ty is None:
                # an explicit annotation (e.g. `true` ≡ i1 1) overrides
                # the signed-fit requirement
                self.system.min_width(key, literal_min_width(v.value))
        elif isinstance(v, ast.FPLiteral):
            self.system.float_(key)
        elif isinstance(v, ast.ConstantSymbol):
            self.system.int_(key)
        elif isinstance(v, ast.UndefValue):
            self.system.first_class(key)
        elif isinstance(v, ConstExpr):
            self.visit_constexpr(v, key)
        elif isinstance(v, ast.Input):
            pass  # constrained by uses
        return key

    def visit_constexpr(self, e: ConstExpr, key: str) -> None:
        self.system.int_(key)
        if e.op == "width":
            # the argument may have any first-class type; the result width
            # is imposed by the context only
            arg_key = self.visit_operand(e.args[0])
            self.system.first_class(arg_key)
            return
        for a in e.args:
            arg_key = self.visit_operand(a)
            self.system.eq(key, arg_key)

    # ------------------------------------------------------------------

    def visit(self, inst: ast.Instruction) -> None:
        key = self.tv(inst)
        if getattr(inst, "ty", None) is not None:
            self.system.fixed(key, inst.ty)

        if isinstance(inst, ast.BinOp):
            self.system.int_(key)
            self.system.eq(key, self.visit_operand(inst.a))
            self.system.eq(key, self.visit_operand(inst.b))
        elif isinstance(inst, ast.FBinOp):
            self.system.float_(key)
            self.system.eq(key, self.visit_operand(inst.a))
            self.system.eq(key, self.visit_operand(inst.b))
        elif isinstance(inst, ast.FCmp):
            a = self.visit_operand(inst.a)
            b = self.visit_operand(inst.b)
            self.system.eq(a, b)
            self.system.float_(a)
            self.system.bool_(key)
        elif isinstance(inst, ast.ICmp):
            a = self.visit_operand(inst.a)
            b = self.visit_operand(inst.b)
            self.system.eq(a, b)
            self.system.int_or_ptr(a)
            self.system.bool_(key)
        elif isinstance(inst, ast.Select):
            c = self.visit_operand(inst.c)
            self.system.bool_(c)
            a = self.visit_operand(inst.a)
            b = self.visit_operand(inst.b)
            self.system.eq(key, a)
            self.system.eq(key, b)
            self.system.first_class(key)
        elif isinstance(inst, ast.ConvOp):
            x = self.visit_operand(inst.x)
            if inst.src_ty is not None:
                self.system.fixed(x, inst.src_ty)
            if inst.opcode in ("zext", "sext"):
                self.system.int_(x)
                self.system.int_(key)
                self.system.smaller(x, key)
            elif inst.opcode == "trunc":
                self.system.int_(x)
                self.system.int_(key)
                self.system.smaller(key, x)
            elif inst.opcode == "bitcast":
                self.system.first_class(x)
                self.system.first_class(key)
                self.system.same_width(key, x)
            elif inst.opcode == "inttoptr":
                self.system.int_(x)
                self.system.pointer_to(key, self.system.fresh("pointee"))
            elif inst.opcode == "ptrtoint":
                self.system.pointer_to(x, self.system.fresh("pointee"))
                self.system.int_(key)
            elif inst.opcode == "fpext":
                self.system.float_(x)
                self.system.float_(key)
                self.system.fp_smaller(x, key)
            elif inst.opcode == "fptrunc":
                self.system.float_(x)
                self.system.float_(key)
                self.system.fp_smaller(key, x)
            elif inst.opcode in ("fptosi", "fptoui"):
                self.system.float_(x)
                self.system.int_(key)
            elif inst.opcode in ("sitofp", "uitofp"):
                self.system.int_(x)
                self.system.float_(key)
        elif isinstance(inst, ast.Copy):
            self.system.eq(key, self.visit_operand(inst.x))
        elif isinstance(inst, ast.Alloca):
            elem = self.system.fresh("elem")
            if inst.elem_ty is not None:
                self.system.fixed(elem, inst.elem_ty)
            self.system.pointer_to(key, elem)
            count = self.visit_operand(inst.count)
            self.system.int_(count)
        elif isinstance(inst, ast.Load):
            p = self.visit_operand(inst.p)
            self.system.pointer_to(p, key)
            self.system.first_class(key)
        elif isinstance(inst, ast.Store):
            v = self.visit_operand(inst.v)
            p = self.visit_operand(inst.p)
            self.system.pointer_to(p, v)
            self.system.first_class(v)
        elif isinstance(inst, ast.GEP):
            p = self.visit_operand(inst.p)
            elem = self.system.fresh("pointee")
            self.system.pointer_to(p, elem)
            # simplified GEP: the result has the same pointer type
            self.system.eq(key, p)
            for i in inst.idxs:
                self.system.int_(self.visit_operand(i))
        elif isinstance(inst, ast.Unreachable):
            pass
        else:  # pragma: no cover - exhaustive over the AST
            raise ast.AliveError("cannot type-check %r" % inst)

    def visit_predicate(self, pred: Predicate) -> None:
        stack = [pred]
        while stack:
            p = stack.pop()
            if isinstance(p, PredCmp):
                a = self.visit_operand(p.a)
                b = self.visit_operand(p.b)
                self.system.eq(a, b)
            elif isinstance(p, PredCall):
                keys = [self.visit_operand(a) for a in p.args]
                # built-ins relate same-width integer arguments, except
                # width() which is polymorphic
                if p.fn not in ("hasOneUse", "isConstant"):
                    for k in keys[1:]:
                        self.system.eq(keys[0], k)
            stack.extend(p.children())


class TypeAssignment:
    """A concrete type assignment for one transformation.

    Wraps the checker (whose keying scheme locates each value's type
    variable) and one model produced by the enumerator.
    """

    def __init__(self, checker: TypeChecker, mapping: Dict[str, Type]):
        self.checker = checker
        self.mapping = mapping

    def signature(self) -> str:
        """Canonical sorted ``var=type`` form; names this assignment's
        width class (the batch engine uses the same form in job keys)."""
        return ",".join(
            "%s=%s" % (var, self.mapping[var]) for var in sorted(self.mapping)
        )

    def type_of(self, v: ast.Value) -> Type:
        key = self.checker.tv(v)
        root = self.checker.system.find(key)
        try:
            return self.mapping[root]
        except KeyError:
            raise ast.AliveError(
                "no type assigned for %s (key %s)" % (v.name, key)
            )

    def width_of(self, v: ast.Value, ptr_width: int) -> int:
        t = self.type_of(v)
        if isinstance(t, (IntType, FloatType)):
            return t.width
        from ..typing.types import is_pointer

        if is_pointer(t):
            return ptr_width
        raise ast.AliveError("value %s has non-first-class type %s" % (v.name, t))


def build_constraints(t: ast.Transformation) -> ConstraintSystem:
    """Convenience wrapper: constraints for one transformation."""
    return TypeChecker().check_transformation(t)
