"""A concrete, mutable LLVM-like IR for the peephole pass engine.

The verifier works on polymorphic Alive *templates*; the optimizer
(:mod:`repro.opt`) rewrites *concrete* programs.  This module provides
that concrete IR: single-basic-block SSA functions over fixed-width
integers, mirroring the instruction set of Figure 1 (InstCombine does
not modify control flow, so one block suffices — the paper's §2.1).

The IR is deliberately simple: values are :class:`MConst`,
:class:`MArg`, or :class:`MInstr`; a :class:`MFunction` owns an ordered
instruction list and a distinguished return value.  Use counts are
maintained for ``hasOneUse``-style predicates and for DCE.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .ast import BINOPS, FBINOPS, FCMP_CONDS, FLAG_OK, FP_FLAGS, ICMP_CONDS

#: widths that denote an IEEE-754 format in the concrete IR (the IR
#: carries widths only; FP-ness is implied by the opcode)
FP_WIDTHS = (16, 32, 64)


class MValue:
    """Base class for concrete IR values; ``width`` is the bit width."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width


class MConst(MValue):
    """A constant integer (stored unsigned, truncated to width)."""

    __slots__ = ("value",)

    def __init__(self, value: int, width: int):
        super().__init__(width)
        self.value = value & ((1 << width) - 1)

    def __repr__(self) -> str:
        return "i%d %d" % (self.width, self.value)


class MArg(MValue):
    """A function argument (an opaque input)."""

    __slots__ = ("name",)

    def __init__(self, name: str, width: int):
        super().__init__(width)
        self.name = name

    def __repr__(self) -> str:
        return "%s:i%d" % (self.name, self.width)


class MInstr(MValue):
    """A concrete instruction.

    ``opcode`` is one of the binops, ``icmp``, ``select``, ``zext``,
    ``sext``, or ``trunc``.  For ``icmp`` the predicate is in ``cond``.
    """

    __slots__ = ("name", "opcode", "operands", "flags", "cond")

    def __init__(self, name: str, opcode: str, operands: Sequence[MValue],
                 width: int, flags: Sequence[str] = (), cond: Optional[str] = None):
        super().__init__(width)
        self.name = name
        self.opcode = opcode
        self.operands = list(operands)
        self.flags = set(flags)
        self.cond = cond
        self._check()

    def _check(self) -> None:
        if self.opcode in BINOPS:
            assert len(self.operands) == 2
            for f in self.flags:
                if f not in FLAG_OK.get(self.opcode, ()):
                    raise ValueError(
                        "flag %r not allowed on %r" % (f, self.opcode)
                    )
            for op in self.operands:
                if op.width != self.width:
                    raise ValueError("width mismatch in %s" % self.name)
        elif self.opcode == "icmp":
            assert self.cond in ICMP_CONDS
            assert len(self.operands) == 2
            if self.width != 1:
                raise ValueError("icmp result must be i1")
            if self.operands[0].width != self.operands[1].width:
                raise ValueError("icmp operand width mismatch")
        elif self.opcode == "select":
            assert len(self.operands) == 3
            if self.operands[0].width != 1:
                raise ValueError("select condition must be i1")
            if not (self.operands[1].width == self.operands[2].width == self.width):
                raise ValueError("select arm width mismatch")
        elif self.opcode in ("zext", "sext"):
            assert len(self.operands) == 1
            if self.operands[0].width >= self.width:
                raise ValueError("%s must widen" % self.opcode)
        elif self.opcode == "trunc":
            assert len(self.operands) == 1
            if self.operands[0].width <= self.width:
                raise ValueError("trunc must narrow")
        elif self.opcode in FBINOPS:
            assert len(self.operands) == 2
            for f in self.flags:
                if f not in FP_FLAGS:
                    raise ValueError(
                        "flag %r not allowed on %r" % (f, self.opcode)
                    )
            if self.width not in FP_WIDTHS:
                raise ValueError(
                    "no floating-point format of width %d" % self.width
                )
            for op in self.operands:
                if op.width != self.width:
                    raise ValueError("width mismatch in %s" % self.name)
        elif self.opcode == "fcmp":
            assert self.cond in FCMP_CONDS
            assert len(self.operands) == 2
            if self.width != 1:
                raise ValueError("fcmp result must be i1")
            if self.operands[0].width != self.operands[1].width:
                raise ValueError("fcmp operand width mismatch")
            if self.operands[0].width not in FP_WIDTHS:
                raise ValueError("fcmp operands must have an FP width")
        elif self.opcode in ("fpext", "fptrunc"):
            assert len(self.operands) == 1
            if (self.width not in FP_WIDTHS
                    or self.operands[0].width not in FP_WIDTHS):
                raise ValueError("%s requires FP widths" % self.opcode)
            if self.opcode == "fpext" and self.operands[0].width >= self.width:
                raise ValueError("fpext must widen")
            if self.opcode == "fptrunc" and self.operands[0].width <= self.width:
                raise ValueError("fptrunc must narrow")
        elif self.opcode in ("fptosi", "fptoui"):
            assert len(self.operands) == 1
            if self.operands[0].width not in FP_WIDTHS:
                raise ValueError("%s operand must have an FP width" % self.opcode)
        elif self.opcode in ("sitofp", "uitofp"):
            assert len(self.operands) == 1
            if self.width not in FP_WIDTHS:
                raise ValueError("%s result must have an FP width" % self.opcode)
        else:
            raise ValueError("unknown opcode %r" % self.opcode)

    def __repr__(self) -> str:
        ops = ", ".join(
            o.name if isinstance(o, (MArg, MInstr)) else repr(o)
            for o in self.operands
        )
        flags = "".join(" " + f for f in sorted(self.flags))
        cond = " %s" % self.cond if self.cond else ""
        return "%s = %s%s%s i%d %s" % (
            self.name, self.opcode, cond, flags, self.width, ops
        )


class MFunction:
    """A single-block SSA function.

    Attributes:
        name: function name.
        args: list of :class:`MArg`.
        instrs: instruction list in definition order.
        ret: the returned value.
    """

    def __init__(self, name: str, args: Sequence[MArg]):
        self.name = name
        self.args = list(args)
        self.instrs: List[MInstr] = []
        self.ret: Optional[MValue] = None
        self._counter = 0

    # ------------------------------------------------------------------

    def fresh_name(self, hint: str = "t") -> str:
        self._counter += 1
        return "%%%s%d" % (hint, self._counter)

    def add(self, opcode: str, operands: Sequence[MValue], width: int,
            flags: Sequence[str] = (), cond: Optional[str] = None,
            name: Optional[str] = None, before: Optional[MInstr] = None) -> MInstr:
        """Create and insert an instruction (at the end, or before
        *before* to keep defs above uses)."""
        inst = MInstr(name or self.fresh_name(), opcode, operands, width,
                      flags, cond)
        if before is None:
            self.instrs.append(inst)
        else:
            self.instrs.insert(self.instrs.index(before), inst)
        return inst

    def use_counts(self) -> Dict[int, int]:
        """Map from value id to number of uses (including by ret)."""
        counts: Dict[int, int] = {}
        for inst in self.instrs:
            for op in inst.operands:
                counts[id(op)] = counts.get(id(op), 0) + 1
        if self.ret is not None:
            counts[id(self.ret)] = counts.get(id(self.ret), 0) + 1
        return counts

    def replace_all_uses(self, old: MValue, new: MValue) -> int:
        """RAUW: rewrite every use of *old* to *new*; returns #rewrites."""
        n = 0
        for inst in self.instrs:
            # values compare by identity, so `in` scans in C
            if old not in inst.operands:
                continue
            for i, op in enumerate(inst.operands):
                if op is old:
                    inst.operands[i] = new
                    n += 1
        if self.ret is old:
            self.ret = new
            n += 1
        return n

    def verify(self) -> None:
        """Check SSA well-formedness: defs precede uses, no duplicates."""
        defined = {id(a) for a in self.args}
        names = set()
        for inst in self.instrs:
            if inst.name in names:
                raise ValueError("duplicate instruction name %s" % inst.name)
            names.add(inst.name)
            for op in inst.operands:
                if isinstance(op, MInstr) and id(op) not in defined:
                    raise ValueError(
                        "%s uses %s before its definition" % (inst.name, op.name)
                    )
                if isinstance(op, MArg) and id(op) not in defined:
                    raise ValueError("%s uses unknown argument" % inst.name)
            defined.add(id(inst))
        if isinstance(self.ret, MInstr) and id(self.ret) not in defined:
            raise ValueError("return value is not defined")

    def __repr__(self) -> str:
        lines = ["define %s(%s) {" % (
            self.name, ", ".join(repr(a) for a in self.args)
        )]
        for inst in self.instrs:
            lines.append("  " + repr(inst))
        if self.ret is not None:
            ret = self.ret.name if isinstance(self.ret, (MArg, MInstr)) else repr(self.ret)
            lines.append("  ret %s" % ret)
        lines.append("}")
        return "\n".join(lines)


class Module:
    """A collection of functions (a compilation unit for the benches)."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: List[MFunction] = []

    def add_function(self, fn: MFunction) -> MFunction:
        self.functions.append(fn)
        return fn

    def instruction_count(self) -> int:
        return sum(len(f.instrs) for f in self.functions)
