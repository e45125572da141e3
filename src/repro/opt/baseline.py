"""A hand-written InstCombine-style baseline optimizer.

The paper's §6.4 compares LLVM 3.6's full InstCombine against the
compiler whose InstCombine was replaced by Alive-generated code
("LLVM+Alive").  We cannot ship LLVM, so this module is the stand-in
for the *full* InstCombine: a broad set of hand-written rewrites coded
directly in Python (the way InstCombine rules are coded directly in
C++).  The Alive-generated optimizer covers only a subset of these, so
the two engines reproduce the paper's trade-off: the subset compiles
faster but yields slower code.

Each rule is a :class:`NativeRule` with the same ``try_apply`` interface
as :class:`~repro.opt.pass_manager.PeepholeOpt`, so both rule kinds run
under the same pass driver.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..ir import intops
from ..ir.module import MConst, MFunction, MInstr, MValue
from .analysis import Analyses
from .matcher import Guard


class NativeRule:
    """A hand-coded peephole rule.

    ``fn(func, inst, analyses)`` returns a replacement value (possibly a
    fresh instruction inserted before *inst*) or None when the rule does
    not apply; it is only called on instructions with one of *opcodes*
    (None: any opcode).
    """

    def __init__(self, name: str, opcodes: Optional[Sequence[str]],
                 fn: Callable[[MFunction, MInstr, Analyses], Optional[MValue]]):
        self.name = name
        self.guard = Guard(opcodes)
        self._fn = fn

    def try_apply(self, func: MFunction, inst: MInstr,
                  analyses: Analyses) -> bool:
        opcodes = self.guard.opcodes
        if opcodes is not None and inst.opcode not in opcodes:
            return False
        replacement = self._fn(func, inst, analyses)
        if replacement is None or replacement is inst:
            return False
        func.replace_all_uses(inst, replacement)
        return True


def _const(v: MValue) -> Optional[int]:
    return v.value if isinstance(v, MConst) else None


def _is_pow2(x: int) -> bool:
    return x != 0 and (x & (x - 1)) == 0


def _log2(x: int) -> int:
    return x.bit_length() - 1


_RULES: List[NativeRule] = []


def rule(name: str, *opcodes: str):
    def deco(fn):
        _RULES.append(NativeRule(name, opcodes or None, fn))
        return fn
    return deco


# ---------------------------------------------------------------------------
# Constant folding (every opcode)
# ---------------------------------------------------------------------------


def _fold_binop(func, inst, analyses):
    a, b = _const(inst.operands[0]), _const(inst.operands[1])
    if a is None or b is None:
        return None
    try:
        value = intops.binop(inst.opcode, a, b, inst.width)
    except intops.UndefinedBehavior:
        return None  # UB stays in place; folding it away would hide it
    if intops.binop_poisons(inst.opcode, inst.flags, a, b, inst.width):
        return None
    return MConst(value, inst.width)


for _op in ("add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
            "shl", "lshr", "ashr", "and", "or", "xor"):
    rule("fold-" + _op, _op)(_fold_binop)


@rule("fold-icmp", "icmp")
def _fold_icmp(func, inst, analyses):
    a, b = _const(inst.operands[0]), _const(inst.operands[1])
    if a is None or b is None:
        return None
    return MConst(
        intops.icmp(inst.cond, a, b, inst.operands[0].width), 1
    )


@rule("fold-select", "select")
def _fold_select(func, inst, analyses):
    c = _const(inst.operands[0])
    if c is None:
        return None
    return inst.operands[1] if c else inst.operands[2]


@rule("fold-conv", "zext", "sext", "trunc")
def _fold_conv(func, inst, analyses):
    x = _const(inst.operands[0])
    if x is None:
        return None
    return MConst(
        intops.convert(inst.opcode, x, inst.operands[0].width, inst.width),
        inst.width,
    )


# ---------------------------------------------------------------------------
# Algebraic identities
# ---------------------------------------------------------------------------


@rule("add-zero", "add")
def _add_zero(func, inst, analyses):
    a, b = inst.operands
    if _const(b) == 0:
        return a
    if _const(a) == 0:
        return b
    return None


@rule("sub-zero", "sub")
def _sub_zero(func, inst, analyses):
    if _const(inst.operands[1]) == 0:
        return inst.operands[0]
    return None


@rule("sub-self", "sub")
def _sub_self(func, inst, analyses):
    if inst.operands[0] is inst.operands[1]:
        return MConst(0, inst.width)
    return None


@rule("mul-one", "mul")
def _mul_one(func, inst, analyses):
    a, b = inst.operands
    if _const(b) == 1:
        return a
    if _const(a) == 1:
        return b
    return None


@rule("mul-zero", "mul")
def _mul_zero(func, inst, analyses):
    if _const(inst.operands[1]) == 0 or _const(inst.operands[0]) == 0:
        return MConst(0, inst.width)
    return None


@rule("mul-pow2-to-shl", "mul")
def _mul_pow2(func, inst, analyses):
    c = _const(inst.operands[1])
    if c is None or not _is_pow2(c) or c == 1:
        return None
    shamt = MConst(_log2(c), inst.width)
    # nsw cannot be blindly preserved (cf. PR21242); nuw transfers
    flags = [f for f in inst.flags if f == "nuw"]
    return func.add("shl", [inst.operands[0], shamt], inst.width,
                    flags=flags, before=inst)


@rule("udiv-pow2-to-lshr", "udiv")
def _udiv_pow2(func, inst, analyses):
    c = _const(inst.operands[1])
    if c is None or not _is_pow2(c):
        return None
    shamt = MConst(_log2(c), inst.width)
    flags = ["exact"] if "exact" in inst.flags else []
    return func.add("lshr", [inst.operands[0], shamt], inst.width,
                    flags=flags, before=inst)


@rule("div-one", "udiv", "sdiv")
def _div_one(func, inst, analyses):
    if _const(inst.operands[1]) == 1:
        return inst.operands[0]
    return None


@rule("rem-one", "urem", "srem")
def _rem_one(func, inst, analyses):
    if _const(inst.operands[1]) == 1:
        return MConst(0, inst.width)
    return None


@rule("and-self", "and")
def _and_self(func, inst, analyses):
    if inst.operands[0] is inst.operands[1]:
        return inst.operands[0]
    return None


@rule("and-zero", "and")
def _and_zero(func, inst, analyses):
    if _const(inst.operands[1]) == 0 or _const(inst.operands[0]) == 0:
        return MConst(0, inst.width)
    return None


@rule("and-allones", "and")
def _and_allones(func, inst, analyses):
    ones = intops.mask(inst.width)
    if _const(inst.operands[1]) == ones:
        return inst.operands[0]
    if _const(inst.operands[0]) == ones:
        return inst.operands[1]
    return None


@rule("or-self", "or")
def _or_self(func, inst, analyses):
    if inst.operands[0] is inst.operands[1]:
        return inst.operands[0]
    return None


@rule("or-zero", "or")
def _or_zero(func, inst, analyses):
    if _const(inst.operands[1]) == 0:
        return inst.operands[0]
    if _const(inst.operands[0]) == 0:
        return inst.operands[1]
    return None


@rule("xor-zero", "xor")
def _xor_zero(func, inst, analyses):
    if _const(inst.operands[1]) == 0:
        return inst.operands[0]
    if _const(inst.operands[0]) == 0:
        return inst.operands[1]
    return None


@rule("xor-self", "xor")
def _xor_self(func, inst, analyses):
    if inst.operands[0] is inst.operands[1]:
        return MConst(0, inst.width)
    return None


@rule("shift-zero", "shl", "lshr", "ashr")
def _shift_zero(func, inst, analyses):
    if _const(inst.operands[1]) == 0:
        return inst.operands[0]
    return None


@rule("double-xor", "xor")
def _double_xor(func, inst, analyses):
    # (x ^ C1) ^ C2 -> x ^ (C1 ^ C2)
    a, b = inst.operands
    c2 = _const(b)
    if c2 is None or not isinstance(a, MInstr) or a.opcode != "xor":
        return None
    c1 = _const(a.operands[1])
    if c1 is None:
        return None
    return func.add("xor", [a.operands[0], MConst(c1 ^ c2, inst.width)],
                    inst.width, before=inst)


@rule("add-add-const", "add")
def _add_add_const(func, inst, analyses):
    # (x + C1) + C2 -> x + (C1 + C2); flags dropped conservatively
    a, b = inst.operands
    c2 = _const(b)
    if c2 is None or not isinstance(a, MInstr) or a.opcode != "add":
        return None
    c1 = _const(a.operands[1])
    if c1 is None:
        return None
    return func.add("add", [a.operands[0], MConst(c1 + c2, inst.width)],
                    inst.width, before=inst)


@rule("not-not", "xor")
def _not_not(func, inst, analyses):
    # ~~x -> x   (xor (xor x, -1), -1)
    a, b = inst.operands
    ones = intops.mask(inst.width)
    if _const(b) != ones or not isinstance(a, MInstr) or a.opcode != "xor":
        return None
    if _const(a.operands[1]) != ones:
        return None
    return a.operands[0]


@rule("neg-of-sub", "sub")
def _neg_of_sub(func, inst, analyses):
    # 0 - (a - b) -> b - a
    a, b = inst.operands
    if _const(a) != 0 or not isinstance(b, MInstr) or b.opcode != "sub":
        return None
    return func.add("sub", [b.operands[1], b.operands[0]], inst.width,
                    before=inst)


@rule("icmp-same", "icmp")
def _icmp_same(func, inst, analyses):
    if inst.operands[0] is not inst.operands[1]:
        return None
    result = inst.cond in ("eq", "uge", "ule", "sge", "sle")
    return MConst(int(result), 1)


@rule("select-same", "select")
def _select_same(func, inst, analyses):
    if inst.operands[1] is inst.operands[2]:
        return inst.operands[1]
    return None


@rule("select-icmp-identity", "select")
def _select_icmp_identity(func, inst, analyses):
    # select (icmp eq x, C), C, x -> x
    c, a, b = inst.operands
    if not isinstance(c, MInstr) or c.opcode != "icmp" or c.cond != "eq":
        return None
    x, k = c.operands
    if isinstance(a, MConst) and isinstance(k, MConst) and a.value == k.value \
            and b is x:
        return x
    return None


@rule("shl-shl-const", "shl")
def _shl_shl(func, inst, analyses):
    # (x << C1) << C2 -> x << (C1+C2) when C1+C2 < width
    a, b = inst.operands
    c2 = _const(b)
    if c2 is None or not isinstance(a, MInstr) or a.opcode != "shl":
        return None
    c1 = _const(a.operands[1])
    if c1 is None or c1 + c2 >= inst.width:
        return None
    return func.add("shl", [a.operands[0], MConst(c1 + c2, inst.width)],
                    inst.width, before=inst)


@rule("masked-and-known", "and")
def _masked_and(func, inst, analyses):
    # x & C -> x when the known-zero bits make the mask a no-op
    a, b = inst.operands
    c = _const(b)
    if c is None:
        return None
    kz, _ = analyses.known_bits.known(a)
    if (kz | c) & intops.mask(inst.width) == intops.mask(inst.width):
        return a
    return None


@rule("sext-to-zext", "sext")
def _sext_nonneg(func, inst, analyses):
    # sext x -> zext x when the sign bit is known zero
    if analyses.sign_bit_known_zero(inst.operands[0]):
        return func.add("zext", [inst.operands[0]], inst.width, before=inst)
    return None


def baseline_rules() -> List[NativeRule]:
    """The full baseline rule set (our stand-in for stock InstCombine)."""
    return list(_RULES)


def folding_rules() -> List[NativeRule]:
    """Constant folding only.

    In LLVM, constant folding happens in InstSimplify / the IR builder
    independent of InstCombine, so the paper's "LLVM+Alive" compiler
    still folds constants.  The §6.4 benchmarks pair these rules with
    the Alive corpus to model that pipeline faithfully.
    """
    return [r for r in _RULES if r.name.startswith("fold-")]


def baseline_rule_names() -> List[str]:
    return [r.name for r in _RULES]
