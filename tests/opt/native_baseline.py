"""The baseline optimizer's 27 hand-coded identities, kept as the
reference for the Alive rules of ``src/repro/suite/data/baseline.opt``
that replaced them.

The bodies below are the native rules verbatim, in their old order
(after the constant folds).  :data:`ALIVE_FORMS` maps each native rule
to the Alive rules, in file order, that together fire exactly where it
fired: a commuted operand form, a kept flag and each ``icmp`` predicate
became a rule of its own.  Two native rules have no Alive form, because
an earlier rule always fired first: ``not-not`` (``double-xor`` turns
``~~x`` into ``x ^ 0``) and ``div-one`` on ``udiv`` (``udiv x, 1`` is
``udiv-pow2-to-lshr``'s ``lshr x, 0``).
"""

from typing import List

from repro.ir import intops
from repro.ir.module import MConst, MInstr, MValue
from repro.opt import NativeRule

_FORMS = {
    "add-zero": ["add-zero", "add-zero-comm"],
    "sub-zero": ["sub-zero"],
    "sub-self": ["sub-self"],
    "mul-one": ["mul-one", "mul-one-comm"],
    "mul-zero": ["mul-zero", "mul-zero-comm"],
    "mul-pow2-to-shl": ["mul-nuw-pow2-to-shl", "mul-pow2-to-shl"],
    "udiv-pow2-to-lshr": ["udiv-exact-pow2-to-lshr", "udiv-pow2-to-lshr"],
    "div-one": ["sdiv-one"],
    "rem-one": ["urem-one", "srem-one"],
    "and-self": ["and-self"],
    "and-zero": ["and-zero", "and-zero-comm"],
    "and-allones": ["and-allones", "and-allones-comm"],
    "or-self": ["or-self"],
    "or-zero": ["or-zero", "or-zero-comm"],
    "xor-zero": ["xor-zero", "xor-zero-comm"],
    "xor-self": ["xor-self"],
    "shift-zero": ["shl-zero", "lshr-zero", "ashr-zero"],
    "double-xor": ["double-xor"],
    "add-add-const": ["add-add-const"],
    "not-not": [],
    "neg-of-sub": ["neg-of-sub"],
    "icmp-same": ["icmp-%s-self" % cond for cond in (
        "eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle")],
    "select-same": ["select-same"],
    "select-icmp-identity": ["select-icmp-identity"],
    "shl-shl-const": ["shl-shl-const"],
    "masked-and-known": ["masked-and-known"],
    "sext-to-zext": ["sext-to-zext"],
}
#: native rule -> the names of its Alive forms, in rule order
ALIVE_FORMS = {native: ["Baseline:" + name for name in names]
               for native, names in _FORMS.items()}


def _const(v: MValue):
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


def native_identities() -> List[NativeRule]:
    """The 27 native identities, in their order."""
    return list(_RULES)


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

