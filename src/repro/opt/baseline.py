"""The baseline optimizer: constant folds and the stand-in for the full
InstCombine.

The paper's §6.4 compares LLVM 3.6's full InstCombine against the
compiler whose InstCombine was replaced by Alive-generated code
("LLVM+Alive").  We cannot ship LLVM, so :func:`baseline_rules` is the
stand-in for the *full* InstCombine: the constant folds, then the
identities of ``repro/suite/data/baseline.opt``, each a verified Alive
rule compiled like the corpus.  The Alive corpus covers only a subset
of these, so the two rule sets reproduce the paper's trade-off: the
subset compiles faster but yields slower code.

Constant folding stays native: each fold is a :class:`NativeRule`, a
Python body with the same ``try_apply`` interface as
:class:`~repro.opt.pass_manager.PeepholeOpt`, so both rule kinds run
under the same pass driver.  :func:`folding_rules` returns them alone,
as LLVM folds outside InstCombine.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..ir import intops
from ..ir.module import MConst, MFunction, MInstr, MValue
from ..suite import load_baseline
from .analysis import Analyses
from .matcher import Guard
from .pass_manager import PeepholeOpt, compile_opts


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


def baseline_rules() -> List[Union[NativeRule, PeepholeOpt]]:
    """The full baseline rule set (our stand-in for stock InstCombine):
    the folds, then the verified identities of ``baseline.opt``."""
    return folding_rules() + compile_opts(load_baseline())


def folding_rules() -> List[NativeRule]:
    """Constant folding only.

    In LLVM, constant folding happens in InstSimplify / the IR builder
    independent of InstCombine, so the paper's "LLVM+Alive" compiler
    still folds constants.  The §6.4 benchmarks pair these rules with
    the Alive corpus to model that pipeline faithfully.
    """
    return list(_RULES)
