"""Attribute inference for nsw/nuw/exact (paper §3.4, Figure 6).

Two dual problems:

* **weakest precondition** — the fewest instruction attributes the
  *source* template needs for the transformation to remain correct
  (each required source attribute narrows the set of programs the
  optimization may fire on);
* **strongest postcondition** — the most attributes that can safely be
  placed on the *target* template (each preserved attribute keeps
  undefined-behavior information alive for later passes).

Correctness is monotone in the attribute assignment partial order the
paper exploits: adding a source attribute only strengthens ψ, and
removing a target attribute only weakens the proof obligation.  The
enumeration below walks candidate assignments under that order, checking
each with the full refinement pipeline, and intersects feasibility
across all type assignments exactly as Figure 6's outer loop does.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ir import ast
from .config import Config, DEFAULT_CONFIG
from .refinement import check_assignment
from .typecheck import TypeAssignment, TypeChecker
from .verifier import type_assignments

#: one attribute slot: (template, instruction name, flag)
Slot = Tuple[str, str, str]


def attribute_slots(t: ast.Transformation) -> List[Slot]:
    """Every (template, instruction, flag) position that may carry an
    nsw/nuw/exact attribute."""
    slots: List[Slot] = []
    for template, insts in (("src", t.src), ("tgt", t.tgt)):
        for name, inst in insts.items():
            if isinstance(inst, ast.BinOp):
                for flag in ast.FLAG_OK.get(inst.opcode, ()):
                    slots.append((template, name, flag))
    return slots


def current_assignment(t: ast.Transformation,
                       slots: Sequence[Slot]) -> FrozenSet[Slot]:
    present = set()
    for template, name, flag in slots:
        inst = (t.src if template == "src" else t.tgt)[name]
        if flag in inst.flags:
            present.add((template, name, flag))
    return frozenset(present)


class _FlagPatcher:
    """Temporarily installs a flag assignment on the transformation."""

    def __init__(self, t: ast.Transformation, slots: Sequence[Slot]):
        self.t = t
        self.slots = list(slots)
        self._saved: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for template, name, _flag in self.slots:
            inst = (t.src if template == "src" else t.tgt)[name]
            self._saved[(template, name)] = tuple(inst.flags)

    def install(self, enabled: FrozenSet[Slot]) -> None:
        per_inst: Dict[Tuple[str, str], List[str]] = {
            key: [] for key in self._saved
        }
        for slot in self.slots:
            if slot in enabled:
                per_inst[(slot[0], slot[1])].append(slot[2])
        for (template, name), flags in per_inst.items():
            inst = (self.t.src if template == "src" else self.t.tgt)[name]
            inst.flags = tuple(flags)

    def restore(self) -> None:
        for (template, name), flags in self._saved.items():
            inst = (self.t.src if template == "src" else self.t.tgt)[name]
            inst.flags = flags


class AttributeInferenceResult:
    """Outcome of attribute inference for one transformation."""

    def __init__(self, name: str, slots: List[Slot],
                 original: FrozenSet[Slot],
                 weakest_source: Optional[FrozenSet[Slot]],
                 strongest_target: Optional[FrozenSet[Slot]],
                 assignments_tested: int):
        self.name = name
        self.slots = slots
        self.original = original
        self.weakest_source = weakest_source
        self.strongest_target = strongest_target
        self.assignments_tested = assignments_tested

    @property
    def precondition_weakened(self) -> bool:
        """A strictly smaller source attribute set suffices."""
        if self.weakest_source is None:
            return False
        orig_src = {s for s in self.original if s[0] == "src"}
        return set(self.weakest_source) < orig_src

    @property
    def postcondition_strengthened(self) -> bool:
        """Strictly more target attributes can be preserved."""
        if self.strongest_target is None:
            return False
        orig_tgt = {s for s in self.original if s[0] == "tgt"}
        return set(self.strongest_target) > orig_tgt

    def describe(self) -> str:
        lines = ["%s:" % self.name]
        if self.weakest_source is not None:
            lines.append(
                "  weakest source attributes:  {%s}"
                % ", ".join(sorted("%s.%s" % (n, f) for _, n, f in self.weakest_source))
            )
        if self.strongest_target is not None:
            lines.append(
                "  strongest target attributes: {%s}"
                % ", ".join(sorted("%s.%s" % (n, f) for _, n, f in self.strongest_target))
            )
        lines.append(
            "  precondition weakened: %s, postcondition strengthened: %s"
            % (self.precondition_weakened, self.postcondition_strengthened)
        )
        return "\n".join(lines)


def _correct_for_all_types(
    t: ast.Transformation, config: Config
) -> Optional[bool]:
    """Is the (currently installed) flag assignment correct for every
    feasible type assignment?  None means the solver gave up."""
    checker = TypeChecker()
    system = checker.check_transformation(t)
    any_assignment = False
    for mapping in type_assignments(system, config):
        any_assignment = True
        outcome = check_assignment(t, TypeAssignment(checker, mapping), config)
        if outcome.status == "invalid":
            return False
        if outcome.status == "unknown":
            return None
    return any_assignment


def infer_attributes(
    t: ast.Transformation,
    config: Config = DEFAULT_CONFIG,
) -> AttributeInferenceResult:
    """Infer the weakest-precondition / strongest-postcondition attribute
    placement (Figure 6), via monotone search over the assignment
    lattice instead of blind 2^n enumeration:

    * drop source attributes greedily (the correct source sets are
      upward-closed, so greedy removal reaches a minimal element);
    * add target attributes greedily (the correct target sets are
      downward-closed, so greedy addition reaches a maximal element).
    """
    slots = attribute_slots(t)
    original = current_assignment(t, slots)
    patcher = _FlagPatcher(t, slots)
    tested = 0

    def correct(assignment: FrozenSet[Slot]) -> Optional[bool]:
        nonlocal tested
        tested += 1
        patcher.install(assignment)
        try:
            return _correct_for_all_types(t, config)
        finally:
            patcher.restore()

    try:
        base_ok = correct(original)
        if not base_ok:
            return AttributeInferenceResult(
                t.name, slots, original, None, None, tested
            )

        # Phase 1: weakest precondition — greedily drop source attributes
        src_flags = {s for s in original if s[0] == "src"}
        tgt_flags = {s for s in original if s[0] == "tgt"}
        minimal_src = set(src_flags)
        for slot in sorted(src_flags):
            candidate = (minimal_src - {slot}) | tgt_flags
            if correct(frozenset(candidate)):
                minimal_src.discard(slot)

        # Phase 2: strongest postcondition — greedily add target
        # attributes, keeping the *original* source attributes (the
        # shipped precondition)
        maximal_tgt = set(tgt_flags)
        tgt_candidates = [s for s in slots if s[0] == "tgt" and s not in tgt_flags]
        for slot in sorted(tgt_candidates):
            candidate = src_flags | maximal_tgt | {slot}
            if correct(frozenset(candidate)):
                maximal_tgt.add(slot)

        return AttributeInferenceResult(
            t.name,
            slots,
            original,
            frozenset(minimal_src),
            frozenset(maximal_tgt),
            tested,
        )
    finally:
        patcher.restore()
