"""Every proof of ``prove_refinement`` is a "valid" verdict of the solver.

The abstract tier is a must-analysis: ``True`` from
:func:`repro.absint.prove.prove_refinement` claims the target refines
the source for that type assignment, with no solver involved.  Lint's
``provable-by-absint`` finding rests on that claim, so this test checks
it against :func:`repro.core.refinement.check_assignment` at every
feasible type assignment of the shipped corpus, the Figure 8 bugs and
the patch revisions — the last two carry invalid rules, so a proof
that claims too much shows — and insists that enough assignments are
proved for the check to mean something.
"""

import pytest

from repro.absint.prove import prove_refinement
from repro.core import Config
from repro.core.refinement import check_assignment
from repro.core.typecheck import TypeAssignment, TypeChecker
from repro.ir import ast
from repro.suite import load_all_flat, load_bugs, load_patches
from repro.typing.enumerate import enumerate_assignments

CONFIG = Config(max_width=4, prefer_widths=(4,), ptr_width=16,
                max_type_assignments=2)

#: the corpus alone proves 73 assignments under CONFIG; a drop far
#: below that means the tier stopped proving, not that the rules changed
MIN_PROVED = 70


def _assignments(t):
    checker = TypeChecker()
    try:
        t.validate()
        system = checker.check_transformation(t)
    except ast.AliveError:
        return
    for mapping in enumerate_assignments(
            system, max_width=CONFIG.max_width,
            prefer=CONFIG.prefer_widths,
            limit=CONFIG.max_type_assignments,
            fp_formats=CONFIG.fp_formats):
        yield TypeAssignment(checker, mapping)


@pytest.fixture(scope="module")
def proved():
    """(rule, assignment index, types) for every abstract proof."""
    out = []
    for t in load_all_flat() + load_bugs() + load_patches():
        for i, types in enumerate(_assignments(t)):
            if prove_refinement(t, types, CONFIG):
                out.append((t, i, types))
    return out


class TestProveSound:
    def test_every_proof_is_valid_for_the_solver(self, proved):
        wrong = []
        for t, i, types in proved:
            status = check_assignment(t, types, CONFIG).status
            if status != "valid":
                wrong.append((t.name, i, status))
        assert wrong == []

    def test_proofs_are_not_vacuous(self, proved):
        assert len(proved) >= MIN_PROVED
