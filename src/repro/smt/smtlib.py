"""SMT-LIB 2 script export.

The original Alive can be debugged by inspecting the queries it sends to
Z3; our built-in solver deserves the same affordance.  This module turns
any term (or ∃∀ query) into a complete SMT-LIB 2 script that external
solvers accept, enabling cross-checking of the built-in pipeline against
Z3/CVC5 where those are available.

The exporter is also used by the test suite as a *shape* check: scripts
must declare every free variable exactly once and be well-parenthesized.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from . import terms as T
from .printer import term_to_str_dag
from .sorts import is_bool
from .terms import Term


def _sort_str(sort) -> str:
    return "Bool" if is_bool(sort) else "(_ BitVec %d)" % sort.width


def declarations(variables: Iterable[Term]) -> List[str]:
    """``declare-const`` lines for *variables*, sorted by name."""
    decls = []
    for v in sorted(variables, key=lambda v: v.data):
        decls.append("(declare-const %s %s)" % (v.data, _sort_str(v.sort)))
    return decls


def to_script(formula: Term, logic: str = "QF_BV",
              expect: str = None) -> str:
    """A complete check-sat script for a quantifier-free formula."""
    lines = ["(set-logic %s)" % logic]
    if expect:
        lines.append("(set-info :status %s)" % expect)
    lines.extend(declarations(T.free_vars(formula)))
    lines.append("(assert %s)" % term_to_str_dag(formula))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def to_exists_forall_script(
    outer_vars: Sequence[Term],
    inner_vars: Sequence[Term],
    phi: Term,
    expect: str = None,
) -> str:
    """A BV-logic script for ``∃ outer ∀ inner : phi``.

    The outer variables become free constants (implicitly existential at
    the top level); the inner block is a genuine ``forall`` binder, which
    is how the paper's refinement queries look when handed to Z3.
    """
    inner = [v for v in dict.fromkeys(inner_vars)
             if v in T.free_vars(phi)]
    outer = [v for v in T.free_vars(phi) if v not in set(inner)]
    lines = ["(set-logic BV)"]
    if expect:
        lines.append("(set-info :status %s)" % expect)
    lines.extend(declarations(outer))
    body = term_to_str_dag(phi)
    if inner:
        binders = " ".join(
            "(%s %s)" % (v.data, _sort_str(v.sort)) for v in inner
        )
        lines.append("(assert (forall (%s) %s))" % (binders, body))
    else:
        lines.append("(assert %s)" % body)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def refinement_scripts(transformation, config=None) -> List[str]:
    """The negated refinement queries of one transformation, as scripts.

    One script per (common instruction, check kind); a script that is
    ``unsat`` corresponds to a check that holds.  Only the first feasible
    type assignment is exported (scripts are for human inspection).
    """
    from ..core.config import DEFAULT_CONFIG
    from ..core.refinement import _uses_memory
    from ..core.semantics import EncodeContext, TemplateEncoder, encode_precondition
    from ..core.typecheck import TypeAssignment, TypeChecker
    from ..core.verifier import type_assignments
    from ..ir import ast

    config = config or DEFAULT_CONFIG
    checker = TypeChecker()
    system = checker.check_transformation(transformation)
    mapping = next(type_assignments(system, config, limit=1))
    ctx = EncodeContext(TypeAssignment(checker, mapping), config)
    src = TemplateEncoder(ctx, is_target=False)
    tgt = TemplateEncoder(ctx, is_target=True, source=src)
    if _uses_memory(transformation):
        from ..core.memory import MemoryModel

        memory = MemoryModel(ctx)
        ctx.memory = memory
        src.memory = memory.template_state(False)
        tgt.memory = memory.template_state(True)
    src.encode_template(transformation.src.values())
    phi = encode_precondition(transformation.pre, src)
    tgt.encode_template(transformation.tgt.values())

    root = transformation.src[transformation.root]
    psi = T.and_(phi, src.defined(root), src.poison_free(root),
                 *ctx.side_constraints)

    scripts = []
    for name in transformation.tgt:
        if name not in transformation.src:
            continue
        s_inst = transformation.src[name]
        t_inst = transformation.tgt[name]
        goals = [
            ("defined", T.not_(tgt.defined(t_inst))),
            ("poison", T.not_(tgt.poison_free(t_inst))),
        ]
        if not isinstance(s_inst, (ast.Store, ast.Unreachable)):
            goals.append(
                ("value", T.ne(src.value(s_inst), tgt.value(t_inst)))
            )
        for kind, goal in goals:
            query = T.and_(psi, goal)
            script = to_exists_forall_script(
                [], src.undef_vars, query
            )
            scripts.append(
                "; %s — negated %s check for %s\n%s"
                % (transformation.name, kind, name, script)
            )
    return scripts
