"""Enumeration of feasible type assignments (paper §3.2).

The paper enumerates all models of the typing constraints with an SMT
solver, iteratively blocking each model.  Our domain is finite by
construction — integer widths are bounded by ``max_width`` (the paper
uses 64; tests use smaller bounds for speed) and nesting is limited to
two levels — so a backtracking search over class representatives yields
exactly the same assignments.

Width order is biased toward 4 and 8 bits first, mirroring the paper's
counterexample-quality heuristic (§3.1.4): the first failing type
assignment reported to the user is the most readable one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from .constraints import (
    BOOL,
    FIRST_CLASS,
    FIXED,
    FLOAT,
    FP_SMALLER,
    INT,
    INT_OR_PTR,
    MIN_WIDTH,
    POINTER_TO,
    SAME_WIDTH,
    SMALLER,
    ConstraintSystem,
)
from .types import (
    FP_KINDS,
    FloatType,
    IntType,
    PointerType,
    Type,
    TypeContext,
    is_first_class,
    is_float,
    is_int,
    is_pointer,
)


def preferred_widths(max_width: int, prefer: Sequence[int] = (4, 8)) -> List[int]:
    """Widths 1..max_width with the preferred ones first."""
    rest = [w for w in range(1, max_width + 1) if w not in prefer]
    return [w for w in prefer if w <= max_width] + rest


def _unary_ok(t: Type, tag: str, payload: Optional[Type]) -> bool:
    if tag == INT:
        return is_int(t)
    if tag == FIRST_CLASS:
        return is_first_class(t)
    if tag == INT_OR_PTR:
        return is_int(t) or is_pointer(t)
    if tag == BOOL:
        return is_int(t) and t.width == 1
    if tag == FIXED:
        return t is payload
    if tag == FLOAT:
        return is_float(t)
    if tag == MIN_WIDTH:
        return is_int(t) and t.width >= payload
    raise ValueError("unknown unary constraint %r" % tag)


def _binary_ok(tag: str, ta: Type, tb: Type, ctx: TypeContext) -> bool:
    if tag == SMALLER:
        return is_int(ta) and is_int(tb) and ta.width < tb.width
    if tag == FP_SMALLER:
        return is_float(ta) and is_float(tb) and ta.width < tb.width
    if tag == SAME_WIDTH:
        return (
            is_first_class(ta)
            and is_first_class(tb)
            and ctx.width_of(ta) == ctx.width_of(tb)
        )
    if tag == POINTER_TO:
        return is_pointer(ta) and ta.pointee is tb
    raise ValueError("unknown binary constraint %r" % tag)


def enumerate_assignments(
    system: ConstraintSystem,
    max_width: int = 8,
    ctx: Optional[TypeContext] = None,
    prefer: Sequence[int] = (4, 8),
    include_pointers: bool = True,
    limit: Optional[int] = None,
    fp_formats: Sequence[str] = FP_KINDS,
) -> Iterator[Dict[str, Type]]:
    """Yield every feasible type assignment as a var -> Type map.

    The assignment maps *all* variables (not only class representatives).
    An infeasible system — say, a FIXED type that conflicts with its
    class's other constraints — yields nothing; callers treat "no
    assignments" as a type error.
    """
    ctx = ctx or TypeContext()
    classes = system.classes()
    members = system.members()
    binaries = system.resolved_binary()

    widths = preferred_widths(max_width, prefer)
    base_ints: List[Type] = [IntType(w) for w in widths]
    # explicitly-annotated types (e.g. `alloca i8` when the width bound is
    # below 8) and pointers to them must be in the candidate pools too
    fixed_types = {
        payload
        for tags in system.unary.values()
        for tag, payload in tags
        if tag == FIXED and payload is not None
    }
    for t in fixed_types:
        if is_int(t) and t not in base_ints:
            base_ints.append(t)
    base_ptrs: List[Type] = []
    if include_pointers:
        base_ptrs = [PointerType(t) for t in base_ints]
        for t in fixed_types:
            if is_pointer(t) and t not in base_ptrs:
                base_ptrs.append(t)
    # floating-point candidates enter a class's pool only when the class
    # is explicitly floating (FLOAT tag, fixed float annotation, or an
    # fpext/fptrunc endpoint) — integer-only transformations enumerate
    # exactly the same assignments as before FP support existed
    base_fps: List[Type] = [FloatType(k) for k in fp_formats]

    # per-class candidate domains filtered by unary constraints
    domains: Dict[str, List[Type]] = {}
    for cls in classes:
        tags = system.unary.get(cls, [])
        fixed_types = [payload for tag, payload in tags if tag == FIXED]
        if fixed_types:
            candidates: List[Type] = [fixed_types[0]]
        else:
            needs_fp = any(tag == FLOAT for tag, _ in tags) or any(
                tag == FP_SMALLER and cls in (a, b)
                for tag, a, b in binaries
            )
            if needs_fp:
                candidates = list(base_fps)
            else:
                candidates = list(base_ints)
                needs_ptr = any(
                    tag in (FIRST_CLASS, INT_OR_PTR) for tag, _ in tags
                ) or any(
                    tag == POINTER_TO and a == cls for tag, a, _b in binaries
                )
                if needs_ptr:
                    candidates = candidates + base_ptrs
        domains[cls] = [
            t for t in candidates if all(_unary_ok(t, tag, p) for tag, p in tags)
        ]
        if not domains[cls]:
            return  # no feasible assignment at all

    # order classes most-constrained-first for a smaller search tree
    order = sorted(classes, key=lambda c: len(domains[c]))
    index = {c: i for i, c in enumerate(order)}

    # binaries become checkable once both classes are assigned
    checks_at: Dict[int, List] = {}
    for tag, a, b in binaries:
        pos = max(index[a], index[b])
        checks_at.setdefault(pos, []).append((tag, a, b))

    assignment: Dict[str, Type] = {}
    produced = 0

    def backtrack(i: int) -> Iterator[Dict[str, Type]]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if i == len(order):
            full = {}
            for cls, t in assignment.items():
                for member in members.get(cls, [cls]):
                    full[member] = t
            produced += 1
            yield full
            return
        cls = order[i]
        for t in domains[cls]:
            assignment[cls] = t
            ok = True
            for tag, a, b in checks_at.get(i, []):
                if not _binary_ok(tag, assignment[a], assignment[b], ctx):
                    ok = False
                    break
            if ok:
                yield from backtrack(i + 1)
            if limit is not None and produced >= limit:
                break
        assignment.pop(cls, None)

    yield from backtrack(0)
