"""Top-level verification driver (paper §3).

``verify`` runs the full pipeline for one transformation:

1. well-formedness / scoping validation (§2.1);
2. type constraint generation (Figure 3) and feasible-type enumeration
   (§3.2), biased toward 4- and 8-bit widths for readable
   counterexamples;
3. per-assignment refinement checking (§3.1.2 / §3.3.2);
4. counterexample reporting in the Figure 5 format.

The result statuses mirror the tool's observable behaviours:

* ``valid`` — proven correct for every feasible type assignment
  (within the configured width bound);
* ``invalid`` — refuted; a counterexample is attached;
* ``unknown`` — a solver budget was exhausted (the paper reports the
  same for some mul/div transformations at large widths);
* ``unsupported`` — uses features outside the implemented subset;
* ``untypeable`` — no feasible type assignment exists.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..ir import ast
from ..typing.constraints import ConstraintSystem
from ..typing.enumerate import enumerate_assignments
from .config import Config, DEFAULT_CONFIG
from .counterexample import Counterexample
from .refinement import CheckOutcome, check_assignment
from .semantics import Unsupported
from .typecheck import TypeAssignment, TypeChecker

VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"
UNSUPPORTED = "unsupported"
UNTYPEABLE = "untypeable"


class VerificationResult:
    """Outcome of verifying one transformation.

    Attributes:
        status: one of the module-level status constants.
        counterexample: present when ``status == "invalid"``.
        assignments_checked: number of type assignments examined.
        queries: total SMT queries issued.
        elapsed: wall-clock seconds.
        detail: human-readable auxiliary information.
    """

    def __init__(self, name: str, status: str,
                 counterexample: Optional[Counterexample] = None,
                 assignments_checked: int = 0, queries: int = 0,
                 elapsed: float = 0.0, detail: str = ""):
        self.name = name
        self.status = status
        self.counterexample = counterexample
        self.assignments_checked = assignments_checked
        self.queries = queries
        self.elapsed = elapsed
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.status == VALID

    def summary(self) -> str:
        base = "%s: %s" % (self.name, self.status)
        if self.status == VALID:
            base += " (%d type assignment(s), %d queries, %.2fs)" % (
                self.assignments_checked, self.queries, self.elapsed
            )
        elif self.detail:
            base += " (%s)" % self.detail
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "VerificationResult(%r, %s)" % (self.name, self.status)


class ResultBuilder:
    """Incremental aggregation of per-assignment :class:`CheckOutcome`s.

    Encodes the driver's result semantics in one place so that the
    sequential :func:`verify` loop and the parallel batch engine
    (:mod:`repro.engine`) produce identical verdicts: outcomes are fed
    in type-enumeration order; the first "invalid" or "unsupported"
    outcome is terminal (later assignments are irrelevant, exactly as
    the sequential loop never reaches them); otherwise any "unknown"
    among the checked assignments downgrades "valid" to "unknown".
    """

    def __init__(self, name: str):
        self.name = name
        self.assignments_checked = 0
        self.queries = 0
        self.saw_unknown = False
        self._start = time.monotonic()

    def _done(self, status: str, **kwargs) -> VerificationResult:
        return VerificationResult(
            self.name, status, elapsed=time.monotonic() - self._start,
            **kwargs
        )

    def add(self, outcome: CheckOutcome) -> Optional[VerificationResult]:
        """Feed the next outcome; returns a terminal result or None."""
        self.assignments_checked += 1
        self.queries += outcome.queries
        if outcome.status == "invalid":
            return self._done(
                INVALID,
                counterexample=outcome.counterexample,
                assignments_checked=self.assignments_checked,
                queries=self.queries,
                detail="%s check failed" % outcome.kind,
            )
        if outcome.status == "unsupported":
            return self._done(
                UNSUPPORTED, detail=outcome.detail,
                assignments_checked=self.assignments_checked,
                queries=self.queries,
            )
        if outcome.status == "unknown":
            self.saw_unknown = True
        return None

    def finish(self) -> VerificationResult:
        """The final result after all (non-terminal) outcomes."""
        if self.assignments_checked == 0:
            return self._done(UNTYPEABLE, detail="no feasible type assignment")
        if self.saw_unknown:
            return self._done(
                UNKNOWN, assignments_checked=self.assignments_checked,
                queries=self.queries, detail="solver budget exhausted",
            )
        return self._done(
            VALID, assignments_checked=self.assignments_checked,
            queries=self.queries,
        )


def _located(t: ast.Transformation, detail: str) -> str:
    """Suffix *detail* with the rule's ``file:line`` when it has one.

    Rules parsed from memory carry no path, so their error messages are
    byte-identical to the pre-span format.
    """
    if t.path is not None:
        return "%s (%s)" % (detail, t.location())
    return detail


def type_assignments(
    system: ConstraintSystem,
    config: Config,
    limit: Optional[int] = None,
) -> Iterator[Dict]:
    """The feasible type assignments *config* admits, in enumeration order.

    The one mapping from :class:`Config` to the §3.2 enumeration: the
    width bound, the preferred widths, the assignment cap and the
    floating-point formats.  Every caller that enumerates assignments
    goes through here, so the engine's planner and worker, the linter
    and the SMT-LIB export all see the same assignment at each index.
    *limit* overrides ``config.max_type_assignments``.
    """
    return enumerate_assignments(
        system,
        max_width=config.max_width,
        prefer=config.prefer_widths,
        limit=config.max_type_assignments if limit is None else limit,
        fp_formats=config.fp_formats,
    )


def decompose(
    t: ast.Transformation,
    config: Config = DEFAULT_CONFIG,
) -> Tuple[Optional[VerificationResult], Optional[TypeChecker], List[Dict]]:
    """Job-decomposition hook for the batch engine.

    Splits one transformation into its independent per-type-assignment
    refinement jobs.  Returns ``(early, checker, mappings)``: when the
    transformation fails validation/typing outright, ``early`` is the
    finished result and no jobs exist; otherwise ``mappings`` lists the
    feasible type assignments in enumeration order (possibly empty —
    the aggregate of zero jobs is "untypeable").
    """
    try:
        t.validate()
    except ast.ScopeError as e:
        return (
            VerificationResult(t.name, UNSUPPORTED,
                               detail=_located(t, str(e))),
            None, [],
        )
    checker = TypeChecker()
    try:
        system = checker.check_transformation(t)
    except ast.AliveError as e:
        return (
            VerificationResult(t.name, UNSUPPORTED,
                               detail=_located(t, str(e))),
            None, [],
        )
    return None, checker, list(type_assignments(system, config))


def verify(
    t: ast.Transformation,
    config: Config = DEFAULT_CONFIG,
) -> VerificationResult:
    """Verify one transformation for all feasible type assignments."""
    builder = ResultBuilder(t.name)
    early, checker, mappings = decompose(t, config)
    if early is not None:
        return early
    try:
        for mapping in mappings:
            types = TypeAssignment(checker, mapping)
            outcome = check_assignment(t, types, config)
            terminal = builder.add(outcome)
            if terminal is not None:
                return terminal
    except Unsupported as e:
        terminal = builder.add(CheckOutcome("unsupported", detail=str(e)))
        assert terminal is not None
        return terminal
    return builder.finish()


def verify_all(
    transformations: List[ast.Transformation],
    config: Config = DEFAULT_CONFIG,
) -> List[VerificationResult]:
    """Verify a list of transformations, returning one result each."""
    return [verify(t, config) for t in transformations]
