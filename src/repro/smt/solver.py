"""Solver front-end: check-sat, model extraction, and ∃∀ solving.

The Alive correctness conditions (paper §3.1.2) are of the form

    ∀ I, P, Ū  ∃ U :  ψ ⇒ C

where ``I`` are inputs/constants, ``P`` analysis bits, ``Ū`` the target's
undef variables and ``U`` the source's undef variables.  Validity is
checked by refuting the negation

    ∃ I, P, Ū  ∀ U :  ψ ∧ ¬C

which is an exists-forall problem over bitvectors.  When the source has
no undef values the inner block is empty and the query is plain QF_BV,
solved by bit-blasting + CDCL.  Otherwise we run a CEGIS
(counterexample-guided inductive synthesis) loop:

1. maintain a finite set S of instantiations for the ∀ variables;
2. solve ``∧_{u∈S} φ[U := u]`` for the outer variables;
3. given a candidate model for the outer variables, look for a value of
   the ∀ variables falsifying φ; if none exists the candidate is a true
   witness; otherwise add it to S and repeat.

This decides the fragment (finite domains) and terminates because each
iteration removes at least one outer candidate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import terms as T
from .bitblast import BitBlaster
from .cnf import CnfBuilder
from .eval import evaluate
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .sorts import is_bool, is_bv
from .terms import Term


class SolverError(Exception):
    """Raised when the solver cannot decide a query within its budget."""


class Result:
    """Outcome of a satisfiability query.

    Attributes:
        status: "sat", "unsat" or "unknown".
        model: for "sat", a map from variable terms to integer values
            (Booleans are 0/1, bitvectors unsigned).
        stats: solver statistics: the conflicts, decisions and
            propagations of the call that produced the result, or the
            CEGIS rounds of an exists-forall answer.
    """

    def __init__(self, status: str, model: Optional[Dict[Term, int]] = None,
                 stats: Optional[dict] = None):
        self.status = status
        self.model = model or {}
        self.stats = stats or {}

    def is_sat(self) -> bool:
        return self.status == SAT

    def is_unsat(self) -> bool:
        return self.status == UNSAT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Result(%s, %d vars)" % (self.status, len(self.model))


class IncrementalSession:
    """A (bit-blaster, CDCL solver) pair for one CEGIS loop.

    The refinement conditions of paper §3.1.2 are independent queries,
    and each is decided by one fresh :func:`check_sat`.  The one family
    of queries that pays for a long-lived solver is the ∃∀ CEGIS loop
    for source ``undef`` (:func:`solve_exists_forall`): every synthesis
    round re-solves the previous round's formula plus one more
    instantiation.  The loop builds one session, feeds it the growing
    conjunction and its counterexample queries, and drops it on return.

    The session keeps one :class:`BitBlaster` (whose term→literal memo
    makes the shared part of each new query free — hash-consed terms
    compile once, and the builder's gate cache shares identical gates
    built from different terms) feeding one incremental
    :class:`SatSolver` (whose learned clauses, activities and phases
    carry over).  Queries are posed as *assumptions*: the Tseitin root
    literal of a formula is assumed rather than asserted, so it
    constrains exactly one :meth:`check` call.  Gate definition clauses
    are always satisfiable on their own, so a past query leaves no
    semantic residue — only reusable structure.
    """

    def __init__(self):
        self.builder = CnfBuilder()
        self.blaster = BitBlaster(self.builder)
        self.solver = SatSolver(self.builder.num_vars)
        self._fed = 0

    def reset(self) -> None:
        """Drop all solver and encoding state."""
        self.builder = CnfBuilder()
        self.blaster = BitBlaster(self.builder)
        self.solver = SatSolver(self.builder.num_vars)
        self._fed = 0

    def _sync(self) -> None:
        """Ship clauses added to the builder since the last solve."""
        self.solver.ensure_num_vars(self.builder.num_vars)
        for clause in self.builder.clauses_since(self._fed):
            self.solver.add_clause(clause)
        self._fed = self.builder.mark()

    # -- incremental constraint surface --------------------------------

    def new_assumption(self) -> int:
        """A fresh activation literal for :meth:`add_implied` guards."""
        return self.builder.new_var()

    def add_implied(self, act: int, formula: Term) -> None:
        """Assert ``act → formula``: active only while *act* is assumed."""
        lit = self.blaster.lit(formula)
        self.builder.add_clause([-act, lit])

    # -- solving -------------------------------------------------------

    def check(self, formula: Optional[Term] = None,
              assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              deadline: Optional[float] = None) -> Result:
        """Decide *formula* (under *assumptions*) in this session.

        The formula's root literal is assumed, not asserted, so the
        call leaves only definitional clauses behind.  ``formula`` may
        be None to solve purely under activation-literal assumptions
        (the CEGIS synthesis step).
        """
        assumptions = list(assumptions)
        if formula is not None:
            if formula.is_true() and not assumptions:
                return Result(SAT, {})
            if formula.is_false():
                return Result(UNSAT)
            assumptions.insert(0, self.blaster.lit(formula))
        self._sync()
        solver = self.solver
        before = _counters(solver)
        status = solver.solve(assumptions=assumptions,
                              conflict_limit=conflict_limit,
                              deadline=deadline)
        return _result(status, self.blaster, solver, before)


def _counters(solver: SatSolver) -> Tuple[int, int, int]:
    return solver.conflicts, solver.decisions, solver.propagations


def _result(status: str, blaster: BitBlaster, solver: SatSolver,
            before: Tuple[int, int, int]) -> Result:
    """Wrap one :meth:`SatSolver.solve` call's answer.  ``stats`` are
    this call's counts (the solver's totals minus *before*), not the
    totals of a CEGIS session's long-lived solver."""
    stats = {name: now - then for name, now, then in
             zip(("conflicts", "decisions", "propagations"),
                 _counters(solver), before)}
    if status == SAT:
        return Result(SAT, blaster.extract_model(solver), stats)
    return Result(status, stats=stats)


def check_sat(formula: Term, conflict_limit: Optional[int] = None,
              deadline: Optional[float] = None) -> Result:
    """Decide a quantifier-free formula by bit-blasting + CDCL, with a
    fresh :class:`BitBlaster` and :class:`SatSolver` per call.

    ``deadline`` is a ``time.monotonic()`` timestamp after which the
    search gives up and reports "unknown" (wall-clock budget, in
    addition to the deterministic conflict budget).

    Variables not mentioned in the formula after simplification do not
    appear in the returned model; callers needing totals should use
    :func:`complete_model`.
    """
    if formula.is_true():
        return Result(SAT, {})
    if formula.is_false():
        return Result(UNSAT)
    bb = BitBlaster()
    bb.assert_formula(formula)
    solver = SatSolver(bb.builder.num_vars, conflict_limit=conflict_limit,
                       deadline=deadline)
    for clause in bb.builder.clauses:
        solver.add_clause(clause)
    return _result(solver.solve(), bb, solver, (0, 0, 0))


def complete_model(model: Dict[Term, int], variables: Iterable[Term]) -> Dict[Term, int]:
    """Extend *model* with a default value (0) for missing variables."""
    out = dict(model)
    for v in variables:
        out.setdefault(v, 0)
    return out


def check_valid(formula: Term, conflict_limit: Optional[int] = None,
                deadline: Optional[float] = None) -> Result:
    """Check validity of a QF formula; a "sat" result carries a
    counterexample model (of the negation)."""
    return check_sat(T.not_(formula), conflict_limit=conflict_limit,
                     deadline=deadline)


def solve_exists_forall(
    outer_vars: Sequence[Term],
    inner_vars: Sequence[Term],
    phi: Term,
    conflict_limit: Optional[int] = None,
    max_rounds: int = 10_000,
    expansion_limit: int = 256,
    deadline: Optional[float] = None,
) -> Result:
    """Decide ``∃ outer ∀ inner : phi``.

    Small universal domains (at most *expansion_limit* assignments) are
    eliminated by direct expansion — one quantifier-free query over the
    conjunction ``∧_u phi[inner := u]`` — which avoids the CEGIS worst
    case of walking the outer space one counterexample at a time (an
    8-bit undef variable would otherwise cost up to 256 solver rounds).
    Larger domains fall back to the CEGIS loop, which builds one
    :class:`IncrementalSession` for its rounds and drops it on return:
    instantiations accumulate as clauses guarded by one activation
    literal, so each synthesis round re-solves the growing conjunction
    without re-encoding it, and the counterexample queries run in the
    same session.  Every other query is one fresh :func:`check_sat`.

    Returns a Result whose model (when sat) assigns the *outer* variables.
    ``inner_vars`` must be disjoint from ``outer_vars``; variables of
    *phi* outside both sets are treated as outer (existential).
    """
    if not inner_vars:
        return check_sat(phi, conflict_limit=conflict_limit,
                         deadline=deadline)
    if phi.is_false():
        return Result(UNSAT)

    # keep only inner variables that actually occur (deduplicated)
    free = T.free_vars(phi)
    inner_vars = [v for v in dict.fromkeys(inner_vars) if v in free]
    if not inner_vars:
        return check_sat(phi, conflict_limit=conflict_limit,
                         deadline=deadline)

    from .brute import domain_size

    if domain_size(inner_vars) <= expansion_limit:
        expanded = T.and_(
            *[
                T.substitute(phi, dict(zip(inner_vars, combo)))
                for combo in _inner_combos(inner_vars)
            ]
        )
        return check_sat(expanded, conflict_limit=conflict_limit,
                         deadline=deadline)

    import time as _time

    inner_set = set(inner_vars)
    session = IncrementalSession()
    # seed with one instantiation: all-zero inner assignment
    act = session.new_assumption()
    session.add_implied(act, T.substitute(
        phi, {v: _zero_of(v) for v in inner_vars}))
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise SolverError(
                "CEGIS did not converge in %d rounds" % max_rounds)
        if deadline is not None and _time.monotonic() >= deadline:
            return Result(UNKNOWN)
        cand = session.check(None, [act], conflict_limit=conflict_limit,
                             deadline=deadline)
        if cand.status == UNKNOWN:
            return Result(UNKNOWN)
        if cand.is_unsat():
            return Result(UNSAT, stats={"cegis_rounds": rounds})
        # candidate assignment for the outer variables (default
        # missing to 0)
        outer_model = {}
        for v in T.free_vars(phi):
            if v not in inner_set:
                outer_model[v] = cand.model.get(v, 0)
        for v in outer_vars:
            outer_model.setdefault(v, cand.model.get(v, 0))
        # verify: ∀ inner phi[outer := candidate] ?
        grounded = T.substitute(
            phi, {v: _const_of(v, val) for v, val in outer_model.items()}
        )
        cex = session.check(T.not_(grounded), conflict_limit=conflict_limit,
                            deadline=deadline)
        if cex.status == UNKNOWN:
            return Result(UNKNOWN)
        if cex.is_unsat():
            return Result(SAT, outer_model, stats={"cegis_rounds": rounds})
        # block: add the instantiation phi[inner := cex values]
        inst = {
            v: _const_of(v, cex.model.get(v, 0)) for v in inner_vars
        }
        session.add_implied(act, T.substitute(phi, inst))


def _inner_combos(inner_vars: Sequence[Term]):
    """All assignments to *inner_vars* as tuples of constant terms."""
    import itertools

    domains = []
    for v in inner_vars:
        if is_bool(v.sort):
            domains.append((T.FALSE, T.TRUE))
        else:
            w = v.sort.width
            domains.append(tuple(T.bv_const(i, w) for i in range(1 << w)))
    return itertools.product(*domains)


def _zero_of(v: Term) -> Term:
    if is_bool(v.sort):
        return T.FALSE
    return T.bv_const(0, v.sort.width)


def _const_of(v: Term, value: int) -> Term:
    if is_bool(v.sort):
        return T.bool_const(bool(value))
    return T.bv_const(value, v.sort.width)


def enumerate_models(
    formula: Term,
    project_vars: Sequence[Term],
    limit: int = 100_000,
    conflict_limit: Optional[int] = None,
):
    """Yield all models of *formula* projected onto *project_vars*.

    Implements the iterative strengthening loop from the paper (§3.2):
    solve, block the model's projection, repeat until unsat.  Used for
    type enumeration cross-checks and attribute inference.
    """
    remaining = formula
    produced = 0
    while produced < limit:
        res = check_sat(remaining, conflict_limit=conflict_limit)
        if res.status == UNKNOWN:
            raise SolverError("model enumeration hit the solver budget")
        if res.is_unsat():
            return
        proj = {v: res.model.get(v, 0) for v in project_vars}
        yield proj
        produced += 1
        block = T.or_(
            *[T.ne(v, _const_of(v, val)) for v, val in proj.items()]
        )
        if block.is_false():
            return  # no projection vars: single model
        remaining = T.and_(remaining, block)


def model_evaluates(formula: Term, model: Dict[Term, int]) -> bool:
    """Check that *model* satisfies *formula* (total over its free vars)."""
    full = complete_model(model, T.free_vars(formula))
    return bool(evaluate(formula, full))
