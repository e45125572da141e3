"""Unit and property tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.sat import SAT, UNKNOWN, UNSAT, SatSolver, luby, solve_cnf


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_powers(self):
        # position 2^k - 1 carries value 2^(k-1)
        for k in range(1, 10):
            assert luby((1 << k) - 1) == 1 << (k - 1)


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert SatSolver(3).solve() == SAT

    def test_single_unit(self):
        s = SatSolver(1)
        s.add_clause([1])
        assert s.solve() == SAT
        assert s.model_value(1)

    def test_contradicting_units(self):
        s = SatSolver(1)
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() == UNSAT

    def test_empty_clause(self):
        s = SatSolver(1)
        s.add_clause([])
        assert s.solve() == UNSAT

    def test_tautology_ignored(self):
        s = SatSolver(1)
        s.add_clause([1, -1])
        assert s.solve() == SAT

    def test_duplicate_literals_collapse(self):
        s = SatSolver(1)
        s.add_clause([1, 1, 1])
        assert s.solve() == SAT
        assert s.model_value(1)

    def test_simple_implication_chain(self):
        s = SatSolver(4)
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        s.add_clause([-3, 4])
        assert s.solve() == SAT
        assert all(s.model_value(v) for v in (1, 2, 3, 4))

    def test_requires_backtracking(self):
        # (x1 | x2) & (x1 | -x2) & (-x1 | x3) & (-x1 | -x3) forces x1
        # then conflicts: UNSAT overall
        s = SatSolver(3)
        for clause in ([1, 2], [1, -2], [-1, 3], [-1, -3]):
            s.add_clause(clause)
        assert s.solve() == UNSAT


def pigeonhole_clauses(holes):
    """PHP(holes+1, holes): classic small-but-hard UNSAT family."""
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h + 1

    clauses = []
    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_unsat(self, holes):
        nvars, clauses = pigeonhole_clauses(holes)
        status, _ = solve_cnf(nvars, clauses)
        assert status == UNSAT

    def test_sat_when_enough_holes(self):
        # PHP with equal pigeons and holes is satisfiable
        holes = 4

        def var(p, h):
            return p * holes + h + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(holes)]
        for h in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    clauses.append([-var(p1, h), -var(p2, h)])
        status, model = solve_cnf(holes * holes, clauses)
        assert status == SAT


class TestConflictLimit:
    def test_budget_exhaustion_returns_unknown(self):
        nvars, clauses = pigeonhole_clauses(6)
        status, _ = solve_cnf(nvars, clauses, conflict_limit=5)
        assert status in (UNKNOWN, UNSAT)  # tiny budget: normally UNKNOWN
        status2, _ = solve_cnf(nvars, clauses, conflict_limit=1)
        assert status2 == UNKNOWN


def brute_force_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_3sat_matches_brute_force(data):
    nvars = data.draw(st.integers(3, 8))
    nclauses = data.draw(st.integers(1, 30))
    clauses = []
    for _ in range(nclauses):
        size = data.draw(st.integers(1, 3))
        clause = [
            data.draw(st.integers(1, nvars)) * data.draw(st.sampled_from([1, -1]))
            for _ in range(size)
        ]
        clauses.append(clause)
    expected = brute_force_sat(nvars, clauses)
    status, model = solve_cnf(nvars, clauses)
    assert status == (SAT if expected else UNSAT)
    if status == SAT:
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


def test_randomized_stress_models_are_valid():
    rng = random.Random(11)
    for _ in range(30):
        nvars = rng.randrange(5, 30)
        clauses = [
            [rng.choice([1, -1]) * rng.randrange(1, nvars + 1)
             for _ in range(rng.randrange(1, 5))]
            for _ in range(rng.randrange(5, 80))
        ]
        status, model = solve_cnf(nvars, clauses)
        if status == SAT:
            for clause in clauses:
                sat_clause = False
                seen = set()
                for l in clause:
                    if -l in seen:
                        sat_clause = True  # tautology dropped by solver
                    seen.add(l)
                    if model[abs(l)] == (l > 0):
                        sat_clause = True
                assert sat_clause


def random_3sat(seed, num_vars=80, ratio=4.26):
    """Uniform random 3-SAT at the phase-transition clause ratio."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(round(ratio * num_vars))):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return num_vars, clauses


def model_bits(solver, num_vars):
    """The model as a hex bitmask (bit v-1 set iff variable v is true)."""
    return hex(sum(1 << (v - 1) for v in range(1, num_vars + 1)
                   if solver.model_value(v)))


def fingerprint(solver, status, num_vars):
    return (status, solver.conflicts, solver.decisions, solver.propagations,
            model_bits(solver, num_vars) if status == SAT else None)


class TestSearchIsPinned:
    """The exact search of fixed instances: counters and model bits.

    Any change to decision order, propagation order, conflict analysis,
    restarts or clause-database management moves these numbers.  A
    speed-up of the solver kernel must leave them untouched; a change
    that means to alter the search must re-record them and say so.
    """

    def _one_shot(self, num_vars, clauses):
        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        return fingerprint(solver, solver.solve(), num_vars)

    def test_pigeonhole_7_into_6(self):
        assert self._one_shot(*pigeonhole_clauses(6)) == \
            (UNSAT, 796, 928, 10175, None)

    @pytest.mark.parametrize("seed, expected", [
        (2, (UNSAT, 338, 394, 6615, None)),
        (3, (UNSAT, 343, 386, 7228, None)),
        (6, (SAT, 189, 243, 3757, "0x8571e47aca5fa02baf55")),
        (9, (SAT, 93, 131, 1820, "0x917bf8853009d48da1c8")),
    ])
    def test_random_3sat(self, seed, expected):
        assert self._one_shot(*random_3sat(seed)) == expected

    def test_incremental_stream(self):
        """Assumptions, clauses added between solves, an activation
        literal retired (so the next solve runs a ``_simplify`` sweep),
        then variable growth."""
        rng = random.Random(5)
        n = 60

        def clause(pool):
            return [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, pool + 1), 3)]

        solver = SatSolver(n)
        for _ in range(210):
            solver.add_clause(clause(n))
        seen = []

        def solve(assumptions, num_vars):
            status = solver.solve(assumptions=assumptions)
            seen.append(fingerprint(solver, status, num_vars)
                        + (sorted(solver.failed_assumptions),))

        solve([1, -2, 3], n)
        solver.ensure_num_vars(n + 1)
        act = n + 1
        for _ in range(40):
            solver.add_clause([-act] + clause(n))
        solve([act], n)
        solver.add_clause([-act])
        solve([], n)
        solver.ensure_num_vars(n + 4)
        for _ in range(25):
            solver.add_clause(clause(n + 4))
        solve([-4, 5, n + 2], n + 4)
        assert seen == [
            (SAT, 19, 32, 365, "0xd7f4f28a4637be5", []),
            (UNSAT, 73, 93, 1296, None, [61]),
            (SAT, 96, 132, 1656, "0x9238d2986027ba7", []),
            (UNSAT, 103, 141, 1754, None, [-4, 5, 62]),
        ]

    def test_bitblasted_udiv_chain_w5(self):
        """``udiv(udiv(x, C1), C2) != udiv(x, C1*C2)`` at width 5: the
        product overflows, so a counterexample exists."""
        from repro.smt import terms as T
        from repro.smt.bitblast import BitBlaster

        x, c1, c2 = (T.bv_var(name, 5) for name in ("x", "C1", "C2"))
        blaster = BitBlaster()
        blaster.assert_formula(T.ne(T.bvudiv(T.bvudiv(x, c1), c2),
                                    T.bvudiv(x, T.bvmul(c1, c2))))
        builder = blaster.builder
        solver = SatSolver(builder.num_vars)
        for clause in builder.clauses:
            solver.add_clause(clause)
        status = solver.solve()
        model = blaster.extract_model(solver)
        # the CNF itself is pinned in test_bitblast.py
        assert (status, solver.conflicts, solver.decisions,
                solver.propagations) == (SAT, 1, 15, 352)
        assert (model[x], model[c1], model[c2]) == (0, 0, 16)


def check_heap(solver):
    """The order-heap, position-array and literal-table invariants."""
    heap, pos, act, lval = (solver._heap, solver._pos, solver.activity,
                            solver.lval)
    n = solver.num_vars
    assert len(pos) == len(act) == n + 1 and len(lval) == 2 * n + 1
    assert len(set(heap)) == len(heap)
    for i, v in enumerate(heap):
        assert pos[v] == i
        if i:
            u = heap[(i - 1) // 2]
            assert (act[u], -u) > (act[v], -v)
    in_heap = set(heap)
    for v in range(1, n + 1):
        assert (pos[v] >= 0) == (v in in_heap)
        val = lval[v]
        assert lval[-v] == (1 - val if val >= 0 else -1)
        if val < 0:
            assert v in in_heap, "unassigned variable %d not in heap" % v


def bump(solver, v):
    """One VSIDS bump, the way conflict analysis does it."""
    solver.activity[v] += solver.var_inc
    if solver.activity[v] > 1e100:
        solver._rescale_activity()
    elif solver._pos[v] > 0:
        solver._sift_up(solver._pos[v], v)


class TestOrderHeap:
    """Random bump / assign / backtrack / grow / rescale / decay
    sequences keep the heap valid, and a decision is always the
    brute-force argmax of ``(activity, -v)`` over unassigned variables."""

    OPS = ("bump", "assign", "backtrack", "grow", "rescale", "decay")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_operation_sequences(self, data):
        solver = SatSolver(data.draw(st.integers(0, 6)))
        check_heap(solver)
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(self.OPS))
            n = solver.num_vars
            unassigned = [v for v in range(1, n + 1) if solver.lval[v] < 0]
            if op == "bump" and n:
                bump(solver, data.draw(st.integers(1, n)))
            elif op == "assign" and unassigned:
                v = data.draw(st.sampled_from(unassigned))
                solver.trail_lim.append(len(solver.trail))
                assert solver._enqueue(v if data.draw(st.booleans()) else -v,
                                       None)
            elif op == "backtrack":
                solver._backtrack(data.draw(
                    st.integers(0, len(solver.trail_lim))))
            elif op == "grow":
                solver.ensure_num_vars(n + data.draw(st.integers(0, 4)))
            elif op == "rescale" and n:
                v = data.draw(st.integers(1, n))
                solver.var_inc = 0.99e100
                bump(solver, v)
                bump(solver, v)
                assert solver.activity[v] < 1e100
            elif op == "decay":
                solver.var_inc /= solver.var_decay
            check_heap(solver)
            self._check_decision(solver)

    def test_rescale_fires(self):
        solver = SatSolver(3)
        bump(solver, 3)
        solver.var_inc = 0.99e100
        bump(solver, 2)
        bump(solver, 2)
        assert solver.activity[2] < 1e100 and solver.var_inc < 1
        check_heap(solver)
        assert solver._heap[0] == 2

    @staticmethod
    def _check_decision(solver):
        import copy

        probe = copy.deepcopy(solver)
        lit = probe._decide()
        unassigned = [v for v in range(1, solver.num_vars + 1)
                      if solver.lval[v] < 0]
        if not unassigned:
            assert lit == 0
            return
        best = max(unassigned, key=lambda v: (solver.activity[v], -v))
        assert abs(lit) == best
        assert (lit > 0) == bool(solver.phase[best])
