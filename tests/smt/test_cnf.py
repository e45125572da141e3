"""Truth-table tests for the Tseitin gate encodings."""

import itertools

import pytest

from repro.smt.cnf import CnfBuilder
from repro.smt.sat import SAT, UNSAT, SatSolver


def gate_truth_table(make_gate, arity):
    """Evaluate a gate under every input combination via the solver."""
    results = {}
    for values in itertools.product([False, True], repeat=arity):
        builder = CnfBuilder()
        inputs = builder.new_vars(arity)
        out = make_gate(builder, inputs)
        for lit, val in zip(inputs, values):
            builder.assert_lit(lit if val else -lit)
        solver = SatSolver(builder.num_vars)
        for clause in builder.clauses:
            solver.add_clause(clause)
        assert solver.solve() == SAT
        if out > 0:
            results[values] = solver.model_value(out)
        else:
            results[values] = not solver.model_value(-out)
    return results


class TestGates:
    def test_and(self):
        table = gate_truth_table(lambda b, ins: b.gate_and(ins), 3)
        for values, out in table.items():
            assert out == all(values)

    def test_or(self):
        table = gate_truth_table(lambda b, ins: b.gate_or(ins), 3)
        for values, out in table.items():
            assert out == any(values)

    def test_xor(self):
        table = gate_truth_table(lambda b, ins: b.gate_xor(*ins), 2)
        for values, out in table.items():
            assert out == (values[0] ^ values[1])

    def test_iff(self):
        table = gate_truth_table(lambda b, ins: b.gate_iff(*ins), 2)
        for values, out in table.items():
            assert out == (values[0] == values[1])

    def test_ite(self):
        table = gate_truth_table(lambda b, ins: b.gate_ite(*ins), 3)
        for (c, t, e), out in table.items():
            assert out == (t if c else e)

    def test_full_adder(self):
        for values in itertools.product([False, True], repeat=3):
            builder = CnfBuilder()
            a, b, cin = builder.new_vars(3)
            s, cout = builder.gate_full_adder(a, b, cin)
            for lit, val in zip((a, b, cin), values):
                builder.assert_lit(lit if val else -lit)
            solver = SatSolver(builder.num_vars)
            for clause in builder.clauses:
                solver.add_clause(clause)
            assert solver.solve() == SAT

            def value(lit):
                if lit > 0:
                    return solver.model_value(lit)
                return not solver.model_value(-lit)

            total = sum(values)
            assert value(s) == bool(total & 1)
            assert value(cout) == (total >= 2)

    def test_full_adder_is_one_variable_per_output(self):
        b = CnfBuilder()
        a, c, cin = b.new_vars(3)
        vars_before, clauses_before = b.num_vars, len(b.clauses)
        b.gate_full_adder(a, c, cin)
        # 8 clauses for the 3-input xor, 6 for the majority
        assert (b.num_vars - vars_before, len(b.clauses) - clauses_before) \
            == (2, 14)

    def test_full_adder_on_every_input_mix(self):
        """Every mix of fresh, negated, repeated and constant inputs
        (the folds happen inside the gates): with the variables fixed,
        the sum and carry are forced to the arithmetic values, i.e. the
        opposite value is UNSAT."""
        for picks in itertools.product(range(8), repeat=3):
            b = CnfBuilder()
            x, y, z = b.new_vars(3)
            pool = (x, -x, y, -y, z, -z, b.true_lit, b.false_lit)
            ins = [pool[i] for i in picks]
            s, cout = b.gate_full_adder(*ins)
            solver = SatSolver(b.num_vars)
            for clause in b.clauses:
                solver.add_clause(clause)
            for values in itertools.product([False, True], repeat=3):
                fixed = [v if val else -v for v, val in zip((x, y, z), values)]
                truth = {b.true_lit: True}
                for v, val in zip((x, y, z), values):
                    truth[v] = val
                total = sum(truth[l] if l > 0 else not truth[-l] for l in ins)
                assert solver.solve(assumptions=fixed) == SAT
                for out, want in ((s, total & 1 == 1), (cout, total >= 2)):
                    wrong = -out if want else out
                    assert solver.solve(assumptions=fixed + [wrong]) == UNSAT, \
                        (picks, values, out)


class TestGateSimplification:
    def test_and_constant_folding(self):
        b = CnfBuilder()
        x = b.new_var()
        assert b.gate_and([x, b.true_lit]) == x
        assert b.gate_and([x, b.false_lit]) == b.false_lit
        assert b.gate_and([]) == b.true_lit

    def test_xor_with_constants(self):
        b = CnfBuilder()
        x = b.new_var()
        assert b.gate_xor(x, b.false_lit) == x
        assert b.gate_xor(x, b.true_lit) == -x
        assert b.gate_xor(x, x) == b.false_lit
        assert b.gate_xor(x, -x) == b.true_lit

    def test_ite_collapses(self):
        b = CnfBuilder()
        c, x, y = b.new_vars(3)
        assert b.gate_ite(b.true_lit, x, y) == x
        assert b.gate_ite(b.false_lit, x, y) == y
        assert b.gate_ite(c, x, x) == x
        assert b.gate_ite(c, b.true_lit, b.false_lit) == c

    def test_tautology_clause_dropped(self):
        b = CnfBuilder()
        x = b.new_var()
        before = len(b.clauses)
        b.add_clause([x, -x])
        assert len(b.clauses) == before

    def test_true_lit_asserted(self):
        b = CnfBuilder()
        solver = SatSolver(b.num_vars)
        for clause in b.clauses:
            solver.add_clause(clause)
        assert solver.solve() == SAT
        assert solver.model_value(b.true_lit)


class TestGateCache:
    """Structural hashing: one variable per distinct normalized gate."""

    @pytest.mark.parametrize("build", [
        lambda b, x, y, z: b.gate_and([x, y, z]),
        lambda b, x, y, z: b.gate_xor(x, y),
        lambda b, x, y, z: b.gate_ite(x, y, z),
        lambda b, x, y, z: b.gate_maj(x, -y, z),
        lambda b, x, y, z: b.gate_xor3(x, -y, z),
    ], ids=["and", "xor", "ite", "maj", "xor3"])
    def test_same_gate_twice_is_one_literal(self, build):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        first = build(b, x, y, z)
        vars_before, clauses_before = b.num_vars, len(b.clauses)
        assert build(b, x, y, z) == first
        assert (b.num_vars, len(b.clauses)) == (vars_before, clauses_before)

    def test_and_ignores_order_and_duplicates(self):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        out = b.gate_and([x, -y, z])
        vars_before = b.num_vars
        assert b.gate_and([z, x, -y]) == out
        assert b.gate_and([-y, z, z, x, -y]) == out
        assert b.gate_and([x, b.true_lit, z, -y]) == out
        assert b.gate_or([-z, y, -x]) == -out
        assert b.num_vars == vars_before
        assert b.gate_and([x, x]) == x

    def test_and_of_complements_is_false(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        clauses_before = len(b.clauses)
        assert b.gate_and([x, -x]) == b.false_lit
        assert b.gate_and([y, x, -x]) == b.false_lit
        assert len(b.clauses) == clauses_before

    def test_xor_signs_share_one_variable(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        out = b.gate_xor(x, y)
        vars_before = b.num_vars
        assert b.gate_xor(-x, -y) == out
        assert b.gate_xor(-x, y) == -out
        assert b.gate_xor(x, -y) == -out
        assert b.gate_xor(y, x) == out
        assert b.gate_iff(x, y) == -out
        assert b.num_vars == vars_before

    def test_ite_negative_selector_swaps_branches(self):
        b = CnfBuilder()
        c, t, e = b.new_vars(3)
        out = b.gate_ite(c, e, t)
        vars_before = b.num_vars
        assert b.gate_ite(-c, t, e) == out
        assert b.num_vars == vars_before
        assert b.gate_ite(c, t, e) != out

    @pytest.mark.parametrize("gate", ["gate_maj", "gate_xor3"])
    def test_three_input_gates_ignore_order(self, gate):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        build = getattr(b, gate)
        out = build(x, -y, z)
        vars_before, clauses_before = b.num_vars, len(b.clauses)
        for perm in itertools.permutations((x, -y, z)):
            assert build(*perm) == out
        assert (b.num_vars, len(b.clauses)) == (vars_before, clauses_before)

    def test_maj_all_negated_is_the_negation(self):
        """Self-duality: maj(¬a, ¬b, ¬c) = ¬maj(a, b, c)."""
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        out = b.gate_maj(x, -y, z)
        vars_before, clauses_before = b.num_vars, len(b.clauses)
        assert b.gate_maj(-x, y, -z) == -out
        assert b.gate_maj(y, -z, -x) == -out
        assert (b.num_vars, len(b.clauses)) == (vars_before, clauses_before)

    def test_xor3_signs_share_one_variable(self):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        out = b.gate_xor3(x, y, z)
        vars_before, clauses_before = b.num_vars, len(b.clauses)
        assert b.gate_xor3(-x, -y, -z) == -out
        assert b.gate_xor3(-x, y, z) == -out
        assert b.gate_xor3(z, -x, -y) == out
        assert (b.num_vars, len(b.clauses)) == (vars_before, clauses_before)

    def test_three_input_gates_fold(self):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        t, f = b.true_lit, b.false_lit
        vars_before = b.num_vars
        assert b.gate_maj(x, x, z) == x
        assert b.gate_maj(x, -x, z) == z
        assert b.gate_maj(x, y, f) == b.gate_and([x, y])
        assert b.gate_maj(t, x, y) == b.gate_or([x, y])
        assert b.gate_xor3(x, x, z) == z
        assert b.gate_xor3(-x, x, z) == -z
        assert b.gate_xor3(x, y, f) == b.gate_xor(x, y)
        assert b.gate_xor3(t, x, y) == -b.gate_xor(x, y)
        assert b.gate_xor3(t, t, x) == x
        # only the and, or and 2-input xor fallbacks added variables
        assert b.num_vars == vars_before + 3

    def test_distinct_gate_kinds_do_not_collide(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        outs = {b.gate_and([x, y]), b.gate_xor(x, y), b.gate_ite(x, y, -y)}
        assert len({abs(o) for o in outs}) == 3

    def test_three_input_gates_do_not_collide_with_two_input_ones(self):
        b = CnfBuilder()
        x, y, z = b.new_vars(3)
        outs = [b.gate_and([x, y, z]), b.gate_xor(x, y), b.gate_maj(x, y, z),
                b.gate_xor3(x, y, z), b.gate_ite(x, y, z)]
        assert len({abs(o) for o in outs}) == len(outs)
