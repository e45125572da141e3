"""Exhaustive correctness tests for the bit-blaster.

Every bitvector circuit is compared against the concrete evaluator over
the *entire* input space at width 3 (and width 4 for division) — if the
adders, shifters, multiplier and dividers agree with
:mod:`repro.smt.eval` everywhere, the solver pipeline rests on solid
ground.  Set ``ALIVE_REPRO_PARITY_FULL=1`` to also check add, sub, mul
and the four divisions on every input pair at width 5.
"""

import itertools
import os

import pytest

from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster
from repro.smt.eval import evaluate
from repro.smt.sat import SAT, SatSolver

FULL = os.environ.get("ALIVE_REPRO_PARITY_FULL") == "1"

BINOPS = [
    T.bvadd, T.bvsub, T.bvmul, T.bvudiv, T.bvsdiv, T.bvurem, T.bvsrem,
    T.bvshl, T.bvlshr, T.bvashr, T.bvand, T.bvor, T.bvxor,
]
COMPARISONS = [T.ult, T.ule, T.slt, T.sle, T.eq]
UNOPS = [T.bvnot, T.bvneg]


def circuit_agrees_everywhere(builder_fn, width, nargs=2):
    """Assert that, for all inputs, the circuit output can only equal
    the evaluator's result (i.e. circuit != eval is UNSAT)."""
    xs = [T.bv_var("x%d" % i, width) for i in range(nargs)]
    term = builder_fn(*xs)
    for values in itertools.product(range(1 << width), repeat=nargs):
        model = dict(zip(xs, values))
        expected = evaluate(term, model)
        bb = BitBlaster()
        if T.is_var(term) or term.is_const():
            continue
        out_lit_or_bits = (
            bb.lit(term) if term.sort is T.BOOL else bb.bits(term)
        )
        # pin the inputs
        for x, v in zip(xs, values):
            for i, bit in enumerate(bb.bits(x)):
                bb.builder.assert_lit(bit if v >> i & 1 else -bit)
        solver = SatSolver(bb.builder.num_vars)
        for clause in bb.builder.clauses:
            solver.add_clause(clause)
        assert solver.solve() == SAT
        if term.sort is T.BOOL:
            got = int(solver.model_value(out_lit_or_bits)) if out_lit_or_bits > 0 \
                else int(not solver.model_value(-out_lit_or_bits))
        else:
            got = 0
            for i, lit in enumerate(out_lit_or_bits):
                bit = solver.model_value(lit) if lit > 0 else not solver.model_value(-lit)
                if bit:
                    got |= 1 << i
        assert got == expected, (
            "circuit disagrees at %s: got %d expected %d" % (values, got, expected)
        )


@pytest.mark.parametrize("op", BINOPS, ids=lambda f: f.__name__)
def test_binops_width3(op):
    circuit_agrees_everywhere(op, 3)


@pytest.mark.parametrize("op", [T.bvudiv, T.bvsdiv, T.bvurem, T.bvsrem],
                         ids=lambda f: f.__name__)
def test_division_width4(op):
    circuit_agrees_everywhere(op, 4)


@pytest.mark.skipif(not FULL, reason="set ALIVE_REPRO_PARITY_FULL=1 for "
                    "every input pair at width 5")
@pytest.mark.parametrize("op", [
    T.bvadd, T.bvsub, T.bvmul, T.bvudiv, T.bvsdiv, T.bvurem, T.bvsrem,
], ids=lambda f: f.__name__)
def test_arithmetic_width5(op):
    circuit_agrees_everywhere(op, 5)


@pytest.mark.parametrize("op", COMPARISONS, ids=lambda f: f.__name__)
def test_comparisons_width3(op):
    circuit_agrees_everywhere(op, 3)


@pytest.mark.parametrize("op", UNOPS, ids=lambda f: f.__name__)
def test_unops_width4(op):
    circuit_agrees_everywhere(op, 4, nargs=1)


def test_ite_width3():
    c = T.bool_var("c")
    x, y = T.bv_var("x", 3), T.bv_var("y", 3)
    term = T.ite(c, x, y)
    for cv in (0, 1):
        for xv in range(8):
            for yv in range(8):
                bb = BitBlaster()
                bits = bb.bits(term)
                bb.builder.assert_lit(bb.lit(c) if cv else -bb.lit(c))
                for var, val in ((x, xv), (y, yv)):
                    for i, bit in enumerate(bb.bits(var)):
                        bb.builder.assert_lit(bit if val >> i & 1 else -bit)
                solver = SatSolver(bb.builder.num_vars)
                for clause in bb.builder.clauses:
                    solver.add_clause(clause)
                assert solver.solve() == SAT
                got = sum(
                    (1 << i)
                    for i, lit in enumerate(bits)
                    if (solver.model_value(lit) if lit > 0
                        else not solver.model_value(-lit))
                )
                assert got == (xv if cv else yv)


@pytest.mark.parametrize("width", [3, 5, 7])
def test_nonpow2_shift_overflow(width):
    """Non-power-of-two widths exercise the barrel shifter's comparison
    against the width for the consumed shift-amount bits."""
    x = T.bv_var("x", width)
    s = T.bv_var("s", width)
    for op in (T.bvshl, T.bvlshr, T.bvashr):
        term = op(x, s)
        for sv in range(1 << width):
            for xv in (1, (1 << width) - 1, 1 << (width - 1)):
                model = {x: xv, s: sv}
                expected = evaluate(term, model)
                # verify via solver: term != expected must be UNSAT
                bb = BitBlaster()
                goal = T.and_(
                    T.eq(x, T.bv_const(xv, width)),
                    T.eq(s, T.bv_const(sv, width)),
                    T.ne(term, T.bv_const(expected, width)),
                )
                bb.assert_formula(goal)
                solver = SatSolver(bb.builder.num_vars)
                for clause in bb.builder.clauses:
                    solver.add_clause(clause)
                assert solver.solve() == "unsat"


def test_structural_ops_via_validity():
    """concat/extract/extensions: algebraic identities must be valid."""
    x = T.bv_var("x", 6)
    identities = [
        T.eq(T.concat(T.extract(x, 5, 3), T.extract(x, 2, 0)), x),
        T.eq(T.extract(T.zext(x, 2), 5, 0), x),
        T.eq(T.extract(T.sext(x, 2), 5, 0), x),
        T.eq(T.sext(x, 1),
             T.concat(T.extract(x, 5, 5), x)),
    ]
    for identity in identities:
        bb = BitBlaster()
        bb.assert_formula(T.not_(identity))
        solver = SatSolver(bb.builder.num_vars)
        for clause in bb.builder.clauses:
            solver.add_clause(clause)
        assert solver.solve() == "unsat", identity


def test_urem_after_udiv_shares_the_divider():
    """``udiv x, y`` and ``urem x, y`` build the same restoring divider;
    the builder's gate cache makes the second one free."""
    x, y = T.bv_var("x", 4), T.bv_var("y", 4)
    bb = BitBlaster()
    bb.bits(T.bvudiv(x, y))
    vars_before = bb.builder.num_vars
    clauses_before = len(bb.builder.clauses)
    bb.bits(T.bvurem(x, y))
    assert bb.builder.num_vars == vars_before
    assert len(bb.builder.clauses) == clauses_before


def test_circuit_size_udiv_chain_w5():
    """The CNF of ``udiv(udiv(x, C1), C2) != udiv(x, C1*C2)`` at width 5
    (the query ``test_sat.py`` pins the search of).  A full adder is one
    majority and one 3-input xor variable, and each divider row takes
    its quotient bit from its subtraction's carry; a change to either
    moves these counts."""
    x, c1, c2 = (T.bv_var(name, 5) for name in ("x", "C1", "C2"))
    bb = BitBlaster()
    bb.assert_formula(T.ne(T.bvudiv(T.bvudiv(x, c1), c2),
                           T.bvudiv(x, T.bvmul(c1, c2))))
    assert (bb.builder.num_vars, len(bb.builder.clauses)) == (327, 1730)
