"""Tests for the SMT-LIB 2 exporter."""

import re

from repro.core import Config
from repro.ir import parse_transformation
from repro.smt import terms as T
from repro.smt.smtlib import (
    declarations,
    refinement_scripts,
    to_exists_forall_script,
    to_script,
)


def balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


class TestToScript:
    def test_basic_structure(self):
        x, y = T.bv_var("x", 8), T.bool_var("p")
        f = T.and_(y, T.eq(x, T.bv_const(3, 8)))
        script = to_script(f)
        assert script.startswith("(set-logic QF_BV)")
        assert "(declare-const p Bool)" in script
        assert "(declare-const x (_ BitVec 8))" in script
        assert script.rstrip().endswith("(check-sat)")
        assert balanced(script)

    def test_every_variable_declared_once(self):
        x = T.bv_var("x", 4)
        f = T.eq(T.bvadd(x, x), T.bvmul(x, T.bv_const(2, 4)))
        script = to_script(f)
        assert script.count("declare-const") == 1

    def test_status_annotation(self):
        x = T.bv_var("x", 4)
        script = to_script(T.ult(x, x), expect="unsat")
        assert "(set-info :status unsat)" in script

    def test_declarations_sorted(self):
        vs = [T.bv_var("zz", 4), T.bv_var("aa", 4)]
        decls = declarations(vs)
        assert decls[0].startswith("(declare-const aa")


class TestExistsForall:
    def test_forall_binder_emitted(self):
        a, u = T.bv_var("a", 4), T.bv_var("u", 4)
        script = to_exists_forall_script([a], [u], T.eq(T.bvand(u, a), u))
        assert "(set-logic BV)" in script
        assert "(forall ((u (_ BitVec 4)))" in script
        assert "(declare-const a (_ BitVec 4))" in script
        assert "(declare-const u" not in script
        assert balanced(script)

    def test_unused_inner_vars_dropped(self):
        a, u = T.bv_var("a", 4), T.bv_var("u", 4)
        script = to_exists_forall_script([a], [u], T.eq(a, a) if False else T.ugt(a, T.bv_const(0, 4)))
        assert "forall" not in script


class TestRefinementScripts:
    def test_scripts_for_paper_example(self):
        t = parse_transformation("""
        Name: PR21245
        Pre: C2 % (1<<C1) == 0
        %s = shl nsw %X, C1
        %r = sdiv %s, C2
        =>
        %r = sdiv %X, C2/(1<<C1)
        """)
        scripts = refinement_scripts(t)
        assert len(scripts) == 3  # defined, poison, value for %r
        for script in scripts:
            assert script.startswith("; PR21245")
            assert balanced(script.split("\n", 1)[1])
            assert "(check-sat)" in script
        kinds = [re.search(r"negated (\w+)", s).group(1) for s in scripts]
        assert kinds == ["defined", "poison", "value"]

    def test_undef_transformation_gets_forall(self):
        t = parse_transformation(
            "%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3"
        )
        scripts = refinement_scripts(t)
        assert any("forall" in s for s in scripts)

    def test_fp_formats_pick_the_exported_assignment(self):
        # the export enumerates through the same Config mapping as the
        # verifier, so a double-only Config exports a 64-bit %x
        t = parse_transformation("%r = fadd %x, 0.0\n=>\n%r = %x\n")
        scripts = refinement_scripts(t, Config(fp_formats=("double",)))
        declared = [line for s in scripts for line in s.splitlines()
                    if line.startswith("(declare-const %x ")]
        assert declared == ["(declare-const %x (_ BitVec 64))"]
