"""End-to-end verifier tests: statuses, paper examples, undef handling."""

import ast
import os

import pytest

import repro
from repro.core import Config, verify, verify_all
from repro.ir import parse_transformation

CFG = Config(max_width=4, prefer_widths=(4,), ptr_width=8,
             max_type_assignments=4)
CFG6 = Config(max_width=6, prefer_widths=(4,), max_type_assignments=6)


def v(text, config=CFG):
    return verify(parse_transformation(text), config)


class TestPaperExamples:
    def test_intro_example_valid(self):
        r = v("""
        %1 = xor %x, -1
        %2 = add %1, C
        =>
        %2 = sub C-1, %x
        """, CFG6)
        assert r.status == "valid"
        assert r.assignments_checked >= 2

    def test_nsw_icmp_to_true(self):
        r = v("""
        %1 = add nsw %x, 1
        %2 = icmp sgt %1, %x
        =>
        %2 = true
        """)
        assert r.status == "valid"

    def test_without_nsw_is_invalid(self):
        r = v("""
        %1 = add %x, 1
        %2 = icmp sgt %1, %x
        =>
        %2 = true
        """)
        assert r.status == "invalid"

    def test_section313_shl_ashr(self):
        r = v("""
        Pre: C1 u>= C2
        %0 = shl nsw %a, C1
        %1 = ashr %0, C2
        =>
        %1 = shl nsw %a, C1-C2
        """, CFG6)
        assert r.status == "valid"

    def test_section313_without_precondition_invalid(self):
        r = v("""
        %0 = shl nsw %a, C1
        %1 = ashr %0, C2
        =>
        %1 = shl nsw %a, C1-C2
        """)
        assert r.status == "invalid"

    def test_select_undef_example(self):
        # §3.1.3: ∀u2 ∃u1 — valid
        r = v("""
        %r = select undef, i4 -1, 0
        =>
        %r = ashr undef, 3
        """)
        assert r.status == "valid"

    def test_undef_wrong_direction(self):
        # source can only be 0 or -1; target undef can be anything: the
        # target has behaviours the source does not — not a refinement
        r = v("""
        %r = select undef, i4 -1, 0
        =>
        %r = add undef, 0
        """)
        assert r.status == "invalid"

    def test_undef_refined_to_constant(self):
        # undef in the source may be refined to any single value
        r = v("""
        %r = and %x, undef
        =>
        %r = and %x, 0
        """)
        assert r.status == "valid"

    def test_constant_cannot_become_undef(self):
        r = v("""
        %r = and %x, 0
        =>
        %r = and %x, undef
        """)
        assert r.status == "invalid"


class TestStatuses:
    def test_untypeable(self):
        # icmp forces i1 on %c; using it as a shift amount of a wider
        # value with an explicit i4 annotation is infeasible
        r = v("""
        %c = icmp eq i4 %x, 0
        %r = select %c, i1 %y, %y
        =>
        %r = %y
        """)
        assert r.status in ("valid", "untypeable")

    def test_scope_error_reported_unsupported(self):
        r = v("""
        %dead = mul %x, %x
        %r = add %x, 0
        =>
        %r = %x
        """)
        assert r.status == "unsupported"

    def test_unknown_on_tiny_budget(self):
        config = Config(max_width=8, prefer_widths=(8,),
                        max_type_assignments=1, conflict_limit=1)
        r = verify(parse_transformation("""
        %a = mul %x, %y
        %r = mul %a, %a
        =>
        %b = mul %y, %x
        %r = mul %b, %b
        """), config)
        assert r.status in ("unknown", "valid")

    def test_verify_all(self):
        from repro.ir import parse_transformations

        ts = parse_transformations("""
Name: good
%r = add %x, 0
=>
%r = %x

Name: bad
%r = add %x, 1
=>
%r = %x
""")
        results = verify_all(ts, CFG)
        assert [r.status for r in results] == ["valid", "invalid"]

    def test_summary_strings(self):
        r = v("%r = add %x, 0\n=>\n%r = %x")
        assert "valid" in r.summary()
        assert r.ok


class TestFlagsAndRefinement:
    def test_dropping_flags_is_always_sound(self):
        r = v("""
        %r = add nsw nuw %x, %y
        =>
        %r = add %x, %y
        """)
        assert r.status == "valid"

    def test_adding_flags_is_unsound(self):
        r = v("""
        %r = add %x, %y
        =>
        %r = add nsw %x, %y
        """)
        assert r.status == "invalid"
        assert "poison" in r.detail

    def test_flag_justified_by_source_flag(self):
        r = v("""
        %r = add nsw %x, %y
        =>
        %r = add nsw %y, %x
        """)
        assert r.status == "valid"

    def test_exact_udiv_roundtrip(self):
        r = v("""
        %r = udiv exact %x, C
        =>
        %a = udiv %x, C
        %r = %a
        """)
        assert r.status == "valid"

    def test_commuted_sub_invalid(self):
        r = v("%r = sub %x, %y\n=>\n%r = sub %y, %x")
        assert r.status == "invalid"
        assert r.counterexample is not None


class TestMultiWidthPolymorphism:
    def test_checked_across_widths(self):
        # valid at every width: (x << 1) == x + x
        r = v("""
        %r = shl %x, 1
        =>
        %r = add %x, %x
        """, CFG6)
        assert r.status == "valid"
        assert r.assignments_checked >= 3

    def test_width_specific_bug_found(self):
        # x * 5 == (x << 2) + x everywhere, so corrupt it subtly:
        # claim x * 6 == (x << 2) + x, wrong at all widths >= 2
        r = v("""
        %r = mul %x, 6
        =>
        %a = shl %x, 2
        %r = add %a, %x
        """, CFG6)
        assert r.status == "invalid"

    def test_explicit_type_restricts_assignments(self):
        r = v("""
        %r = add i4 %x, %y
        =>
        %r = add %y, %x
        """, CFG6)
        assert r.status == "valid"
        assert r.assignments_checked == 1


def _enumerate_callers(path):
    """Names of the functions in the module at *path* that call
    ``enumerate_assignments``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    callers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) \
                else getattr(target, "id", None)
            if name == "enumerate_assignments":
                callers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return callers


class TestOneAssignmentMapping:
    def test_only_type_assignments_enumerates(self):
        # every caller outside repro.typing maps Config to enumeration
        # arguments through one function, so none can drop a knob
        root = os.path.dirname(repro.__file__)
        found = set()
        for dirpath, _, files in os.walk(root):
            if os.path.relpath(dirpath, root).split(os.sep)[0] == "typing":
                continue
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    found.update((os.path.relpath(path, root), caller)
                                 for caller in _enumerate_callers(path))
        assert found == {(os.path.join("core", "verifier.py"),
                          "type_assignments")}
