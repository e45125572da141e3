"""Golden tests for the tier-1 AST lint passes."""

from repro.ir import parse_transformations
from repro.lint.passes import run_ast_passes


def lint(text, only=None, path="input.opt"):
    rules = parse_transformations(text, path=path)
    return run_ast_passes(rules, only=frozenset(only) if only else None)


class TestDuplicateName:
    def test_flags_later_occurrence(self):
        findings = lint("""Name: twin
%r = add %x, 1
=>
%r = add %x, 1

Name: twin
%r = mul %x, 2
=>
%r = shl %x, 1
""", only=["duplicate-name"])
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == "warning"
        assert f.line == 6  # the second rule's header
        assert "input.opt:1" in f.message

    def test_distinct_names_clean(self):
        assert lint("""Name: a
%r = add %x, 1
=>
%r = add %x, 1

Name: b
%r = add %x, 2
=>
%r = add %x, 2
""", only=["duplicate-name"]) == []


class TestNoopRule:
    def test_identical_templates(self):
        findings = lint("""Name: nop
%r = add %x, C
=>
%r = add %x, C
""", only=["noop-rule"])
        assert len(findings) == 1
        assert "rewrites nothing" in findings[0].message

    def test_flag_difference_is_not_noop(self):
        assert lint("""Name: drop-nsw
%r = add nsw %x, %y
=>
%r = add %x, %y
""", only=["noop-rule"]) == []


class TestUndefinedPreName:
    def test_typo_in_predicate(self):
        findings = lint("""Name: typo
Pre: isPowerOf2(C2)
%r = udiv %x, C
=>
%r = udiv %x, C
""", only=["undefined-pre-name"])
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == "error"
        assert "C2" in f.message
        assert (f.line, f.col) == (2, 17)  # the C2 atom itself

    def test_bound_name_clean(self):
        assert lint("""Name: ok
Pre: isPowerOf2(C)
%r = udiv %x, C
=>
%r = lshr %x, log2(C)
""", only=["undefined-pre-name"]) == []

    def test_register_reference_also_checked(self):
        findings = lint("""Name: reg
Pre: hasOneUse(%q)
%r = add %x, %y
=>
%r = add %y, %x
""", only=["undefined-pre-name"])
        assert len(findings) == 1
        assert "%q" in findings[0].message


class TestUnusedBinding:
    def test_constant_never_consulted(self):
        findings = lint("""Name: wasteful
%a = and %x, C
%r = and %a, 0
=>
%r = 0
""", only=["unused-binding"])
        assert [f.data["name"] for f in findings] == ["C"]
        assert findings[0].severity == "info"

    def test_repeated_source_constant_is_used(self):
        # the second C constrains the match: both shifts use one amount
        assert lint("""Name: cancel
%s = shl nuw %x, C
%r = lshr %s, C
=>
%r = %x
""", only=["unused-binding"]) == []

    def test_constant_kept_alive_by_target_reference(self):
        # the target keeps %s, so C is still part of the output program
        assert lint("""Name: keeps
%s = shl %x, C
%r = lshr %s, C2
=>
%r = lshr %s, C2
""", only=["unused-binding"]) == []

    def test_used_in_pre_clean(self):
        assert lint("""Name: ok
Pre: C != 0
%r = udiv %x, C
=>
%r = udiv %x, C
""", only=["unused-binding"]) == []


class TestPreConstantFold:
    def test_whole_pre_false_is_error(self):
        findings = lint("""Name: never
Pre: 1 == 2
%r = add %x, C
=>
%r = mul %x, C
""", only=["pre-constant-fold"])
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert findings[0].data["folds_to"] is False

    def test_true_clause_is_warning(self):
        findings = lint("""Name: padded
Pre: 2 == 2 && C != 0
%r = udiv %x, C
=>
%r = udiv %x, C
""", only=["pre-constant-fold"])
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert findings[0].data["folds_to"] is True

    def test_builtin_on_literal_folds(self):
        findings = lint("""Name: pow2-of-3
Pre: isPowerOf2(3)
%r = udiv %x, C
=>
%r = udiv %x, C
""", only=["pre-constant-fold"])
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_width_dependent_clause_left_alone(self):
        # 128 is the sign bit at i8 but truncates to 0 at i4: no
        # unanimous verdict, so the folder stays silent
        assert lint("""Name: widthy
Pre: isSignBit(128)
%r = add %x, C
=>
%r = add %x, C
""", only=["pre-constant-fold"]) == []

    def test_abstract_constants_left_alone(self):
        assert lint("""Name: abstract
Pre: isPowerOf2(C)
%r = udiv %x, C
=>
%r = lshr %x, log2(C)
""", only=["pre-constant-fold"]) == []


class TestStableIds:
    def test_rename_keeps_id(self):
        a = lint("Name: one\n%r = add %x, C\n=>\n%r = add %x, C\n",
                 only=["noop-rule"])
        b = lint("Name: two\n%r = add %x, C\n=>\n%r = add %x, C\n",
                 only=["noop-rule"])
        assert a[0].id == b[0].id

    def test_body_change_changes_id(self):
        a = lint("Name: n\n%r = add %x, C\n=>\n%r = add %x, C\n",
                 only=["noop-rule"])
        b = lint("Name: n\n%r = mul %x, C\n=>\n%r = mul %x, C\n",
                 only=["noop-rule"])
        assert a[0].id != b[0].id
