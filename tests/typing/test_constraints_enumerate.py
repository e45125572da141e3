"""Tests for the type constraint system and feasible-type enumeration
(paper §3.2)."""

from repro.typing import (
    ConstraintSystem,
    IntType,
    PointerType,
    enumerate_assignments,
    preferred_widths,
)


class TestUnionFind:
    def test_eq_merges_classes(self):
        s = ConstraintSystem()
        s.var("a"), s.var("b"), s.var("c")
        s.eq("a", "b")
        s.eq("b", "c")
        assert s.find("a") == s.find("c")
        assert len(s.classes()) == 1

    def test_members(self):
        s = ConstraintSystem()
        s.eq("a", "b")
        s.var("c")
        members = s.members()
        root = s.find("a")
        assert sorted(members[root]) == ["a", "b"]
        assert members[s.find("c")] == ["c"]

    def test_unary_constraints_migrate_on_merge(self):
        s = ConstraintSystem()
        s.int_("a")
        s.bool_("b")
        s.eq("a", "b")
        tags = {t for t, _ in s.unary[s.find("a")]}
        assert tags == {"int", "bool"}

    def test_binary_resolution_dedupes(self):
        s = ConstraintSystem()
        s.smaller("a", "b")
        s.smaller("a", "b")
        assert len(s.resolved_binary()) == 1


class TestPreferredWidths:
    def test_bias(self):
        assert preferred_widths(8)[:2] == [4, 8]
        assert set(preferred_widths(8)) == set(range(1, 9))

    def test_small_bound(self):
        assert preferred_widths(3) == [1, 2, 3]


class TestEnumeration:
    def test_single_int_var(self):
        s = ConstraintSystem()
        s.int_("a")
        assignments = list(enumerate_assignments(s, max_width=4))
        assert len(assignments) == 4
        assert assignments[0]["a"] is IntType(4)  # preferred first

    def test_eq_classes_share_type(self):
        s = ConstraintSystem()
        s.int_("a")
        s.eq("a", "b")
        for assignment in enumerate_assignments(s, max_width=4):
            assert assignment["a"] is assignment["b"]

    def test_bool_constraint(self):
        s = ConstraintSystem()
        s.bool_("a")
        assignments = list(enumerate_assignments(s, max_width=8))
        assert len(assignments) == 1
        assert assignments[0]["a"] is IntType(1)

    def test_min_width(self):
        s = ConstraintSystem()
        s.int_("a")
        s.min_width("a", 3)
        widths = {a["a"].width for a in enumerate_assignments(s, max_width=5)}
        assert widths == {3, 4, 5}

    def test_fixed(self):
        s = ConstraintSystem()
        s.fixed("a", IntType(7))
        assert next(enumerate_assignments(s, max_width=4))["a"] is IntType(7)

    def test_fixed_conflict_is_infeasible(self):
        s = ConstraintSystem()
        s.fixed("a", IntType(7))
        s.bool_("a")
        assert list(enumerate_assignments(s, max_width=8)) == []

    def test_smaller(self):
        s = ConstraintSystem()
        s.int_("a")
        s.int_("b")
        s.smaller("a", "b")
        for assignment in enumerate_assignments(s, max_width=4):
            assert assignment["a"].width < assignment["b"].width
        assert len(list(enumerate_assignments(s, max_width=4))) == 6  # C(4,2)

    def test_same_width_int_and_pointer(self):
        s = ConstraintSystem()
        s.first_class("a")
        s.first_class("b")
        s.same_width("a", "b")
        from repro.typing.types import TypeContext

        ctx = TypeContext(ptr_width=4)
        found_ptr_pair = False
        for assignment in enumerate_assignments(s, max_width=4, ctx=ctx):
            wa = ctx.width_of(assignment["a"])
            wb = ctx.width_of(assignment["b"])
            assert wa == wb
            if assignment["a"] is not assignment["b"]:
                found_ptr_pair = found_ptr_pair or True
        assert found_ptr_pair

    def test_pointer_to(self):
        s = ConstraintSystem()
        s.pointer_to("p", "v")
        s.int_("v")
        for assignment in enumerate_assignments(s, max_width=3):
            assert assignment["p"] is PointerType(assignment["v"])
        assert len(list(enumerate_assignments(s, max_width=3))) == 3

    def test_limit(self):
        s = ConstraintSystem()
        s.int_("a")
        assert len(list(enumerate_assignments(s, max_width=8, limit=3))) == 3

    def test_no_pointers_flag(self):
        s = ConstraintSystem()
        s.first_class("a")
        for assignment in enumerate_assignments(
            s, max_width=3, include_pointers=False
        ):
            assert isinstance(assignment["a"], IntType)

    def test_infeasible_binary(self):
        s = ConstraintSystem()
        s.int_("a")
        s.smaller("a", "b")
        s.smaller("b", "a")
        assert len(list(enumerate_assignments(s, max_width=8))) == 0
