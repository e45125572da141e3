"""Structural tests for the generated C++ (paper §4, Figure 7)."""

import re

import pytest

from repro.codegen import CodegenError, generate_cpp, generate_pass
from repro.ir import parse_transformation
from repro.opt import TemplateMatcher


def gen(text):
    return generate_cpp(parse_transformation(text))


class TestFigure7:
    """The paper's exact example must come out in the same shape."""

    CODE = gen("""
    Name: fig7
    Pre: isSignBit(C1)
    %b = xor %a, C1
    %d = add %b, C2
    =>
    %d = add %a, C1 ^ C2
    """)

    def test_declarations(self):
        assert "Value *a, *b;" in self.CODE
        assert "ConstantInt *C1, *C2;" in self.CODE

    def test_match_clauses_root_first(self):
        m_add = self.CODE.index("match(I, m_Add(m_Value(b), m_ConstantInt(C2)))")
        m_xor = self.CODE.index("match(b, m_Xor(m_Value(a), m_ConstantInt(C1)))")
        assert m_add < m_xor

    def test_precondition_translated(self):
        assert "C1->getValue().isSignBit()" in self.CODE

    def test_new_constant_materialized(self):
        assert re.search(r"APInt \w+ = \(C1->getValue\(\) \^ C2->getValue\(\)\);",
                         self.CODE)
        assert "ConstantInt::get(I->getType()" in self.CODE

    def test_instruction_created_and_root_replaced(self):
        assert "BinaryOperator::CreateAdd(a," in self.CODE
        assert "I->replaceAllUsesWith(" in self.CODE


class TestMatchers:
    def test_literal_matchers(self):
        code = gen("%r = add %x, 0\n=>\n%r = %x")
        assert "m_Zero()" in code
        code = gen("%r = mul %x, 1\n=>\n%r = %x")
        assert "m_One()" in code
        code = gen("%r = xor %x, -1\n=>\n%r = sub -1, %x")
        assert "m_AllOnes()" in code
        code = gen("%r = and %x, 5\n=>\n%r = and 5, %x")
        assert "m_SpecificInt(5)" in code

    def test_repeated_value_uses_specific(self):
        code = gen("%r = add %x, %x\n=>\n%r = shl %x, 1")
        assert "m_Value(x)" in code
        assert "m_Specific(x)" in code

    def test_source_flags_checked(self):
        code = gen("%r = add nsw %x, %y\n=>\n%r = add nsw %y, %x")
        assert "hasNoSignedWrap()" in code
        assert "OverflowingBinaryOperator" in code

    def test_exact_flag_checked(self):
        code = gen("%r = lshr exact %x, C\n=>\n%r = lshr exact %x, C")
        assert "PossiblyExactOperator" in code
        assert "isExact()" in code

    def test_icmp_pattern(self):
        code = gen("%c = icmp sgt %x, -1\n=>\n%c = icmp sge %x, 0")
        # m_ICmp binds the predicate; a clause of its own compares it
        assert "ICmpInst::Predicate P0;" in code
        assert condition(code) == ["match(I, m_ICmp(P0, m_Value(x), "
                                   "m_AllOnes()))",
                                   "P0 == ICmpInst::ICMP_SGT"]
        assert "new ICmpInst(I, ICmpInst::ICMP_SGE" in code

    def test_select_creation(self):
        code = gen("%r = select %c, %y, %x\n=>\n%r = select %c, %y, %x")
        assert "m_Select(" in code
        assert "SelectInst::Create(" in code

    def test_conversion(self):
        code = gen("%r = zext %x\n=>\n%r = zext %x")
        assert "m_ZExt(" in code
        assert "CastInst::Create(Instruction::ZExt" in code


class TestTargetEmission:
    def test_target_flags_set(self):
        code = gen("%r = add nsw nuw %x, %y\n=>\n%r = add nsw nuw %y, %x")
        assert "setHasNoSignedWrap(true);" in code
        assert "setHasNoUnsignedWrap(true);" in code

    def test_exact_set(self):
        code = gen("%r = udiv exact %x, C\n=>\n%r = udiv exact %x, C")
        assert "setIsExact(true);" in code

    def test_constexpr_functions(self):
        code = gen("Pre: isPowerOf2(C)\n%r = mul %x, C\n=>\n%r = shl %x, log2(C)")
        assert "logBase2()" in code

    def test_surviving_source_temp_referenced(self):
        code = gen("""
        %a = add %x, C
        %r = mul %a, 2
        =>
        %r = shl %a, 1
        """)
        assert "BinaryOperator::CreateShl(a," in code

    def test_predicate_helpers(self):
        code = gen(
            "Pre: MaskedValueIsZero(%x, ~C) && hasOneUse(%x)\n"
            "%r = and %x, C\n=>\n%r = and C, %x"
        )
        assert "MaskedValueIsZero(x," in code
        assert "x->hasOneUse()" in code


class TestWholePass:
    def test_generate_pass_compiles_corpus(self):
        from repro.suite import load_all_flat

        code = generate_pass(load_all_flat())
        assert code.startswith("//===-")
        assert "#include \"llvm/IR/PatternMatch.h\"" in code
        assert code.count("replaceAllUsesWith") >= 80
        assert code.rstrip().endswith("}")

    def test_memory_roots_skipped(self):
        t = parse_transformation(
            "store %v, %p\n%r = load %p\n=>\nstore %v, %p\n%r = %v"
        )
        with pytest.raises(CodegenError):
            generate_cpp(t)
        # but generate_pass tolerates them
        assert generate_pass([t])

    def test_braces_balanced(self):
        from repro.suite import load_all_flat

        code = generate_pass(load_all_flat())
        assert code.count("{") == code.count("}")


class TestTypeGuards:
    """Type-equality guards: printed only where the source's own typing
    (well-formed IR) does not already imply the equality the matcher
    checks."""

    def test_source_implies_everything(self):
        code = gen("""
        %a = xor %x, -1
        %r = add %a, C
        =>
        %r = sub C-1, %x
        """)
        assert "getType() ==" not in code

    def test_pure_commute(self):
        code = gen("%r = add %x, %y\n=>\n%r = add %y, %x")
        assert condition(code) == ["match(I, m_Add(m_Value(x), m_Value(y)))"]

    def test_target_merges_source_classes(self):
        # same classes on both sides: no check
        code = gen("""
        %a = trunc %x
        %r = add %a, %a
        =>
        %b = trunc %x
        %r = add %b, %b
        """)
        assert "getType() ==" not in code

    def test_select_introduced_by_target(self):
        code = gen("""
        %c = icmp eq %x, %y
        =>
        %c = icmp eq %y, %x
        """)
        assert "getType() ==" not in code

    def test_genuine_target_only_unification(self):
        # the source never relates %x and %y; the target compares them
        code = gen("""
        %c1 = icmp ult %x, %k
        %c2 = icmp ult %y, %k2
        %r = and i1 %c1, %c2
        =>
        %c3 = icmp ult %x, %y
        %r = and i1 %c3, %c3
        """)
        guards = re.findall(r"(\w+)->getType\(\) == (\w+)->getType\(\)", code)
        assert guards, "expected a runtime type-equality guard"
        assert {"x", "y"} & {name for pair in guards for name in pair}
        # the root is an `and` of two icmps: i1 is implied, not checked
        assert "isIntegerTy" not in code


def corpus_rule(name):
    from repro.suite import load_all_flat

    return next(t for t in load_all_flat() if t.name == name)


def corpus_cpp(name):
    return generate_cpp(corpus_rule(name))


def condition(code):
    """The clauses of the generated if-condition."""
    return re.search(r"  if \((.*?)\) \{\n", code, re.S).group(1) \
        .split(" &&\n      ")


class TestWidthSteps:
    """The C++ checks the widths the Python match program checks."""

    def test_annotated_width_is_guarded(self):
        # `%r = xor i1 %x, %y`: on an i32 xor the rule must not fire
        clauses = condition(corpus_cpp("AndOrXor:xor-i1-is-icmp-ne"))
        assert clauses[1:] == ["x->getType()->isIntegerTy(1)"]

    @pytest.mark.parametrize("name", ["Select:select-zero-is-sext-mask",
                                      "Select:select-allones-is-or-mask"])
    def test_sext_target_needs_a_narrower_condition(self, name):
        # `sext %c` to %r's type needs width(%c) < width(%r)
        assert "c->getType()->getIntegerBitWidth() < width" in \
            condition(corpus_cpp(name))

    def test_literal_needs_its_bits(self):
        # the target's literal 2 makes i1 and i2 instances unverified
        assert condition(gen("%r = mul %x, 2\n=>\n%r = shl %x, 1"))[1:] == \
            ["width >= 3"]

    def test_guard_on_a_literal_reads_a_value_of_its_type(self):
        # the i8 annotation sits on the literal, which binds no C++ name
        code = gen("%r = icmp eq i8 0, %x\n=>\n%r = icmp eq %x, 0")
        assert condition(code)[1:] == ["P0 == ICmpInst::ICMP_EQ",
                                       "x->getType()->isIntegerTy(8)"]

    def test_figure7_prints_no_guard(self):
        assert len(condition(TestFigure7.CODE)) == 3


class TestConstantTypes:
    """Constants are built at a matched type of their own class, not
    at the root's."""

    def test_icmp_constant_at_operand_type(self):
        code = corpus_cpp("AndOrXor:icmp-ugt-to-uge")
        assert re.search(r"ConstantInt::get\((x|C)->getType\(\), C1_val\)",
                         code)
        assert "APInt(width," not in code
        assert "C->getValue() != APInt(x->getType()->getIntegerBitWidth(), " \
               "-1)" in code

    def test_cast_destination_at_its_own_type(self):
        # %z is compared with %v, so it has %v's (and %w's) type, not i1
        code = gen("%w = zext %x\n%r = icmp eq %w, %v\n=>\n"
                   "%z = zext %x\n%r = icmp eq %z, %v")
        assert re.search(r"CastInst::Create\(Instruction::ZExt, x, "
                         r"(w|v)->getType\(\)", code)


class TestSourceConstantExpressions:
    def test_width_expression_is_matched(self):
        code = corpus_cpp("Shifts:signbit-lshr-to-zext-icmp")
        assert "match(I, m_LShr(m_Value(x), m_ConstantInt(CE1)))" in code
        assert "CE1->getValue() == (APInt(width, width) - APInt(width, 1))" \
            in code

    def test_unbound_symbol_is_not_emitted(self):
        # log2(C) reads C, which no source pattern binds
        with pytest.raises(CodegenError):
            corpus_cpp("Shifts:lshr-to-udiv")

    def test_constant_expression_clause_follows_every_binding(self):
        code = gen("%a = add %x, C\n%r = and %a, C+1\n=>\n%r = and %a, C+1")
        clauses = condition(code)
        assert clauses[-1] == "CE1->getValue() == " \
                              "(C->getValue() + APInt(width, 1))"


class TestPreconditionBuiltins:
    @pytest.mark.parametrize("pre", [
        "isSignBit(%y)", "isShiftedMask(%y)",
        "WillNotOverflowUnsignedMul(%x, %y)", "MaskedValueIsZero(%x, %y)",
    ])
    def test_cpp_prints_the_python_decision(self, pre):
        # a built-in on an input, which binds a constant or not
        t = parse_transformation("Pre: %s\n%%r = add %%x, %%y\n=>\n"
                                 "%%r = add %%y, %%x" % pre)
        python = TemplateMatcher(t).program.source
        python = python[python.index("    if not ("):]
        cpp = condition(generate_cpp(t))[-1]
        register = {"v%d" % r: name.lstrip("%") for name, r in
                    TemplateMatcher(t).program.bindings.items()}
        assert re.findall(r"isa<ConstantInt>\((\w+)\)", cpp) == [
            register[v] for v in re.findall(r"isinstance\((v\d+), MConst\)",
                                            python)]
        assert cpp.count("false") == python.count("False")

    def test_power_of_two_or_zero(self):
        code = gen("Pre: isPowerOf2OrZero(C)\n%r = and %x, C\n=>\n"
                   "%r = and C, %x")
        assert "(!C->getValue() || C->getValue().isPowerOf2())" in code
