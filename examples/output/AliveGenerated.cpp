//===- AliveGenerated.cpp - peephole optimizations generated by Alive ----===//
//
// This file was generated from verified Alive transformations.
// Each block matches one source template and rewrites it to the target.
// Dead instructions are left for a later DCE pass (see the paper, §4).
//
//===----------------------------------------------------------------------===//

#include "llvm/ADT/APInt.h"
#include "llvm/IR/Constants.h"
#include "llvm/IR/InstrTypes.h"
#include "llvm/IR/Instructions.h"
#include "llvm/IR/PatternMatch.h"

using namespace llvm;
using namespace llvm::PatternMatch;

// Returns true when a rewrite fired on I.
static bool runAliveOptimizations(Instruction *I) {
  // AddSub:1043-xor-add
  {
    Value *v1, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(v1), m_ConstantInt(C))) &&
        match(v1, m_Xor(m_Value(x), m_AllOnes())) &&
        width >= 2) {
      APInt C1_val = (C->getValue() - APInt(width, 1));
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *v2_new = BinaryOperator::CreateSub(NC1, x, "", I);
      I->replaceAllUsesWith(v2_new);
      return true;
    }
  }

  // AddSub:add-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AddSub:add-self-to-shl
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(x), m_Specific(x))) &&
        width >= 2) {
      BinaryOperator *r_new = BinaryOperator::CreateShl(x, ConstantInt::get(I->getType(), 1), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-neg-lhs
  {
    Value *n, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(n), m_Value(y))) &&
        match(n, m_Sub(m_Zero(), m_Value(x)))) {
      BinaryOperator *r_new = BinaryOperator::CreateSub(y, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-neg-rhs
  {
    Value *n, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(x), m_Value(n))) &&
        match(n, m_Sub(m_Zero(), m_Value(y)))) {
      BinaryOperator *r_new = BinaryOperator::CreateSub(x, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-signbit-is-xor
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(x), m_ConstantInt(C))) &&
        C->getValue().isSignBit()) {
      BinaryOperator *r_new = BinaryOperator::CreateXor(x, C, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-const-reassoc
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Add(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C1->getValue() + C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-sub-cancel
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(a), m_Value(x))) &&
        match(a, m_Add(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(y);
      return true;
    }
  }

  // AddSub:sub-const-is-add
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(x), m_ConstantInt(C)))) {
      APInt C1_val = (-C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:sub-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AddSub:sub-self
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(x), m_Specific(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AddSub:neg-of-neg
  {
    Value *a, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Zero(), m_Value(a))) &&
        match(a, m_Sub(m_Zero(), m_Value(x)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AddSub:sub-allones-is-not
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_AllOnes(), m_Value(x)))) {
      BinaryOperator *r_new = BinaryOperator::CreateXor(x, ConstantInt::get(I->getType(), -1), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:sub-of-neg-is-add
  {
    Value *n, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(x), m_Value(n))) &&
        match(n, m_Sub(m_Zero(), m_Value(y)))) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-of-negs
  {
    Value *a, *b, *na, *nb;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(na), m_Value(nb))) &&
        match(na, m_Sub(m_Zero(), m_Value(a))) &&
        match(nb, m_Sub(m_Zero(), m_Value(b)))) {
      BinaryOperator *s_new = BinaryOperator::CreateAdd(a, b, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateSub(ConstantInt::get(I->getType(), 0), s_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:add-then-sub-const
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Add(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C1->getValue() - C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:neg-of-sub-nsw
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Zero(), m_Value(a))) &&
        match(a, m_Sub(m_Value(x), m_Value(y))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoSignedWrap()) {
      BinaryOperator *r_new = BinaryOperator::CreateSub(y, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:sub-nsw-of-neg
  {
    Value *A, *B, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(x), m_Value(B))) &&
        cast<OverflowingBinaryOperator>(I)->hasNoSignedWrap() &&
        match(B, m_Sub(m_Zero(), m_Value(A)))) {
      BinaryOperator *C_new = BinaryOperator::CreateAdd(x, A, "", I);
      I->replaceAllUsesWith(C_new);
      return true;
    }
  }

  // AddSub:sub-then-add-cancel
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(a), m_Value(y))) &&
        match(a, m_Sub(m_Value(x), m_Specific(y)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AddSub:add-mask-carry
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(x), m_ConstantInt(C))) &&
        MaskedValueIsZero(x, C->getValue()) && C->getValue().isPowerOf2()) {
      BinaryOperator *r_new = BinaryOperator::CreateOr(x, C, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:sub-of-sub-cancel
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(x), m_Value(a))) &&
        match(a, m_Sub(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(y);
      return true;
    }
  }

  // AddSub:add-nuw-uge
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Value(x))) &&
        P0 == ICmpInst::ICMP_UGE &&
        match(a, m_Add(m_Specific(x), m_Value(y))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoUnsignedWrap()) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 1));
      return true;
    }
  }

  // AddSub:neg-icmp-eq
  {
    Value *n, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(n), m_ConstantInt(C))) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(n, m_Sub(m_Zero(), m_Value(x)))) {
      APInt C1_val = (-C->getValue());
      Constant *NC1 = ConstantInt::get(n->getType(), C1_val);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_EQ, x, NC1);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AddSub:not-minus-const
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_Xor(m_Value(x), m_AllOnes()))) {
      APInt C1_val = (APInt(width, -1) - C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateSub(NC1, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:mul-plus-self
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(a), m_Value(x))) &&
        match(a, m_Mul(m_Specific(x), m_ConstantInt(C))) &&
        width >= 2) {
      APInt C1_val = (C->getValue() + APInt(width, 1));
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateMul(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:not-plus-one-is-neg
  {
    Value *a, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(a), m_One())) &&
        cast<OverflowingBinaryOperator>(I)->hasNoSignedWrap() &&
        match(a, m_Xor(m_Value(x), m_AllOnes())) &&
        width >= 2) {
      BinaryOperator *r_new = BinaryOperator::CreateSub(ConstantInt::get(I->getType(), 0), x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:nsw-const-chain
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Add(m_Value(a), m_ConstantInt(C2))) &&
        cast<OverflowingBinaryOperator>(I)->hasNoSignedWrap() &&
        match(a, m_Add(m_Value(x), m_ConstantInt(C1))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoSignedWrap() &&
        WillNotOverflowSignedAdd(C1, C2, I)) {
      APInt C1_val = (C1->getValue() + C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AddSub:icmp-sgt-sub-nsw
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_SGT &&
        match(a, m_Sub(m_Value(x), m_Value(y))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoSignedWrap()) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SGT, x, y);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:and-self
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(x), m_Specific(x)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:and-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:and-allones
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(x), m_AllOnes()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:or-self
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(x), m_Specific(x)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:or-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:or-allones
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(x), m_AllOnes()))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), -1));
      return true;
    }
  }

  // AndOrXor:xor-self
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(x), m_Specific(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:xor-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:or-and-absorb
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(x), m_Value(a))) &&
        match(a, m_And(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:and-or-absorb
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(x), m_Value(a))) &&
        match(a, m_Or(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:and-not-self
  {
    Value *n, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(n), m_Value(x))) &&
        match(n, m_Xor(m_Specific(x), m_AllOnes()))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:or-not-self
  {
    Value *n, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(n), m_Value(x))) &&
        match(n, m_Xor(m_Specific(x), m_AllOnes()))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), -1));
      return true;
    }
  }

  // AndOrXor:xor-cancel
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_Value(y))) &&
        match(a, m_Xor(m_Value(x), m_Specific(y)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:not-of-not
  {
    Value *a, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_AllOnes())) &&
        match(a, m_Xor(m_Value(x), m_AllOnes()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:demorgan-and
  {
    Value *nx, *ny, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(nx), m_Value(ny))) &&
        match(nx, m_Xor(m_Value(x), m_AllOnes())) &&
        match(ny, m_Xor(m_Value(y), m_AllOnes()))) {
      BinaryOperator *o_new = BinaryOperator::CreateOr(x, y, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateXor(o_new, ConstantInt::get(I->getType(), -1), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:demorgan-or
  {
    Value *nx, *ny, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(nx), m_Value(ny))) &&
        match(nx, m_Xor(m_Value(x), m_AllOnes())) &&
        match(ny, m_Xor(m_Value(y), m_AllOnes()))) {
      BinaryOperator *a_new = BinaryOperator::CreateAnd(x, y, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateXor(a_new, ConstantInt::get(I->getType(), -1), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:and-const-reassoc
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_And(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C1->getValue() & C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:or-const-reassoc
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Or(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C1->getValue() | C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateOr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:xor-const-reassoc
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Xor(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C1->getValue() ^ C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateXor(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:factor-and-over-or
  {
    Value *a, *b, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(a), m_Value(b))) &&
        match(a, m_And(m_Value(x), m_ConstantInt(C1))) &&
        match(b, m_And(m_Specific(x), m_ConstantInt(C2)))) {
      APInt C1_val = (C1->getValue() | C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:factor-or-over-and
  {
    Value *a, *b, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_Value(b))) &&
        match(a, m_Or(m_Value(x), m_ConstantInt(C1))) &&
        match(b, m_Or(m_Specific(x), m_ConstantInt(C2)))) {
      APInt C1_val = (C1->getValue() & C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateOr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:andor-to-xor
  {
    Value *a, *b, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_Value(b))) &&
        match(a, m_And(m_Value(x), m_Value(y))) &&
        match(b, m_Or(m_Specific(x), m_Specific(y)))) {
      BinaryOperator *r_new = BinaryOperator::CreateXor(x, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:select-bits
  {
    Value *a, *b, *ny, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(a), m_Value(b))) &&
        match(a, m_And(m_Value(x), m_Value(y))) &&
        match(b, m_And(m_Specific(x), m_Value(ny))) &&
        match(ny, m_Xor(m_Specific(y), m_AllOnes()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:masked-merge
  {
    Value *a, *d, *x, *y;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_Value(y))) &&
        match(a, m_And(m_Value(d), m_ConstantInt(C))) &&
        match(d, m_Xor(m_Value(x), m_Specific(y)))) {
      BinaryOperator *nx_new = BinaryOperator::CreateAnd(x, C, "", I);
      APInt C1_val = (~C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *ny_new = BinaryOperator::CreateAnd(y, NC1, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateOr(nx_new, ny_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:fig2-masked-or
  {
    Value *B, *V, *t0, *t1, *t2;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(t1), m_Value(t2))) &&
        match(t1, m_And(m_Value(t0), m_ConstantInt(C1))) &&
        match(t2, m_And(m_Value(B), m_ConstantInt(C2))) &&
        match(t0, m_Or(m_Specific(B), m_Value(V))) &&
        (C1->getValue() & C2->getValue()) == APInt(width, 0) && MaskedValueIsZero(V, (~C1->getValue()))) {
      APInt C1_val = (C1->getValue() | C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *R_new = BinaryOperator::CreateAnd(t0, NC1, "", I);
      I->replaceAllUsesWith(R_new);
      return true;
    }
  }

  // AndOrXor:and-or-absorb-commuted
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_Value(x))) &&
        match(a, m_Or(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:or-disjoint-is-add
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(x), m_ConstantInt(C))) &&
        MaskedValueIsZero(x, C->getValue())) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, C, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:and-mask-noop
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(x), m_ConstantInt(C))) &&
        MaskedValueIsZero(x, (~C->getValue()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // AndOrXor:or-into-and-mask
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_ConstantInt(C1))) &&
        match(a, m_Or(m_Value(x), m_ConstantInt(C2))) &&
        (C1->getValue() & C2->getValue()) == C2->getValue()) {
      BinaryOperator *b_new = BinaryOperator::CreateAnd(x, C1, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateOr(b_new, C2, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:icmp-eq-self
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_Specific(x))) &&
        P0 == ICmpInst::ICMP_EQ) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 1));
      return true;
    }
  }

  // AndOrXor:icmp-ne-self
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_Specific(x))) &&
        P0 == ICmpInst::ICMP_NE) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:icmp-ult-zero
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_ULT) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:icmp-uge-zero
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_UGE) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 1));
      return true;
    }
  }

  // AndOrXor:icmp-ugt-allones
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_AllOnes())) &&
        P0 == ICmpInst::ICMP_UGT) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:icmp-sgt-allones-is-sge-zero
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_AllOnes())) &&
        P0 == ICmpInst::ICMP_SGT) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SGE, x, ConstantInt::get(x->getType(), 0));
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-eq-add-const
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_ConstantInt(C2))) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(a, m_Add(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C2->getValue() - C1->getValue());
      Constant *NC1 = ConstantInt::get(a->getType(), C1_val);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_EQ, x, NC1);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-slt-sub-nsw
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_SLT &&
        match(a, m_Sub(m_Value(x), m_Value(y))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoSignedWrap()) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SLT, x, y);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-ne-xor
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_NE &&
        match(a, m_Xor(m_Value(x), m_Value(y)))) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_NE, x, y);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-ult-one
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_One())) &&
        P0 == ICmpInst::ICMP_ULT &&
        x->getType()->getIntegerBitWidth() >= 2) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_EQ, x, ConstantInt::get(x->getType(), 0));
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:xor-i1-is-icmp-ne
  {
    Value *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(x), m_Value(y))) &&
        x->getType()->isIntegerTy(1)) {
      ICmpInst *r_new = new ICmpInst(I, ICmpInst::ICMP_NE, x, y);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:or-or-absorb
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(a), m_Value(y))) &&
        match(a, m_Or(m_Value(x), m_Specific(y)))) {
      I->replaceAllUsesWith(a);
      return true;
    }
  }

  // AndOrXor:and-and-absorb
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_Value(y))) &&
        match(a, m_And(m_Value(x), m_Specific(y)))) {
      I->replaceAllUsesWith(a);
      return true;
    }
  }

  // AndOrXor:xor-and-to-andnot
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_Value(x))) &&
        match(a, m_Xor(m_Specific(x), m_Value(y)))) {
      BinaryOperator *ny_new = BinaryOperator::CreateXor(y, ConstantInt::get(I->getType(), -1), "", I);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, ny_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:and-xor-to-notand
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_Value(y))) &&
        match(a, m_And(m_Value(x), m_Specific(y)))) {
      BinaryOperator *nx_new = BinaryOperator::CreateXor(x, ConstantInt::get(I->getType(), -1), "", I);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(nx_new, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:or-xor-to-andnot
  {
    Value *a, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Xor(m_Value(a), m_Value(y))) &&
        match(a, m_Or(m_Value(x), m_Specific(y)))) {
      BinaryOperator *ny_new = BinaryOperator::CreateXor(y, ConstantInt::get(I->getType(), -1), "", I);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, ny_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:icmp-eq-and-pow2
  {
    Value *a, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(a, m_And(m_Value(x), m_ConstantInt(C))) &&
        C->getValue().isPowerOf2()) {
      BinaryOperator *a_new = BinaryOperator::CreateAnd(x, C, "", I);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_NE, a_new, C);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-both-zero-and
  {
    Value *c1, *c2, *x, *y;
    ICmpInst::Predicate P0, P1;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(c1), m_Value(c2))) &&
        match(c1, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(c2, m_ICmp(P1, m_Value(y), m_Zero())) &&
        P1 == ICmpInst::ICMP_EQ &&
        y->getType() == x->getType()) {
      BinaryOperator *o_new = BinaryOperator::CreateOr(x, y, "", I);
      ICmpInst *r_new = new ICmpInst(I, ICmpInst::ICMP_EQ, o_new, ConstantInt::get(x->getType(), 0));
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:icmp-either-nonzero-or
  {
    Value *c1, *c2, *x, *y;
    ICmpInst::Predicate P0, P1;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Or(m_Value(c1), m_Value(c2))) &&
        match(c1, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_NE &&
        match(c2, m_ICmp(P1, m_Value(y), m_Zero())) &&
        P1 == ICmpInst::ICMP_NE &&
        y->getType() == x->getType()) {
      BinaryOperator *o_new = BinaryOperator::CreateOr(x, y, "", I);
      ICmpInst *r_new = new ICmpInst(I, ICmpInst::ICMP_NE, o_new, ConstantInt::get(x->getType(), 0));
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // AndOrXor:icmp-ugt-to-uge
  {
    Value *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_ConstantInt(C))) &&
        P0 == ICmpInst::ICMP_UGT &&
        x->getType()->getIntegerBitWidth() >= 2 &&
        C->getValue() != APInt(x->getType()->getIntegerBitWidth(), -1)) {
      APInt C1_val = (C->getValue() + APInt(x->getType()->getIntegerBitWidth(), 1));
      Constant *NC1 = ConstantInt::get(x->getType(), C1_val);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_UGE, x, NC1);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-slt-to-sle
  {
    Value *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_ConstantInt(C))) &&
        P0 == ICmpInst::ICMP_SLT &&
        x->getType()->getIntegerBitWidth() >= 2 &&
        !(C->getValue().isSignBit())) {
      APInt C1_val = (C->getValue() - APInt(x->getType()->getIntegerBitWidth(), 1));
      Constant *NC1 = ConstantInt::get(x->getType(), C1_val);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SLE, x, NC1);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-ugt-zero
  {
    Value *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_UGT) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_NE, x, ConstantInt::get(x->getType(), 0));
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-eq-xor
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(a, m_Xor(m_Value(x), m_Value(y)))) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_EQ, x, y);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-eq-of-not
  {
    Value *n, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(n), m_ConstantInt(C))) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(n, m_Xor(m_Value(x), m_AllOnes()))) {
      APInt C1_val = (~C->getValue());
      Constant *NC1 = ConstantInt::get(n->getType(), C1_val);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_EQ, x, NC1);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-slt-of-not
  {
    Value *n, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(n), m_ConstantInt(C))) &&
        P0 == ICmpInst::ICMP_SLT &&
        match(n, m_Xor(m_Value(x), m_AllOnes()))) {
      APInt C1_val = (~C->getValue());
      Constant *NC1 = ConstantInt::get(n->getType(), C1_val);
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SGT, x, NC1);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-or-nonzero
  {
    Value *a, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(a, m_Or(m_Value(x), m_ConstantInt(C))) &&
        C->getValue() != APInt(a->getType()->getIntegerBitWidth(), 0)) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:icmp-and-le-mask
  {
    Value *a, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_ConstantInt(C))) &&
        P0 == ICmpInst::ICMP_UGT &&
        match(a, m_And(m_Value(x), m_Specific(C)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:icmp-or-ge-operand
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Value(x))) &&
        P0 == ICmpInst::ICMP_ULT &&
        match(a, m_Or(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:icmp-and-le-operand
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Value(x))) &&
        P0 == ICmpInst::ICMP_UGT &&
        match(a, m_And(m_Specific(x), m_Value(y)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // AndOrXor:xor-sign-split
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_Zero())) &&
        P0 == ICmpInst::ICMP_SLT &&
        match(a, m_Xor(m_Value(x), m_Value(y)))) {
      ICmpInst *cx_new = new ICmpInst(I, ICmpInst::ICMP_SLT, x, ConstantInt::get(a->getType(), 0));
      ICmpInst *cy_new = new ICmpInst(I, ICmpInst::ICMP_SLT, y, ConstantInt::get(a->getType(), 0));
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_NE, cx_new, cy_new);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:icmp-eq-allones-and
  {
    Value *a, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(a), m_AllOnes())) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(a, m_And(m_Value(x), m_Value(y)))) {
      ICmpInst *cx_new = new ICmpInst(I, ICmpInst::ICMP_EQ, x, ConstantInt::get(a->getType(), -1));
      ICmpInst *cy_new = new ICmpInst(I, ICmpInst::ICMP_EQ, y, ConstantInt::get(a->getType(), -1));
      BinaryOperator *c_new = BinaryOperator::CreateAnd(cx_new, cy_new, "", I);
      I->replaceAllUsesWith(c_new);
      return true;
    }
  }

  // AndOrXor:sign-mask-to-select
  {
    Value *a, *x, *y;
    ConstantInt *CE1;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_And(m_Value(a), m_Value(y))) &&
        match(a, m_AShr(m_Value(x), m_ConstantInt(CE1))) &&
        width >= 2 &&
        CE1->getValue() == (APInt(width, width) - APInt(width, 1))) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SLT, x, ConstantInt::get(I->getType(), 0));
      SelectInst *r_new = SelectInst::Create(c_new, y, ConstantInt::get(I->getType(), 0), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-one
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_One())) &&
        width >= 2) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // MulDivRem:mul-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // MulDivRem:mul-allones-is-neg
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_AllOnes()))) {
      BinaryOperator *r_new = BinaryOperator::CreateSub(ConstantInt::get(I->getType(), 0), x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-pow2-to-shl
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_ConstantInt(C))) &&
        C->getValue().isPowerOf2()) {
      APInt C1_val = APInt(width, C->getValue().logBase2());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateShl(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-of-negs
  {
    Value *a, *b, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(a), m_Value(b))) &&
        match(a, m_Sub(m_Zero(), m_Value(x))) &&
        match(b, m_Sub(m_Zero(), m_Value(y)))) {
      BinaryOperator *r_new = BinaryOperator::CreateMul(x, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:udiv-one
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_UDiv(m_Value(x), m_One())) &&
        width >= 2) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // MulDivRem:sdiv-one
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_SDiv(m_Value(x), m_One())) &&
        width >= 2) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // MulDivRem:udiv-pow2-to-lshr
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_UDiv(m_Value(x), m_ConstantInt(C))) &&
        C->getValue().isPowerOf2()) {
      APInt C1_val = APInt(width, C->getValue().logBase2());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateLShr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:sdiv-by-allones-is-neg
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_SDiv(m_Value(x), m_AllOnes()))) {
      BinaryOperator *r_new = BinaryOperator::CreateSub(ConstantInt::get(I->getType(), 0), x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:sdiv-neg-divisor
  {
    Value *X, *a;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Sub(m_Zero(), m_Value(a))) &&
        match(a, m_SDiv(m_Value(X), m_ConstantInt(C))) &&
        width >= 2 &&
        C->getValue() != APInt(width, 1) && !(C->getValue().isSignBit())) {
      APInt C1_val = (-C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateSDiv(X, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:urem-one
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_URem(m_Value(x), m_One())) &&
        width >= 2) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // MulDivRem:urem-pow2-to-and
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_URem(m_Value(x), m_ConstantInt(C))) &&
        width >= 2 &&
        C->getValue().isPowerOf2()) {
      APInt C1_val = (C->getValue() - APInt(width, 1));
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:udiv-shl-pow2
  {
    Value *s, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_UDiv(m_Value(x), m_Value(s))) &&
        match(s, m_Shl(m_One(), m_ConstantInt(C))) &&
        width >= 2) {
      BinaryOperator *r_new = BinaryOperator::CreateLShr(x, C, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:sdiv-exact-pow2-to-ashr
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_SDiv(m_Value(x), m_ConstantInt(C))) &&
        cast<PossiblyExactOperator>(I)->isExact() &&
        C->getValue().isPowerOf2() && C->getValue().sgt(APInt(width, 0))) {
      APInt C1_val = APInt(width, C->getValue().logBase2());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAShr(x, NC1, "", I);
      r_new->setIsExact(true);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-nuw-pow2-to-shl-nuw
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_ConstantInt(C))) &&
        cast<OverflowingBinaryOperator>(I)->hasNoUnsignedWrap() &&
        C->getValue().isPowerOf2()) {
      APInt C1_val = APInt(width, C->getValue().logBase2());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateShl(x, NC1, "", I);
      r_new->setHasNoUnsignedWrap(true);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:urem-self
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_URem(m_Value(x), m_Specific(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // MulDivRem:udiv-self
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_UDiv(m_Value(x), m_Specific(x))) &&
        width >= 2) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 1));
      return true;
    }
  }

  // MulDivRem:mul-two-is-add
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_SpecificInt(2))) &&
        width >= 3) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-const-reassoc
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Mul(m_Value(x), m_ConstantInt(C1)))) {
      APInt C1_val = (C1->getValue() * C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateMul(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-of-neg-const
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_Sub(m_Zero(), m_Value(x)))) {
      APInt C1_val = (-C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateMul(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:udiv-udiv-combine
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_UDiv(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_UDiv(m_Value(x), m_ConstantInt(C1))) &&
        WillNotOverflowUnsignedMul(C1, C2, I)) {
      APInt C1_val = (C1->getValue() * C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateUDiv(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:urem-expand
  {
    Value *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_URem(m_Value(x), m_Value(y)))) {
      BinaryOperator *d_new = BinaryOperator::CreateUDiv(x, y, "", I);
      BinaryOperator *m_new = BinaryOperator::CreateMul(d_new, y, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateSub(x, m_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:srem-expand
  {
    Value *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_SRem(m_Value(x), m_Value(y)))) {
      BinaryOperator *d_new = BinaryOperator::CreateSDiv(x, y, "", I);
      BinaryOperator *m_new = BinaryOperator::CreateMul(d_new, y, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateSub(x, m_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:udiv-exact-pow2
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_UDiv(m_Value(x), m_ConstantInt(C))) &&
        cast<PossiblyExactOperator>(I)->isExact() &&
        C->getValue().isPowerOf2()) {
      APInt C1_val = APInt(width, C->getValue().logBase2());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateLShr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-nsw-two-is-add
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_SpecificInt(2))) &&
        cast<OverflowingBinaryOperator>(I)->hasNoSignedWrap() &&
        width >= 3) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-nuw-two-is-add
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_SpecificInt(2))) &&
        cast<OverflowingBinaryOperator>(I)->hasNoUnsignedWrap() &&
        width >= 3) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // MulDivRem:mul-signbit-to-shl
  {
    Value *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(x), m_ConstantInt(C))) &&
        width >= 2 &&
        C->getValue().isSignBit()) {
      APInt C1_val = (APInt(width, width) - APInt(width, 1));
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateShl(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:true-cond
  {
    Value *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_One(), m_Value(x), m_Value(y)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Select:false-cond
  {
    Value *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Zero(), m_Value(x), m_Value(y)))) {
      I->replaceAllUsesWith(y);
      return true;
    }
  }

  // Select:same-arms
  {
    Value *c, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(x), m_Specific(x)))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Select:bools-to-cond
  {
    Value *c;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_One(), m_Zero())) &&
        c->getType() == I->getType()) {
      I->replaceAllUsesWith(c);
      return true;
    }
  }

  // Select:bools-to-not
  {
    Value *c;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Zero(), m_One())) &&
        c->getType() == I->getType()) {
      BinaryOperator *r_new = BinaryOperator::CreateXor(c, ConstantInt::get(I->getType(), 1), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:true-arm-is-or
  {
    Value *b, *c;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_One(), m_Value(b))) &&
        c->getType() == I->getType()) {
      BinaryOperator *r_new = BinaryOperator::CreateOr(c, b, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:false-arm-is-and
  {
    Value *b, *c;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(b), m_Zero())) &&
        c->getType() == I->getType()) {
      BinaryOperator *r_new = BinaryOperator::CreateAnd(c, b, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:icmp-eq-const-identity
  {
    Value *c, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_ConstantInt(C), m_Value(x))) &&
        match(c, m_ICmp(P0, m_Specific(x), m_Specific(C))) &&
        P0 == ICmpInst::ICMP_EQ) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Select:icmp-ne-const-identity
  {
    Value *c, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(x), m_ConstantInt(C))) &&
        match(c, m_ICmp(P0, m_Specific(x), m_Specific(C))) &&
        P0 == ICmpInst::ICMP_NE) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Select:sign-to-ashr
  {
    Value *c, *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_AllOnes(), m_Zero())) &&
        match(c, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_SLT &&
        x->getType() == I->getType() &&
        width >= 2) {
      APInt C1_val = (APInt(width, width) - APInt(width, 1));
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAShr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:not-cond-swaps
  {
    Value *c, *nc, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(nc), m_Value(x), m_Value(y))) &&
        match(nc, m_Xor(m_Value(c), m_One()))) {
      SelectInst *r_new = SelectInst::Create(c, y, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:factor-add
  {
    Value *a, *b, *c, *x, *y, *z;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(a), m_Value(b))) &&
        match(a, m_Add(m_Value(x), m_Value(y))) &&
        match(b, m_Add(m_Specific(x), m_Value(z)))) {
      SelectInst *s_new = SelectInst::Create(c, y, z, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, s_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:factor-sub
  {
    Value *a, *b, *c, *x, *y, *z;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(a), m_Value(b))) &&
        match(a, m_Sub(m_Value(x), m_Value(y))) &&
        match(b, m_Sub(m_Specific(x), m_Value(z)))) {
      SelectInst *s_new = SelectInst::Create(c, y, z, "", I);
      BinaryOperator *r_new = BinaryOperator::CreateSub(x, s_new, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:select-of-select-same-cond
  {
    Value *a, *c, *x, *y;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(a), m_Value(y))) &&
        match(a, m_Select(m_Specific(c), m_Value(x), m_Specific(y)))) {
      SelectInst *r_new = SelectInst::Create(c, x, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:zero-or-mask
  {
    Value *a, *c, *x;
    ConstantInt *C;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Zero(), m_Value(a))) &&
        match(c, m_ICmp(P0, m_Value(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(a, m_And(m_Specific(x), m_ConstantInt(C)))) {
      I->replaceAllUsesWith(a);
      return true;
    }
  }

  // Select:umax-canonical
  {
    Value *c1, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c1), m_Value(x), m_Value(y))) &&
        match(c1, m_ICmp(P0, m_Specific(x), m_Specific(y))) &&
        P0 == ICmpInst::ICMP_UGT) {
      ICmpInst *c2_new = new ICmpInst(I, ICmpInst::ICMP_ULT, y, x);
      SelectInst *r_new = SelectInst::Create(c2_new, x, y, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:smin-canonical
  {
    Value *c1, *x, *y;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c1), m_Value(y), m_Value(x))) &&
        match(c1, m_ICmp(P0, m_Specific(x), m_Specific(y))) &&
        P0 == ICmpInst::ICMP_SGT) {
      ICmpInst *c2_new = new ICmpInst(I, ICmpInst::ICMP_SLT, y, x);
      SelectInst *r_new = SelectInst::Create(c2_new, y, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:select-zero-is-sext-mask
  {
    Value *c, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(x), m_Zero())) &&
        c->getType()->getIntegerBitWidth() < width) {
      CastInst *m_new = CastInst::Create(Instruction::SExt, c, I->getType(), "", I);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(m_new, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:select-allones-is-or-mask
  {
    Value *c, *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_AllOnes(), m_Value(x))) &&
        c->getType()->getIntegerBitWidth() < width) {
      CastInst *m_new = CastInst::Create(Instruction::SExt, c, I->getType(), "", I);
      BinaryOperator *r_new = BinaryOperator::CreateOr(m_new, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:select-const-eq
  {
    Value *c, *s;
    ConstantInt *C1, *C2;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_ICmp(P0, m_Value(s), m_ConstantInt(C1))) &&
        P0 == ICmpInst::ICMP_EQ &&
        match(s, m_Select(m_Value(c), m_Specific(C1), m_ConstantInt(C2))) &&
        c->getType() == I->getType() &&
        C1->getValue() != C2->getValue()) {
      I->replaceAllUsesWith(c);
      return true;
    }
  }

  // Select:nested-same-cond
  {
    Value *c, *inner, *x, *y, *z;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(x), m_Value(inner))) &&
        match(inner, m_Select(m_Specific(c), m_Value(y), m_Value(z)))) {
      SelectInst *r_new = SelectInst::Create(c, x, z, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Select:icmp-ne-zero-identity
  {
    Value *c, *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Value(x), m_Zero())) &&
        match(c, m_ICmp(P0, m_Specific(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_NE) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Select:icmp-eq-zero-identity
  {
    Value *c, *x;
    ICmpInst::Predicate P0;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Zero(), m_Value(x))) &&
        match(c, m_ICmp(P0, m_Specific(x), m_Zero())) &&
        P0 == ICmpInst::ICMP_EQ) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Select:cond-in-true-arm
  {
    Value *c;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_Specific(c), m_Zero()))) {
      I->replaceAllUsesWith(c);
      return true;
    }
  }

  // Select:cond-in-false-arm
  {
    Value *c;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Select(m_Value(c), m_One(), m_Specific(c)))) {
      I->replaceAllUsesWith(c);
      return true;
    }
  }

  // Shifts:shl-zero-amount
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:lshr-zero-amount
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_LShr(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:ashr-zero-amount
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_AShr(m_Value(x), m_Zero()))) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:shl-of-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Zero(), m_Value(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // Shifts:shl-lshr-same-const
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_LShr(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_Shl(m_Value(x), m_Specific(C)))) {
      APInt C1_val = APInt(width, -1).lshr(C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:lshr-shl-same-const
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_LShr(m_Value(x), m_Specific(C)))) {
      APInt C1_val = APInt(width, -1).shl(C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:shl-shl-const
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Shl(m_Value(x), m_ConstantInt(C1))) &&
        (C1->getValue() + C2->getValue()).ult(APInt(width, width))) {
      APInt C1_val = (C1->getValue() + C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateShl(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:lshr-lshr-const
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_LShr(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_LShr(m_Value(x), m_ConstantInt(C1))) &&
        (C1->getValue() + C2->getValue()).ult(APInt(width, width))) {
      APInt C1_val = (C1->getValue() + C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateLShr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:ashr-ashr-const
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_AShr(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_AShr(m_Value(x), m_ConstantInt(C1))) &&
        (C1->getValue() + C2->getValue()).ult(APInt(width, width))) {
      APInt C1_val = (C1->getValue() + C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAShr(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:shl-nuw-lshr-cancel
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_LShr(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_Shl(m_Value(x), m_Specific(C))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoUnsignedWrap()) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:shl-nsw-ashr-cancel
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_AShr(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_Shl(m_Value(x), m_Specific(C))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoSignedWrap()) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:lshr-exact-shl-cancel
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_LShr(m_Value(x), m_Specific(C))) &&
        cast<PossiblyExactOperator>(a)->isExact()) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:ashr-exact-shl-cancel
  {
    Value *a, *x;
    ConstantInt *C;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(a), m_ConstantInt(C))) &&
        match(a, m_AShr(m_Value(x), m_Specific(C))) &&
        cast<PossiblyExactOperator>(a)->isExact()) {
      I->replaceAllUsesWith(x);
      return true;
    }
  }

  // Shifts:shl-nsw-ashr-narrower
  {
    Value *a, *v0;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_AShr(m_Value(v0), m_ConstantInt(C2))) &&
        match(v0, m_Shl(m_Value(a), m_ConstantInt(C1))) &&
        cast<OverflowingBinaryOperator>(v0)->hasNoSignedWrap() &&
        C1->getValue().uge(C2->getValue())) {
      APInt C1_val = (C1->getValue() - C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *v1_new = BinaryOperator::CreateShl(a, NC1, "", I);
      v1_new->setHasNoSignedWrap(true);
      I->replaceAllUsesWith(v1_new);
      return true;
    }
  }

  // Shifts:shl-then-mul
  {
    Value *a, *x;
    ConstantInt *C, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Mul(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_Shl(m_Value(x), m_ConstantInt(C)))) {
      APInt C1_val = C2->getValue().shl(C->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateMul(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:signbit-lshr-to-zext-icmp
  {
    Value *x;
    ConstantInt *CE1;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_LShr(m_Value(x), m_ConstantInt(CE1))) &&
        width >= 2 &&
        CE1->getValue() == (APInt(width, width) - APInt(width, 1))) {
      ICmpInst *c_new = new ICmpInst(I, ICmpInst::ICMP_SLT, x, ConstantInt::get(I->getType(), 0));
      CastInst *r_new = CastInst::Create(Instruction::ZExt, c_new, I->getType(), "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:and-then-shl
  {
    Value *a, *x;
    ConstantInt *C, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(a), m_ConstantInt(C2))) &&
        match(a, m_And(m_Value(x), m_ConstantInt(C)))) {
      BinaryOperator *s_new = BinaryOperator::CreateShl(x, C2, "", I);
      APInt C1_val = C->getValue().shl(C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateAnd(s_new, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:shl-shl-nuw
  {
    Value *a, *x;
    ConstantInt *C1, *C2;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(a), m_ConstantInt(C2))) &&
        cast<OverflowingBinaryOperator>(I)->hasNoUnsignedWrap() &&
        match(a, m_Shl(m_Value(x), m_ConstantInt(C1))) &&
        cast<OverflowingBinaryOperator>(a)->hasNoUnsignedWrap() &&
        (C1->getValue() + C2->getValue()).ult(APInt(width, width))) {
      APInt C1_val = (C1->getValue() + C2->getValue());
      Constant *NC1 = ConstantInt::get(I->getType(), C1_val);
      BinaryOperator *r_new = BinaryOperator::CreateShl(x, NC1, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:shl-nsw-one-is-add
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(x), m_One())) &&
        cast<OverflowingBinaryOperator>(I)->hasNoSignedWrap() &&
        width >= 2) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:shl-nuw-one-is-add
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_Shl(m_Value(x), m_One())) &&
        cast<OverflowingBinaryOperator>(I)->hasNoUnsignedWrap() &&
        width >= 2) {
      BinaryOperator *r_new = BinaryOperator::CreateAdd(x, x, "", I);
      I->replaceAllUsesWith(r_new);
      return true;
    }
  }

  // Shifts:ashr-allones
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_AShr(m_AllOnes(), m_Value(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), -1));
      return true;
    }
  }

  // Shifts:lshr-of-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_LShr(m_Zero(), m_Value(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }

  // Shifts:ashr-of-zero
  {
    Value *x;
    unsigned width = I->getType()->getIntegerBitWidth();
    (void)width;
    if (match(I, m_AShr(m_Zero(), m_Value(x)))) {
      I->replaceAllUsesWith(ConstantInt::get(I->getType(), 0));
      return true;
    }
  }
  return false;
}
