// Unit + property tests for IFP lattices.
#include <gtest/gtest.h>

#include "dift/lattice.hpp"

namespace {

using vpdift::dift::Lattice;
using vpdift::dift::LatticeError;
using vpdift::dift::Tag;

TEST(LatticeIfp1, FlowsMatchFig1) {
  const Lattice l = Lattice::ifp1();
  const Tag lc = l.tag_of("LC"), hc = l.tag_of("HC");
  EXPECT_TRUE(l.allowed_flow(lc, hc));
  EXPECT_FALSE(l.allowed_flow(hc, lc));
  EXPECT_TRUE(l.allowed_flow(lc, lc));
  EXPECT_TRUE(l.allowed_flow(hc, hc));
  EXPECT_EQ(l.lub(lc, hc), hc);
  EXPECT_EQ(l.lub(lc, lc), lc);
}

TEST(LatticeIfp1, DeclassEdgeOnlyViaDeclassQuery) {
  const Lattice l = Lattice::ifp1();
  const Tag lc = l.tag_of("LC"), hc = l.tag_of("HC");
  EXPECT_TRUE(l.allowed_declass(hc, lc));   // the red dashed arrow
  EXPECT_FALSE(l.allowed_flow(hc, lc));     // but not a regular flow
}

TEST(LatticeIfp2, IntegrityDirection) {
  const Lattice l = Lattice::ifp2();
  const Tag hi = l.tag_of("HI"), li = l.tag_of("LI");
  EXPECT_TRUE(l.allowed_flow(hi, li));
  EXPECT_FALSE(l.allowed_flow(li, hi));
  EXPECT_EQ(l.lub(hi, li), li);
  EXPECT_TRUE(l.allowed_declass(li, hi));
}

TEST(LatticeIfp3, PaperLubExample) {
  // Paper, Example 1: LUB((LC,LI),(HC,HI)) = (HC,LI).
  const Lattice l = Lattice::ifp3();
  EXPECT_EQ(l.lub(l.tag_of("(LC,LI)"), l.tag_of("(HC,HI)")), l.tag_of("(HC,LI)"));
}

TEST(LatticeIfp3, ProductFlowIsComponentwise) {
  const Lattice l = Lattice::ifp3();
  const Tag lchi = l.tag_of("(LC,HI)"), lcli = l.tag_of("(LC,LI)"),
            hchi = l.tag_of("(HC,HI)"), hcli = l.tag_of("(HC,LI)");
  // (LC,HI) is bottom, (HC,LI) is top.
  for (Tag t : {lchi, lcli, hchi, hcli}) {
    EXPECT_TRUE(l.allowed_flow(lchi, t));
    EXPECT_TRUE(l.allowed_flow(t, hcli));
  }
  // Confidentiality and integrity cross-flows forbidden.
  EXPECT_FALSE(l.allowed_flow(hchi, lcli));
  EXPECT_FALSE(l.allowed_flow(lcli, hchi));
  EXPECT_FALSE(l.allowed_flow(hcli, hchi));
  EXPECT_FALSE(l.allowed_flow(hcli, lcli));
}

TEST(LatticeIfp3, DeclassificationPathHcLiToLcLi) {
  const Lattice l = Lattice::ifp3();
  EXPECT_TRUE(l.allowed_declass(l.tag_of("(HC,LI)"), l.tag_of("(LC,LI)")));
  EXPECT_TRUE(l.allowed_declass(l.tag_of("(HC,HI)"), l.tag_of("(LC,LI)")));
  // Declassification is not a free-for-all: plain flows are still included,
  // but nothing admits (LC,LI) -> (LC,HI) (endorsement direction exists via
  // the LI->HI declass edge though).
  EXPECT_TRUE(l.allowed_declass(l.tag_of("(LC,LI)"), l.tag_of("(LC,HI)")));
}

TEST(LatticePerByte, RefinementSemantics) {
  const Lattice base = Lattice::ifp3();
  const Lattice l =
      Lattice::with_per_byte_secret(base, base.tag_of("(HC,HI)"), 16, "PIN");
  ASSERT_EQ(l.size(), 4u + 16u);
  const Tag p0 = l.tag_of("PIN0"), p1 = l.tag_of("PIN1");
  const Tag hchi = l.tag_of("(HC,HI)");
  // Distinct PIN bytes are incomparable...
  EXPECT_FALSE(l.allowed_flow(p0, p1));
  EXPECT_FALSE(l.allowed_flow(p1, p0));
  // ...and join at (HC,HI).
  EXPECT_EQ(l.lub(p0, p1), hchi);
  EXPECT_TRUE(l.allowed_flow(p0, hchi));
  // Base flows survive the refinement.
  EXPECT_TRUE(l.allowed_flow(l.tag_of("(LC,HI)"), l.tag_of("(HC,LI)")));
}

TEST(LatticeLinear, ChainOrder) {
  const Lattice l = Lattice::linear(5);
  for (Tag a = 0; a < 5; ++a)
    for (Tag b = 0; b < 5; ++b) {
      EXPECT_EQ(l.allowed_flow(a, b), a <= b);
      EXPECT_EQ(l.lub(a, b), std::max(a, b));
    }
}

TEST(LatticeBuilder, RejectsMissingUpperBound) {
  Lattice::Builder b;
  b.add_class("A");
  b.add_class("B");  // no flows: {A,B} has no common upper bound
  EXPECT_THROW(b.build(), LatticeError);
}

TEST(LatticeBuilder, RejectsAmbiguousLub) {
  // Diamond with two incomparable upper bounds: A -> {C, D}, B -> {C, D}.
  Lattice::Builder b;
  const Tag a = b.add_class("A"), x = b.add_class("B"), c = b.add_class("C"),
            d = b.add_class("D"), top = b.add_class("T");
  b.add_flow(a, c).add_flow(a, d).add_flow(x, c).add_flow(x, d);
  b.add_flow(c, top).add_flow(d, top);
  EXPECT_THROW(b.build(), LatticeError);
}

TEST(LatticeBuilder, RejectsDuplicateNamesAndBadEdges) {
  Lattice::Builder b;
  b.add_class("A");
  EXPECT_THROW(b.add_class("A"), LatticeError);
  EXPECT_THROW(b.add_flow(0, 9), LatticeError);
  EXPECT_THROW(b.add_declass(9, 0), LatticeError);
}

TEST(LatticeBuilder, RejectsEmpty) {
  Lattice::Builder b;
  EXPECT_THROW(b.build(), LatticeError);
}

TEST(LatticeQueries, NameLookup) {
  const Lattice l = Lattice::ifp1();
  EXPECT_EQ(l.name_of(l.tag_of("HC")), "HC");
  EXPECT_FALSE(l.find("nope").has_value());
  EXPECT_THROW(l.tag_of("nope"), LatticeError);
  EXPECT_THROW(l.name_of(99), LatticeError);
}

// ---- lattice axioms as properties, over a family of lattices ----

class LatticeAxioms : public ::testing::TestWithParam<int> {
 protected:
  static Lattice make(int which) {
    switch (which) {
      case 0: return Lattice::ifp1();
      case 1: return Lattice::ifp2();
      case 2: return Lattice::ifp3();
      case 3: return Lattice::linear(7);
      case 4:
        return Lattice::with_per_byte_secret(Lattice::ifp3(),
                                             Lattice::ifp3().tag_of("(HC,HI)"),
                                             8, "S");
      case 5: return Lattice::product(Lattice::linear(3), Lattice::ifp1());
      default: return Lattice::ifp1();
    }
  }
};

TEST_P(LatticeAxioms, FlowIsReflexive) {
  const Lattice l = make(GetParam());
  for (Tag a = 0; a < l.size(); ++a) EXPECT_TRUE(l.allowed_flow(a, a));
}

TEST_P(LatticeAxioms, FlowIsTransitive) {
  const Lattice l = make(GetParam());
  const auto n = static_cast<Tag>(l.size());
  for (Tag a = 0; a < n; ++a)
    for (Tag b = 0; b < n; ++b)
      for (Tag c = 0; c < n; ++c)
        if (l.allowed_flow(a, b) && l.allowed_flow(b, c)) {
          EXPECT_TRUE(l.allowed_flow(a, c))
              << l.name_of(a) << "->" << l.name_of(b) << "->" << l.name_of(c);
        }
}

TEST_P(LatticeAxioms, LubIsCommutativeIdempotentAndUpperBound) {
  const Lattice l = make(GetParam());
  const auto n = static_cast<Tag>(l.size());
  for (Tag a = 0; a < n; ++a) {
    EXPECT_EQ(l.lub(a, a), a);
    for (Tag b = 0; b < n; ++b) {
      const Tag j = l.lub(a, b);
      EXPECT_EQ(j, l.lub(b, a));
      EXPECT_TRUE(l.allowed_flow(a, j));
      EXPECT_TRUE(l.allowed_flow(b, j));
    }
  }
}

TEST_P(LatticeAxioms, LubIsLeast) {
  const Lattice l = make(GetParam());
  const auto n = static_cast<Tag>(l.size());
  for (Tag a = 0; a < n; ++a)
    for (Tag b = 0; b < n; ++b) {
      const Tag j = l.lub(a, b);
      for (Tag c = 0; c < n; ++c)
        if (l.allowed_flow(a, c) && l.allowed_flow(b, c)) {
          EXPECT_TRUE(l.allowed_flow(j, c));
        }
    }
}

TEST_P(LatticeAxioms, LubIsAssociative) {
  const Lattice l = make(GetParam());
  const auto n = static_cast<Tag>(l.size());
  for (Tag a = 0; a < n; ++a)
    for (Tag b = 0; b < n; ++b)
      for (Tag c = 0; c < n; ++c)
        EXPECT_EQ(l.lub(l.lub(a, b), c), l.lub(a, l.lub(b, c)));
}

TEST_P(LatticeAxioms, LubMonotoneWithFlow) {
  // a flows to b  =>  lub(a, c) flows to lub(b, c).
  const Lattice l = make(GetParam());
  const auto n = static_cast<Tag>(l.size());
  for (Tag a = 0; a < n; ++a)
    for (Tag b = 0; b < n; ++b)
      if (l.allowed_flow(a, b)) {
        for (Tag c = 0; c < n; ++c)
          EXPECT_TRUE(l.allowed_flow(l.lub(a, c), l.lub(b, c)));
      }
}

TEST_P(LatticeAxioms, DeclassReachSupersetOfFlow) {
  const Lattice l = make(GetParam());
  const auto n = static_cast<Tag>(l.size());
  for (Tag a = 0; a < n; ++a)
    for (Tag b = 0; b < n; ++b)
      if (l.allowed_flow(a, b)) {
        EXPECT_TRUE(l.allowed_declass(a, b));
      }
}

INSTANTIATE_TEST_SUITE_P(Family, LatticeAxioms, ::testing::Range(0, 6));

}  // namespace
