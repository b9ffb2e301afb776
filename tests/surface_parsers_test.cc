// Tests for the PPLbin and HCL surface parsers: unit cases plus
// print-parse round trips over randomized ASTs (printer and parser agree
// by construction on every expression the library can build).
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "hcl/parser.h"
#include "ppl/parser.h"
#include "tree/generators.h"
#include "test_generators.h"

namespace xpv {
namespace {

TEST(PplBinParserTest, Atoms) {
  Result<ppl::PplBinPtr> p = ppl::ParsePplBin("child::a");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->kind, ppl::PplBinKind::kStep);
  EXPECT_EQ((*p)->axis, Axis::kChild);

  p = ppl::ParsePplBin(".");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE((*p)->Equals(*ppl::PplBinExpr::Self()));

  p = ppl::ParsePplBin("descendant::*");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE((*p)->name_test.empty());
}

TEST(PplBinParserTest, Precedence) {
  // '/' binds tighter than 'union'.
  Result<ppl::PplBinPtr> p =
      ppl::ParsePplBin("child::a/child::b union child::c");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->kind, ppl::PplBinKind::kUnion);
  EXPECT_EQ((*p)->left->kind, ppl::PplBinKind::kCompose);

  // prefix 'except' binds tighter than '/': a/except b = a/(except b).
  p = ppl::ParsePplBin("child::a/except child::b");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->kind, ppl::PplBinKind::kCompose);
  EXPECT_EQ((*p)->right->kind, ppl::PplBinKind::kComplement);

  // 'except' over a composition needs parentheses.
  p = ppl::ParsePplBin("except (child::a/child::b)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->kind, ppl::PplBinKind::kComplement);
  EXPECT_EQ((*p)->left->kind, ppl::PplBinKind::kCompose);
}

TEST(PplBinParserTest, FiltersAndNesting) {
  Result<ppl::PplBinPtr> p =
      ppl::ParsePplBin("[child::a union [descendant::b]]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->kind, ppl::PplBinKind::kFilter);
  EXPECT_EQ((*p)->left->kind, ppl::PplBinKind::kUnion);
}

TEST(PplBinParserTest, Errors) {
  EXPECT_FALSE(ppl::ParsePplBin("").ok());
  EXPECT_FALSE(ppl::ParsePplBin("child::").ok());
  EXPECT_FALSE(ppl::ParsePplBin("except").ok());
  EXPECT_FALSE(ppl::ParsePplBin("child::a union").ok());
  EXPECT_FALSE(ppl::ParsePplBin("[child::a").ok());
  EXPECT_FALSE(ppl::ParsePplBin("child::a)").ok());
  EXPECT_FALSE(ppl::ParsePplBin("$x").ok());
  EXPECT_FALSE(ppl::ParsePplBin("frob::a").ok());
}

class PplBinRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PplBinRoundTripTest, PrintParseIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    ppl::PplBinPtr p = RandomPplBin(rng, 4, /*allow_complement=*/true);
    std::string printed = p->ToString();
    Result<ppl::PplBinPtr> reparsed = ppl::ParsePplBin(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << ": " << reparsed.status();
    EXPECT_TRUE((*reparsed)->Equals(*p)) << printed;
    EXPECT_EQ((*reparsed)->ToString(), printed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PplBinRoundTripTest,
                         ::testing::Values(81, 82, 83, 84));

TEST(HclParserTest, Atoms) {
  Result<hcl::HclPtr> c = hcl::ParseHcl("x");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->kind, hcl::HclKind::kVar);

  c = hcl::ParseHcl("child::a");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->kind, hcl::HclKind::kBinary);

  c = hcl::ParseHcl("nodes");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->binary->ToString(), "nodes");

  c = hcl::ParseHcl("{except child::a}");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->binary->ToString(), "except child::a");
}

TEST(HclParserTest, Structure) {
  Result<hcl::HclPtr> c = hcl::ParseHcl(
      "descendant::book/([child::author/y]/[child::title/z])");
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ((*c)->kind, hcl::HclKind::kCompose);
  EXPECT_EQ((*c)->right->kind, hcl::HclKind::kCompose);
  EXPECT_EQ((*c)->right->left->kind, hcl::HclKind::kFilter);
  EXPECT_EQ(hcl::FreeVars(**c), (std::set<std::string>{"y", "z"}));
}

TEST(HclParserTest, UnionKeyword) {
  Result<hcl::HclPtr> c = hcl::ParseHcl("x u child::a/y");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->kind, hcl::HclKind::kUnion);
  EXPECT_EQ((*c)->right->kind, hcl::HclKind::kCompose);
}

TEST(HclParserTest, Errors) {
  EXPECT_FALSE(hcl::ParseHcl("").ok());
  EXPECT_FALSE(hcl::ParseHcl("u").ok());
  EXPECT_FALSE(hcl::ParseHcl("x/").ok());
  EXPECT_FALSE(hcl::ParseHcl("{child::a").ok());
  EXPECT_FALSE(hcl::ParseHcl("{$bad}").ok());
  EXPECT_FALSE(hcl::ParseHcl("[x").ok());
}

hcl::HclPtr RandomHcl(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(1, 3)) {
    switch (rng.Below(3)) {
      case 0:
        return hcl::HclExpr::Var(std::string(1, static_cast<char>(
                                                    'x' + rng.Below(3))));
      case 1:
        return hcl::HclExpr::Binary(
            hcl::MakePplBinQuery(
                RandomPplBin(rng, 2, /*allow_complement=*/true)));
      default:
        return hcl::HclExpr::Binary(hcl::MakeFullRelationQuery());
    }
  }
  switch (rng.Below(3)) {
    case 0:
      return hcl::HclExpr::Compose(RandomHcl(rng, depth - 1),
                                   RandomHcl(rng, depth - 1));
    case 1:
      return hcl::HclExpr::Union(RandomHcl(rng, depth - 1),
                                 RandomHcl(rng, depth - 1));
    default:
      return hcl::HclExpr::Filter(RandomHcl(rng, depth - 1));
  }
}

class HclRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HclRoundTripTest, PrintParseSemantics) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    hcl::HclPtr c = RandomHcl(rng, 3);
    std::string printed = c->ToString();
    Result<hcl::HclPtr> reparsed = hcl::ParseHcl(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << ": " << reparsed.status();
    // Binary leaves may print single-step PPLbin without braces and
    // reparse as equivalent but distinct BinaryQuery objects, so compare
    // by printout and by semantics instead of pointer identity.
    EXPECT_EQ((*reparsed)->ToString(), printed);

    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(6);
    Tree t = RandomTree(rng, opts);
    std::set<std::string> var_set = hcl::FreeVars(*c);
    std::vector<std::string> vars(var_set.begin(), var_set.end());
    EXPECT_EQ(hcl::EvalHclNaryNaive(t, **reparsed, vars),
              hcl::EvalHclNaryNaive(t, *c, vars))
        << printed << "\ntree: " << t.ToTerm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HclRoundTripTest,
                         ::testing::Values(91, 92, 93));

}  // namespace
}  // namespace xpv
