// Broad randomized stress tests: the full PPL pipeline against the
// exponential oracle on adversarial tree shapes, wider tuple widths,
// serializer fuzzing, and evaluator determinism / reuse.
#include <gtest/gtest.h>

#include "hcl/answer.h"
#include "hcl/translate.h"
#include "ppl/matrix_engine.h"
#include "tree/generators.h"
#include "xpath/eval.h"
#include "xpath/fragment.h"
#include "xpath/parser.h"
#include "xpath/simplify.h"
#include "test_generators.h"

namespace xpv {
namespace {

void ExpectPipelineMatchesDirect(const Tree& t, const xpath::PathExpr& p) {
  std::set<std::string> var_set = xpath::FreeVars(p);
  std::vector<std::string> vars(var_set.begin(), var_set.end());
  Result<hcl::HclPtr> c = hcl::PplToHcl(p);
  ASSERT_TRUE(c.ok()) << p.ToString() << ": " << c.status();
  Result<xpath::TupleSet> fast = hcl::AnswerQuery(t, **c, vars);
  ASSERT_TRUE(fast.ok()) << fast.status();
  xpath::DirectEvaluator direct(t);
  EXPECT_EQ(*fast, direct.EvalNaryNaive(p, vars))
      << "query: " << p.ToString() << "\ntree: " << t.ToTerm();
}

// Adversarial tree shapes: unary paths (dense ancestor chains), stars
// (dense sibling relations), perfect binary trees.
class ShapeStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapeStressTest, PathTree) {
  Rng rng(GetParam());
  Tree t = PathTree(2 + rng.Below(6), "a");
  for (int trial = 0; trial < 6; ++trial) {
    xpath::PathPtr p = RandomPpl(rng, {"x", "y"}, 3);
    ExpectPipelineMatchesDirect(t, *p);
  }
}

TEST_P(ShapeStressTest, StarTree) {
  Rng rng(GetParam() + 10);
  Tree t = StarTree(2 + rng.Below(6));
  for (int trial = 0; trial < 6; ++trial) {
    xpath::PathPtr p = RandomPpl(rng, {"x", "y"}, 3);
    ExpectPipelineMatchesDirect(t, *p);
  }
}

TEST_P(ShapeStressTest, BinaryTree) {
  Rng rng(GetParam() + 20);
  Tree t = PerfectBinaryTree(2, 3);  // 7 nodes
  for (int trial = 0; trial < 6; ++trial) {
    xpath::PathPtr p = RandomPpl(rng, {"x", "y"}, 3);
    ExpectPipelineMatchesDirect(t, *p);
  }
}

TEST_P(ShapeStressTest, SingleNodeTree) {
  Rng rng(GetParam() + 30);
  Tree t = PathTree(1);
  for (int trial = 0; trial < 8; ++trial) {
    xpath::PathPtr p = RandomPpl(rng, {"x"}, 3);
    ExpectPipelineMatchesDirect(t, *p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeStressTest,
                         ::testing::Values(301, 302, 303, 304));

// Three variables with deeper expressions (the oracle is |t|^3, so trees
// stay tiny).
TEST(WideStressTest, ThreeVariablesDeepExpressions) {
  Rng rng(555);
  for (int trial = 0; trial < 8; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(5);
    Tree t = RandomTree(rng, opts);
    xpath::PathPtr p = RandomPpl(rng, {"x", "y", "z"}, 4);
    ExpectPipelineMatchesDirect(t, *p);
  }
}

// Simplification composed with the pipeline: simplify first, then answer;
// answers must match the unsimplified pipeline.
TEST(SimplifyPipelineTest, SimplifiedQueriesAgree) {
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(7);
    Tree t = RandomTree(rng, opts);
    xpath::PathPtr p = RandomPpl(rng, {"x", "y"}, 3);
    xpath::PathPtr simplified = xpath::Simplify(p->Clone());
    ASSERT_TRUE(xpath::CheckPpl(*simplified).ok())
        << "simplification left PPL: " << simplified->ToString();
    std::set<std::string> var_set = xpath::FreeVars(*p);
    std::vector<std::string> vars(var_set.begin(), var_set.end());

    Result<hcl::HclPtr> c1 = hcl::PplToHcl(*p);
    Result<hcl::HclPtr> c2 = hcl::PplToHcl(*simplified);
    ASSERT_TRUE(c1.ok() && c2.ok());
    Result<xpath::TupleSet> a1 = hcl::AnswerQuery(t, **c1, vars);
    Result<xpath::TupleSet> a2 = hcl::AnswerQuery(t, **c2, vars);
    ASSERT_TRUE(a1.ok() && a2.ok());
    EXPECT_EQ(*a1, *a2) << p->ToString() << " vs " << simplified->ToString();
  }
}

// Wait: simplification can REMOVE a variable only if it removes whole
// subexpressions; the rules never do (idempotence requires equal
// operands, which bind the same variables). FreeVars preservation:
TEST(SimplifyPipelineTest, FreeVarsPreserved) {
  Rng rng(888);
  for (int trial = 0; trial < 20; ++trial) {
    xpath::PathPtr p = RandomPpl(rng, {"x", "y", "z"}, 4);
    xpath::PathPtr s = xpath::Simplify(p->Clone());
    EXPECT_EQ(xpath::FreeVars(*s), xpath::FreeVars(*p)) << p->ToString();
  }
}

// QueryAnswerer reuse: Answer() twice returns identical results (the
// memo tables are not corrupted by the first pass).
TEST(ReuseTest, AnswerTwiceIsIdentical) {
  Rng rng(1234);
  RandomTreeOptions opts;
  opts.num_nodes = 12;
  Tree t = RandomTree(rng, opts);
  xpath::PathPtr p = RandomPpl(rng, {"x", "y"}, 3);
  Result<hcl::HclPtr> c = hcl::PplToHcl(*p);
  ASSERT_TRUE(c.ok());
  hcl::QueryAnswerer answerer(t, **c, {"x", "y"});
  ASSERT_TRUE(answerer.Prepare().ok());
  Result<xpath::TupleSet> first = answerer.Answer();
  Result<xpath::TupleSet> second = answerer.Answer();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
}

// Serializer fuzzing: random tree -> term/XML -> parse -> equal.
TEST(SerializerFuzzTest, TermAndXmlRoundTrip) {
  Rng rng(4321);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(80);
    opts.alphabet_size = 1 + rng.Below(30);
    Tree t = RandomTree(rng, opts);
    Result<Tree> via_term = Tree::ParseTerm(t.ToTerm());
    ASSERT_TRUE(via_term.ok()) << t.ToTerm();
    EXPECT_EQ(*via_term, t);
    Result<Tree> via_xml = Tree::ParseXml(t.ToXml());
    ASSERT_TRUE(via_xml.ok()) << t.ToXml();
    EXPECT_EQ(*via_xml, t);
  }
}

// Matrix engine determinism across repeated evaluations with shared
// caches.
TEST(ReuseTest, MatrixEngineCachesAreStable) {
  Rng rng(5678);
  RandomTreeOptions opts;
  opts.num_nodes = 40;
  Tree t = RandomTree(rng, opts);
  ppl::MatrixEngine engine(t);
  Result<xpath::PathPtr> p = xpath::ParsePath(
      "descendant::a[not child::b]/following_sibling::* union child::c");
  Result<ppl::PplBinPtr> bin = ppl::FromXPath(**p);
  ASSERT_TRUE(bin.ok());
  BitMatrix first = engine.Evaluate(**bin);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.Evaluate(**bin), first);
  }
}

// Deep recursion safety: a 2000-step unary path tree through the matrix
// engine and a 500-deep compose chain through parser and translator.
TEST(DepthTest, DeepComposeChain) {
  std::string text = "child::a";
  for (int i = 0; i < 500; ++i) text += "/child::a";
  Result<xpath::PathPtr> p = xpath::ParsePath(text);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->Size(), 1001u);
  Result<ppl::PplBinPtr> bin = ppl::FromXPath(**p);
  ASSERT_TRUE(bin.ok());
  Tree t = PathTree(600, "a");
  ppl::MatrixEngine engine(t);
  BitMatrix m = engine.Evaluate(**bin);
  // 501 child steps on a 600-node path: exactly the pairs (u, u+501).
  EXPECT_EQ(m.Count(), 99u);
  EXPECT_TRUE(m.Get(0, 501));
}

}  // namespace
}  // namespace xpv
