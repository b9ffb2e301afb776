// End-to-end integration tests of the full PPL pipeline (the paper's
// Theorem 1 machinery):
//
//   XPath text --parse--> Core XPath 2.0 AST
//              --CheckPpl--> PPL membership
//              --Fig. 7--> HCL-(PPLbin)
//              --Lemma 3--> sharing normal form
//              --Prop. 10/11--> answer set
//
// differentially against the direct (exponential) Core XPath 2.0
// evaluator, on handcrafted queries, the paper's examples, and random
// PPL expressions over random trees.
#include <gtest/gtest.h>

#include "hcl/answer.h"
#include "hcl/translate.h"
#include "tree/generators.h"
#include "xpath/eval.h"
#include "xpath/fragment.h"
#include "xpath/parser.h"
#include "test_generators.h"

namespace xpv {
namespace {

Tree MustTree(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

/// The full pipeline: answers q_{P,x}(t) for PPL expression text.
Result<xpath::TupleSet> AnswerPpl(const Tree& t, std::string_view text,
                                  const std::vector<std::string>& vars) {
  XPV_ASSIGN_OR_RETURN(xpath::PathPtr p, xpath::ParsePath(text));
  XPV_RETURN_IF_ERROR(xpath::CheckPpl(*p));
  XPV_ASSIGN_OR_RETURN(hcl::HclPtr c, hcl::PplToHcl(*p));
  return hcl::AnswerQuery(t, *c, vars);
}

void ExpectPipelineMatchesDirect(const Tree& t, std::string_view text) {
  Result<xpath::PathPtr> p = xpath::ParsePath(text);
  ASSERT_TRUE(p.ok()) << p.status();
  std::set<std::string> var_set = xpath::FreeVars(**p);
  std::vector<std::string> vars(var_set.begin(), var_set.end());

  Result<xpath::TupleSet> fast = AnswerPpl(t, text, vars);
  ASSERT_TRUE(fast.ok()) << text << ": " << fast.status();

  xpath::DirectEvaluator direct(t);
  xpath::TupleSet expected = direct.EvalNaryNaive(**p, vars);
  EXPECT_EQ(*fast, expected) << "query: " << text << "\ntree: " << t.ToTerm();
}

TEST(IntegrationTest, PaperIntroductionBibliographyExample) {
  // The motivating query of Section 1, on a bibliography document.
  Tree t = MustTree(
      "bib(book(author,title),book(author,author,title),paper(title))");
  Result<xpath::TupleSet> answers = AnswerPpl(
      t,
      "descendant::book[child::author[. is $y] and child::title[. is $z]]",
      {"y", "z"});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, (xpath::TupleSet{{2, 3}, {5, 7}, {6, 7}}));
}

TEST(IntegrationTest, RootAnchoredQuery) {
  // Section 2's root-anchoring idiom.
  Tree t = MustTree("a(b(a),c)");
  Result<xpath::TupleSet> answers = AnswerPpl(
      t, ".[. is $x and not parent::*]/descendant::a[. is $y]", {"x", "y"});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, (xpath::TupleSet{{0, 2}}));
}

TEST(IntegrationTest, NonPplQueriesAreRejected) {
  Tree t = MustTree("a(b)");
  EXPECT_FALSE(AnswerPpl(t, "$x/$x", {"x"}).ok());
  EXPECT_FALSE(
      AnswerPpl(t, "for $x in child::* return $x", {"x"}).ok());
}

class PipelineCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineCorpusTest, MatchesDirectEvaluator) {
  Tree t1 = MustTree("a(b(c,a),c(a(b),b),b)");
  Tree t2 = MustTree("a(a(a(a)))");
  Tree t3 = MustTree("c(b,b(b),a)");
  ExpectPipelineMatchesDirect(t1, GetParam());
  ExpectPipelineMatchesDirect(t2, GetParam());
  ExpectPipelineMatchesDirect(t3, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PipelineCorpusTest,
    ::testing::Values(
        "child::a[. is $x]",
        "child::a[. is $x]/child::b[. is $y]",
        "descendant::*[child::a[. is $x] and child::b[. is $y]]",
        "child::a[. is $x] union descendant::b[. is $x]",
        "child::a[$x is $y]",
        "$x/child::a[. is $y]",
        "descendant::a[. is $x or not child::b]",
        "(child::a except child::b)[. is $x]",
        "child::a[not child::b][. is $x]/following_sibling::*[. is $y]",
        "descendant::*[child::a[. is $x] or child::c[. is $x]]"
        "/child::b[. is $y]",
        "$x", ".", "child::*",
        "child::a[child::b[. is $u] and child::c[. is $v]]"
        "/descendant::b[. is $w]"));

// Random PPL expressions: generate HCL-(L)-style queries with disjoint
// variable partitions, translate into PPL via Prop. 5, run both pipelines.
class PipelineRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineRandomTest, RandomPplAgreesWithDirect) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(7);
    Tree t = RandomTree(rng, opts);
    xpath::PathPtr p = RandomPpl(rng, {"x", "y"}, 3);
    ASSERT_TRUE(xpath::CheckPpl(*p).ok()) << p->ToString();
    ExpectPipelineMatchesDirect(t, p->ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineRandomTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

// The parse -> print -> parse loop composed with the full pipeline:
// guards against printer/parser drift on machine-generated queries.
TEST(IntegrationTest, PrintedQueriesReparseAndAgree) {
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    xpath::PathPtr p = RandomPpl(rng, {"x"}, 3);
    Result<xpath::PathPtr> reparsed = xpath::ParsePath(p->ToString());
    ASSERT_TRUE(reparsed.ok()) << p->ToString() << ": " << reparsed.status();
    EXPECT_TRUE(p->Equals(**reparsed)) << p->ToString();
  }
}

// Output sensitivity sanity check: a selective query on a larger tree goes
// through the polynomial pipeline without touching |t|^n assignments.
// (The naive evaluator would need 90000 evaluations here; the pipeline is
// exercised standalone and validated on selectivity.)
TEST(IntegrationTest, SelectiveQueryOnLargerTree) {
  Rng rng(4242);
  Tree t = BibliographyTree(rng, 60);  // a few hundred nodes
  Result<xpath::TupleSet> answers = AnswerPpl(
      t,
      "descendant::book[child::author[. is $y] and child::title[. is $z]]",
      {"y", "z"});
  ASSERT_TRUE(answers.ok());
  // One (author,title) pair per author; 60 books with 1..3 authors.
  ASSERT_FALSE(answers->empty());
  EXPECT_GE(answers->size(), 60u);
  EXPECT_LE(answers->size(), 180u);
  // Every answer is an (author, title) node pair within one book.
  for (const auto& tuple : *answers) {
    ASSERT_EQ(tuple.size(), 2u);
    EXPECT_EQ(t.label_name(tuple[0]), "author");
    EXPECT_EQ(t.label_name(tuple[1]), "title");
    EXPECT_EQ(t.parent(tuple[0]), t.parent(tuple[1]));
  }
}

}  // namespace
}  // namespace xpv
