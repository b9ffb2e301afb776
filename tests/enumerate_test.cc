// Tests for the answer enumerator (the paper's closing open question on
// enumeration algorithms) and for the E11 ablation switches of the Fig. 8
// algorithm (MC filtering / memoization off preserve correctness).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "common/cancel.h"
#include "common/rng.h"
#include "fo/acq.h"
#include "fo/enumerate.h"
#include "fo/tuple_dedup.h"
#include "hcl/answer.h"
#include "tree/generators.h"

namespace xpv::fo {
namespace {

Tree MustTree(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

CqAtom Atom(Axis axis, std::string name, std::string x, std::string y) {
  return {hcl::MakeAxisQuery(axis, std::move(name)), std::move(x),
          std::move(y)};
}

xpath::TupleSet Drain(AcqEnumerator& e) {
  xpath::TupleSet out;
  while (true) {
    Result<std::optional<xpath::NodeTuple>> next = e.Next();
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok() || !next->has_value()) break;
    out.insert(std::move(**next));
  }
  return out;
}

TEST(AcqEnumeratorTest, MatchesBatchAnswerOnChain) {
  Tree t = MustTree("a(b(c),b(c,c),d)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "b", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "c", "y", "z"));
  q.output_vars = {"x", "y", "z"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(Drain(*e), *AnswerAcqYannakakis(t, q));
  EXPECT_EQ(e->produced(), 3u);
}

TEST(AcqEnumeratorTest, ProjectionDeduplicates) {
  Tree t = MustTree("a(b,b,b)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "b", "x", "y"));
  q.output_vars = {"x"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Drain(*e), (xpath::TupleSet{{0}}));
  EXPECT_EQ(e->produced(), 1u);
}

TEST(AcqEnumeratorTest, EmptyQueryYieldsEmptyTupleOnce) {
  Tree t = MustTree("a(b)");
  ConjunctiveQuery q;  // no atoms, no outputs: trivially true once
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  Result<std::optional<xpath::NodeTuple>> first = e->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE((*first)->empty());
  Result<std::optional<xpath::NodeTuple>> second = e->Next();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->has_value());
}

TEST(AcqEnumeratorTest, UnsatisfiableYieldsNothing) {
  Tree t = MustTree("a(b)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "zzz", "x", "y"));
  q.output_vars = {"x"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->Next()->has_value());
  EXPECT_FALSE(e->Next()->has_value());  // stays exhausted
}

TEST(AcqEnumeratorTest, RejectsCyclicQueries) {
  Tree t = MustTree("a(b)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "*", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "*", "y", "z"));
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "z"));
  EXPECT_FALSE(AcqEnumerator::Create(t, q).ok());
}

class AcqEnumeratorRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AcqEnumeratorRandomTest, AgreesWithYannakakis) {
  Rng rng(GetParam());
  const std::vector<std::string> var_names = {"x", "y", "z", "w"};
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(10);
    Tree t = RandomTree(rng, opts);
    ConjunctiveQuery q;
    std::size_t num_vars = 2 + rng.Below(3);
    for (std::size_t i = 1; i < num_vars; ++i) {
      // Either argument order, so edges point both ways along the join
      // forest (borrowed relations are read as stored, never flipped).
      std::string from = var_names[rng.Below(i)];
      std::string to = var_names[i];
      if (rng.Chance(1, 2)) std::swap(from, to);
      q.atoms.push_back(Atom(kAllAxes[rng.Below(kAllAxes.size())],
                             rng.Chance(1, 3) ? "*"
                                              : GeneratorLabel(rng.Below(2)),
                             from, to));
    }
    for (std::size_t i = 0; i < num_vars; ++i) {
      if (rng.Chance(2, 3)) q.output_vars.push_back(var_names[i]);
    }
    if (q.output_vars.empty()) q.output_vars.push_back("x");

    Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
    ASSERT_TRUE(e.ok()) << e.status();
    Result<xpath::TupleSet> batch = AnswerAcqYannakakis(t, q);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(Drain(*e), *batch)
        << q.ToString() << "\ntree: " << t.ToTerm();
    EXPECT_EQ(*batch, AnswerCqNaive(t, q))
        << q.ToString() << "\ntree: " << t.ToTerm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcqEnumeratorRandomTest,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

// When every variable is an output variable, the underlying DFS produces
// each answer exactly once: the dedup set never rejects.
TEST(AcqEnumeratorTest, FullOutputHasNoDuplicateWork) {
  Rng rng(99);
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "*", "y", "z"));
  q.output_vars = {"x", "y", "z"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  // Injective projection: the enumerator keeps no dedup state at all.
  EXPECT_FALSE(e->dedup_active());
  EXPECT_EQ(e->dedup_entries(), 0u);
  std::size_t count = 0;
  while ((*e->Next()).has_value()) ++count;
  EXPECT_EQ(count, e->produced());
  EXPECT_EQ(count, AnswerAcqYannakakis(t, q)->size());
  EXPECT_EQ(e->dedup_entries(), 0u);
}

// E11 ablation correctness: disabling the MC filter and/or memoization
// must not change answers, only performance.
class AblationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AblationTest, AllConfigurationsAgree) {
  Rng rng(GetParam());
  using hcl::HclExpr;
  for (int trial = 0; trial < 6; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(8);
    Tree t = RandomTree(rng, opts);
    // A query with unions and filters: exercises both the MC pruning and
    // the memo sharing.
    hcl::HclPtr c = HclExpr::Compose(
        HclExpr::Union(
            HclExpr::Binary(hcl::MakeAxisQuery(Axis::kChild, "a")),
            HclExpr::Binary(hcl::MakeAxisQuery(Axis::kDescendant, "b"))),
        HclExpr::Compose(
            HclExpr::Filter(HclExpr::Compose(
                HclExpr::Binary(hcl::MakeAxisQuery(Axis::kChild)),
                HclExpr::Var("x"))),
            HclExpr::Union(HclExpr::Var("y"),
                           HclExpr::Binary(hcl::MakeAxisQuery(Axis::kSelf)))));
    const std::vector<std::string> vars = {"x", "y"};

    xpath::TupleSet reference;
    bool have_reference = false;
    for (bool mc : {true, false}) {
      for (bool memo : {true, false}) {
        hcl::AnswerOptions options;
        options.use_mc_filter = mc;
        options.memoize_vals = memo;
        hcl::QueryAnswerer answerer(t, *c, vars, options);
        ASSERT_TRUE(answerer.Prepare().ok());
        Result<xpath::TupleSet> answered = answerer.Answer();
        ASSERT_TRUE(answered.ok());
        xpath::TupleSet answers = std::move(answered).value();
        if (!have_reference) {
          reference = answers;
          have_reference = true;
        } else {
          EXPECT_EQ(answers, reference)
              << "mc=" << mc << " memo=" << memo
              << " tree=" << t.ToTerm();
        }
      }
    }
    EXPECT_EQ(reference, hcl::EvalHclNaryNaive(t, *c, vars));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AblationTest,
                         ::testing::Values(61, 62, 63, 64));

// ----------------------------------------------------------- TupleDedup

TEST(TupleDedupTest, DistinctAndDuplicateInserts) {
  TupleDedup dedup(2);
  EXPECT_TRUE(*dedup.Insert({1, 2}));
  EXPECT_TRUE(*dedup.Insert({2, 1}));
  EXPECT_FALSE(*dedup.Insert({1, 2}));
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(TupleDedupTest, ZeroArityRemembersOneTuple) {
  TupleDedup dedup(0);
  EXPECT_TRUE(*dedup.Insert({}));
  EXPECT_FALSE(*dedup.Insert({}));
  EXPECT_EQ(dedup.size(), 1u);
}

// The hashed structure must agree with an ordered-set oracle through
// growth and spills: same accepted/rejected verdict for every insert.
TEST(TupleDedupTest, AgreesWithSetOracleAcrossSpills) {
  Rng rng(77);
  TupleDedupOptions options;
  options.max_bytes = 1u << 13;  // 8 KiB: forces several spills
  options.overflow = TupleDedupOptions::Overflow::kSpill;
  TupleDedup dedup(3, options);
  std::set<xpath::NodeTuple> oracle;
  std::size_t admitted = 0;
  for (int i = 0; i < 4000; ++i) {
    xpath::NodeTuple t = {static_cast<NodeId>(rng.Below(8)),
                          static_cast<NodeId>(rng.Below(8)),
                          static_cast<NodeId>(rng.Below(8))};
    Result<bool> fresh = dedup.Insert(t);
    // 8^3 distinct tuples = 6 KiB of raw data: always within budget.
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(*fresh, oracle.insert(t).second) << "insert " << i;
    if (*fresh) ++admitted;
  }
  EXPECT_EQ(dedup.size(), oracle.size());
  EXPECT_EQ(admitted, oracle.size());
  EXPECT_GT(dedup.spills(), 0u);
  EXPECT_LE(dedup.memory_bytes(), options.max_bytes);
}

TEST(TupleDedupTest, FailPolicyReportsResourceExhausted) {
  TupleDedupOptions options;
  options.max_bytes = 512;
  options.overflow = TupleDedupOptions::Overflow::kFail;
  TupleDedup dedup(2, options);
  Status failure;
  for (NodeId i = 0; i < 10000; ++i) {
    Result<bool> fresh = dedup.Insert({i, i + 1});
    if (!fresh.ok()) {
      failure = fresh.status();
      break;
    }
  }
  EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted) << failure;
  EXPECT_EQ(dedup.spills(), 0u);
}

TEST(TupleDedupTest, SpillPolicyHoldsMoreThenReportsResourceExhausted) {
  auto fill = [](TupleDedupOptions::Overflow overflow) {
    TupleDedupOptions options;
    options.max_bytes = 2048;
    options.overflow = overflow;
    TupleDedup dedup(2, options);
    for (NodeId i = 0;; ++i) {
      Result<bool> fresh = dedup.Insert({i, i + 1});
      if (!fresh.ok()) {
        EXPECT_EQ(fresh.status().code(), StatusCode::kResourceExhausted);
        return dedup.size();
      }
    }
  };
  const std::size_t fail_capacity =
      fill(TupleDedupOptions::Overflow::kFail);
  const std::size_t spill_capacity =
      fill(TupleDedupOptions::Overflow::kSpill);
  // Compaction packs tuples ~raw-density, so the same budget holds more.
  EXPECT_GT(spill_capacity, fail_capacity);
}

// --------------------------------------- bounded dedup in the enumerator

// A projected variable of degree >= 3 survives the elimination pass (it
// cannot be composed away), so the dedup structure engages: a star tree
// makes the projected common-ancestor variable collapse many
// assignments onto each output triple. A tiny budget must fail with
// kResourceExhausted, stickily.
TEST(AcqEnumeratorTest, ProjectionDedupBudgetSurfacesResourceExhausted) {
  Tree t = *Tree::ParseTerm("r(" + [] {
    std::string kids = "a";
    for (int i = 0; i < 60; ++i) kids += ",a";
    return kids;
  }() + ")");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "a", "v", "x"));
  q.atoms.push_back(Atom(Axis::kChild, "a", "v", "y"));
  q.atoms.push_back(Atom(Axis::kDescendant, "a", "v", "z"));
  q.output_vars = {"x", "y", "z"};
  AcqEnumeratorOptions options;
  options.dedup.max_bytes = 256;
  options.dedup.overflow = TupleDedupOptions::Overflow::kFail;
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q, std::move(options));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->dedup_active());
  Status failure;
  while (true) {
    Result<std::optional<xpath::NodeTuple>> next = e->Next();
    if (!next.ok()) {
      failure = next.status();
      break;
    }
    if (!next->has_value()) break;
  }
  EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted) << failure;
  EXPECT_EQ(e->Next().status().code(), StatusCode::kResourceExhausted);
}

TEST(AcqEnumeratorTest, ProjectionWithinBudgetMatchesBatchAnswer) {
  // Common-ancestor triples: the projected v ranges over every common
  // ancestor, so each output tuple is reached many times and only the
  // dedup keeps the stream distinct.
  Rng rng(123);
  RandomTreeOptions opts;
  opts.num_nodes = 12;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "v", "x"));
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "v", "y"));
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "v", "z"));
  q.output_vars = {"x", "y", "z"};
  AcqEnumeratorOptions options;
  options.dedup.max_bytes = 1u << 16;
  options.dedup.overflow = TupleDedupOptions::Overflow::kSpill;
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q, std::move(options));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->dedup_active());
  EXPECT_EQ(Drain(*e), *AnswerAcqYannakakis(t, q));
  EXPECT_EQ(e->dedup_entries(), e->produced());
}

// The elimination pass strips projected chain variables entirely: a
// two-atom chain with one output variable enumerates over exactly that
// variable, no dedup state, still matching the batch oracle.
TEST(AcqEnumeratorTest, ChainProjectionEliminatesToInjective) {
  Rng rng(124);
  RandomTreeOptions opts;
  opts.num_nodes = 30;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "*", "y", "z"));
  q.output_vars = {"y"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->dedup_active());
  EXPECT_EQ(Drain(*e), *AnswerAcqYannakakis(t, q));
  EXPECT_EQ(e->dedup_entries(), 0u);
}

// ------------------------------------------------ cooperative cancellation

TEST(AcqEnumeratorTest, ObservesCancelFlagBetweenSteps) {
  Rng rng(321);
  RandomTreeOptions opts;
  opts.num_nodes = 25;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "y"));
  q.output_vars = {"x", "y"};
  std::atomic<bool> cancelled{false};
  AcqEnumeratorOptions options;
  options.cancel = CancelToken(&cancelled);
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q, std::move(options));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->Next().ok());  // runs while the flag is clear
  cancelled.store(true);
  Result<std::optional<xpath::NodeTuple>> next = e->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
  // Sticky even if the flag were cleared.
  cancelled.store(false);
  EXPECT_EQ(e->Next().status().code(), StatusCode::kCancelled);
}

TEST(AcqEnumeratorTest, ExpiredDeadlineFailsPreprocessing) {
  Tree t = *Tree::ParseTerm("a(b(c),b(c,c))");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "*", "x", "y"));
  q.output_vars = {"x", "y"};
  AcqEnumeratorOptions options;
  options.cancel = CancelToken(
      nullptr, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q, std::move(options));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryAnswererTest, ObservesPreSetCancelInsidePrepareOrAnswer) {
  Rng rng(99);
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Tree t = RandomTree(rng, opts);
  hcl::HclPtr c = hcl::HclExpr::Compose(
      hcl::HclExpr::Binary(hcl::MakeAxisQuery(Axis::kDescendant)),
      hcl::HclExpr::Compose(hcl::HclExpr::Var("x"),
                            hcl::HclExpr::Binary(hcl::MakeAxisQuery(
                                Axis::kChild))));
  std::atomic<bool> cancelled{true};
  hcl::AnswerOptions options;
  options.cancel = CancelToken(&cancelled);
  hcl::QueryAnswerer answerer(t, *c, {"x"}, options);
  Status prepared = answerer.Prepare();
  if (prepared.ok()) {
    Result<xpath::TupleSet> answers = answerer.Answer();
    ASSERT_FALSE(answers.ok());
    EXPECT_EQ(answers.status().code(), StatusCode::kCancelled);
  } else {
    EXPECT_EQ(prepared.code(), StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace xpv::fo
