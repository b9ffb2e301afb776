// Differential property suite for the cost-based, result-shape-aware
// query planner (engine/planner.h) and the monadic row-restricted engine
// entry points it dispatches to.
//
// The planner's contract: the cost model may pick *any* admissible
// engine, and a caller may request *any* result shape, without the answer
// changing. So for seeded random (tree, query, shape) triples, every
// admissible plan choice (forced via QueryJob::engine_override) and every
// shape must produce results consistent with the full-relation
// matrix-engine ground truth, byte-identical at 1, 2 and 8 threads.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/planner.h"
#include "engine/query_service.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/generators.h"
#include "test_generators.h"

namespace xpv {
namespace {

using engine::EnginePlan;
using engine::ExecutionPlan;
using engine::ResultShape;

constexpr ResultShape kAllShapes[] = {
    ResultShape::kFullRelation,
    ResultShape::kFromRootSet,
    ResultShape::kBoolean,
    ResultShape::kCount,
};

/// Ground truth for every shape: the full relation from the matrix
/// engine's bottom-up Section 4 evaluation.
BitMatrix GroundTruth(const Tree& t, const ppl::PplBinExpr& p) {
  ppl::MatrixEngine eng(t);
  return eng.Evaluate(p);
}

/// Checks one QueryResult against the ground-truth relation under the
/// requested shape's payload contract.
void ExpectShapeConsistent(const engine::QueryResult& result,
                           ResultShape shape, const Tree& t,
                           const BitMatrix& truth, const std::string& ctx) {
  ASSERT_TRUE(result.status.ok()) << ctx << ": " << result.status;
  const BitVector root_row = truth.Row(t.root());
  switch (shape) {
    case ResultShape::kFullRelation:
      EXPECT_EQ(result.relation, truth) << ctx;
      EXPECT_EQ(result.from_root, root_row) << ctx;
      break;
    case ResultShape::kFromRootSet:
      EXPECT_EQ(result.from_root, root_row) << ctx;
      EXPECT_EQ(result.relation.size(), 0u) << ctx;
      break;
    case ResultShape::kBoolean:
      EXPECT_EQ(result.boolean, root_row.Any()) << ctx;
      break;
    case ResultShape::kCount:
      EXPECT_EQ(result.count, root_row.Count()) << ctx;
      break;
  }
}

// ----------------------------------------- engine-level monadic kernels

class PlannerDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerDifferentialTest, MatrixImagePreimageDomainMatchRelation) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    ppl::MatrixEngine eng(t);
    const BitMatrix truth = eng.Evaluate(*p);
    // A random node set, sometimes empty, sometimes full.
    BitVector from(t.size());
    for (NodeId v = 0; v < t.size(); ++v) {
      if (rng.Chance(1, 3)) from.Set(v);
    }
    if (rng.Chance(1, 10)) from.Clear();
    EXPECT_EQ(eng.Image(*p, from).value(), truth.ImageOf(from))
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
    EXPECT_EQ(eng.Preimage(*p, from).value(), truth.Transpose().ImageOf(from))
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
    EXPECT_EQ(eng.Domain(*p).value(), truth.NonEmptyRows())
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
  }
}

TEST_P(PlannerDifferentialTest, GkpFromNodeMatchesRelationRows) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/false);
    ASSERT_TRUE(p->IsPositive());
    ppl::GkpEngine gkp(t);
    const BitMatrix truth = GroundTruth(t, *p);
    Result<BitMatrix> rel = gkp.Relation(*p);
    ASSERT_TRUE(rel.ok()) << rel.status();
    EXPECT_EQ(*rel, truth) << "query: " << p->ToString();
    const NodeId u = static_cast<NodeId>(rng.Below(t.size()));
    Result<BitVector> image = gkp.EvaluateFromNode(*p, u);
    ASSERT_TRUE(image.ok()) << image.status();
    EXPECT_EQ(*image, truth.Row(u))
        << "query: " << p->ToString() << " node " << u;
    ppl::MatrixEngine matrix(t);
    EXPECT_EQ(matrix.EvaluateFromNode(*p, u).value(), truth.Row(u));
  }
}

// ------------------------- every admissible plan x shape x thread count

TEST_P(PlannerDifferentialTest, AllPlansAndShapesAgreeWithGroundTruth) {
  Rng rng(GetParam() ^ 0x91a);
  for (int trial = 0; trial < 8; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    const std::string text = ppl::ToXPath(*p)->ToString();
    const BitMatrix truth = GroundTruth(t, *p);

    auto compiled = engine::CompileQuery(text);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();

    // Jobs: planner's own choice plus every admissible engine forced,
    // crossed with every shape.
    std::vector<engine::QueryJob> jobs;
    std::vector<ResultShape> job_shapes;
    for (ResultShape shape : kAllShapes) {
      engine::QueryJob job;
      job.tree = &t;
      job.query = text;
      job.shape = shape;
      jobs.push_back(job);
      job_shapes.push_back(shape);
      for (EnginePlan forced : (*compiled)->admissible) {
        job.engine_override = forced;
        jobs.push_back(job);
        job_shapes.push_back(shape);
      }
    }

    std::vector<std::vector<engine::QueryResult>> per_thread_count;
    for (std::size_t threads : {1u, 2u, 8u}) {
      engine::QueryService service({.num_threads = threads});
      per_thread_count.push_back(service.EvaluateBatch(jobs));
      const auto& results = per_thread_count.back();
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::string ctx = "threads=" + std::to_string(threads) + " job " +
                          std::to_string(i) + " plan " +
                          results[i].plan.DebugString() + "\nquery: " + text +
                          "\ntree: " + t.ToTerm();
        ExpectShapeConsistent(results[i], job_shapes[i], t, truth, ctx);
        // A forced engine must actually be the one that ran.
        if (jobs[i].engine_override.has_value()) {
          EXPECT_EQ(results[i].plan.engine, *jobs[i].engine_override) << ctx;
        }
      }
    }
    // Byte-identical across thread counts.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t tc = 1; tc < per_thread_count.size(); ++tc) {
        EXPECT_TRUE(per_thread_count[0][i].plan == per_thread_count[tc][i].plan);
        EXPECT_EQ(per_thread_count[0][i].relation,
                  per_thread_count[tc][i].relation);
        EXPECT_EQ(per_thread_count[0][i].from_root,
                  per_thread_count[tc][i].from_root);
        EXPECT_EQ(per_thread_count[0][i].boolean,
                  per_thread_count[tc][i].boolean);
        EXPECT_EQ(per_thread_count[0][i].count, per_thread_count[tc][i].count);
      }
    }
  }
}

// ------------------- every representation x engine x shape x threads

constexpr MatrixRepr kAllReprs[] = {
    MatrixRepr::kDense,
    MatrixRepr::kSparse,
    MatrixRepr::kAuto,
};

TEST_P(PlannerDifferentialTest, AllReprsAndShapesAgreeWithGroundTruth) {
  Rng rng(GetParam() ^ 0xc0de);
  for (int trial = 0; trial < 5; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    const std::string text = ppl::ToXPath(*p)->ToString();
    const BitMatrix truth = GroundTruth(t, *p);

    auto compiled = engine::CompileQuery(text);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();

    // Jobs: every forced representation, alone (which routes to the
    // matrix engine) and crossed with every admissible forced engine and
    // every shape. Results must be byte-identical to the dense ground
    // truth regardless of the representation the kernels composed in.
    std::vector<engine::QueryJob> jobs;
    std::vector<ResultShape> job_shapes;
    for (ResultShape shape : kAllShapes) {
      for (MatrixRepr repr : kAllReprs) {
        engine::QueryJob job;
        job.tree = &t;
        job.query = text;
        job.shape = shape;
        job.repr_override = repr;
        jobs.push_back(job);
        job_shapes.push_back(shape);
        for (engine::EnginePlan forced : (*compiled)->admissible) {
          job.engine_override = forced;
          jobs.push_back(job);
          job_shapes.push_back(shape);
        }
      }
    }

    std::vector<std::vector<engine::QueryResult>> per_thread_count;
    for (std::size_t threads : {1u, 2u, 8u}) {
      engine::QueryService service({.num_threads = threads});
      per_thread_count.push_back(service.EvaluateBatch(jobs));
      const auto& results = per_thread_count.back();
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::string ctx = "threads=" + std::to_string(threads) + " repr=" +
                          std::string(MatrixReprName(*jobs[i].repr_override)) +
                          " job " + std::to_string(i) + " plan " +
                          results[i].plan.DebugString() + "\nquery: " + text +
                          "\ntree: " + t.ToTerm();
        ExpectShapeConsistent(results[i], job_shapes[i], t, truth, ctx);
        // Small trees always densify the payload; the sparse handoff is
        // reserved for trees above the dense ceiling.
        EXPECT_EQ(results[i].relation_sparse, nullptr) << ctx;
        if (!jobs[i].engine_override.has_value()) {
          // A bare repr override must route to the matrix engine and pin
          // the representation it asked for.
          EXPECT_EQ(results[i].plan.engine, EnginePlan::kMatrixGeneral)
              << ctx;
          EXPECT_EQ(results[i].plan.repr, *jobs[i].repr_override) << ctx;
        }
      }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t tc = 1; tc < per_thread_count.size(); ++tc) {
        EXPECT_TRUE(per_thread_count[0][i].plan ==
                    per_thread_count[tc][i].plan);
        EXPECT_EQ(per_thread_count[0][i].relation,
                  per_thread_count[tc][i].relation);
        EXPECT_EQ(per_thread_count[0][i].from_root,
                  per_thread_count[tc][i].from_root);
        EXPECT_EQ(per_thread_count[0][i].boolean,
                  per_thread_count[tc][i].boolean);
        EXPECT_EQ(per_thread_count[0][i].count, per_thread_count[tc][i].count);
      }
    }
  }
}

// Forcing a representation on an n-ary query is meaningless: rejected.
TEST(PlannerReprOverrideTest, NaryQueriesRejectReprOverrides) {
  Tree t = *Tree::ParseTerm("a(b,c)");
  engine::QueryService service({.num_threads = 1});
  engine::QueryJob job;
  job.tree = &t;
  job.query = "descendant::b/$x";
  job.repr_override = MatrixRepr::kSparse;
  std::vector<engine::QueryResult> results = service.EvaluateBatch({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
}

// Full relations above the dense ceiling: the sparse crossover must hand
// back a run-list relation whose rows match an independent oracle -- the
// GKP engine's posting-list evaluation, which shares no matrix code.
TEST(SparseFullRelationTest, OversizedTreeMatchesSubsampledOracleRows) {
  Rng rng(404);
  RandomTreeOptions opts;
  opts.num_nodes = (1u << 16) + 123;  // 65659 nodes, 2x the dense ceiling
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);
  ASSERT_GT(t.size(), 2 * BitMatrix::kMaxDenseNodes);
  engine::QueryService service({.num_threads = 1});

  const std::string text = "descendant::a/child::b";
  engine::QueryResult full =
      service.Evaluate(t, text, ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok())
      << full.status << " " << full.plan.DebugString();
  ASSERT_NE(full.relation_sparse, nullptr) << full.plan.DebugString();
  EXPECT_EQ(full.plan.repr, MatrixRepr::kSparse);
  EXPECT_EQ(full.relation.size(), 0u);
  EXPECT_EQ(full.from_root, full.relation_sparse->Row(t.root()));

  auto compiled = engine::CompileQuery(text);
  ASSERT_TRUE(compiled.ok());
  ppl::GkpEngine gkp(t);
  for (int sample = 0; sample < 16; ++sample) {
    const NodeId u = static_cast<NodeId>(rng.Below(t.size()));
    Result<BitVector> row = gkp.EvaluateFromNode(*(*compiled)->pplbin, u);
    ASSERT_TRUE(row.ok()) << row.status();
    EXPECT_EQ(full.relation_sparse->Row(u), *row) << "row " << u;
  }

  // A set difference (general complement) above the ceiling: subsampled
  // rows must equal the positive oracle rows combined by hand.
  engine::QueryResult exc = service.Evaluate(
      t, "descendant::a except child::a", ResultShape::kFullRelation);
  ASSERT_TRUE(exc.status.ok()) << exc.status << " " << exc.plan.DebugString();
  ASSERT_NE(exc.relation_sparse, nullptr);
  auto desc = engine::CompileQuery("descendant::a");
  auto child = engine::CompileQuery("child::a");
  ASSERT_TRUE(desc.ok() && child.ok());
  for (int sample = 0; sample < 8; ++sample) {
    const NodeId u = static_cast<NodeId>(rng.Below(t.size()));
    Result<BitVector> d = gkp.EvaluateFromNode(*(*desc)->pplbin, u);
    Result<BitVector> c = gkp.EvaluateFromNode(*(*child)->pplbin, u);
    ASSERT_TRUE(d.ok() && c.ok());
    BitVector expected(t.size());
    for (std::size_t v = 0; v < t.size(); ++v) {
      if (d->Get(v) && !c->Get(v)) expected.Set(v);
    }
    EXPECT_EQ(exc.relation_sparse->Row(u), expected) << "row " << u;
  }
}

// Above the dense ceiling the sparse route is the only admissible one,
// whatever its estimate: the planner must cross over and let the
// engine's run budget be the bound, not refuse on the estimate.
// Regression: this exact shape was refused once. The estimate now sees
// the coalescing too -- the child rows of neighbouring path nodes join
// into one run (Tree::PairRuns()), so it counts one run per row.
TEST(SparseFullRelationTest, DeepPathComposeCrossesOverDespiteEstimate) {
  Tree t = PathTree(BitMatrix::kMaxDenseNodes + 10);
  auto compiled = engine::CompileQuery("descendant::a/child::a");
  ASSERT_TRUE(compiled.ok());
  ExecutionPlan plan =
      engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
  EXPECT_EQ(plan.engine, EnginePlan::kMatrixGeneral) << plan.DebugString();
  EXPECT_EQ(plan.repr, MatrixRepr::kSparse) << plan.DebugString();
  EXPECT_FALSE(engine::PlanRequiresDenseRelation(**compiled, plan));

  // End to end: the relation is the second-superdiagonal triangle
  // {(u, v) : v >= u + 2} -- one run per row.
  const std::size_t n = t.size();
  engine::QueryService service({.num_threads = 1});
  engine::QueryResult full =
      service.Evaluate(t, "descendant::a/child::a", ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok())
      << full.status << " " << full.plan.DebugString();
  ASSERT_NE(full.relation_sparse, nullptr);
  EXPECT_EQ(full.relation_sparse->Count(), (n - 1) * (n - 2) / 2);
  EXPECT_EQ(full.relation_sparse->num_runs(), n - 2);
  EXPECT_TRUE(full.relation_sparse->Get(0, n - 1));
  EXPECT_FALSE(full.relation_sparse->Get(0, 1));
}

// N-ary queries: shapes derive from the tuple set.
TEST(PlannerNaryShapeTest, ShapesDeriveFromTupleSet) {
  Tree t = *Tree::ParseTerm("a(b(c),b,c(b(a)))");
  engine::QueryService service({.num_threads = 2});
  const std::string text = "descendant::b/$x";
  engine::QueryResult full =
      service.Evaluate(t, text, ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok()) << full.status;
  ASSERT_EQ(full.plan.engine, EnginePlan::kNaryAnswer);
  ASSERT_FALSE(full.tuples.empty());

  engine::QueryResult from_root =
      service.Evaluate(t, text, ResultShape::kFromRootSet);
  EXPECT_EQ(from_root.tuples, full.tuples);

  engine::QueryResult boolean =
      service.Evaluate(t, text, ResultShape::kBoolean);
  EXPECT_TRUE(boolean.boolean);
  EXPECT_TRUE(boolean.tuples.empty());

  engine::QueryResult count = service.Evaluate(t, text, ResultShape::kCount);
  EXPECT_EQ(count.count, full.tuples.size());
}

// --------------------------------------------------- cost-model behavior

TEST(PlannerCostModelTest, PicksTheCheapestPricedRoute) {
  // A positive query admits all three routes, priced in one unit; the
  // plan is the cheapest. Forced-route timings of this case on a 4-vCPU
  // x86-64 box (RelationCache off, axis relations built; two runs):
  // at 16 nodes GKP 1.8-4 us, dense 1.6-5 us, sparse 2.9-7 us -- GKP's
  // sweeps tie dense, and the planner also charges the matrix routes
  // their cold axis builds; at 1500 nodes GKP 0.9-2.7 ms, dense
  // 0.27-0.30, sparse 0.21-0.45 -- either matrix route beats GKP by 3x
  // or more. Which matrix route wins is the planner's time-for-memory
  // trade (dense's price carries the n x n bits it holds resident), so
  // only the engine is asserted.
  auto compiled = engine::CompileQuery("descendant::*/child::*");
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE((*compiled)->positive);

  Rng rng(99);
  RandomTreeOptions small_opts;
  small_opts.num_nodes = 16;
  Tree small = RandomTree(rng, small_opts);
  ExecutionPlan small_plan =
      engine::PlanQuery(**compiled, small, ResultShape::kFullRelation);
  EXPECT_EQ(small_plan.engine, EnginePlan::kGkpPositive)
      << small_plan.DebugString();
  EXPECT_LT(small_plan.routes.gkp, small_plan.routes.dense);
  EXPECT_LT(small_plan.routes.gkp, small_plan.routes.sparse);

  RandomTreeOptions large_opts;
  large_opts.num_nodes = 1500;
  Tree large = RandomTree(rng, large_opts);
  ExecutionPlan large_plan =
      engine::PlanQuery(**compiled, large, ResultShape::kFullRelation);
  EXPECT_EQ(large_plan.engine, EnginePlan::kMatrixGeneral)
      << large_plan.DebugString();

  // Monadic shapes always take the row-restricted fast path.
  ExecutionPlan monadic =
      engine::PlanQuery(**compiled, large, ResultShape::kFromRootSet);
  EXPECT_TRUE(monadic.row_restricted);
  EXPECT_EQ(monadic.engine, EnginePlan::kGkpPositive);
  EXPECT_LT(monadic.cost, large_plan.cost);
}

// Regressions from cold forced-route measurements on the serving
// benchmark's documents. Plans only, no timing.

TEST(PlannerRouteTest, PathAndStarExceptChainsPlanSparse) {
  // On path and star trees every ancestor / sibling row is one run, so
  // the run-list kernels beat dense n x n products by 10-20x on these
  // chains (e.g. the first: 2.7 ms sparse vs 23 ms dense at 2048 nodes).
  const char* queries[] = {
      "(following_sibling::a/self::a[parent::*]/preceding_sibling::*/"
      "descendant::a/descendant::*) except "
      "(child::*/ancestor::a/following_sibling::a)",
      "(following_sibling::a[not descendant::a]/parent::a/descendant::a) "
      "except (descendant::*[not child::a]/self::a[following_sibling::*]/"
      "self::a/descendant::*/following_sibling::a)",
  };
  for (const Tree& t : {PathTree(2048), StarTree(2047)}) {
    for (const char* text : queries) {
      auto compiled = engine::CompileQuery(text);
      ASSERT_TRUE(compiled.ok()) << text;
      ExecutionPlan plan =
          engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
      EXPECT_EQ(plan.engine, EnginePlan::kMatrixGeneral) << text;
      EXPECT_EQ(plan.repr, MatrixRepr::kSparse)
          << plan.DebugString() << " for " << text;
    }
  }
}

TEST(PlannerRouteTest, RandomTreeComposeDoesNotPlanGkp) {
  // descendant::a/child::a on 8192 random nodes: GKP took 22.8 ms against
  // 2.8 ms for forced sparse, the 8.2x regret of the two-stage planner.
  Rng rng(8192);
  RandomTreeOptions opts;
  opts.num_nodes = 8192;
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);
  auto compiled = engine::CompileQuery("descendant::a/child::a");
  ASSERT_TRUE(compiled.ok());
  ExecutionPlan plan =
      engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
  EXPECT_NE(plan.engine, EnginePlan::kGkpPositive) << plan.DebugString();
  EXPECT_GT(plan.routes.gkp, plan.cost) << plan.DebugString();
}

TEST(PlannerRouteTest, BibliographyComplementQueriesDoNotPlanSparse) {
  // Complement-heavy queries whose sparse intermediates hold hundreds of
  // runs per row: on the benchmark's bibliography documents they ran
  // sparse in 60-180 ms (and raised peak RSS by up to 38 MB) against
  // 10-25 ms dense. Every ancestor set holds the root, whose child row
  // holds every book -- the correlation TargetStats prices.
  const char* queries[] = {
      "(preceding_sibling::*/child::*/descendant::year[ancestor::*]/"
      "parent::*/following_sibling::publisher/ancestor::publisher/"
      "ancestor::year/preceding_sibling::author) except "
      "(ancestor::*/child::book/self::*/child::*)",
      "(self::year/self::author/following_sibling::book[preceding_sibling::*])"
      " except (following_sibling::*[not self::year]/preceding_sibling::*/"
      "child::*[not preceding_sibling::*])",
  };
  for (std::uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    Tree t = BibliographyTree(rng, 600);
    for (const char* text : queries) {
      auto compiled = engine::CompileQuery(text);
      ASSERT_TRUE(compiled.ok()) << text;
      ExecutionPlan plan =
          engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
      EXPECT_NE(plan.repr, MatrixRepr::kSparse)
          << plan.DebugString() << " for " << text;
    }
  }
}

TEST(PlannerRouteTest, DebugStringShowsEveryRoutePrice) {
  // A negative query: GKP is inadmissible (+inf), both matrix routes are
  // priced -- the plan shows what was rejected and at what price.
  Rng rng(4);
  Tree t = BibliographyTree(rng, 100);
  auto compiled = engine::CompileQuery(
      "descendant::book except descendant::book[child::publisher]");
  ASSERT_TRUE(compiled.ok());
  ExecutionPlan plan =
      engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
  EXPECT_TRUE(std::isinf(plan.routes.gkp));
  EXPECT_TRUE(std::isfinite(plan.routes.dense));
  EXPECT_TRUE(std::isfinite(plan.routes.sparse));
  const std::string text = plan.DebugString();
  EXPECT_NE(text.find("gkp=inf"), std::string::npos) << text;
  EXPECT_NE(text.find("dense="), std::string::npos) << text;
  EXPECT_NE(text.find("sparse="), std::string::npos) << text;
  EXPECT_EQ(text.find("alt="), std::string::npos) << text;
}

TEST(PlannerCostModelTest, SelectiveLabelsShrinkTheGkpDomainEstimate) {
  // One rare label vs a wildcard: the domain bound -- hence the estimated
  // full-relation cost -- must shrink with the posting list.
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_nodes = 400;
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);

  auto rare = engine::CompileQuery("child::zzz/descendant::*");
  auto wild = engine::CompileQuery("child::*/descendant::*");
  ASSERT_TRUE(rare.ok());
  ASSERT_TRUE(wild.ok());
  ExecutionPlan rare_plan =
      engine::PlanQuery(**rare, t, ResultShape::kFullRelation);
  ExecutionPlan wild_plan =
      engine::PlanQuery(**wild, t, ResultShape::kFullRelation);
  ASSERT_EQ(t.LabelFrequency("zzz"), 0u);
  EXPECT_LT(rare_plan.cost, wild_plan.cost)
      << rare_plan.DebugString() << " vs " << wild_plan.DebugString();
}

TEST(PlannerCostModelTest, TreeStatsArePrecomputed) {
  Tree t = *Tree::ParseTerm("a(b(c,c,c),b,a(b))");
  const TreeStats& s = t.Stats();
  EXPECT_EQ(s.node_count, 8u);
  EXPECT_EQ(s.max_depth, 2u);
  EXPECT_EQ(s.max_fanout, 3u);
  EXPECT_EQ(s.alphabet_size, 3u);
  EXPECT_EQ(s.max_label_posting, 3u);  // three b's (and three c's)
  EXPECT_EQ(s.min_label_posting, 2u);  // two a's
  EXPECT_EQ(t.LabelFrequency("b"), 3u);
  EXPECT_EQ(t.LabelFrequency("nope"), 0u);
}

// ----------------------------------------------------------- plan memo

TEST(PlanMemoTest, DocumentStoreMemoizesPlansPerShape) {
  engine::DocumentStore store;
  Rng rng(5);
  RandomTreeOptions opts;
  opts.num_nodes = 64;
  engine::DocumentId id = store.Insert(RandomTree(rng, opts));
  engine::QueryService service({.num_threads = 2, .document_store = &store});

  std::shared_ptr<engine::PlanMemo> memo = store.PlanMemoFor(id);
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->size(), 0u);

  const std::string text = "descendant::a[child::b]";
  ASSERT_TRUE(service.Evaluate(id, text).status.ok());
  EXPECT_EQ(memo->size(), 1u);
  // Same (text, shape) again: a memo hit, no new entry.
  ASSERT_TRUE(service.Evaluate(id, text).status.ok());
  EXPECT_EQ(memo->size(), 1u);
  EXPECT_GE(memo->hits(), 1u);
  // A different shape is a distinct plan.
  ASSERT_TRUE(
      service.Evaluate(id, text, ResultShape::kFromRootSet).status.ok());
  EXPECT_EQ(memo->size(), 2u);
  // Unknown documents have no memo.
  EXPECT_EQ(store.PlanMemoFor(engine::DocumentId{999}), nullptr);
}

TEST(PlanMemoTest, BoundedInsertion) {
  engine::PlanMemo memo(/*max_entries=*/2);
  ExecutionPlan plan;
  memo.Insert("a", ResultShape::kBoolean, plan);
  memo.Insert("b", ResultShape::kBoolean, plan);
  memo.Insert("c", ResultShape::kBoolean, plan);  // over the bound: dropped
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_TRUE(memo.Lookup("a", ResultShape::kBoolean).has_value());
  EXPECT_FALSE(memo.Lookup("c", ResultShape::kBoolean).has_value());
  // Shape is part of the key.
  EXPECT_FALSE(memo.Lookup("a", ResultShape::kCount).has_value());
}

// ------------------------------------------------- regression: null store

TEST(NullStoreRegressionTest, DocumentJobsWithoutStoreAreInvalidArgument) {
  // A service with no DocumentStore must reject DocumentId jobs with a
  // clear InvalidArgument on both the single-query and the batch paths
  // (regression: must not crash or silently fail).
  engine::QueryService service({.num_threads = 1});
  engine::QueryResult single = service.Evaluate(engine::DocumentId{7}, "a");
  EXPECT_EQ(single.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(single.status.message().find("no DocumentStore"),
            std::string::npos)
      << single.status;

  engine::QueryJob job;
  job.document = 7;
  job.query = "child::a";
  std::vector<engine::QueryResult> batch = service.EvaluateBatch({job, job});
  ASSERT_EQ(batch.size(), 2u);
  for (const engine::QueryResult& r : batch) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status.message().find("no DocumentStore"), std::string::npos);
  }
}

TEST(NullStoreRegressionTest, OverrideMustBeAdmissible) {
  Tree t = *Tree::ParseTerm("a(b)");
  engine::QueryService service({.num_threads = 1});
  engine::QueryJob job;
  job.tree = &t;
  job.query = "child::* except child::a";  // general: GKP inadmissible
  job.engine_override = EnginePlan::kGkpPositive;
  std::vector<engine::QueryResult> results = service.EvaluateBatch({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------- name-helper hygiene

TEST(NameHelperTest, EveryEnumeratorHasADistinctName) {
  const EnginePlan engines[] = {EnginePlan::kGkpPositive,
                                EnginePlan::kMatrixGeneral,
                                EnginePlan::kNaryAnswer};
  std::set<std::string_view> engine_names;
  for (EnginePlan e : engines) {
    std::string_view name = engine::EnginePlanName(e);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    engine_names.insert(name);
  }
  EXPECT_EQ(engine_names.size(), std::size(engines));

  std::set<std::string_view> shape_names;
  for (ResultShape s : kAllShapes) {
    std::string_view name = engine::ResultShapeName(s);
    EXPECT_FALSE(name.empty());
    shape_names.insert(name);
  }
  EXPECT_EQ(shape_names.size(), std::size(kAllShapes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace xpv
