// Property tests for the indexed tree core: on random GenerateTree corpora
// (and shape-extreme trees), the O(1) predicates, the O(log n) LCA, the
// post-order numbering, and the interval-built axis matrices must agree
// bit-for-bit with the walk-based reference implementations kept in
// tree/naive_reference.h as test-only oracles.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"
#include "tree/naive_reference.h"
#include "tree/tree.h"
#include "test_generators.h"

namespace xpv {
namespace {

std::vector<Tree> Corpus(std::uint64_t seed) {
  return xpv::Corpus(seed, {.random_sizes = {1, 2, 7, 33, 64, 65, 200},
                            .binary_nodes = 150,
                            .shape_nodes = 96,
                            .perfect_height = 6,
                            .bibliography_books = 12});
}

class TreeIndexPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TreeIndexPropertyTest, PredicatesMatchNaiveWalksOnAllPairs) {
  for (const Tree& t : Corpus(GetParam())) {
    const NodeId n = static_cast<NodeId>(t.size());
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(t.Depth(v), naive::Depth(t, v)) << "v=" << v;
    }
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(t.IsAncestorOrSelf(u, v), naive::IsAncestorOrSelf(t, u, v))
            << "u=" << u << " v=" << v << "\ntree: " << t.ToTerm();
        EXPECT_EQ(t.IsFollowingSiblingOrSelf(u, v),
                  naive::IsFollowingSiblingOrSelf(t, u, v))
            << "u=" << u << " v=" << v << "\ntree: " << t.ToTerm();
        EXPECT_EQ(t.LeastCommonAncestor(u, v),
                  naive::LeastCommonAncestor(t, u, v))
            << "u=" << u << " v=" << v << "\ntree: " << t.ToTerm();
      }
    }
  }
}

TEST_P(TreeIndexPropertyTest, SubtreeSizeIsDescendantOrSelfCount) {
  for (const Tree& t : Corpus(GetParam())) {
    const NodeId n = static_cast<NodeId>(t.size());
    for (NodeId u = 0; u < n; ++u) {
      std::size_t count = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (naive::IsAncestorOrSelf(t, u, v)) ++count;
      }
      EXPECT_EQ(t.SubtreeSize(u), count) << "u=" << u;
    }
  }
}

TEST_P(TreeIndexPropertyTest, PostOrderMatchesExplicitTraversal) {
  for (const Tree& t : Corpus(GetParam())) {
    const std::vector<NodeId> expected = naive::PostOrder(t);
    for (NodeId v = 0; v < t.size(); ++v) {
      EXPECT_EQ(t.PostOrder(v), expected[v]) << "v=" << v;
    }
  }
}

TEST_P(TreeIndexPropertyTest, IntervalAxisMatricesMatchNaiveBuilders) {
  for (const Tree& t : Corpus(GetParam())) {
    for (Axis axis : kAllAxes) {
      EXPECT_EQ(AxisMatrix(t, axis), naive::AxisMatrix(t, axis))
          << AxisName(axis) << "\ntree: " << t.ToTerm();
    }
  }
}

TEST_P(TreeIndexPropertyTest, PostingListLabelSetsMatchNaiveScans) {
  for (const Tree& t : Corpus(GetParam())) {
    for (LabelId id = 0; id < t.alphabet_size(); ++id) {
      const std::string& name = t.label_string(id);
      EXPECT_EQ(LabelSet(t, name), naive::LabelSet(t, name)) << name;
      // Posting lists are document-ordered and complete.
      const std::vector<NodeId>& postings = t.LabelPostings(id);
      EXPECT_EQ(postings.size(), naive::LabelSet(t, name).Count());
      for (std::size_t i = 1; i < postings.size(); ++i) {
        EXPECT_LT(postings[i - 1], postings[i]);
      }
    }
    EXPECT_EQ(LabelSet(t, ""), naive::LabelSet(t, ""));
    EXPECT_EQ(LabelSet(t, "no_such_label"),
              naive::LabelSet(t, "no_such_label"));
  }
}

TEST_P(TreeIndexPropertyTest, AxisHoldsMatchesMatrixCell) {
  Rng rng(GetParam() ^ 0x5eed);
  for (const Tree& t : Corpus(GetParam())) {
    const NodeId n = static_cast<NodeId>(t.size());
    for (Axis axis : kAllAxes) {
      BitMatrix m = AxisMatrix(t, axis);
      for (int trial = 0; trial < 64; ++trial) {
        NodeId u = static_cast<NodeId>(rng.Below(n));
        NodeId v = static_cast<NodeId>(rng.Below(n));
        EXPECT_EQ(AxisHolds(t, axis, u, v), m.Get(u, v))
            << AxisName(axis) << " u=" << u << " v=" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeIndexPropertyTest,
                         ::testing::Values(1, 2, 3));

// ------------------------------------------- planner shape statistics

/// One tree per document family the planner is calibrated on, plus the
/// restaurant guides.
std::vector<Tree> StatFamilies() {
  Rng rng(11);
  RandomTreeOptions random;
  random.num_nodes = 600;
  random.alphabet_size = 3;
  std::vector<Tree> trees;
  trees.push_back(PathTree(300));
  trees.push_back(StarTree(300));
  trees.push_back(RandomTree(rng, random));
  trees.push_back(BibliographyTree(rng, 60));
  trees.push_back(RestaurantTree(rng, 30, 8));
  return trees;
}

/// Cells in row `r` of a run-list relation.
std::size_t RowCells(const SparseBoolMatrix& m, std::size_t r) {
  std::size_t cells = 0;
  auto [first, last] = m.RunsOf(r);
  for (auto it = first; it != last; ++it) cells += it->end - it->begin;
  return cells;
}

TEST(TreeStatsTest, AxisShapesAreTheIntervalRelationsMeans) {
  for (const Tree& t : StatFamilies()) {
    AxisCache cache(t, MatrixRepr::kSparse);
    const double n = static_cast<double>(t.size());
    for (Axis axis : kAllAxes) {
      ASSERT_FALSE(cache.Matrix(axis).is_dense());
      const SparseBoolMatrix* m = &cache.Matrix(axis).sparse();
      const AxisShape& shape = AxisShapeOf(t, axis);
      EXPECT_DOUBLE_EQ(shape.cells_per_row,
                       static_cast<double>(m->Count()) / n)
          << AxisName(axis) << " on " << t.ToTerm().substr(0, 40);
      EXPECT_DOUBLE_EQ(shape.runs_per_row,
                       static_cast<double>(m->num_runs()) / n)
          << AxisName(axis) << " on " << t.ToTerm().substr(0, 40);
    }
  }
}

TEST(TreeStatsTest, PairRunsAreTheRunsOfAdjacentRowUnions) {
  for (const Tree& t : StatFamilies()) {
    AxisCache cache(t, MatrixRepr::kSparse);
    const std::size_t n = t.size();
    for (Axis axis : kAllAxes) {
      const SparseBoolMatrix& m = cache.Matrix(axis).sparse();
      double runs = 0.0;
      for (std::size_t v = 1; v < n; ++v) {
        std::vector<bool> row(n, false);
        for (std::size_t u : {v - 1, v}) {
          auto [first, last] = m.RunsOf(u);
          for (auto it = first; it != last; ++it) {
            for (std::uint32_t x = it->begin; x < it->end; ++x) row[x] = true;
          }
        }
        for (std::size_t x = 0; x < n; ++x) {
          if (row[x] && (x == 0 || !row[x - 1])) runs += 1.0;
        }
      }
      const double want = n > 1 ? runs / static_cast<double>(n - 1) : 0.0;
      EXPECT_NEAR(t.PairRuns()[static_cast<std::size_t>(axis)], want, 1e-9)
          << AxisName(axis) << " on " << t.ToTerm().substr(0, 40);
    }
  }
}

TEST(TreeStatsTest, TargetStatsMatchBruteForce) {
  for (const Tree& t : StatFamilies()) {
    AxisCache cache(t, MatrixRepr::kSparse);
    const TargetStats& targets = t.Targets();
    for (Axis a : kAllAxes) {
      const SparseBoolMatrix& am = cache.Matrix(a).sparse();
      // Label counts at A-targets, and B-row totals at A-targets.
      std::vector<double> labeled_children(t.alphabet_size(), 0.0);
      for (Axis b : kAllAxes) {
        const SparseBoolMatrix& bm = cache.Matrix(b).sparse();
        double cells = 0.0;
        double runs = 0.0;
        double hits = 0.0;
        for (std::size_t u = 0; u < t.size(); ++u) {
          auto [first, last] = am.RunsOf(u);
          for (auto it = first; it != last; ++it) {
            for (std::uint32_t v = it->begin; v < it->end; ++v) {
              auto [bf, bl] = bm.RunsOf(v);
              cells += static_cast<double>(RowCells(bm, v));
              runs += static_cast<double>(bl - bf);
              hits += 1.0;
              if (b == Axis::kSelf) {
                for (NodeId c : t.Children(v)) labeled_children[t.label(c)]++;
              }
            }
          }
        }
        if (hits == 0.0) continue;
        const AxisShape& got = TargetShapeOf(targets, a, b);
        EXPECT_NEAR(got.cells_per_row, cells / hits, 1e-9 * (1 + cells))
            << AxisName(a) << "/" << AxisName(b);
        EXPECT_NEAR(got.runs_per_row, runs / hits, 1e-9 * (1 + runs))
            << AxisName(a) << "/" << AxisName(b);
        if (b != Axis::kSelf) continue;
        for (LabelId l = 0; l < t.alphabet_size(); ++l) {
          EXPECT_NEAR(targets.child_labels[l][static_cast<std::size_t>(a)],
                      labeled_children[l] / hits, 1e-9)
              << AxisName(a) << " " << t.label_string(l);
        }
      }
    }
    // Rows at L-labeled nodes.
    for (LabelId l = 0; l < t.alphabet_size(); ++l) {
      for (Axis b : kAllAxes) {
        const SparseBoolMatrix& bm = cache.Matrix(b).sparse();
        double cells = 0.0;
        double runs = 0.0;
        for (NodeId v : t.LabelPostings(l)) {
          auto [bf, bl] = bm.RunsOf(v);
          cells += static_cast<double>(RowCells(bm, v));
          runs += static_cast<double>(bl - bf);
        }
        const double count = static_cast<double>(t.LabelPostings(l).size());
        const AxisShape& got =
            targets.label_shapes[l][static_cast<std::size_t>(b)];
        EXPECT_NEAR(got.cells_per_row, cells / count, 1e-9 * (1 + cells));
        EXPECT_NEAR(got.runs_per_row, runs / count, 1e-9 * (1 + runs));
      }
    }
  }
}

}  // namespace
}  // namespace xpv