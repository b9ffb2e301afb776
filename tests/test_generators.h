// Random inputs shared by the differential and property suites: PPLbin
// and PPL expressions, small random trees, tree corpora and node sets.
// Every generator is a deterministic function of the Rng it is handed,
// so a suite's seed pins its inputs.
#ifndef XPV_TESTS_TEST_GENERATORS_H_
#define XPV_TESTS_TEST_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "ppl/pplbin.h"
#include "tree/axes.h"
#include "tree/generators.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xpv {

/// Random PPLbin expression of at most `depth` operator levels over the
/// labels GeneratorLabel(0..2): leaves are self (1 in 5) or a step with a
/// random axis and a wildcard (1 in 3) or label name test; interior nodes
/// are compose, union, filter and -- when `allow_complement` -- except.
inline ppl::PplBinPtr RandomPplBin(Rng& rng, int depth,
                                   bool allow_complement) {
  if (depth <= 0 || rng.Chance(1, 3)) {
    if (rng.Chance(1, 5)) return ppl::PplBinExpr::Self();
    return ppl::PplBinExpr::Step(
        kAllAxes[rng.Below(kAllAxes.size())],
        rng.Chance(1, 3) ? "*" : GeneratorLabel(rng.Below(3)));
  }
  switch (rng.Below(allow_complement ? 4u : 3u)) {
    case 0:
      return ppl::PplBinExpr::Compose(
          RandomPplBin(rng, depth - 1, allow_complement),
          RandomPplBin(rng, depth - 1, allow_complement));
    case 1:
      return ppl::PplBinExpr::Union(
          RandomPplBin(rng, depth - 1, allow_complement),
          RandomPplBin(rng, depth - 1, allow_complement));
    case 2:
      return ppl::PplBinExpr::Filter(
          RandomPplBin(rng, depth - 1, allow_complement));
    default:
      return ppl::PplBinExpr::Complement(
          RandomPplBin(rng, depth - 1, allow_complement));
  }
}

/// Random PPL (Core XPath 2.0 with variables) expression whose variables
/// come from `available`, built so the result stays in PPL: composition
/// and filters split the variables between their operands (NVS), unions
/// share them, and negated filters are variable-free (NV(not)).
inline xpath::PathPtr RandomPpl(Rng& rng, std::vector<std::string> available,
                                int depth) {
  using xpath::PathExpr;
  using xpath::TestExpr;
  if (depth <= 0 || rng.Chance(1, 4)) {
    if (!available.empty() && rng.Chance(1, 2)) {
      // .[. is $x] or $x
      const std::string& var = available[rng.Below(available.size())];
      if (rng.Chance(1, 2)) return PathExpr::Var(var);
      return PathExpr::Filter(
          PathExpr::Dot(),
          TestExpr::Is(xpath::NodeRef::Dot(), xpath::NodeRef::Var(var)));
    }
    if (rng.Chance(1, 6)) return PathExpr::Dot();
    return PathExpr::Step(kAllAxes[rng.Below(kAllAxes.size())],
                          rng.Chance(1, 3) ? "*"
                                           : GeneratorLabel(rng.Below(3)));
  }
  switch (rng.Below(4)) {
    case 0: {  // composition with split variables (NVS(/))
      std::vector<std::string> left, right;
      for (auto& v : available) (rng.Chance(1, 2) ? left : right).push_back(v);
      return PathExpr::Compose(RandomPpl(rng, left, depth - 1),
                               RandomPpl(rng, right, depth - 1));
    }
    case 1:  // union shares variables freely
      return PathExpr::Union(RandomPpl(rng, available, depth - 1),
                             RandomPpl(rng, available, depth - 1));
    case 2: {  // filter with split variables (NVS([]))
      std::vector<std::string> left, right;
      for (auto& v : available) (rng.Chance(1, 2) ? left : right).push_back(v);
      return PathExpr::Filter(
          RandomPpl(rng, left, depth - 1),
          TestExpr::Path(RandomPpl(rng, right, depth - 1)));
    }
    default:  // variable-free negated filter (NV(not))
      return PathExpr::Filter(
          RandomPpl(rng, available, depth - 1),
          TestExpr::Not(TestExpr::Path(RandomPpl(rng, {}, depth - 1))));
  }
}

/// Random tree of 4-31 nodes over a 3-letter alphabet.
inline Tree MakeRandomTree(Rng& rng) {
  RandomTreeOptions opts;
  opts.num_nodes = 4 + rng.Below(28);
  opts.alphabet_size = 3;
  return RandomTree(rng, opts);
}

/// Which trees Corpus() draws. Zero skips the optional entries.
struct CorpusSpec {
  /// One random tree (alphabet of 1-4 labels) per entry.
  std::vector<std::size_t> random_sizes;
  /// A random tree of this many nodes with at most 2 children per node.
  std::size_t binary_nodes = 0;
  /// A path of shape_nodes + 1 nodes and a star with shape_nodes leaves
  /// (the same node count).
  std::size_t shape_nodes = 0;
  /// A perfect binary tree of this height.
  std::size_t perfect_height = 0;
  /// A bibliography tree of this many books.
  std::size_t bibliography_books = 0;
};

/// The tree corpus of the representation and index property suites:
/// random trees of awkward sizes (1, 2, word boundaries) plus the
/// adversarial shapes -- deep paths, wide stars, balanced trees.
inline std::vector<Tree> Corpus(std::uint64_t seed, const CorpusSpec& spec) {
  Rng rng(seed);
  std::vector<Tree> corpus;
  for (std::size_t nodes : spec.random_sizes) {
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    opts.alphabet_size = 1 + rng.Below(4);
    corpus.push_back(RandomTree(rng, opts));
  }
  if (spec.binary_nodes > 0) {
    RandomTreeOptions opts;
    opts.num_nodes = spec.binary_nodes;
    opts.max_children = 2;
    corpus.push_back(RandomTree(rng, opts));
  }
  if (spec.shape_nodes > 0) {
    corpus.push_back(PathTree(spec.shape_nodes + 1));
    corpus.push_back(StarTree(spec.shape_nodes));
  }
  if (spec.perfect_height > 0) {
    corpus.push_back(PerfectBinaryTree(spec.perfect_height));
  }
  if (spec.bibliography_books > 0) {
    corpus.push_back(BibliographyTree(rng, spec.bibliography_books));
  }
  return corpus;
}

/// Random subset of [0, n): each node independently with probability
/// density_pct / 100.
inline BitVector RandomNodeSet(Rng& rng, std::size_t n,
                               std::size_t density_pct) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Below(100) < density_pct) v.Set(i);
  }
  return v;
}

}  // namespace xpv

#endif  // XPV_TESTS_TEST_GENERATORS_H_
