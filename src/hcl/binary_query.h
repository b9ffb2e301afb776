// The parameter language L of the hybrid composition language HCL(L)
// (Section 5): "a set of expressions b in L that define binary queries
// q_b". The paper instantiates L with the axes of Core XPath 2.0, with
// PPLbin, or with FObin; BinaryQuery is the common interface and the first
// two instantiations live here (the FObin instantiation lives in fo/).
//
// Implementations are immutable and shared via shared_ptr<const ...> so a
// binary query can appear at many leaves of an HclExpr without copies.
#ifndef XPV_HCL_BINARY_QUERY_H_
#define XPV_HCL_BINARY_QUERY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "common/bool_matrix.h"
#include "common/status.h"
#include "ppl/pplbin.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"
#include "tree/tree.h"

namespace xpv::ppl {
class RelationCache;
}  // namespace xpv::ppl

namespace xpv::hcl {

/// An expression b in some binary query language L. Evaluate() returns the
/// full relation q_b(t); the n-ary machinery reads it once per (query,
/// tree) pair through LeafRelations below (Proposition 10's "precompiled
/// data structure": row u of the dense relation is S_{u,b}).
class BinaryQuery {
 public:
  virtual ~BinaryQuery() = default;

  /// q_b(t) as a Boolean relation matrix.
  virtual BitMatrix Evaluate(const Tree& t) const = 0;
  /// q_b(t) drawing axis relations and label sets from a shared per-tree
  /// cache, so all leaves of one composition (and all concurrent jobs on
  /// one tree) materialize each axis matrix once. Default: uncached.
  /// Fails with kResourceExhausted when the dense relation cannot
  /// materialize (tree beyond BitMatrix::kMaxDenseNodes) -- the HCL
  /// machinery is dense end-to-end, so an oversized tree on this path is
  /// a job error, never a crash.
  virtual Result<BitMatrix> EvaluateCached(
      const std::shared_ptr<AxisCache>& cache) const {
    return Evaluate(cache->tree());
  }
  /// Surface syntax of b (used in HclExpr::ToString).
  virtual std::string ToString() const = 0;
  /// The PPLbin text of b as CompileQuery would give it (simplified,
  /// then canonical: ppl/canonical.h), under which a document's
  /// RelationCache holds its dense relation -- the key a dense
  /// matrix-engine job publishes for that expression. Equal texts denote
  /// equal relations.
  virtual const std::string& RelationText() const = 0;
  /// |b| -- the size of b as an expression of L (a leaf of HCL has
  /// composition size 1 regardless; this is the inner size).
  virtual std::size_t ExprSize() const { return 1; }
};

using BinaryQueryPtr = std::shared_ptr<const BinaryQuery>;

/// L = axes of Core XPath 2.0: b = Axis::NameTest.
class AxisQuery : public BinaryQuery {
 public:
  AxisQuery(Axis axis, std::string name_test)
      : axis_(axis), name_test_(std::move(name_test)) {
    // Normalize after the move (not in the initializer, whose
    // compare-then-move GCC 12 misdiagnoses as a use of uninitialized
    // memory under -O2).
    if (name_test_ == "*") name_test_.clear();
    relation_text_ = ToString();
  }

  BitMatrix Evaluate(const Tree& t) const override;
  Result<BitMatrix> EvaluateCached(
      const std::shared_ptr<AxisCache>& cache) const override;
  std::string ToString() const override;
  const std::string& RelationText() const override { return relation_text_; }

  Axis axis() const { return axis_; }
  const std::string& name_test() const { return name_test_; }

 private:
  Axis axis_;
  std::string name_test_;  // empty = wildcard
  std::string relation_text_;
};

/// L = PPLbin (Section 4): b is a PPLbin expression evaluated by the
/// Boolean-matrix engine in O(|b| |t|^3 / 64).
class PplBinQuery : public BinaryQuery {
 public:
  explicit PplBinQuery(ppl::PplBinPtr expr);

  BitMatrix Evaluate(const Tree& t) const override;
  Result<BitMatrix> EvaluateCached(
      const std::shared_ptr<AxisCache>& cache) const override;
  std::string ToString() const override { return expr_->ToString(); }
  const std::string& RelationText() const override { return relation_text_; }
  std::size_t ExprSize() const override { return expr_->Size(); }

  const ppl::PplBinExpr& expr() const { return *expr_; }

 private:
  ppl::PplBinPtr expr_;
  /// Canonical text of the simplified expression: the text CompileQuery
  /// gives the same expression as a binary query.
  std::string relation_text_;
};

/// The full relation nodes(t)^2 -- the paper's `nodes` binary query, used
/// by the L$xM^{-1} = nodes/x clause of Fig. 7.
class FullRelationQuery : public BinaryQuery {
 public:
  BitMatrix Evaluate(const Tree& t) const override {
    return BitMatrix::Full(t.size());
  }
  Result<BitMatrix> EvaluateCached(
      const std::shared_ptr<AxisCache>& cache) const override;
  std::string ToString() const override { return "nodes"; }
  /// The text of ppl::MakeNodesRelation(), as a PplBinQuery of it has.
  const std::string& RelationText() const override;
};

/// The dense leaf relations of one n-ary evaluation (an HCL answerer or
/// an ACQ enumerator) on one tree, borrowed from the document's
/// RelationCache under RelationKey(b.RelationText(), "dense"). A hit is
/// shared by pointer, never copied; a miss evaluates b once through the
/// axis cache and is held back until Publish(), so a run that fails or is
/// cancelled leaves no cache entry. Not thread-safe: one per run.
class LeafRelations {
 public:
  LeafRelations(std::shared_ptr<AxisCache> axes,
                std::shared_ptr<ppl::RelationCache> relations)
      : axes_(std::move(axes)), relations_(std::move(relations)) {}

  /// q_b(t) as a dense relation, evaluated at most once per object and
  /// relation text. Fails with kResourceExhausted beyond
  /// BitMatrix::kMaxDenseNodes.
  Result<std::shared_ptr<const BoolMatrix>> Get(const BinaryQuery& b);

  /// Inserts the relations this object evaluated into the RelationCache
  /// (once; later calls are no-ops). Call after the run has succeeded.
  void Publish();

 private:
  std::shared_ptr<AxisCache> axes_;
  std::shared_ptr<ppl::RelationCache> relations_;
  std::map<std::string, std::shared_ptr<const BoolMatrix>> by_text_;
  /// Misses not yet published: (cache key, relation).
  std::vector<std::pair<std::string, std::shared_ptr<const BoolMatrix>>>
      fresh_;
};

/// Convenience constructors.
BinaryQueryPtr MakeAxisQuery(Axis axis, std::string name_test = "*");
BinaryQueryPtr MakePplBinQuery(ppl::PplBinPtr expr);
BinaryQueryPtr MakeFullRelationQuery();

}  // namespace xpv::hcl

#endif  // XPV_HCL_BINARY_QUERY_H_
