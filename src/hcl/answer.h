// Polynomial-time n-ary query answering for HCL-(L) -- Section 7 of the
// paper (Propositions 10 and 11, Fig. 8).
//
// Pipeline, for a query q_{C,x} on a tree t:
//
//   1. Convert C to sharing normal form (D, Delta)      [Lemma 3, O(|C|)]
//   2. Read the dense relation q_b(t) of every b in L(C) -- borrowed by
//      pointer from the document's RelationCache, or evaluated once --
//      and group its equal rows into row classes        [sum_b p(|b|,|t|)
//                                                        + O(|t|^2/64)]
//   3. Compute the satisfiability table, one node set per subformula:
//        MC(D0) = { u | ex. alpha, u' : (u,u') in [[D0_Delta]]^{t,alpha} }
//      where MC(b/D) is the preimage of MC(D) under q_b
//      (BitMatrix::RowsMeeting)                          [Prop. 10,
//                                                        O(|t|^2/64 (|D|+|Delta|))]
//   4. Enumerate partial valuations vals(D0, u) bottom-up, filtering
//      unsatisfiable branches through MC, deduplicating, and memoizing
//      (Fig. 8)                                         [Prop. 11,
//                                                        O((|D|+|Delta|) |t|^2 n |A|)]
//
// The key property making step 4 output-sensitive: because MC filters every
// recursive call, each intermediate valuation extends to at least one
// answer, so no dead work is enumerated and each memoized set has at most
// |A| elements. Two representation choices keep the work at that bound in
// practice:
//   * valuation sets are immutable flat arrays of sorted rows, shared by
//     pointer: a memo hit copies no set, and a union drops operands it has
//     already taken (same pointer) before merging rows;
//   * vals(b/D, u) depends on u only through row u of q_b, so it is
//     memoized per (b/D, row class of u). The `nodes` leaf of a `$x` step
//     has one row class, so vals(nodes/x/D, u) is built once per query,
//     not once per node.
#ifndef XPV_HCL_ANSWER_H_
#define XPV_HCL_ANSWER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bit_matrix.h"
#include "common/cancel.h"
#include "common/status.h"
#include "hcl/ast.h"
#include "hcl/sharing.h"
#include "tree/axis_cache.h"

namespace xpv::ppl {
class RelationCache;
}  // namespace xpv::ppl

namespace xpv::hcl {

/// An immutable set of partial valuations over the query's variable list:
/// `count` rows of `width` cells back to back, sorted lexicographically
/// with no repeats. Cell i of a row is the node assigned to variable i,
/// or kNoNode when the variable is unset. With width 0 the set is either
/// empty or {epsilon} (count 0 or 1).
struct Valuations {
  std::size_t width = 0;
  std::size_t count = 0;
  std::vector<NodeId> cells;

  const NodeId* Row(std::size_t i) const { return cells.data() + i * width; }
};
using ValuationsPtr = std::shared_ptr<const Valuations>;

/// Ablation switches for the Fig. 8 algorithm. Both default on; turning
/// either off preserves correctness (the recursion still computes exact
/// valuation sets) but forfeits the output-sensitivity analysis:
/// without MC filtering, dead branches are enumerated and discarded late;
/// without memoization (row-class memo included), shared subformulas are
/// recomputed per call site. Used by the ablation benchmark (E11) and its
/// correctness tests.
struct AnswerOptions {
  bool use_mc_filter = true;
  bool memoize_vals = true;
  /// Cooperative cancellation, observed inside the long-running phases
  /// (leaf relation reads, the MC table, and every vals() call) -- not
  /// just between jobs. When it fires, Prepare()/Answer() return
  /// kCancelled / kDeadlineExceeded.
  CancelToken cancel;
  /// The document's subrelation cache, next to the axis cache the
  /// constructor takes: leaf relations are borrowed from it, and those
  /// this run had to evaluate are published into it once Answer()
  /// succeeds. Null: every leaf is evaluated privately.
  std::shared_ptr<ppl::RelationCache> relation_cache;
};

/// Answers one n-ary HCL-(L) query on one tree. Construct, Prepare(), then
/// Answer(); the intermediate artifacts (sharing form, MC table) stay
/// accessible for inspection, tests, and benchmarks.
class QueryAnswerer {
 public:
  /// `tuple_vars` is the output variable sequence x = x1...xn (repeats
  /// allowed). `axis_cache` optionally shares a per-tree axis-relation
  /// cache with other evaluations on `t` (e.g. other jobs of a
  /// QueryService batch); when null, Prepare() builds a private one.
  QueryAnswerer(const Tree& t, const HclExpr& c,
                std::vector<std::string> tuple_vars,
                AnswerOptions options = {},
                std::shared_ptr<AxisCache> axis_cache = nullptr);

  /// Steps 1-3: fragment check, sharing normal form, leaf relations and
  /// row classes, MC table. Fails with FragmentViolation when C is not in
  /// HCL-(L).
  Status Prepare();

  /// Step 4: the answer set q_{C,x}(t). Prepare() must have succeeded.
  /// Fails only via the cancel token (kCancelled / kDeadlineExceeded);
  /// the token is sticky, so once a run has been interrupted every later
  /// call fails with the same status.
  Result<xpath::TupleSet> Answer();

  /// MC(D0, u) for the subformula with the given id (Prepare() first).
  bool Mc(int subformula_id, NodeId u) const {
    return mc_[static_cast<std::size_t>(subformula_id)].Get(u);
  }

  const SharingForm& form() const { return *form_; }

 private:
  /// One leaf relation q_b(t) and, when memoizing, the row class of
  /// every node: equal rows get equal class ids in [0, |t|).
  struct Leaf {
    std::shared_ptr<const BoolMatrix> relation;
    std::vector<std::uint32_t> row_class;
  };

  const BitVector& ComputeMc(const SharingExpr& d);
  ValuationsPtr Vals(const SharingExpr& d, NodeId u);
  ValuationsPtr ValsCompute(const SharingExpr& d, NodeId u);
  /// vals(b/D, u) for d = b/D: the union of vals(D, v) over the
  /// successors v of u that pass MC(D).
  ValuationsPtr SuccessorUnion(const SharingExpr& d, NodeId u);
  /// extend_{t,X}: extends every valuation to be total on the variable
  /// index set X (unset positions in X range over all nodes). Returns
  /// `in` itself when every valuation is already total on X.
  ValuationsPtr Extend(const ValuationsPtr& in,
                       const std::vector<int>& target_positions) const;
  std::vector<int> VarIndicesOf(int subformula_id) const;

  const Tree& tree_;
  const HclExpr& expr_;
  std::vector<std::string> tuple_vars_;
  AnswerOptions options_;
  std::shared_ptr<AxisCache> axis_cache_;
  /// Deduplicated query variables; valuations index into this.
  std::vector<std::string> query_vars_;
  std::map<std::string, int> var_index_;

  std::optional<SharingForm> form_;
  std::optional<LeafRelations> leaf_relations_;
  /// One entry per distinct leaf relation (keyed by the relation, so two
  /// leaves with one text share their row classes).
  std::unordered_map<const BoolMatrix*, Leaf> leaves_;
  /// Per subformula id: the leaf of a b/D subformula (null otherwise),
  /// and the variable positions a union extends its branches to.
  std::vector<const Leaf*> leaf_of_;
  std::vector<std::vector<int>> union_targets_;
  /// MC table: one node set per subformula id.
  std::vector<BitVector> mc_;
  std::vector<bool> mc_done_;
  /// vals memoization, indexed [sub_id * |t| + key], key = the row class
  /// of u for b/D subformulas and u otherwise; null = not yet computed.
  std::vector<ValuationsPtr> vals_memo_;
  ValuationsPtr empty_;
  ValuationsPtr epsilon_;
  bool prepared_ = false;
  /// Sticky cancel status observed inside the vals() recursion; set by
  /// Vals() (which then unwinds fast with empty sets and stops
  /// memoizing, so no partial set is ever cached), surfaced by Answer().
  Status interrupted_;
};

/// One-shot convenience wrapper: Prepare() + Answer().
Result<xpath::TupleSet> AnswerQuery(const Tree& t, const HclExpr& c,
                                    const std::vector<std::string>& tuple_vars);

}  // namespace xpv::hcl

#endif  // XPV_HCL_ANSWER_H_
