// Semantic answer digests and the Fig. 2 oracle check.
//
// A digest hashes what a job means, not how it is encoded: the sorted
// pairs of a relation (each row's column set as canonical bit words, the
// same for a dense bit matrix and a run list), the from-root node set, the
// tuple set, the count or the boolean. Two routes that return the same
// answer in different representations digest equal.
#ifndef XPVBENCH_DIGEST_H_
#define XPVBENCH_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/sparse_matrix.h"
#include "engine/query_service.h"
#include "xpath/eval.h"

namespace xpvbench {

class Digest {
 public:
  void Mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdULL;
  }
  void MixSet(const xpv::BitVector& set);
  void MixRelation(const xpv::BitMatrix& m);
  void MixRelation(const xpv::BoolMatrix& m);
  void MixTuples(const xpv::xpath::TupleSet& tuples);
  void MixTuple(const xpv::xpath::NodeTuple& tuple);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

/// The semantic digest of a service result for the shape it was asked for.
std::uint64_t DigestResult(const xpv::engine::QueryResult& r,
                           xpv::engine::ResultShape shape, bool nary);

/// The digest of one stream page, in delivery order.
std::uint64_t DigestPage(const std::vector<xpv::xpath::NodeTuple>& page);

/// Checks `result` (a service answer to `text` on `tree` with `shape`)
/// against the Fig. 2 semantics computed by xpath::DirectEvaluator on the
/// independently parsed text. Binary answers are compared whole, in any
/// shape; for n-ary answers (shape kFullRelation only) 16 sampled answer
/// tuples must select, and 16 perturbed tuples must select exactly when
/// they are in the answer set. Empty return = agreement; otherwise the
/// reason.
std::string OracleCheck(const xpv::Tree& tree, const std::string& text,
                        xpv::engine::ResultShape shape, bool nary,
                        const xpv::engine::QueryResult& result,
                        std::uint64_t seed);

}  // namespace xpvbench

#endif  // XPVBENCH_DIGEST_H_
