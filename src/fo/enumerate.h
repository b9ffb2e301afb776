// Answer enumeration for acyclic conjunctive queries -- the direction the
// paper's conclusion poses as an open question ("Which fragments of ACQs
// or HCL admit polynomial-time preprocessing and a linear enumeration
// delay?").
//
// This implements the natural Yannakakis-based enumerator: after the
// O(|db|)-ish preprocessing (relation materialization + the up/down
// semijoin passes), answers are produced one at a time by a resumable DFS
// over the join forest. Because every surviving candidate extends to a
// full solution, the DFS never dead-ends:
//
//   * when every query variable appears in the output tuple, the delay
//     between consecutive answers is O(#vars * |t|) -- each step advances
//     at least one iterator over a candidate row -- and the enumerator
//     keeps NO per-answer state at all: memory stays O(#vars * |t|) bits
//     of DFS frames regardless of how many answers exist;
//   * with projection, distinct-tuple delay is amortized: duplicate
//     projections are skipped via a *memory-bounded* hashed dedup
//     structure (fo/tuple_dedup.h). This is a documented deviation both
//     from the constant-delay literature (which needs more machinery
//     [3,8,10]) and from "no materialization": distinctness under
//     projection requires remembering emitted tuples, so the enumerator
//     remembers them inside a hard byte budget and fails with a clear
//     kResourceExhausted status when the budget is gone, instead of
//     growing without bound.
#ifndef XPV_FO_ENUMERATE_H_
#define XPV_FO_ENUMERATE_H_

#include <memory>
#include <optional>

#include "common/cancel.h"
#include "fo/acq.h"
#include "fo/tuple_dedup.h"
#include "tree/axis_cache.h"

namespace xpv::ppl {
class RelationCache;
}  // namespace xpv::ppl

namespace xpv::fo {

struct AcqEnumeratorOptions {
  /// Observed during preprocessing (between relation materializations /
  /// semijoin passes) and between DFS steps, so an in-flight enumeration
  /// stops cooperatively on batch cancel or deadline expiry.
  CancelToken cancel;
  /// Budget/policy for the projection dedup structure. Ignored when the
  /// projection is injective (every variable is an output variable) --
  /// then no dedup state is kept at all.
  TupleDedupOptions dedup;
  /// Optional shared per-tree axis cache for relation materialization
  /// (e.g. a stored document's persistent cache); null = a private one.
  std::shared_ptr<AxisCache> axis_cache;
  /// Optional document subrelation cache: atom relations are borrowed
  /// from it by pointer, and those Create() evaluated are published into
  /// it once preprocessing succeeds. Null: relations stay private.
  std::shared_ptr<ppl::RelationCache> relation_cache;
};

/// Resumable answer enumeration for an acyclic conjunctive query.
/// Create() runs the preprocessing (semijoin reduction); Next() yields
/// distinct answers one at a time in the (deterministic) order induced by
/// the join-forest DFS over the internal variable numbering.
class AcqEnumerator {
 public:
  /// Preprocesses the query. Fails on cyclic queries (InvalidArgument)
  /// and when the cancel token fires mid-preprocessing.
  static Result<AcqEnumerator> Create(const Tree& t,
                                      const ConjunctiveQuery& q,
                                      AcqEnumeratorOptions options = {});

  AcqEnumerator(AcqEnumerator&&) noexcept;
  AcqEnumerator& operator=(AcqEnumerator&&) noexcept;
  ~AcqEnumerator();

  /// The next distinct output tuple; nullopt when exhausted. Errors --
  /// kCancelled / kDeadlineExceeded from the cancel token,
  /// kResourceExhausted from the dedup budget -- are sticky: once Next()
  /// has failed, every later call returns the same status.
  Result<std::optional<xpath::NodeTuple>> Next();

  /// Number of distinct tuples produced so far.
  std::size_t produced() const;

  /// True when the projection requires dedup state (some variable is
  /// projected away); false means enumeration memory is O(#vars * |t|)
  /// bits no matter how many answers are produced.
  bool dedup_active() const;
  /// Distinct tuples remembered by the dedup structure (0 when inactive).
  std::size_t dedup_entries() const;
  /// Resident bytes of DFS frames + dedup state -- the part of the
  /// enumerator's footprint that could scale with answers; excludes the
  /// preprocessed relations, whose size is fixed by the query and tree.
  std::size_t resident_bytes() const;

 private:
  struct Impl;
  explicit AcqEnumerator(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace xpv::fo

#endif  // XPV_FO_ENUMERATE_H_
