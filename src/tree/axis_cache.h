// Thread-safe per-tree cache of axis relation matrices and label sets.
//
// Every matrix-based evaluator (ppl::MatrixEngine, xpath::DirectEvaluator,
// the HCL binary-query leaves) needs the same axis relations A(t) and the
// same label sets lab_N(t). Historically each engine instance kept a
// private copy; an AxisCache lifts that state to the tree itself so that
// many engines -- and many concurrent jobs of the batch QueryService in
// engine/ -- evaluating over one tree compute each relation exactly once
// and share the result.
//
// Each cached relation is a BoolMatrix (common/bool_matrix.h): dense on
// small trees, run lists on large ones (or forced either way by the
// MatrixRepr policy), so a 1M-node document costs O(n log n) bits of
// axis state instead of the dense O(n^2). Evaluators read a masked step
// M_{A::N} through DenseStep or SparseStep, never by hand.
//
// Thread safety: Matrix() uses one std::once_flag per axis and publishes
// the built relation with a release store into an atomic slot; Labels() a
// mutex around a node-stable std::map. Returned references stay valid for
// the lifetime of the cache and concurrent callers never observe a
// partially built relation -- approx_resident_bytes() reads only the
// published slots (acquire), never the build counters, so the stat cannot
// see a half-built entry.
#ifndef XPV_TREE_AXIS_CACHE_H_
#define XPV_TREE_AXIS_CACHE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/bool_matrix.h"
#include "common/status.h"
#include "tree/axes.h"
#include "tree/tree.h"

namespace xpv {

/// Lazily materialized, thread-safe per-tree cache of axis relations and
/// LabelSet() results. The referenced tree must outlive the cache.
class AxisCache {
 public:
  /// The `repr` policy picks what Matrix() builds. kAuto builds dense
  /// relations on trees up to this node count (a row is a handful of
  /// words there and the word-parallel kernels win) and run lists beyond:
  /// at 4096 nodes the 7 dense relations cost 7 * 2 MiB, past which the
  /// O(n^2) bits dominate every other per-document cost.
  static constexpr std::size_t kAutoDenseMaxNodes = 4096;

  explicit AxisCache(const Tree& tree, MatrixRepr repr = MatrixRepr::kAuto)
      : tree_(tree), repr_(repr) {
    for (auto& slot : axis_) slot.store(nullptr, std::memory_order_relaxed);
  }

  AxisCache(const AxisCache&) = delete;
  AxisCache& operator=(const AxisCache&) = delete;

  const Tree& tree() const { return tree_; }
  MatrixRepr repr() const { return repr_; }
  /// True iff Matrix() builds run-list (SparseBoolMatrix) entries.
  bool interval_backed() const {
    return repr_ == MatrixRepr::kSparse ||
           (repr_ == MatrixRepr::kAuto && tree_.size() > kAutoDenseMaxNodes);
  }

  /// A(t) for the given axis, computed on first use.
  const BoolMatrix& Matrix(Axis axis);

  /// Installs a snapshot-decoded relation for `axis` instead of building
  /// it from the tree (engine/snapshot.h reload path). Returns true when
  /// the slot was empty and the relation was adopted; false when the
  /// axis was already materialized (the prebuilt copy is dropped -- the
  /// published entry stays authoritative). The matrix must have the
  /// tree's dimension; installed entries count toward matrices_built()
  /// and, separately, matrices_installed().
  bool InstallPrebuilt(Axis axis, BoolMatrix m);

  /// Axes whose relation is materialized right now, in kAllAxes order
  /// (the snapshot save path serializes exactly these).
  std::vector<Axis> BuiltAxes() const;

  /// Number of matrices adopted through InstallPrebuilt() -- snapshot
  /// reloads -- as opposed to built from the tree. The round-trip tests
  /// assert installed == persisted axes and that subsequent queries
  /// build nothing (matrices_built() stays at matrices_installed()).
  std::size_t matrices_installed() const {
    return matrices_installed_.load(std::memory_order_acquire);
  }

  /// lab_N(t) for the given name test (empty or "*" = all nodes), computed
  /// on first use. The returned reference is node-stable and immutable
  /// once published, so reading it after the lock is dropped is safe.
  const BitVector& Labels(const std::string& name_test)
      XPV_EXCLUDES(label_mu_);

  /// The masked step relation M_{axis::name_test} as a CSR run list,
  /// built directly from the cached axis relation's rows intersected with
  /// the label posting set -- run-native on run-list backing, so no dense
  /// |t| x |t| materialization happens at any tree size. Uncached (the
  /// result is query-specific, unlike the 7 axis relations); fails with
  /// kResourceExhausted when the run list would exceed `max_runs` (0 =
  /// unbounded).
  Result<SparseBoolMatrix> SparseStep(Axis axis, const std::string& name_test,
                                      std::size_t max_runs = 0);
  /// The same masked step as a dense matrix, for the evaluators that are
  /// dense end-to-end (and the matrix engine's dense leaves): a copy of a
  /// dense axis entry, masked by the label set, or a run-list entry
  /// expanded -- which fails with kResourceExhausted above
  /// BitMatrix::kMaxDenseNodes (a job error, not an abort).
  Result<BitMatrix> DenseStep(Axis axis, const std::string& name_test);

  /// Number of axis matrices materialized so far (monotone; at most 7).
  /// Lets callers -- and the DocumentStore reuse tests -- observe whether a
  /// relation was rebuilt or served from this cache. Incremented only
  /// after the entry is published, so the count never exceeds the number
  /// of readable entries.
  std::size_t matrices_built() const {
    return matrices_built_.load(std::memory_order_acquire);
  }
  /// Number of distinct label sets materialized so far.
  std::size_t label_sets_built() const {
    return label_sets_built_.load(std::memory_order_acquire);
  }

  /// Bytes resident in materialized relations and label sets: the sum of
  /// each published entry's BoolMatrix::resident_bytes() -- exact for
  /// whichever representation each entry chose -- plus label-set payload
  /// and an estimate of the std::map node overhead (kLabelMapNodeBytes
  /// per entry; the red-black node's three pointers + color and the key
  /// string header). Lock-free: reads only release-published state, so
  /// it may lag a concurrent build by one entry but never reads a
  /// half-built one. The DocumentStore aggregates this per shard to run
  /// its hot-cache LRU budget.
  std::size_t approx_resident_bytes() const {
    std::size_t bytes = 0;
    for (const auto& slot : axis_) {
      if (const BoolMatrix* m = slot.load(std::memory_order_acquire)) {
        bytes += m->resident_bytes();
      }
    }
    return bytes + label_bytes_.load(std::memory_order_acquire);
  }

  /// Per-entry allocator overhead charged for a labels_ map node: three
  /// child/parent pointers plus color in the red-black node, and the
  /// std::string key header (its heap characters are counted separately).
  static constexpr std::size_t kLabelMapNodeBytes =
      4 * sizeof(void*) + sizeof(std::string);

 private:
  const Tree& tree_;
  const MatrixRepr repr_;
  std::atomic<std::size_t> matrices_built_{0};
  std::atomic<std::size_t> matrices_installed_{0};
  std::atomic<std::size_t> label_sets_built_{0};
  std::atomic<std::size_t> label_bytes_{0};
  /// The per-axis slots are not mutex-guarded: axis_storage_ is written
  /// exactly once inside the call_once below, then published into axis_
  /// with release semantics -- std::once_flag is the synchronization.
  std::array<std::once_flag, kAllAxes.size()> axis_once_;
  /// Owning storage, written once inside the call_once...
  std::array<std::unique_ptr<const BoolMatrix>, kAllAxes.size()> axis_storage_;
  /// ...then published here with release semantics; readers (Matrix and
  /// the stats) only ever see fully built entries.
  std::array<std::atomic<const BoolMatrix*>, kAllAxes.size()> axis_;
  Mutex label_mu_;
  /// Node-stable addresses; entries are write-once, so references handed
  /// out by Labels() stay valid and immutable after the lock is dropped.
  std::map<std::string, BitVector> labels_ XPV_GUARDED_BY(label_mu_);
};

}  // namespace xpv

#endif  // XPV_TREE_AXIS_CACHE_H_
