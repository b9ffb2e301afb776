// Succinct square Boolean matrices: CSR run lists and their kernels.
//
// On a pre-order-numbered tree the axis relations are interval-structured
// -- a subtree is the contiguous id range [v, v + SubtreeSize(v)), so a
// descendant row is a single run and ancestor / sibling rows are unions of
// a few runs. A SparseBoolMatrix stores each row as sorted, disjoint,
// non-adjacent runs in CSR layout, O(total runs) space. One class serves
// every run-list use: cached axis relations (tree/axes.h
// AxisSparseMatrix), composition in ppl::MatrixEngine, the snapshot codec
// (tree/tree_io.h), and full-relation payloads above the dense ceiling.
// It can be read (the monadic kernels run on the runs directly:
// SetRange / ClearRange / AnyInRange, never expanding the relation),
// built incrementally (Builder), converted from/to dense, and --
// the point -- multiplied, OR-ed, complemented and diagonal-filtered
// without ever expanding to the O(n^2)-bit dense form. That lifts the
// BitMatrix::kMaxDenseNodes ceiling from the full-relation evaluation
// path: a product of run-structured relations on a 1M-node tree costs
// O(runs) space instead of ~125 GB.
//
// Kernel shapes (the cuBool boolean-SpGEMM pattern from SNIPPETS.md §3,
// adapted to run-lists):
//
//   sparse x sparse   per output row, gather the b-rows selected by a's
//                     runs and merge their runs; when the gathered run
//                     count saturates (kDenseAccumRunFactor), switch to a
//                     word-parallel dense accumulator row and re-extract
//                     runs -- the SpGEMM "dense row fallback".
//   sparse x dense    OR whole bit-packed rows of b per source run
//                     (word-parallel, output dense).
//   dense x sparse    SetRowRange per (set bit, run) pair (output dense).
//
// Every sparse-output kernel takes a `max_runs` budget and fails with
// kResourceExhausted instead of letting an adversarial query (e.g.
// descendant masked by an alternating label on a path tree, whose masked
// relation has Theta(n^2) runs) grow the run list without bound. The
// planner (engine/planner.h) sizes the budget from kSparseEvalByteBudget.
#ifndef XPV_COMMON_SPARSE_MATRIX_H_
#define XPV_COMMON_SPARSE_MATRIX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "common/status.h"

namespace xpv {

/// One maximal run of set columns [begin, end) in a row.
struct IntervalRun {
  std::uint32_t begin;
  std::uint32_t end;

  bool operator==(const IntervalRun&) const = default;
};

/// Byte budget for one sparse evaluation's run storage. Sized so a worst
/// case sparse full-relation job stays far below the container's memory
/// while still admitting ~16M runs -- orders of magnitude beyond what
/// run-structured axis compositions produce on realistic trees. The
/// planner refuses (keeps refusing, as before this engine existed) plans
/// whose estimated run footprint exceeds this.
inline constexpr std::size_t kSparseEvalByteBudget = 128u << 20;

/// Per-row sorted, disjoint, non-adjacent (maximal) run lists in CSR
/// layout: row r's runs are runs_[row_offset_[r] .. row_offset_[r+1]).
/// The axis builders in tree/axes.cc emit O(|t|) runs for every axis
/// except ancestor and the sibling axes, which are bounded by O(|t| *
/// depth) resp. O(|t| * non-leaf-sibling count) and stay near-linear on
/// realistic shapes.
///
/// Read-kernel costs trade the dense words-per-row factor for
/// runs-per-row: ImageOf / AndOfRows touch only the selected rows' runs
/// (plus the words they cover), and RowsContaining rejects most rows with
/// two O(1) span tests before scanning any gap. Immutable once built and
/// safe to read concurrently.
class SparseBoolMatrix {
 public:
  /// Empty 0 x 0 matrix (so containers can default-build).
  SparseBoolMatrix() : n_(0), row_offset_{0} {}
  /// Takes ownership of a prebuilt CSR: row_offset has size n + 1, runs
  /// per row are sorted, disjoint and non-adjacent (maximal).
  SparseBoolMatrix(std::size_t n, std::vector<std::uint32_t> row_offset,
                   std::vector<IntervalRun> runs);

  /// Matrix dimension (number of tree nodes).
  std::size_t size() const { return n_; }
  /// Heap bytes of the CSR arrays.
  std::size_t resident_bytes() const {
    return row_offset_.size() * sizeof(std::uint32_t) +
           runs_.size() * sizeof(IntervalRun);
  }
  /// Total number of stored runs.
  std::size_t num_runs() const { return runs_.size(); }
  /// Runs of one row, for run-native consumers.
  std::pair<const IntervalRun*, const IntervalRun*> RunsOf(
      std::size_t row) const {
    return {runs_.data() + row_offset_[row],
            runs_.data() + row_offset_[row + 1]};
  }

  /// Single-cell probe: binary search over the row's runs.
  bool Get(std::size_t row, std::size_t col) const;
  /// Materializes one row into `out`, resizing it to size() if needed;
  /// hot loops pass the same `out` every call (pooled scratch).
  void RowInto(std::size_t row, BitVector& out) const;
  /// Row `row` as a freshly allocated BitVector.
  BitVector Row(std::size_t row) const;

  // Monadic kernels, semantics as on BitMatrix.
  BitVector ImageOf(const BitVector& rows) const;
  BitVector AndOfRows(const BitVector& rows) const;
  BitVector RowsContaining(const BitVector& cols) const;
  BitVector NonEmptyRows() const;
  std::size_t Count() const;

  /// Dense copy, one SetRowRange per run. Fails with kResourceExhausted
  /// beyond BitMatrix::kMaxDenseNodes -- callers on the full-relation
  /// path are gated by the planner (engine/planner.h) before reaching it.
  Result<BitMatrix> ToDense() const;

  /// Incremental CSR construction. Append() takes rows in non-decreasing
  /// order and, within a row, runs in increasing begin order; overlapping
  /// or adjacent runs are coalesced into maximal ones. With a nonzero
  /// `max_runs`, exceeding it fails the *build* (Append reports the
  /// overflow, Finish returns kResourceExhausted) instead of growing
  /// without bound.
  class Builder {
   public:
    explicit Builder(std::size_t n, std::size_t max_runs = 0);

    /// Adds [begin, end) to `row`; empty ranges are ignored. Returns false
    /// once the run budget is exceeded (the builder is then poisoned and
    /// Finish fails).
    bool Append(std::uint32_t row, std::uint32_t begin, std::uint32_t end);
    /// ORs the set bits of `bits` into `row` as coalesced runs,
    /// word-parallel run extraction.
    bool AppendBits(std::uint32_t row, const BitVector& bits);

    Result<SparseBoolMatrix> Finish();

    std::size_t num_runs() const { return runs_.size(); }

   private:
    void SealThrough(std::uint32_t row);

    std::size_t n_;
    std::size_t max_runs_;
    bool overflowed_ = false;
    std::uint32_t next_row_ = 0;  // rows < next_row_ are sealed
    std::vector<std::uint32_t> row_offset_;
    std::vector<IntervalRun> runs_;
  };

  /// Exact sparse copy of a dense matrix (word-parallel run extraction).
  static SparseBoolMatrix FromDense(const BitMatrix& m);

  /// Boolean product this . b with sparse output: SpGEMM-style per-row run
  /// merging, falling back to a word-parallel dense accumulator row when
  /// the gathered run count saturates (see kDenseAccumRunFactor).
  Result<SparseBoolMatrix> Multiply(const SparseBoolMatrix& b,
                                    std::size_t max_runs = 0) const;
  /// this . b for dense b: ORs whole bit-packed rows of b, word-parallel;
  /// the output is dense (and bounded by b's existing allocation size).
  BitMatrix MultiplyDense(const BitMatrix& b) const;
  /// a . this for dense a: SetRowRange per (set bit of a's row, run).
  BitMatrix MultiplyDenseLeft(const BitMatrix& a) const;

  /// Elementwise OR: two-pointer merge of both rows' run lists.
  Result<SparseBoolMatrix> Or(const SparseBoolMatrix& b,
                              std::size_t max_runs = 0) const;
  /// ORs this matrix into a dense accumulator of the same size.
  void OrInto(BitMatrix& out) const;

  /// Elementwise complement. Gap inversion: the complement of a row with r
  /// runs has at most r + 1 runs, so the result is always representable
  /// within (num_runs + n) runs and never needs a budget.
  SparseBoolMatrix Complement() const;
  /// The paper's [M]: diagonal of nonempty rows (single-run rows).
  SparseBoolMatrix FilterDiagonal() const;

  /// Per-output-row threshold factor for the SpGEMM dense-row fallback:
  /// when a product row gathers more than max(kDenseAccumMinRuns,
  /// n / kDenseAccumRunFactor) candidate runs, sorting and merging them
  /// costs more word ops than blitting a ceil(n/64)-word accumulator row
  /// and re-extracting maximal runs, so the kernel switches per row.
  static constexpr std::size_t kDenseAccumRunFactor = 256;
  static constexpr std::size_t kDenseAccumMinRuns = 32;

 private:
  std::size_t n_;
  std::vector<std::uint32_t> row_offset_;  // size n_ + 1
  std::vector<IntervalRun> runs_;
};

}  // namespace xpv

#endif  // XPV_COMMON_SPARSE_MATRIX_H_
