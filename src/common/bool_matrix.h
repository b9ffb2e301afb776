// One square Boolean matrix type: a binary relation over tree nodes in
// whichever representation fits it.
//
// The paper's Section-4 evaluation treats every binary query as a
// |t| x |t| Boolean matrix. xpv holds that matrix in one of two forms:
//
//   BitMatrix          dense bit-packed rows (common/bit_matrix.h):
//                      word-parallel kernels, O(|t|^2) bits, bounded by
//                      BitMatrix::kMaxDenseNodes.
//   SparseBoolMatrix   CSR run lists (common/sparse_matrix.h): O(runs)
//                      space, the natural form of pre-order axis
//                      relations, usable at any tree size.
//
// A BoolMatrix is a value holding exactly one of them. Cached axis
// relations (tree/axis_cache.h), the matrix engine's intermediate results
// (ppl/matrix_engine.h) and RelationCache entries (ppl/relation_cache.h)
// all use it; consumers that only read -- cell probes, row
// materialization, the monadic set kernels -- never care which form they
// got, and the composition kernels dispatch on is_dense().
#ifndef XPV_COMMON_BOOL_MATRIX_H_
#define XPV_COMMON_BOOL_MATRIX_H_

#include <string_view>
#include <utility>
#include <variant>

#include "common/bit_matrix.h"
#include "common/sparse_matrix.h"
#include "common/status.h"

namespace xpv {

/// Which representation a relation is held in: the AxisCache's backing
/// policy, the matrix engine's composition mode and the planner's route
/// decision alike. kAuto picks per tree (AxisCache) or per node (engine)
/// from size and density; kDense / kSparse force one representation
/// end-to-end (tests, ablations, forced plans).
enum class MatrixRepr {
  kAuto,
  kDense,
  kSparse,
};

/// "auto" / "dense" / "sparse" (EnginePlanName-style; stats + plan dumps).
std::string_view MatrixReprName(MatrixRepr repr);

/// A square Boolean matrix, dense or run-list. All row/column indexes are
/// in [0, size()); values are immutable once built and safe to read
/// concurrently.
class BoolMatrix {
 public:
  BoolMatrix() : m_(BitMatrix()) {}
  // NOLINTNEXTLINE(google-explicit-constructor): a tagged union by design.
  BoolMatrix(BitMatrix m) : m_(std::move(m)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  BoolMatrix(SparseBoolMatrix m) : m_(std::move(m)) {}

  bool is_dense() const { return std::holds_alternative<BitMatrix>(m_); }
  const BitMatrix& dense() const { return std::get<BitMatrix>(m_); }
  const SparseBoolMatrix& sparse() const {
    return std::get<SparseBoolMatrix>(m_);
  }
  BitMatrix&& TakeDense() && { return std::get<BitMatrix>(std::move(m_)); }
  SparseBoolMatrix&& TakeSparse() && {
    return std::get<SparseBoolMatrix>(std::move(m_));
  }

  /// Matrix dimension (number of tree nodes).
  std::size_t size() const {
    return std::visit([](auto& m) { return m.size(); }, m_);
  }
  /// Heap bytes held by the representation (payload only). Drives
  /// AxisCache::approx_resident_bytes(), the DocumentStore hot-cache LRU
  /// budget and RelationCache accounting.
  std::size_t resident_bytes() const {
    return std::visit([](auto& m) { return m.resident_bytes(); }, m_);
  }

  bool Get(std::size_t row, std::size_t col) const {
    return std::visit([&](auto& m) { return m.Get(row, col); }, m_);
  }
  /// Materializes one row into `out`, resizing it to size() if needed.
  /// Hot loops pass the same `out` every call -- that reused vector is
  /// the pooled scratch; no per-row allocation happens after the first.
  void RowInto(std::size_t row, BitVector& out) const {
    if (is_dense()) {
      dense().CopyRowInto(row, out);
    } else {
      sparse().RowInto(row, out);
    }
  }
  /// Number of set cells.
  std::size_t Count() const {
    return std::visit([](auto& m) { return m.Count(); }, m_);
  }

  /// image(N) = { v | exists u in N, M[u][v] }.
  BitVector ImageOf(const BitVector& rows) const {
    return std::visit([&](auto& m) { return m.ImageOf(rows); }, m_);
  }
  /// AND of the rows selected by `rows` (all-ones for an empty selection,
  /// the AND identity). Complementing the result gives the image of a
  /// node set under the complemented relation without materializing it.
  BitVector AndOfRows(const BitVector& rows) const {
    return std::visit([&](auto& m) { return m.AndOfRows(rows); }, m_);
  }
  /// Rows whose row set contains every column of `cols` (all rows for an
  /// empty `cols`). Complementing the result gives the preimage of a
  /// node set under the complemented relation.
  BitVector RowsContaining(const BitVector& cols) const {
    return std::visit([&](auto& m) { return m.RowsContaining(cols); }, m_);
  }
  /// Set of rows with at least one set bit (the domain of the relation).
  BitVector NonEmptyRows() const {
    return std::visit([](auto& m) { return m.NonEmptyRows(); }, m_);
  }

  /// Dense copy; kResourceExhausted above BitMatrix::kMaxDenseNodes.
  Result<BitMatrix> ToDense() const {
    if (is_dense()) return dense();
    return sparse().ToDense();
  }

 private:
  std::variant<BitMatrix, SparseBoolMatrix> m_;
};

}  // namespace xpv

#endif  // XPV_COMMON_BOOL_MATRIX_H_
