// Binary serialization of indexed trees and interval-run axis relations.
//
// A Tree is index-rich after TreeBuilder::Finish(): depth, subtree size,
// post-order, the binary-lifting ancestor table, posting lists, and the
// planner's TreeStats. TreeIo serializes the node arrays *and* all of
// those indexes, so a decoded tree is immediately servable -- Decode()
// never calls BuildIndexes() and never re-parses surface syntax. That is
// the whole point of the persistence layer: reload cost is a bounded
// number of bounds-checked memcpys, not O(n log n) index construction
// (the restart harness asserts this via Tree::GlobalIndexBuilds()). The
// planner's shape statistics (Tree::AxisShapes(), Tree::Targets()) are
// not part of the format: a decoded tree computes them on first use,
// like a built one.
//
// The byte format is little-endian and position-independent; framing,
// versioning, and checksums live one layer up in engine/snapshot.h --
// TreeIo assumes its input range was already CRC-validated but still
// bounds-checks every read and range-checks every node id, so a corrupt
// payload that slips past the CRC yields a typed kDataLoss error, never
// an out-of-bounds access.
#ifndef XPV_TREE_TREE_IO_H_
#define XPV_TREE_TREE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sparse_matrix.h"
#include "common/status.h"
#include "tree/tree.h"

namespace xpv {

/// Append-only little-endian byte sink over a std::string buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// u32 length prefix + raw bytes.
  void Str(const std::string& s);
  /// Raw little-endian dump of a u32 array (no length prefix; callers
  /// write the count separately when it is not implied by context).
  void U32Array(const std::vector<std::uint32_t>& values);

  std::size_t bytes_written() const { return out_->size(); }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reader over a byte range. Every read
/// fails with kDataLoss instead of running past the end, so truncated or
/// bit-flipped payloads surface as typed errors.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> U8();
  Result<std::uint32_t> U32();
  Result<std::uint64_t> U64();
  /// Reads a u32 length prefix + that many raw bytes.
  Result<std::string> Str(std::size_t max_len = kMaxStringLen);
  /// Reads exactly `count` little-endian u32s into `out`.
  Status U32Array(std::size_t count, std::vector<std::uint32_t>& out);

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  /// Longest label / name accepted by Str() by default: a corrupted
  /// length prefix must not trigger a multi-gigabyte allocation.
  static constexpr std::size_t kMaxStringLen = std::size_t{1} << 20;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Codec for Tree and SparseBoolMatrix payloads. Stateless; the class
/// exists only to be befriended by Tree so decoding can reconstitute the
/// private index arrays directly.
class TreeIo {
 public:
  /// Serializes `tree` (node arrays + every precomputed index) into `w`.
  static void EncodeTree(const Tree& tree, ByteWriter& w);
  /// Reconstitutes a tree without parsing or re-indexing. Validates
  /// structural invariants (pre-order parent links, id ranges, posting
  /// coverage) and fails with kDataLoss on any violation.
  static Result<Tree> DecodeTree(ByteReader& r);

  /// Serializes the CSR run list of a relation (a persisted axis).
  static void EncodeSparseMatrix(const SparseBoolMatrix& m, ByteWriter& w);
  /// Decodes a CSR run list; validates offsets are nondecreasing and runs
  /// are sorted, disjoint, non-adjacent, and within [0, n).
  static Result<SparseBoolMatrix> DecodeSparseMatrix(ByteReader& r);

  /// Hard ceiling on the decoded node count (and run count), so a
  /// corrupted size field cannot trigger an absurd allocation before
  /// validation gets a chance to reject the payload.
  static constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 31;
};

}  // namespace xpv

#endif  // XPV_TREE_TREE_IO_H_
