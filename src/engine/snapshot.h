// Versioned, checksummed on-disk segments for the document corpus.
//
// One segment file (`doc-<id>.xpvseg`) holds one document: its identity,
// its fully *indexed* tree (tree/tree_io.h -- reload never re-parses and
// never re-runs BuildIndexes), and optionally the interval-run forms of
// whichever axis relations were materialized when the segment was
// written, so a reloaded document's AxisCache starts warm. A snapshot
// directory additionally carries a `MANIFEST.xpv` naming the id set and
// the next fresh id, written last so a directory is either a complete
// snapshot or not a snapshot at all.
//
// Segment layout (all integers little-endian):
//
//   file header   magic "XPVSNAP1" | u32 version | u32 section count
//                 | u64 total file bytes | u32 CRC32(header)
//   section * N   u32 'SECT' | u32 type | u64 payload bytes
//                 | u32 CRC32(payload) | u32 CRC32(section header)
//                 | payload...
//
// Sections appear in ascending type order (meta, tree, axes) with no
// duplicates; the axes section is optional. Every failure mode is a
// typed Status, never UB or abort: torn/truncated/bit-flipped bytes and
// reordered sections are kDataLoss (message naming the bad section),
// a newer format version is kInvalidArgument, a missing file is
// kNotFound, and ENOSPC on write is kResourceExhausted. Loads go
// through a read-only MappedFile, so the page cache -- not a userspace
// copy -- backs the bytes while they are decoded, and CRC verification
// is one streaming pass over the map.
//
// This layer is deliberately store-agnostic: it speaks u64 document ids,
// Tree, and AxisCache. Residency policy (spill, fault-in, LRU) lives in
// engine/document_store.h.
#ifndef XPV_ENGINE_SNAPSHOT_H_
#define XPV_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bool_matrix.h"
#include "common/status.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"
#include "tree/tree.h"

namespace xpv::engine {

/// Read-only memory map of a whole file. Pages fault in lazily as the
/// decoder touches them; the map is released on destruction. Move-only.
class MappedFile {
 public:
  /// kNotFound when the path does not exist; kInternal for other OS
  /// errors. Empty files map to {nullptr, 0} successfully.
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Current segment / manifest format version. Loaders accept this
/// version only; a higher value on disk (written by a future build)
/// fails with kInvalidArgument rather than a misdecoded payload.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Section types, in their required file order.
enum class SectionType : std::uint32_t {
  kMeta = 1,
  kTree = 2,
  kAxes = 3,
};

/// Human-readable section name for error messages ("meta", "tree",
/// "axes", or "unknown").
std::string_view SectionTypeName(std::uint32_t type);

/// Identity carried inside a segment's meta section.
struct SegmentMeta {
  std::uint64_t document_id = 0;
  std::string name;
  /// True when the document was created by DocumentStore::Intern(); the
  /// loader re-derives the intern key from the decoded tree.
  bool interned = false;
};

/// A fully decoded segment.
struct LoadedSegment {
  SegmentMeta meta;
  Tree tree;
  /// Persisted axis relations in ascending Axis order (may be empty).
  std::vector<std::pair<Axis, SparseBoolMatrix>> axes;
  /// Bytes of the segment file that were memory-mapped for the load
  /// (feeds the store's mmap_bytes counter).
  std::size_t mapped_bytes = 0;
};

/// Segment file name for a document id: "doc-<id>.xpvseg".
std::string SegmentFileName(std::uint64_t document_id);

/// Serializes one document into `path` atomically (tmp file + fsync +
/// rename): a reader never observes a half-written segment, and a crash
/// mid-write leaves the previous segment (or no file) behind. `cache`
/// may be null; when present, every currently materialized axis relation
/// is persisted in interval-run form so reload starts warm.
Status WriteDocumentSegment(const std::string& path, std::uint64_t document_id,
                            const std::string& name, const Tree& tree,
                            const AxisCache* cache, bool interned);

/// Maps and decodes one segment, verifying the header, section framing,
/// and every section CRC before any payload is interpreted.
Result<LoadedSegment> LoadDocumentSegment(const std::string& path);

/// Converts a decoded axis relation into the representation a reloaded
/// cache would have built itself: dense below the cache's auto ceiling
/// (or when forced dense), run lists otherwise -- so a reloaded
/// AxisCache is bit-for-bit the cache a fresh build would produce.
BoolMatrix AxisMatrixForBacking(SparseBoolMatrix m, bool dense);

/// Snapshot directory manifest: the id set and the allocator watermark.
struct SnapshotManifest {
  std::uint64_t next_document_id = 1;
  std::vector<std::uint64_t> document_ids;
};

/// Writes `MANIFEST.xpv` into `dir` atomically. Called last by
/// DocumentStore::SaveSnapshot: a directory without a valid manifest is
/// not a snapshot.
Status WriteManifest(const std::string& dir, const SnapshotManifest& manifest);

/// Loads and validates `dir`'s manifest. kNotFound when absent.
Result<SnapshotManifest> LoadManifest(const std::string& dir);

}  // namespace xpv::engine

#endif  // XPV_ENGINE_SNAPSHOT_H_
