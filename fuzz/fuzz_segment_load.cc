// Fuzz target: the snapshot segment loader (engine/snapshot.h,
// LoadDocumentSegment), with a structure-aware mutator.
//
// The loader checksums everything before interpreting anything: file
// header CRC, then per-section header and payload CRCs. Blind byte
// flips therefore die in the CRC wall and never reach the decoders
// behind it, so LLVMFuzzerCustomMutator re-fixes every checksum (and
// the total-byte field) after mutating: flipped *payload* bytes arrive
// at TreeIo::DecodeTree / DecodeSparseMatrix / the meta parser as
// "validly framed" corruption -- exactly the depth the snapshot_test
// corruption battery samples by hand, explored here exhaustively. A
// small fraction of mutations skips the fix-up so the framing/CRC
// rejection paths stay covered too.
//
// The harness writes the input to a scratch file (the loader's contract
// is a path to mmap) and must observe either an OK load or a typed
// Status -- any crash, sanitizer report, or unbounded allocation is the
// finding.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>

#include "common/crc32.h"
#include "engine/snapshot.h"
#include "fuzz/fuzz_driver.h"

namespace {

// Framing constants mirrored from engine/snapshot.cc (kept private
// there on purpose: only the writer, the loader, and this mutator may
// speak the raw format).
constexpr char kMagic[8] = {'X', 'P', 'V', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8 + 4;
constexpr std::size_t kSectionHeaderBytes = 4 + 4 + 8 + 4 + 4;

std::uint32_t LoadU32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreU32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}
void StoreU64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Recomputes every CRC (and the total-bytes field) over the mutated
/// buffer, walking sections by their claimed sizes; stops at the first
/// frame that runs out of bounds (the loader will reject it there).
void FixChecksums(std::uint8_t* data, std::size_t size) {
  if (size < kFileHeaderBytes) return;
  StoreU64(data + 16, size);  // total_bytes
  std::size_t pos = kFileHeaderBytes;
  const std::uint32_t section_count = LoadU32(data + 12);
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (pos + kSectionHeaderBytes > size) break;
    std::uint8_t* header = data + pos;
    const std::uint64_t payload_size = LoadU64(header + 8);
    if (payload_size > size - pos - kSectionHeaderBytes) break;
    StoreU32(header + 16,
             xpv::Crc32(header + kSectionHeaderBytes,
                        static_cast<std::size_t>(payload_size)));
    StoreU32(header + 20, xpv::Crc32(header, kSectionHeaderBytes - 4));
    pos += kSectionHeaderBytes + payload_size;
  }
  StoreU32(data + kFileHeaderBytes - 4,
           xpv::Crc32(data, kFileHeaderBytes - 4));
}

}  // namespace

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned int seed) {
  (void)max_size;
  std::mt19937_64 rng(seed);
  if (size == 0) return 0;
  // Mutate a few bytes anywhere past the magic (header fields included:
  // section counts, sizes, and types are reachable corruption too).
  const std::size_t lo = size > sizeof(kMagic) ? sizeof(kMagic) : 0;
  const int flips = 1 + static_cast<int>(rng() % 8);
  for (int i = 0; i < flips; ++i) {
    data[lo + rng() % (size - lo)] ^=
        static_cast<std::uint8_t>(1u << (rng() % 8));
  }
  // Usually repair the framing so the corruption reaches the payload
  // decoders; sometimes leave it torn to keep the CRC wall itself hot.
  if (size >= sizeof(kMagic) &&
      std::memcmp(data, kMagic, sizeof(kMagic)) == 0 && rng() % 8 != 0) {
    FixChecksums(data, size);
  }
  return size;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const std::string path = [] {
    const char* tmp = std::getenv("TMPDIR");
    return std::string(tmp != nullptr ? tmp : "/tmp") +
           "/xpv_fuzz_segment_" + std::to_string(::getpid()) + ".xpvseg";
  }();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  // OK or typed Status are both fine; the crash is the finding.
  (void)xpv::engine::LoadDocumentSegment(path);
  ::unlink(path.c_str());
  return 0;
}
