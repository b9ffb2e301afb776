// Fuzz target: the binary tree / run-list matrix codec (tree/tree_io.h).
//
// The first input byte selects the decoder (even = tree, odd = run-list
// matrix); the rest is the payload. Beyond crash-freedom -- every
// malformed payload must come back as a typed Status, never a wild read
// or absurd allocation -- accepted payloads must re-encode stably:
// encode(decode(x)) must itself decode, and encode twice identically.
#include <cstdlib>
#include <string>

#include "fuzz/fuzz_driver.h"
#include "tree/tree.h"
#include "tree/tree_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const bool decode_matrix = (data[0] & 1) != 0;
  xpv::ByteReader reader(data + 1, size - 1);
  if (decode_matrix) {
    xpv::Result<xpv::SparseBoolMatrix> m =
        xpv::TreeIo::DecodeSparseMatrix(reader);
    if (!m.ok()) return 0;
    std::string encoded;
    xpv::ByteWriter w(&encoded);
    xpv::TreeIo::EncodeSparseMatrix(m.value(), w);
    xpv::ByteReader reread(
        reinterpret_cast<const std::uint8_t*>(encoded.data()),
        encoded.size());
    xpv::Result<xpv::SparseBoolMatrix> m2 =
        xpv::TreeIo::DecodeSparseMatrix(reread);
    if (!m2.ok()) std::abort();
    std::string encoded2;
    xpv::ByteWriter w2(&encoded2);
    xpv::TreeIo::EncodeSparseMatrix(m2.value(), w2);
    if (encoded2 != encoded) std::abort();
    return 0;
  }
  xpv::Result<xpv::Tree> tree = xpv::TreeIo::DecodeTree(reader);
  if (!tree.ok()) return 0;
  std::string encoded;
  xpv::ByteWriter w(&encoded);
  xpv::TreeIo::EncodeTree(tree.value(), w);
  xpv::ByteReader reread(
      reinterpret_cast<const std::uint8_t*>(encoded.data()), encoded.size());
  xpv::Result<xpv::Tree> tree2 = xpv::TreeIo::DecodeTree(reread);
  if (!tree2.ok()) std::abort();
  std::string encoded2;
  xpv::ByteWriter w2(&encoded2);
  xpv::TreeIo::EncodeTree(tree2.value(), w2);
  if (encoded2 != encoded) std::abort();
  return 0;
}
