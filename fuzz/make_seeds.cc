// Seed-corpus generator for the fuzz/ harnesses.
//
//   make_seeds OUT_DIR
//
// writes OUT_DIR/<target>/<seed-name> for every harness. The checked-in
// corpora under fuzz/corpus/ were produced by this tool; regenerate and
// re-commit after changing a surface grammar or the segment format so
// the seeds keep exercising current syntax. Regression inputs for
// fuzz-found bugs (the deep-nesting reproducers) are emitted here too --
// they replay on every ctest run via the *_corpus entries.
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/snapshot.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"
#include "tree/tree_io.h"

namespace {

void WriteSeed(const std::string& dir, const std::string& name,
               const std::string& bytes) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_seeds: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::string TargetDir(const std::string& root, const std::string& target) {
  const std::string dir = root + "/" + target;
  ::mkdir(dir.c_str(), 0777);
  return dir;
}

std::string Repeat(std::string_view piece, std::size_t times,
                   std::string_view tail) {
  std::string s;
  s.reserve(piece.size() * times + tail.size());
  for (std::size_t i = 0; i < times; ++i) s.append(piece);
  s.append(tail);
  return s;
}

void XpathSeeds(const std::string& root) {
  const std::string dir = TargetDir(root, "xpath_parser");
  WriteSeed(dir, "child_label", "child::book");
  WriteSeed(dir, "composition", "child::book / child::title");
  WriteSeed(dir, "union_star", "child::* union descendant::author");
  WriteSeed(dir, "full_axes",
            "ancestor::a / self::b / descendant::c / parent::d / "
            "following-sibling::e / preceding-sibling::f");
  WriteSeed(dir, "set_ops",
            "descendant::a intersect descendant::b except child::c");
  WriteSeed(dir, "test_qualified",
            "child::book[child::title and not(child::price)]");
  WriteSeed(dir, "test_nested",
            "descendant::section[child::para[child::emph] or "
            "(child::note and not(parent::appendix))]");
  WriteSeed(dir, "for_expr",
            "for $x in child::book return $x / child::title");
  WriteSeed(dir, "is_test", "child::book[. is $root]");
  WriteSeed(dir, "abbreviated", "/book//section/para[.//emph]");
  WriteSeed(dir, "abbreviated_steps", "a/b/../c//*[d]");
  // Regression: unbounded recursion before the kMaxNestingDepth guard in
  // xpath/parser.cc overflowed the stack on deep parenthesis nests.
  WriteSeed(dir, "regression_deep_parens", Repeat("(", 4000, "child::a"));
  WriteSeed(dir, "regression_deep_not", Repeat("not(", 4000, "child::a"));
}

void PplSeeds(const std::string& root) {
  const std::string dir = TargetDir(root, "ppl_parser");
  WriteSeed(dir, "step", "child::book");
  WriteSeed(dir, "self_dot", ".");
  WriteSeed(dir, "composition", "child::book / child::title");
  WriteSeed(dir, "union", "child::a union parent::b union self::*");
  WriteSeed(dir, "complement", "except child::a");
  WriteSeed(dir, "filter", "[child::title] / descendant::emph");
  WriteSeed(dir, "mixed",
            "(child::a union except (descendant::b / parent::*)) / "
            "[self::c union .]");
  // Regression: deep prefix/paren nesting (see ppl/parser.cc ParseUnion
  // and ParsePrefix depth guards).
  WriteSeed(dir, "regression_deep_parens", Repeat("(", 4000, "child::a"));
  WriteSeed(dir, "regression_deep_complement",
            Repeat("except ", 4000, "child::a"));
}

void HclSeeds(const std::string& root) {
  const std::string dir = TargetDir(root, "hcl_parser");
  WriteSeed(dir, "var", "x");
  WriteSeed(dir, "nodes", "nodes");
  WriteSeed(dir, "step", "child::book");
  WriteSeed(dir, "union", "x u child::a u nodes");
  WriteSeed(dir, "braced_ppl", "{child::a / descendant::b} / x");
  WriteSeed(dir, "filtered",
            "[child::title u y] / descendant::section / nodes");
  // Regression: hcl/parser.cc ParseUnion depth guard ("((((..." and
  // "[[[[..." both recurse through it).
  WriteSeed(dir, "regression_deep_parens", Repeat("(", 4000, "x"));
  WriteSeed(dir, "regression_deep_brackets", Repeat("[", 4000, "x"));
}

/// Prefix byte steers fuzz_tree_decode: even = DecodeTree, odd =
/// DecodeSparseMatrix.
void TreeDecodeSeeds(const std::string& root) {
  const std::string dir = TargetDir(root, "tree_decode");
  xpv::Rng rng(7);

  const xpv::Tree biblio = xpv::BibliographyTree(rng, 4);
  {
    std::string bytes(1, '\0');
    xpv::ByteWriter w(&bytes);
    xpv::TreeIo::EncodeTree(biblio, w);
    WriteSeed(dir, "tree_biblio", bytes);
  }
  {
    const xpv::Tree deep = xpv::PathTree(64, "p");
    std::string bytes(1, '\0');
    xpv::ByteWriter w(&bytes);
    xpv::TreeIo::EncodeTree(deep, w);
    WriteSeed(dir, "tree_path64", bytes);
  }
  {
    const xpv::Tree wide = xpv::StarTree(48);
    std::string bytes(1, '\0');
    xpv::ByteWriter w(&bytes);
    xpv::TreeIo::EncodeTree(wide, w);
    WriteSeed(dir, "tree_star48", bytes);
  }
  {
    // Interval-run form of a real axis relation, as the snapshot axes
    // section stores it.
    xpv::AxisCache cache(biblio, xpv::MatrixRepr::kSparse);
    std::string bytes(1, '\1');
    xpv::ByteWriter w(&bytes);
    xpv::TreeIo::EncodeSparseMatrix(
        cache.Matrix(xpv::Axis::kDescendant).sparse(), w);
    WriteSeed(dir, "matrix_descendant", bytes);
  }
  // Regression: a 16-byte input claiming 2^31 nodes provoked a
  // multi-gigabyte reserve before tree_io.cc validated the count against
  // the remaining payload.
  {
    std::string bytes(1, '\0');
    xpv::ByteWriter w(&bytes);
    w.U32(0x7fffffffu);  // node count far beyond the payload
    w.U32(3);            // alphabet size
    WriteSeed(dir, "regression_huge_node_count", bytes);
  }
}

void SegmentSeeds(const std::string& root) {
  const std::string dir = TargetDir(root, "segment_load");
  xpv::Rng rng(11);

  const xpv::Tree biblio = xpv::BibliographyTree(rng, 3);
  {
    // Bare segment: meta + tree sections only.
    const std::string path = dir + "/segment_bare";
    xpv::Status st = xpv::engine::WriteDocumentSegment(
        path, 1, "biblio", biblio, /*cache=*/nullptr, /*interned=*/false);
    if (!st.ok()) {
      std::fprintf(stderr, "make_seeds: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  {
    // Warm segment: axes section carrying two materialized relations.
    xpv::AxisCache cache(biblio, xpv::MatrixRepr::kSparse);
    cache.Matrix(xpv::Axis::kChild);
    cache.Matrix(xpv::Axis::kDescendant);
    const std::string path = dir + "/segment_with_axes";
    xpv::Status st = xpv::engine::WriteDocumentSegment(
        path, 2, "biblio-warm", biblio, &cache, /*interned=*/true);
    if (!st.ok()) {
      std::fprintf(stderr, "make_seeds: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  {
    const xpv::Tree tiny = xpv::PathTree(3);
    const std::string path = dir + "/segment_tiny";
    xpv::Status st = xpv::engine::WriteDocumentSegment(
        path, 3, "tiny", tiny, /*cache=*/nullptr, /*interned=*/false);
    if (!st.ok()) {
      std::fprintf(stderr, "make_seeds: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  ::mkdir(root.c_str(), 0777);
  XpathSeeds(root);
  PplSeeds(root);
  HclSeeds(root);
  TreeDecodeSeeds(root);
  SegmentSeeds(root);
  std::printf("make_seeds: corpora written under %s\n", root.c_str());
  return 0;
}
