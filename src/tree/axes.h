// The navigational axes of Core XPath 2.0 (Fig. 1 of the paper):
// self, child, parent, descendant, ancestor, following_sibling,
// preceding_sibling -- all proper (non-reflexive) except self.
//
// Three views of an axis relation A(t) are provided:
//   * AxisMatrix        -- the full |t| x |t| Boolean relation (for the
//                          PPLbin matrix engine of Section 4),
//   * AxisImage         -- S_A(N) = { u' | exists u in N, A(u, u') } in
//                          O(|t|) time (the Gottlob-Koch-Pichler evaluation
//                          trick recalled in Section 4),
//   * AxisHolds         -- a single pair membership test (test oracle).
#ifndef XPV_TREE_AXES_H_
#define XPV_TREE_AXES_H_

#include <array>
#include <string_view>
#include <tuple>

#include "common/bit_matrix.h"
#include "common/sparse_matrix.h"
#include "common/status.h"
#include "tree/tree.h"

namespace xpv {

/// The axes of Core XPath 2.0 (Fig. 1).
enum class Axis {
  kSelf,
  kChild,
  kParent,
  kDescendant,
  kAncestor,
  kFollowingSibling,
  kPrecedingSibling,
};

inline constexpr std::array<Axis, 7> kAllAxes = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kDescendant,
    Axis::kAncestor,       Axis::kFollowingSibling,
    Axis::kPrecedingSibling,
};

static_assert(kAllAxes.size() ==
                  std::tuple_size_v<decltype(TargetStats::axes)>,
              "the shape statistics keep one AxisShape per axis");

/// XPath surface syntax name, e.g. "following_sibling".
std::string_view AxisName(Axis axis);
/// Parses an axis name; accepts both `following_sibling` and the XPath
/// spelling `following-sibling`.
Result<Axis> ParseAxis(std::string_view name);

/// The inverse relation's axis: child <-> parent, descendant <-> ancestor,
/// following_sibling <-> preceding_sibling, self <-> self.
Axis InverseAxis(Axis axis);

/// The shape of A(t): mean cells and runs per row of the canonical run
/// form AxisSparseMatrix builds (Tree::AxisShapes()).
inline const AxisShape& AxisShapeOf(const Tree& t, Axis axis) {
  return t.AxisShapes()[static_cast<std::size_t>(axis)];
}

/// The mean shape of a B-row at the target of an A-cell (Tree::
/// Targets()): what the composition A/B gathers per cell.
inline const AxisShape& TargetShapeOf(const TargetStats& targets, Axis a,
                                      Axis b) {
  return targets.axes[static_cast<std::size_t>(a)]
                     [static_cast<std::size_t>(b)];
}

/// True iff (u, v) is in A(t), i.e. navigating axis A from u reaches v.
bool AxisHolds(const Tree& t, Axis axis, NodeId u, NodeId v);

/// The full relation A(t) as a Boolean matrix (rows = start nodes).
BitMatrix AxisMatrix(const Tree& t, Axis axis);

/// The full relation A(t) as a succinct SparseBoolMatrix: per-row sorted run
/// lists built directly from the pre-order index intervals in
/// O(|t| + total runs) time, never touching O(|t|^2) bits. Total runs are
/// O(|t|) for self/child/parent/descendant and bounded by the ancestor
/// chain length resp. non-leaf sibling count for the remaining axes --
/// O(|t| log |t|) on balanced or random trees.
SparseBoolMatrix AxisSparseMatrix(const Tree& t, Axis axis);

/// Computes S_A(N) = image of node set N under A(t) in O(|t|) time,
/// relying on the pre-order numbering of built trees.
BitVector AxisImage(const Tree& t, Axis axis, const BitVector& from);

/// Node set { v | label(v) == label } as a BitVector; all nodes when
/// `label` is empty (the wildcard name test `*`).
BitVector LabelSet(const Tree& t, std::string_view label);

}  // namespace xpv

#endif  // XPV_TREE_AXES_H_
