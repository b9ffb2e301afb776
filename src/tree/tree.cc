#include "tree/tree.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cctype>
#include <mutex>
#include <numeric>

#include "tree/axes.h"

namespace xpv {

namespace {
// Process-wide construction counters; see the header. Relaxed is enough:
// tests read them only at quiescent points (before/after an operation).
std::atomic<std::uint64_t> g_index_builds{0};
std::atomic<std::uint64_t> g_parses{0};
}  // namespace

std::uint64_t Tree::GlobalIndexBuilds() {
  return g_index_builds.load(std::memory_order_relaxed);
}

std::uint64_t Tree::GlobalParses() {
  return g_parses.load(std::memory_order_relaxed);
}

std::size_t Tree::NumChildren(NodeId v) const {
  std::size_t count = 0;
  for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) ++count;
  return count;
}

std::vector<NodeId> Tree::Children(NodeId v) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) {
    out.push_back(c);
  }
  return out;
}

const std::vector<NodeId>& Tree::LabelPostings(LabelId id) const {
  static const std::vector<NodeId> kEmpty;
  if (id >= label_postings_.size()) return kEmpty;
  return label_postings_[id];
}

std::size_t Tree::LabelFrequency(std::string_view name) const {
  return LabelPostings(FindLabel(name)).size();
}

void Tree::BuildIndexes() {
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
  const NodeId n = static_cast<NodeId>(parent_.size());
  depth_.assign(n, 0);
  subtree_size_.assign(n, 1);
  post_.assign(n, 0);
  // Pre-order ids mean parents precede children: one forward sweep fills
  // depths, one backward sweep accumulates subtree sizes bottom-up.
  for (NodeId v = 1; v < n; ++v) depth_[v] = depth_[parent_[v]] + 1;
  for (NodeId v = n; v-- > 1;) subtree_size_[parent_[v]] += subtree_size_[v];
  // post(v) = pre(v) + SubtreeSize(v) - 1 - Depth(v): v closes after its
  // whole subtree (pre + size - 1) but before its open ancestors (depth).
  for (NodeId v = 0; v < n; ++v) {
    post_[v] = v + static_cast<NodeId>(subtree_size_[v]) - 1 - depth_[v];
  }
  label_postings_.assign(labels_.size(), {});
  for (NodeId v = 0; v < n; ++v) label_postings_[label_[v]].push_back(v);
  // Binary-lifting ancestor table, sized to the maximum depth.
  std::uint32_t max_depth = 0;
  for (NodeId v = 0; v < n; ++v) max_depth = std::max(max_depth, depth_[v]);
  std::size_t levels = 0;
  while ((std::uint64_t{1} << levels) < std::uint64_t{max_depth} + 1) ++levels;
  up_.assign(levels, std::vector<NodeId>(n, kNoNode));
  if (levels > 0) up_[0] = parent_;
  for (std::size_t k = 1; k < levels; ++k) {
    for (NodeId v = 0; v < n; ++v) {
      NodeId half = up_[k - 1][v];
      up_[k][v] = half == kNoNode ? kNoNode : up_[k - 1][half];
    }
  }
  // Summary statistics for the query planner's cost model.
  stats_.node_count = n;
  stats_.max_depth = max_depth;
  stats_.alphabet_size = labels_.size();
  std::vector<std::size_t> fanout(n, 0);
  for (NodeId v = 1; v < n; ++v) ++fanout[parent_[v]];
  stats_.max_fanout = 0;
  for (NodeId v = 0; v < n; ++v) {
    stats_.max_fanout = std::max(stats_.max_fanout, fanout[v]);
  }
  stats_.max_label_posting = 0;
  stats_.min_label_posting = n;
  for (const std::vector<NodeId>& postings : label_postings_) {
    stats_.max_label_posting =
        std::max(stats_.max_label_posting, postings.size());
    stats_.min_label_posting =
        std::min(stats_.min_label_posting, postings.size());
  }
  if (label_postings_.empty()) stats_.min_label_posting = 0;
  ResetShapeStats();
}

namespace {

/// The axes whose rows vary in shape from node to node; self and parent
/// rows hold one cell (none for the root's parent row).
constexpr std::size_t kVarying = 5;
constexpr Axis kVaryingAxes[kVarying] = {
    Axis::kChild, Axis::kDescendant, Axis::kAncestor,
    Axis::kFollowingSibling, Axis::kPrecedingSibling};

constexpr std::size_t At(Axis a) { return static_cast<std::size_t>(a); }

/// sum_v w[v] * x[v], exactly: 64-bit integer partial sums over chunks
/// short enough not to overflow, folded into a double.
double Dot(const std::vector<std::uint32_t>& w,
           const std::vector<std::uint32_t>& x) {
  constexpr std::size_t kChunk = 1 << 12;
  double total = 0.0;
  for (std::size_t begin = 0; begin < w.size(); begin += kChunk) {
    const std::size_t end = std::min(w.size(), begin + kChunk);
    std::uint64_t partial = 0;
    for (std::size_t v = begin; v < end; ++v) {
      partial += std::uint64_t{w[v]} * x[v];
    }
    total += static_cast<double>(partial);
  }
  return total;
}

double Sum(const std::vector<std::uint32_t>& x) {
  return std::accumulate(x.begin(), x.end(), 0.0);
}

}  // namespace

/// Tree::AxisShapes() and Tree::Targets(), each computed on first use.
struct Tree::LazyShapes {
  std::once_flag axes_once;
  std::array<AxisShape, kAllAxes.size()> axes{};
  std::array<double, kAllAxes.size()> pair_runs{};
  std::once_flag targets_once;
  TargetStats targets;
};

void Tree::ResetShapeStats() { shapes_ = std::make_shared<LazyShapes>(); }

const std::array<AxisShape, 7>& Tree::AxisShapes() const {
  static const std::array<AxisShape, 7> kEmpty{};
  if (shapes_ == nullptr) return kEmpty;
  std::call_once(shapes_->axes_once, [this] {
    ComputeAxisShapes(&shapes_->axes, &shapes_->pair_runs);
  });
  return shapes_->axes;
}

const std::array<double, 7>& Tree::PairRuns() const {
  static const std::array<double, 7> kEmpty{};
  if (shapes_ == nullptr) return kEmpty;
  AxisShapes();
  return shapes_->pair_runs;
}

const TargetStats& Tree::Targets() const {
  static const TargetStats kEmpty{};
  if (shapes_ == nullptr) return kEmpty;
  std::call_once(shapes_->targets_once,
                 [this] { shapes_->targets = ComputeTargets(); });
  return shapes_->targets;
}

void Tree::ComputeRowShapes(RowShapes* cells, RowShapes* runs) const {
  // Each recurrence mirrors how AxisSparseMatrix (tree/axes.cc) lays
  // out the canonical runs of a row, so the totals are exact. Only array
  // reads, no pointer chasing: on a corrupt-but-range-checked snapshot
  // the sweeps stay bounded and merely yield wrong statistics.
  const std::size_t n = parent_.size();
  enum { kC, kD, kA, kF, kP };  // kVaryingAxes order
  for (std::size_t i = 0; i < kVarying; ++i) {
    (*cells)[i].assign(n, 0);
    (*runs)[i].assign(n, 0);
  }
  for (std::size_t v = 0; v < n; ++v) {
    (*cells)[kD][v] = subtree_size_[v] - 1;
    (*runs)[kD][v] = subtree_size_[v] > 1 ? 1 : 0;
    const NodeId p = parent_[v];
    const NodeId ps = prev_sibling_[v];
    if (p != kNoNode && p < v) {
      ++(*cells)[kC][p];
      // A child opens a new run in its parent's row unless it directly
      // follows a leaf sibling (consecutive ids).
      if (ps == kNoNode || ps + 1 != v) ++(*runs)[kC][p];
      // Row v = row p + {p}; p extends row p's last run iff that run ends
      // at p, i.e. p is the first child of its own parent (id p - 1).
      const bool p_extends = p > 0 && parent_[p] == p - 1;
      (*cells)[kA][v] = depth_[v];
      (*runs)[kA][v] = (*runs)[kA][p] + (p_extends ? 0 : 1);
    }
    if (ps != kNoNode && ps < v) {
      // Row v = row ps + {ps}; ps extends row ps's last run iff that run
      // ends at ps, i.e. ps's own previous sibling is the leaf ps - 1.
      const NodeId pps = prev_sibling_[ps];
      const bool extends = pps != kNoNode && pps + 1 == ps;
      (*cells)[kP][v] = (*cells)[kP][ps] + 1;
      (*runs)[kP][v] = (*runs)[kP][ps] + (extends ? 0 : 1);
    }
  }
  // following_sibling: row v = {ns} + row ns, where ns has the larger id;
  // {ns} joins row ns's first run iff ns is a leaf followed by a sibling.
  for (std::size_t v = n; v-- > 0;) {
    const NodeId ns = next_sibling_[v];
    if (ns == kNoNode || ns <= v) continue;
    const bool joins = (*runs)[kF][ns] > 0 && subtree_size_[ns] == 1;
    (*cells)[kF][v] = (*cells)[kF][ns] + 1;
    (*runs)[kF][v] = (*runs)[kF][ns] + (joins ? 0 : 1);
  }
}

void Tree::ComputeAxisShapes(std::array<AxisShape, 7>* shapes,
                             std::array<double, 7>* pair_runs) const {
  *shapes = {};
  *pair_runs = {};
  const std::size_t n = parent_.size();
  if (n == 0) return;
  RowShapes cells;
  RowShapes runs;
  ComputeRowShapes(&cells, &runs);
  const double dn = static_cast<double>(n);
  (*shapes)[At(Axis::kSelf)] = {1.0, 1.0};
  // Every node but the root has one parent cell.
  (*shapes)[At(Axis::kParent)] = {(dn - 1.0) / dn, (dn - 1.0) / dn};
  for (std::size_t i = 0; i < kVarying; ++i) {
    (*shapes)[At(kVaryingAxes[i])] = {Sum(cells[i]) / dn, Sum(runs[i]) / dn};
  }
  if (n == 1) return;
  // Runs of the union of rows v - 1 and v. Either v - 1 is v's parent
  // (v is its first child), or v - 1 is the last node -- a leaf -- of the
  // subtree of v's previous sibling. Node ids are range-checked, as in
  // ComputeRowShapes.
  enum { kC, kD, kA, kF, kP };  // ComputeRowShapes' order
  const auto valid = [n](NodeId x) { return x < n; };
  // The last child of x is a leaf iff it ends x's subtree.
  const auto last_child_is_leaf = [&](NodeId x) {
    const std::size_t end = std::size_t{x} + subtree_size_[x];
    return end >= 1 && end - 1 < n && parent_[end - 1] == x;
  };
  std::array<double, 7> total{};
  for (NodeId v = 1; v < n; ++v) {
    const NodeId u = v - 1;
    const NodeId p = parent_[v];
    if (!valid(p)) continue;
    const bool first_child = p == u;
    const auto r = [&](std::size_t axis, NodeId x) {
      return static_cast<double>(runs[axis][x]);
    };
    total[At(Axis::kSelf)] += 1.0;  // u and v are adjacent
    // parent: {parent(u)} and {p}, adjacent or equal unless u's parent
    // lies deeper in the previous sibling's subtree.
    const NodeId pu = parent_[u];
    total[At(Axis::kParent)] +=
        !valid(pu) || pu == p || pu == p + 1 || pu + 1 == p ? 1.0 : 2.0;
    if (first_child) {
      // child: v's child row starts at v + 1, next to u's child v, and
      // ends next to v's next sibling when v's last child is a leaf.
      const double rv = r(kC, v);
      const bool ends_next_to_sibling =
          rv > 0.0 && last_child_is_leaf(v) && valid(next_sibling_[v]);
      total[At(Axis::kChild)] += r(kC, u) + rv - (rv > 0.0 ? 1.0 : 0.0) -
                                 (ends_next_to_sibling ? 1.0 : 0.0);
      total[At(Axis::kDescendant)] += r(kD, u);  // D(v) within D(u)
      total[At(Axis::kAncestor)] += r(kA, v);    // A(u) within A(v)
      // following_sibling: v's row (inside u's subtree) joins u's row
      // when u's last child, a leaf, ends u's subtree.
      const double fv = r(kF, v);
      const double fu = r(kF, u);
      total[At(Axis::kFollowingSibling)] +=
          fv + fu - (fv > 0.0 && fu > 0.0 && last_child_is_leaf(u) ? 1.0
                                                                     : 0.0);
      total[At(Axis::kPrecedingSibling)] += r(kP, u);  // P(v) is empty
    } else {
      // u is a leaf: no child or descendant row of its own.
      const NodeId ps = prev_sibling_[v];
      total[At(Axis::kChild)] += r(kC, v);
      total[At(Axis::kDescendant)] += r(kD, v);
      total[At(Axis::kAncestor)] += r(kA, u);  // A(v) within A(u)
      if (ps == u) {
        // u is v's previous sibling: F(v) within F(u), P(u) within P(v).
        total[At(Axis::kFollowingSibling)] += r(kF, u);
        total[At(Axis::kPrecedingSibling)] += r(kP, v);
      } else {
        // u ends ps's subtree as its parent's last child: F(u) is empty,
        // and P(u) starts at ps + 1, next to ps, when that parent is ps.
        const double pv = r(kP, v);
        const double pu = r(kP, u);
        total[At(Axis::kFollowingSibling)] += r(kF, v);
        total[At(Axis::kPrecedingSibling)] +=
            pv + pu - (pu > 0.0 && parent_[u] == ps ? 1.0 : 0.0);
      }
    }
  }
  for (std::size_t a = 0; a < total.size(); ++a) {
    (*pair_runs)[a] = total[a] / (dn - 1.0);
  }
}

TargetStats Tree::ComputeTargets() const {
  TargetStats out;
  {
    const std::size_t n = parent_.size();
    if (n == 0) return out;
    RowShapes cells;
    RowShapes runs;
    ComputeRowShapes(&cells, &runs);
    // The in-degree of v under A is its row size under the inverse axis:
    // 1 (self), "has a parent" (child), or a varying axis's cell count.
    enum { kC, kD, kA, kF, kP };  // ComputeRowShapes' order
    const auto in_degree = [&](Axis a, std::size_t v) -> double {
      switch (a) {
        case Axis::kSelf:
          return 1.0;
        case Axis::kChild:
          return parent_[v] != kNoNode ? 1.0 : 0.0;
        case Axis::kParent:
          return cells[kC][v];
        case Axis::kDescendant:
          return cells[kA][v];
        case Axis::kAncestor:
          return cells[kD][v];
        case Axis::kFollowingSibling:
          return cells[kP][v];
        case Axis::kPrecedingSibling:
          return cells[kF][v];
      }
      return 0.0;
    };
    const double dn = static_cast<double>(n);
    std::array<double, kAllAxes.size()> weight{};
    weight[At(Axis::kSelf)] = dn;
    weight[At(Axis::kChild)] = dn - 1.0;
    const std::array<AxisShape, 7>& axis_shapes = AxisShapes();
    out.axes[At(Axis::kSelf)] = axis_shapes;
    for (Axis b : kAllAxes) {
      // The root's own B-row, which weight "has a parent" leaves out.
      double root_cells = b == Axis::kSelf ? 1.0 : 0.0;
      double root_runs = root_cells;
      for (std::size_t i = 0; i < kVarying; ++i) {
        if (kVaryingAxes[i] != b) continue;
        root_cells = cells[i][0];
        root_runs = runs[i][0];
      }
      if (n > 1) {
        const AxisShape& mean = axis_shapes[At(b)];
        out.axes[At(Axis::kChild)][At(b)] = {
            (mean.cells_per_row * dn - root_cells) / (dn - 1.0),
            (mean.runs_per_row * dn - root_runs) / (dn - 1.0)};
      }
    }
    for (std::size_t wi = 0; wi < kVarying; ++wi) {
      // cells[wi] counts, per node, the in-degree under the inverse axis.
      const std::vector<std::uint32_t>& w = cells[wi];
      const Axis a = InverseAxis(kVaryingAxes[wi]);
      weight[At(a)] = Sum(w);
      if (weight[At(a)] == 0.0) continue;
      std::array<AxisShape, 7>& row = out.axes[At(a)];
      row[At(Axis::kSelf)] = {1.0, 1.0};
      // Only the root has no parent row.
      const double parented = (weight[At(a)] - w[0]) / weight[At(a)];
      row[At(Axis::kParent)] = {parented, parented};
      for (std::size_t i = 0; i < kVarying; ++i) {
        row[At(kVaryingAxes[i])] = {Dot(w, cells[i]) / weight[At(a)],
                                    Dot(w, runs[i]) / weight[At(a)]};
      }
    }
    // An L-labeled child x is a cell of the child row of its parent, so
    // it counts the parent's in-degree under each A.
    out.child_labels.assign(labels_.size(), {});
    for (std::size_t x = 0; x < n; ++x) {
      const NodeId p = parent_[x];
      if (p == kNoNode || p >= x) continue;
      for (Axis a : kAllAxes) {
        out.child_labels[label_[x]][At(a)] += in_degree(a, p);
      }
    }
    for (std::array<double, 7>& per_axis : out.child_labels) {
      for (std::size_t a = 0; a < per_axis.size(); ++a) {
        per_axis[a] = weight[a] > 0.0 ? per_axis[a] / weight[a] : 0.0;
      }
    }
    out.label_shapes.assign(labels_.size(), {});
    for (std::size_t x = 0; x < n; ++x) {
      std::array<AxisShape, 7>& shapes = out.label_shapes[label_[x]];
      shapes[At(Axis::kSelf)].cells_per_row += 1.0;
      shapes[At(Axis::kSelf)].runs_per_row += 1.0;
      const double parented = parent_[x] != kNoNode ? 1.0 : 0.0;
      shapes[At(Axis::kParent)].cells_per_row += parented;
      shapes[At(Axis::kParent)].runs_per_row += parented;
      for (std::size_t i = 0; i < kVarying; ++i) {
        shapes[At(kVaryingAxes[i])].cells_per_row += cells[i][x];
        shapes[At(kVaryingAxes[i])].runs_per_row += runs[i][x];
      }
    }
    for (LabelId l = 0; l < labels_.size(); ++l) {
      const double count = static_cast<double>(label_postings_[l].size());
      if (count == 0.0) continue;
      for (AxisShape& shape : out.label_shapes[l]) {
        shape.cells_per_row /= count;
        shape.runs_per_row /= count;
      }
    }
  }
  return out;
}

NodeId Tree::LeastCommonAncestor(NodeId u, NodeId v) const {
  if (IsAncestorOrSelf(u, v)) return u;
  if (IsAncestorOrSelf(v, u)) return v;
  // Lift u to its highest ancestor that is still NOT an ancestor of v;
  // that node's parent is the LCA.
  for (std::size_t k = up_.size(); k-- > 0;) {
    NodeId w = up_[k][u];
    if (w != kNoNode && !IsAncestorOrSelf(w, v)) u = w;
  }
  return parent_[u];
}

NodeId Tree::LeastCommonAncestor(const std::vector<NodeId>& nodes) const {
  assert(!nodes.empty());
  NodeId acc = nodes[0];
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    acc = LeastCommonAncestor(acc, nodes[i]);
  }
  return acc;
}

LabelId Tree::FindLabel(std::string_view name) const {
  auto it = label_ids_.find(std::string(name));
  return it == label_ids_.end() ? kNoLabel : it->second;
}

Tree Tree::Subtree(NodeId u) const {
  // Iterative pre-order copy (trees may be pathologically deep). The
  // subtree is the contiguous pre-order interval [u, u + SubtreeSize(u)),
  // so a single id sweep visits it in document order; closes are emitted
  // when the depth drops.
  TreeBuilder builder;
  const NodeId end = u + static_cast<NodeId>(subtree_size_[u]);
  const std::uint32_t base_depth = depth_[u];
  std::uint32_t open = 0;  // nodes currently open in the builder
  for (NodeId v = u; v < end; ++v) {
    const std::uint32_t rel_depth = depth_[v] - base_depth;
    while (open > rel_depth) {
      builder.Close();
      --open;
    }
    builder.Open(label_name(v));
    ++open;
  }
  while (open > 0) {
    builder.Close();
    --open;
  }
  Result<Tree> result = std::move(builder).Finish();
  assert(result.ok());
  return std::move(result).value();
}

std::size_t Tree::resident_bytes() const {
  const std::size_t n = parent_.size();
  // Five structure arrays + labels + post/depth/subtree, all n entries.
  std::size_t bytes = n * (6 * sizeof(NodeId) + sizeof(LabelId) +
                           2 * sizeof(std::uint32_t));
  for (const std::vector<NodeId>& level : up_) {
    bytes += level.size() * sizeof(NodeId);
  }
  // Posting lists hold each node exactly once.
  bytes += n * sizeof(NodeId) +
           label_postings_.size() * sizeof(std::vector<NodeId>);
  for (const std::string& label : labels_) {
    bytes += sizeof(std::string) + label.capacity();
  }
  // label_ids_ nodes: hash bucket pointer + node header + key string
  // header (characters counted via labels_ already share small-string
  // storage; charge capacity again only for heap-allocated keys).
  for (const auto& [key, id] : label_ids_) {
    (void)id;
    bytes += 4 * sizeof(void*) + sizeof(std::string) + key.capacity();
  }
  return bytes;
}

bool Tree::operator==(const Tree& other) const {
  if (size() != other.size()) return false;
  for (NodeId v = 0; v < size(); ++v) {
    if (parent_[v] != other.parent_[v] ||
        first_child_[v] != other.first_child_[v] ||
        next_sibling_[v] != other.next_sibling_[v] ||
        label_name(v) != other.label_name(v)) {
      return false;
    }
  }
  return true;
}

namespace {

// Both serializers are iterative sweeps over the pre-order interval of
// the serialized subtree (like Tree::Subtree), so pathologically deep
// trees serialize without call-stack recursion and without per-node
// temporary allocations: structure is recovered from the depth deltas.

void AppendTerm(const Tree& t, NodeId v, std::string* out) {
  const NodeId end = v + static_cast<NodeId>(t.SubtreeSize(v));
  const std::size_t base_depth = t.Depth(v);
  std::size_t prev = 0;  // relative depth of the previously emitted node
  *out += t.label_name(v);
  for (NodeId w = v + 1; w < end; ++w) {
    const std::size_t d = t.Depth(w) - base_depth;
    if (d > prev) {  // first child: descend exactly one level
      *out += '(';
    } else {  // next sibling of an ancestor (or of the previous node)
      out->append(prev - d, ')');
      *out += ',';
    }
    *out += t.label_name(w);
    prev = d;
  }
  out->append(prev, ')');
}

void AppendXml(const Tree& t, NodeId v, std::string* out) {
  const NodeId end = v + static_cast<NodeId>(t.SubtreeSize(v));
  const std::size_t base_depth = t.Depth(v);
  std::vector<NodeId> open;  // non-leaf nodes whose tag is still open
  for (NodeId w = v; w < end; ++w) {
    const std::size_t d = t.Depth(w) - base_depth;
    while (open.size() > d) {
      *out += "</";
      *out += t.label_name(open.back());
      *out += '>';
      open.pop_back();
    }
    *out += '<';
    *out += t.label_name(w);
    if (t.IsLeaf(w)) {
      *out += "/>";
    } else {
      *out += '>';
      open.push_back(w);
    }
  }
  while (!open.empty()) {
    *out += "</";
    *out += t.label_name(open.back());
    *out += '>';
    open.pop_back();
  }
}

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

}  // namespace

std::string Tree::ToTerm() const {
  std::string out;
  if (!empty()) AppendTerm(*this, root(), &out);
  return out;
}

std::string Tree::ToXml() const {
  std::string out;
  if (!empty()) AppendXml(*this, root(), &out);
  return out;
}

Result<Tree> Tree::ParseTerm(std::string_view text) {
  g_parses.fetch_add(1, std::memory_order_relaxed);
  std::size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  auto parse_name = [&]() -> std::string {
    std::size_t start = pos;
    if (pos < text.size() && IsNameStart(text[pos])) {
      ++pos;
      while (pos < text.size() && IsNameChar(text[pos])) ++pos;
    }
    return std::string(text.substr(start, pos - start));
  };

  TreeBuilder builder;
  // Iterative parse of the term grammar: node := name [ '(' node
  // ((','|ws) node)* ')' ]. The builder's open stack doubles as the parse
  // stack, so arbitrarily deep inputs (e.g. a 100k-deep chain) cannot
  // overflow the call stack.
  auto open_node = [&]() -> Status {
    skip_ws();
    std::string label = parse_name();
    if (label.empty()) {
      return Status::InvalidArgument("expected a label at offset " +
                                     std::to_string(pos));
    }
    builder.Open(label);
    return Status::OK();
  };
  XPV_RETURN_IF_ERROR(open_node());
  for (bool done = false; !done;) {
    skip_ws();
    if (pos < text.size() && text[pos] == '(') {
      // The just-opened node has children: descend into the first one.
      ++pos;
      skip_ws();
      if (pos < text.size() && text[pos] == ')') {
        return Status::InvalidArgument("empty child list at offset " +
                                       std::to_string(pos));
      }
      XPV_RETURN_IF_ERROR(open_node());
      continue;
    }
    // The just-opened node is a leaf: close it, then ascend until a next
    // sibling starts or the root closes.
    builder.Close();
    while (true) {
      skip_ws();
      if (builder.open_depth() == 0) {
        done = true;
        break;
      }
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        XPV_RETURN_IF_ERROR(open_node());
        break;
      }
      if (pos < text.size() && text[pos] == ')') {
        ++pos;
        builder.Close();  // the parent's child list ends here
        continue;
      }
      if (pos < text.size() && IsNameStart(text[pos])) {
        XPV_RETURN_IF_ERROR(open_node());
        break;
      }
      return Status::InvalidArgument("expected ',', ')' or a label at offset " +
                                     std::to_string(pos));
    }
  }
  skip_ws();
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing characters at offset " +
                                   std::to_string(pos));
  }
  return std::move(builder).Finish();
}

Result<Tree> Tree::ParseXml(std::string_view text) {
  g_parses.fetch_add(1, std::memory_order_relaxed);
  std::size_t pos = 0;
  TreeBuilder builder;
  std::vector<std::string> open_tags;

  auto skip_ws = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  auto parse_name = [&]() -> std::string {
    std::size_t start = pos;
    if (pos < text.size() && IsNameStart(text[pos])) {
      ++pos;
      while (pos < text.size() && (IsNameChar(text[pos]) || text[pos] == ':')) {
        ++pos;
      }
    }
    return std::string(text.substr(start, pos - start));
  };

  skip_ws();
  // Optional XML declaration / processing instructions and comments.
  while (pos + 1 < text.size() && text[pos] == '<' &&
         (text[pos + 1] == '?' || text[pos + 1] == '!')) {
    std::size_t end = text.find('>', pos);
    if (end == std::string_view::npos) {
      return Status::InvalidArgument("unterminated declaration");
    }
    pos = end + 1;
    skip_ws();
  }

  while (pos < text.size()) {
    skip_ws();
    if (pos >= text.size()) break;
    if (text[pos] != '<') {
      return Status::InvalidArgument(
          "text content is not supported by the navigational data model "
          "(offset " +
          std::to_string(pos) + ")");
    }
    ++pos;
    if (pos < text.size() && text[pos] == '/') {
      ++pos;
      std::string name = parse_name();
      skip_ws();
      if (pos >= text.size() || text[pos] != '>') {
        return Status::InvalidArgument("malformed closing tag");
      }
      ++pos;
      if (open_tags.empty() || open_tags.back() != name) {
        return Status::InvalidArgument("mismatched closing tag </" + name +
                                       ">");
      }
      open_tags.pop_back();
      builder.Close();
      if (open_tags.empty()) break;
      continue;
    }
    if (pos + 2 < text.size() && text[pos] == '!') {
      // Comment: <!-- ... -->
      std::size_t end = text.find("-->", pos);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated comment");
      }
      pos = end + 3;
      continue;
    }
    std::string name = parse_name();
    if (name.empty()) {
      return Status::InvalidArgument("expected element name at offset " +
                                     std::to_string(pos));
    }
    skip_ws();
    if (pos < text.size() && IsNameStart(text[pos])) {
      return Status::InvalidArgument(
          "attributes are not supported by the navigational data model "
          "(element <" +
          name + ">)");
    }
    builder.Open(name);
    if (pos + 1 < text.size() && text[pos] == '/' && text[pos + 1] == '>') {
      pos += 2;
      builder.Close();
      if (open_tags.empty()) break;
      continue;
    }
    if (pos < text.size() && text[pos] == '>') {
      ++pos;
      open_tags.push_back(name);
      continue;
    }
    return Status::InvalidArgument("malformed start tag <" + name + ">");
  }

  skip_ws();
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing characters after root element");
  }
  if (!open_tags.empty()) {
    return Status::InvalidArgument("unclosed element <" + open_tags.back() +
                                   ">");
  }
  return std::move(builder).Finish();
}

NodeId TreeBuilder::Open(std::string_view label) {
  NodeId id = static_cast<NodeId>(tree_.parent_.size());
  NodeId parent = stack_.empty() ? kNoNode : stack_.back();
  tree_.parent_.push_back(parent);
  tree_.first_child_.push_back(kNoNode);
  tree_.last_child_.push_back(kNoNode);
  tree_.next_sibling_.push_back(kNoNode);
  tree_.prev_sibling_.push_back(kNoNode);
  tree_.label_.push_back(Intern(label));
  if (parent != kNoNode) {
    NodeId prev = tree_.last_child_[parent];
    if (prev == kNoNode) {
      tree_.first_child_[parent] = id;
    } else {
      tree_.next_sibling_[prev] = id;
      tree_.prev_sibling_[id] = prev;
    }
    tree_.last_child_[parent] = id;
  } else {
    saw_root_ = true;
  }
  stack_.push_back(id);
  return id;
}

void TreeBuilder::Close() {
  assert(!stack_.empty() && "Close() without matching Open()");
  stack_.pop_back();
}

Result<Tree> TreeBuilder::Finish() && {
  if (!stack_.empty()) {
    return Status::InvalidArgument("Finish() with " +
                                   std::to_string(stack_.size()) +
                                   " unclosed nodes");
  }
  if (!saw_root_) {
    return Status::InvalidArgument("Finish() on an empty builder");
  }
  // Exactly one root: the first node opened at depth 0. A second depth-0
  // Open would have parent kNoNode as well; detect it.
  std::size_t roots = 0;
  for (NodeId p : tree_.parent_) {
    if (p == kNoNode) ++roots;
  }
  if (roots != 1) {
    return Status::InvalidArgument("tree must have exactly one root, got " +
                                   std::to_string(roots));
  }
  tree_.BuildIndexes();
  return std::move(tree_);
}

LabelId TreeBuilder::Intern(std::string_view label) {
  auto [it, inserted] =
      tree_.label_ids_.emplace(std::string(label), tree_.labels_.size());
  if (inserted) tree_.labels_.emplace_back(label);
  return it->second;
}

}  // namespace xpv
