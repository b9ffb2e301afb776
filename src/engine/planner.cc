#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "ppl/pplbin.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"

namespace xpv::engine {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double WordsPerRow(double n) {
  return std::max(1.0, std::ceil(n / 64.0));
}

OpCounts Visits(double x) { return {.visit = x}; }
OpCounts Words(double x) { return {.word = x}; }
OpCounts HotWords(double x) { return {.hot_word = x}; }
OpCounts Runs(double x) { return {.run = x}; }
OpCounts Resident(double x) { return {.resident_word = x}; }

/// Tree-level inputs shared by every estimate of one PriceRoutes call.
struct CostContext {
  explicit CostContext(const Tree& t)
      : tree(t),
        n(static_cast<double>(
            std::max<std::size_t>(t.Stats().node_count, 1))),
        wpr(WordsPerRow(n)),
        interval_cache(t.size() > AxisCache::kAutoDenseMaxNodes) {}

  /// Fraction of the nodes passing `name_test` ("" is the wildcard).
  double Selectivity(const std::string& name_test) const {
    if (name_test.empty()) return 1.0;
    return std::min(
        1.0, static_cast<double>(tree.LabelFrequency(name_test)) / n);
  }

  /// The tree's shape statistics (Tree::AxisShapes(), PairRuns(),
  /// Targets()), fetched on first use: plans that read no axis relation
  /// never compute them, and plans that compose nothing skip Targets().
  const AxisShape& axis(Axis a) const {
    if (axes_ == nullptr) axes_ = &tree.AxisShapes();
    return (*axes_)[static_cast<std::size_t>(a)];
  }
  double pair_runs(Axis a) const {
    if (pair_runs_ == nullptr) pair_runs_ = &tree.PairRuns();
    return (*pair_runs_)[static_cast<std::size_t>(a)];
  }
  const TargetStats& targets() const {
    if (targets_ == nullptr) targets_ = &tree.Targets();
    return *targets_;
  }

  const Tree& tree;
  mutable const std::array<AxisShape, 7>* axes_ = nullptr;
  mutable const std::array<double, 7>* pair_runs_ = nullptr;
  mutable const TargetStats* targets_ = nullptr;
  double n;
  double wpr;  // 64-bit words per packed row
  /// AxisCache's kAuto backing on this tree -- the one QueryService uses:
  /// interval runs above kAutoDenseMaxNodes, packed rows below.
  bool interval_cache;
};

/// Heuristic bound on |domain(P)|, the rows the GKP image loop visits.
/// domain(A::N) is the set of rows of A(t) holding an N-labeled cell: at
/// most the nonempty rows of A(t) -- each holds at least one run, so at
/// most its run count -- and, with N independent of the axis, about the
/// row's mean cells times N's frequency. Only cost estimates depend on
/// this -- every admissible plan computes identical answers (enforced by
/// tests/planner_test.cc).
double DomainBound(const ppl::PplBinExpr& p, const CostContext& c) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep: {
      const AxisShape& axis = c.axis(p.axis);
      return c.n * std::min({1.0, axis.runs_per_row,
                             axis.cells_per_row * c.Selectivity(p.name_test)});
    }
    case ppl::PplBinKind::kCompose:
      // domain(P1/P2) is contained in domain(P1).
      return DomainBound(*p.left, c);
    case ppl::PplBinKind::kUnion:
      return std::min(c.n, DomainBound(*p.left, c) + DomainBound(*p.right, c));
    case ppl::PplBinKind::kFilter:
      // domain([Q]) = domain(Q).
      return DomainBound(*p.left, c);
    case ppl::PplBinKind::kComplement:
      return c.n;
  }
  return c.n;
}

/// Estimated shape of one subexpression's relation -- per-row means --
/// and the operations each matrix representation spends evaluating it
/// bottom-up. All averages: the sparse engine's run budget is the hard
/// backstop when an instance beats the estimate.
struct RelationEst {
  double nnz = 0.0;        // mean set cells per row
  double runs = 0.0;       // mean maximal runs per row
  /// Mean runs a row adds to a union with the row of the node before it
  /// in document order. A step knows (Tree::PairRuns(): on a path every
  /// child row joins its neighbour's); anything else is assumed to add
  /// all its runs.
  double join_runs = 0.0;
  double peak_runs = 0.0;  // most runs live at once on the sparse route
  /// A partial identity (self steps, filters): composing with it on the
  /// right masks columns instead of gathering rows.
  bool diagonal = false;
  /// The axis of the step that produces the columns (last) and of the
  /// step whose rows the relation's rows extend (first), when one step
  /// does: composition prices its gathered rows by the Tree::Targets()
  /// entry for (last of a, first of b).
  std::optional<Axis> first;
  std::optional<Axis> last;
  /// The labels those steps test (kNoLabel: the wildcard, or a label
  /// absent from the tree).
  LabelId first_label = kNoLabel;
  LabelId last_label = kNoLabel;
  OpCounts dense;          // whole subtree on the dense route
  OpCounts sparse;         // whole subtree on the sparse route
};

/// Runs of a row of `nnz` cells assembled from `pieces` runs: never more
/// than the pieces or the cells, and every gap between two runs needs an
/// unset cell, so never more than n - nnz + 1. This last bound is what
/// sees coalescing: a row that fills up collapses into few runs.
double RunsBound(double pieces, double nnz, double n) {
  return std::max(0.0, std::min({pieces, nnz, n - nnz + 1.0}));
}

/// Cells per row of the union of independent rows of `a` and `b` cells.
double UnionCells(double a, double b, double n) {
  return n - (n - a) * (n - b) / n;
}

/// Runs left when a row of `cells` cells in `runs` runs keeps each cell
/// with probability s, independently of position: s for a run's first
/// cell, plus s (1 - s) for every later cell whose predecessor was
/// dropped.
double MaskedRuns(double cells, double runs, double s) {
  return s * runs + s * (1.0 - s) * std::max(0.0, cells - runs);
}

/// Writing a run list of e's shape: one fresh 64-bit word per run (an
/// IntervalRun is two 32-bit ids) plus a 32-bit row offset per row --
/// priced like the fresh words of a packed matrix, page faults included.
OpCounts Fresh(const RelationEst& e, const CostContext& c) {
  return Words(c.n * (e.runs + 0.5)) + OpCounts{.row = c.n};
}

RelationEst StepEst(const ppl::PplBinExpr& p, const CostContext& c) {
  const AxisShape& axis = c.axis(p.axis);
  const LabelId label = c.tree.FindLabel(p.name_test);
  const double s =
      p.name_test.empty()
          ? 1.0
          : static_cast<double>(c.tree.LabelPostings(label).size()) / c.n;
  RelationEst e;
  e.nnz = axis.cells_per_row * s;
  e.runs = RunsBound(MaskedRuns(axis.cells_per_row, axis.runs_per_row, s),
                     e.nnz, c.n);
  // The label mask applies to the union as to any row: it keeps a joined
  // run's first cell and splits after every dropped cell.
  const double joined =
      std::max(0.0, c.pair_runs(p.axis) - axis.runs_per_row);
  e.join_runs = std::min(e.runs, MaskedRuns(axis.cells_per_row, joined, s));
  e.diagonal = p.axis == Axis::kSelf;
  e.first = e.last = p.axis;
  e.first_label = e.last_label = label;
  e.peak_runs = c.n * e.runs;
  const double rows = c.n * c.wpr;
  if (c.interval_cache) {
    // Sparse masks the cached runs in place; dense expands them to
    // packed rows, then masks.
    e.sparse = Runs(c.n * axis.runs_per_row) + Fresh(e, c);
    e.dense = Words(2.0 * rows) + Runs(c.n * axis.runs_per_row);
  } else {
    // Sparse copies, masks and run-scans every packed row; dense copies
    // (and masks) the cached matrix.
    e.sparse = HotWords(3.0 * rows) + Fresh(e, c);
    e.dense = Words(rows);
  }
  return e;
}

/// The mean shape of the rows of b that a/b gathers.
struct RowShape {
  double nnz;
  double runs;
  double join_runs;
};

/// The rows of b that a/b gathers: b's shape at the targets of a's
/// cells. When a's columns come from axis A and b's rows from axis B,
/// b's mean shape scales by how B-rows at A-targets compare with B-rows
/// at large (Tree::Targets()) -- the correlation a plain mean misses,
/// e.g. every ancestor set holding the root and its wide child row.
RowShape Gathered(const RelationEst& a, const RelationEst& b,
                  const CostContext& c) {
  RowShape g{b.nnz, b.runs, b.join_runs};
  if (!a.last.has_value() || !b.first.has_value()) return g;
  const TargetStats& targets = c.targets();
  const AxisShape& mean = c.axis(*b.first);
  // Behind a step that tests L the targets are L-nodes: their own rows.
  // Otherwise the targets are weighted by their in-degree under a's axis.
  const AxisShape& target =
      a.last_label != kNoLabel
          ? targets.label_shapes[a.last_label][static_cast<std::size_t>(
                *b.first)]
          : TargetShapeOf(targets, *a.last, *b.first);
  double cell_ratio = mean.cells_per_row > 0.0
                          ? target.cells_per_row / mean.cells_per_row
                          : 1.0;
  double run_ratio = mean.runs_per_row > 0.0
                         ? target.runs_per_row / mean.runs_per_row
                         : 1.0;
  const LabelId label = b.first_label;
  if (*b.first == Axis::kChild && label != kNoLabel) {
    // A labeled child step: L-children at A-targets against L-children
    // per row at large -- where L sits, not just how often it occurs.
    const Tree& t = c.tree;
    const double children = static_cast<double>(
        t.LabelPostings(label).size() - (t.label(t.root()) == label ? 1 : 0));
    if (children > 0.0) {
      cell_ratio = run_ratio =
          targets.child_labels[label][static_cast<std::size_t>(*a.last)] /
          (children / c.n);
    }
  }
  g.nnz = std::min(c.n, b.nnz * cell_ratio);
  g.runs = std::min(g.nnz, b.runs * run_ratio);
  g.join_runs = std::min(g.runs, b.join_runs * run_ratio);
  return g;
}

/// The dense product a/b alone (operands built): the row-OR kernel
/// zeroes the result, then ORs one packed row of b per set cell of a.
OpCounts ComposeDense(const RelationEst& a, const CostContext& c) {
  return Words(c.n * c.wpr) + HotWords(c.n * c.wpr * a.nnz);
}

/// The sparse product a/b alone (operands built), per output row: two
/// passes over a's cells (count, then gather) collect k = |a row| x
/// |b runs| candidate runs, which the kernel sort-merges (the fit prices
/// the merge per run, not per comparison) -- or, past its saturation
/// threshold, ORs into a packed accumulator row and re-scans.
OpCounts ComposeSparse(const RelationEst& a, const RowShape& b,
                       double out_runs, const CostContext& c) {
  const double k = a.nnz * b.runs;
  const double saturated = std::max(
      static_cast<double>(SparseBoolMatrix::kDenseAccumMinRuns),
      c.n / static_cast<double>(SparseBoolMatrix::kDenseAccumRunFactor));
  const double run_len = b.runs > 0.0 ? b.nnz / b.runs : 0.0;
  const double words = k > saturated ? 2.0 * c.wpr + k * run_len / 64.0 : 0.0;
  return Runs(c.n * (2.0 * a.nnz + k)) + HotWords(c.n * words) +
         Words(c.n * (out_runs + 0.5)) + OpCounts{.row = c.n};
}

/// An interior result stays resident in the RelationCache: its packed
/// rows on the dense route, its runs and row offsets on the sparse one.
void KeepResident(RelationEst& e, const CostContext& c) {
  e.dense += Resident(c.n * c.wpr);
  e.sparse += Resident(c.n * (e.runs + 0.5));
}

/// The cells and runs per row of a/b, given the rows of b it gathers.
std::pair<double, double> ProductShape(const RelationEst& a,
                                       const RelationEst& b,
                                       const RowShape& gathered,
                                       const CostContext& c) {
  if (b.diagonal) {
    // a/[Q] keeps a's cells in Q's domain: a column mask, under which
    // a's runs stay runs -- they do not split into one per cell.
    const double s = std::min(1.0, b.nnz);
    const double nnz = a.nnz * s;
    return {nnz, RunsBound(MaskedRuns(a.nnz, a.runs, s), nnz, c.n)};
  }
  // Row u of a/b is the union of b's rows over u's a-cells. Within a run
  // of a-cells the targets are neighbours in document order, so each
  // cell after a run's first adds only b's joined runs.
  const double nnz =
      c.n * -std::expm1(a.nnz * std::log1p(-std::min(1.0 - 1e-12,
                                                      gathered.nnz / c.n)));
  const double pieces =
      a.runs * gathered.runs +
      std::max(0.0, a.nnz - a.runs) * gathered.join_runs;
  return {nnz, RunsBound(pieces, nnz, c.n)};
}

RelationEst ComposeEst(const RelationEst& a, const RelationEst& b,
                       const CostContext& c) {
  RelationEst e;
  const RowShape gathered = Gathered(a, b, c);
  std::tie(e.nnz, e.runs) = ProductShape(a, b, gathered, c);
  e.diagonal = a.diagonal && b.diagonal;
  // A diagonal factor passes the neighbour's axis through.
  e.first = a.diagonal ? b.first : a.first;
  e.first_label = a.diagonal ? b.first_label : a.first_label;
  e.last = b.diagonal ? a.last : b.last;
  e.last_label = b.diagonal ? a.last_label : b.last_label;
  e.peak_runs =
      std::max({a.peak_runs, b.peak_runs, c.n * (a.runs + b.runs + e.runs)});
  e.join_runs = e.runs;
  e.dense = a.dense + b.dense + ComposeDense(a, c);
  e.sparse = a.sparse + b.sparse + ComposeSparse(a, gathered, e.runs, c);
  KeepResident(e, c);
  return e;
}

/// Collects the maximal composition chain rooted at `p` left to right:
/// a/(b/c) and (a/b)/c both flatten to [a, b, c].
void FlattenCompose(const ppl::PplBinExpr& p,
                    std::vector<const ppl::PplBinExpr*>* out) {
  if (p.kind == ppl::PplBinKind::kCompose) {
    FlattenCompose(*p.left, out);
    FlattenCompose(*p.right, out);
    return;
  }
  out->push_back(&p);
}

/// Nanoseconds of the product a/b alone on one route, at the fitted
/// prices -- ComposeEst's product term without the rest of the estimate.
double ProductNs(const RelationEst& a, const RelationEst& b,
                 const CostContext& c, bool dense) {
  if (dense) return ComposeDense(a, c).Ns(kFittedUnitPrices);
  const RowShape gathered = Gathered(a, b, c);
  const double runs = ProductShape(a, b, gathered, c).second;
  return ComposeSparse(a, gathered, runs, c).Ns(kFittedUnitPrices);
}

/// Entry (i, j), i <= j < k, of a row-major upper-triangular k x k table.
std::size_t TriangleAt(std::size_t k, std::size_t i, std::size_t j) {
  return i * (2 * k - i + 1) / 2 + (j - i);
}

/// The matrix-chain DP over the factor estimates of one composition
/// chain. est(i, j) is the cheapest association of factors i..j on the
/// chosen representation's route, split(i, j) where it splits. Boolean
/// products are associative, so every association denotes the same
/// relation; the factors' own costs are common to all of them, so the
/// cheapest whole is the one with the cheapest products.
///
/// `twin`, when set, is the other route's DP over the same chain, and
/// `same[i]` says factor i estimates alike on both routes: an interval
/// both routes split alike over such factors takes the twin's estimate
/// instead of recomputing it.
struct ChainDp {
  ChainDp(const std::vector<RelationEst>& factors, const CostContext& c,
          bool dense, const ChainDp* twin = nullptr,
          const std::vector<char>* same = nullptr)
      : k(factors.size()),
        est(k * (k + 1) / 2),
        split(est.size(), 0),
        shared(est.size(), 0) {
    const auto At = [this](std::size_t i, std::size_t j) {
      return TriangleAt(k, i, j);
    };
    // ns(i, j): the products' share of est(i, j) on this route -- what
    // the associations differ in.
    std::vector<double> ns(est.size(), 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      est[At(i, i)] = factors[i];
      shared[At(i, i)] = twin != nullptr && (*same)[i];
    }
    for (std::size_t len = 2; len <= k; ++len) {
      for (std::size_t i = 0; i + len <= k; ++i) {
        const std::size_t j = i + len - 1;
        const std::size_t ij = At(i, j);
        double best = kInf;
        for (std::size_t s = i; s < j; ++s) {
          const double total =
              ns[At(i, s)] + ns[At(s + 1, j)] +
              ProductNs(est[At(i, s)], est[At(s + 1, j)], c, dense);
          if (total < best) {
            best = total;
            split[ij] = s;
          }
        }
        ns[ij] = best;
        const std::size_t s = split[ij];
        shared[ij] = twin != nullptr && twin->split[ij] == s &&
                     shared[At(i, s)] && shared[At(s + 1, j)];
        est[ij] = shared[ij]
                      ? twin->est[ij]
                      : ComposeEst(est[At(i, s)], est[At(s + 1, j)], c);
      }
    }
  }

  const RelationEst& Whole() const { return est[k - 1]; }

  std::size_t k;
  /// Upper-triangular tables (TriangleAt): the estimate of factors i..j,
  /// the factor after which they split, and whether the estimate is the
  /// twin's.
  std::vector<RelationEst> est;
  std::vector<std::size_t> split;
  std::vector<char> shared;
};

/// OperatorEst without the resident result.
RelationEst OperatorShapeAndOps(ppl::PplBinKind kind, const RelationEst& a,
                                const RelationEst* b, const CostContext& c) {
  const double rows = c.n * c.wpr;
  RelationEst e;
  switch (kind) {
    case ppl::PplBinKind::kUnion:
      e.nnz = UnionCells(a.nnz, b->nnz, c.n);
      e.runs = RunsBound(a.runs + b->runs, e.nnz, c.n);
      e.diagonal = a.diagonal && b->diagonal;
      if (a.first == b->first && a.first_label == b->first_label) {
        e.first = a.first;
        e.first_label = a.first_label;
      }
      if (a.last == b->last && a.last_label == b->last_label) {
        e.last = a.last;
        e.last_label = a.last_label;
      }
      e.peak_runs = std::max(
          {a.peak_runs, b->peak_runs, c.n * (a.runs + b->runs + e.runs)});
      e.dense = a.dense + b->dense + Words(rows);
      e.sparse = a.sparse + b->sparse + Runs(c.n * (a.runs + b->runs)) +
                 Fresh(e, c);
      return e;
    case ppl::PplBinKind::kComplement:
      // Gap inversion: the cells flip, the runs change by at most one.
      e.nnz = c.n - a.nnz;
      e.runs = RunsBound(a.runs + 1.0, e.nnz, c.n);
      e.peak_runs = std::max(a.peak_runs, c.n * (a.runs + e.runs));
      e.dense = a.dense + Words(rows);
      e.sparse = a.sparse + Runs(c.n * a.runs) + Fresh(e, c);
      return e;
    case ppl::PplBinKind::kFilter:
      // Diagonal of the nonempty rows: each holds at least one run.
      e.nnz = std::min({1.0, a.nnz, a.runs});
      e.runs = e.nnz;
      e.diagonal = true;
      e.peak_runs = std::max(a.peak_runs, c.n * (a.runs + e.runs));
      e.dense = a.dense + Words(2.0 * rows);
      e.sparse = a.sparse + Runs(c.n * a.runs) + Fresh(e, c);
      return e;
    case ppl::PplBinKind::kStep:
    case ppl::PplBinKind::kCompose:
      break;
  }
  std::abort();  // unreachable: steps and products have their own estimates
}

/// The estimate of a union, complement or filter node from its operands'
/// (`b` is null for the unary ones).
RelationEst OperatorEst(ppl::PplBinKind kind, const RelationEst& a,
                        const RelationEst* b, const CostContext& c) {
  RelationEst e = OperatorShapeAndOps(kind, a, b, c);
  e.join_runs = e.runs;
  KeepResident(e, c);
  return e;
}

/// The estimate of `p` evaluated in its own association: as parsed, or
/// as the reassociation DP rewrote it (which estimates the same).
RelationEst Estimate(const ppl::PplBinExpr& p, const CostContext& c) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return StepEst(p, c);
    case ppl::PplBinKind::kCompose:
      return ComposeEst(Estimate(*p.left, c), Estimate(*p.right, c), c);
    case ppl::PplBinKind::kUnion: {
      const RelationEst b = Estimate(*p.right, c);
      return OperatorEst(p.kind, Estimate(*p.left, c), &b, c);
    }
    case ppl::PplBinKind::kComplement:
    case ppl::PplBinKind::kFilter:
      return OperatorEst(p.kind, Estimate(*p.left, c), nullptr, c);
  }
  std::abort();  // unreachable: the switch above covers every PplBinKind
}

/// Estimated peak heap bytes of one sparse evaluation: the live runs plus
/// CSR row-offset arrays for the (at most three) matrices alive at the
/// widest node.
double SparsePeakBytes(const RelationEst& est, double n) {
  return est.peak_runs * static_cast<double>(sizeof(IntervalRun)) +
         3.0 * n * static_cast<double>(sizeof(std::uint32_t));
}

/// GKP full relation: one reversal image for the domain, then per domain
/// row one image of the whole expression -- every step an AxisImage sweep
/// over all |t| nodes, every operator a few packed-row set operations --
/// OR-ed into a zeroed dense result. The domain is the relation's
/// nonempty rows: at most its estimated cells and runs, and at most the
/// bound read off the leading steps.
OpCounts GkpFull(const ppl::PplBinExpr& p, std::size_t size,
                 const RelationEst& est, const CostContext& c) {
  const double domain = std::min(
      DomainBound(p, c), c.n * std::min({1.0, est.nnz, est.runs}));
  const double nodes = static_cast<double>(size);
  return Visits(nodes * c.n * (1.0 + domain)) +
         Words(c.wpr * (c.n + nodes * domain)) + Resident(c.n * c.wpr);
}

/// Bit i set iff axis kAllAxes[i] is read as a relation by the matrix
/// engine: every step of a materialized subexpression, and the step under
/// a complement-of-step (its kernel pass reads the cached relation).
/// Monadic sweeps elsewhere walk the tree arrays, like GKP.
unsigned MatrixAxes(const ppl::PplBinExpr& p, bool materialized) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return materialized ? 1u << static_cast<unsigned>(p.axis) : 0u;
    case ppl::PplBinKind::kCompose:
    case ppl::PplBinKind::kUnion:
      return MatrixAxes(*p.left, materialized) |
             MatrixAxes(*p.right, materialized);
    case ppl::PplBinKind::kFilter:
      return MatrixAxes(*p.left, materialized);
    case ppl::PplBinKind::kComplement:
      return MatrixAxes(*p.left, true);
  }
  return 0u;
}

/// Building the cached axis relations in `axes` (a MatrixAxes mask) in
/// AxisCache's backing for this tree: a plan is priced cold, as on its
/// first run on a document, which also builds what it reads -- and the
/// built relations stay resident (and persist in snapshots), a cost GKP's
/// sweeps never pay.
OpCounts AxisBuild(unsigned axes, const CostContext& c) {
  OpCounts out;
  for (Axis axis : kAllAxes) {
    if ((axes & (1u << static_cast<unsigned>(axis))) == 0) continue;
    const AxisShape& shape = c.axis(axis);
    out += c.interval_cache ? Words(c.n * (shape.runs_per_row + 0.5))
                            : Words(c.n * c.wpr);
  }
  return out;
}

/// True iff the monadic matrix path must materialize a sub-matrix: some
/// complement's operand is not a plain step (complement-of-step runs on
/// the cached axis relation directly, whatever its representation).
bool HasNonStepComplement(const ppl::PplBinExpr& p) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return false;
    case ppl::PplBinKind::kCompose:
    case ppl::PplBinKind::kUnion:
      return HasNonStepComplement(*p.left) || HasNonStepComplement(*p.right);
    case ppl::PplBinKind::kFilter:
      return HasNonStepComplement(*p.left);
    case ppl::PplBinKind::kComplement:
      return p.left->kind != ppl::PplBinKind::kStep;
  }
  return false;
}

/// The reassociation DP's picks for one representation: the split table
/// of every maximal composition chain whose association it changed,
/// keyed by the chain's root in the parsed query.
struct ChainSplits {
  struct Chain {
    const ppl::PplBinExpr* root;
    std::size_t k;
    std::vector<std::size_t> split;  // ChainDp::split

    std::size_t Split(std::size_t i, std::size_t j) const {
      return split[TriangleAt(k, i, j)];
    }
  };
  std::vector<Chain> changed;

  const Chain* Find(const ppl::PplBinExpr* root) const {
    for (const Chain& chain : changed) {
      if (chain.root == root) return &chain;
    }
    return nullptr;
  }
};

/// True iff the parsed composition skeleton under `node`, whose factors
/// start at index *next of its chain, splits everywhere the DP does.
bool KeepsParsedSplits(const ppl::PplBinExpr& node, const ChainDp& dp,
                       std::size_t* next) {
  if (node.kind != ppl::PplBinKind::kCompose) {
    ++*next;
    return true;
  }
  const std::size_t i = *next;
  if (!KeepsParsedSplits(*node.left, dp, next)) return false;
  const std::size_t s = *next - 1;
  if (!KeepsParsedSplits(*node.right, dp, next)) return false;
  return dp.split[TriangleAt(dp.k, i, *next - 1)] == s;
}

/// One subexpression's estimate on each matrix route, each in the
/// association the reassociation DP picks for that representation.
struct RouteEsts {
  RelationEst dense;
  RelationEst sparse;
  /// Both routes associate every chain below alike, so the estimates
  /// are one.
  bool same = true;
};

/// The operands of complements over non-steps -- the sub-matrices a
/// monadic plan materializes -- with their estimates.
using OperandEsts =
    std::vector<std::pair<const ppl::PplBinExpr*, RouteEsts>>;

/// The matrix-chain reassociation DP, estimating bottom-up in one pass
/// for both routes: Run(p) estimates `p` with every maximal composition
/// chain of >= 2 factors in the association the cost model estimates
/// cheapest on the dense and on the sparse route. The chains whose
/// association that changes go to `dense_splits` and `sparse_splits`,
/// from which Rewrite builds the rewritten query; complement operands go
/// to `operands`. Without `with_dense` (dense inadmissible) only the
/// sparse route is estimated, and `dense` copies it.
struct Reassociation {
  const CostContext& c;
  bool with_dense;
  ChainSplits* dense_splits;
  ChainSplits* sparse_splits;
  OperandEsts* operands;

  RouteEsts Run(const ppl::PplBinExpr& p) {
    switch (p.kind) {
      case ppl::PplBinKind::kStep: {
        const RelationEst e = StepEst(p, c);
        return {e, e, true};
      }
      case ppl::PplBinKind::kComplement:
      case ppl::PplBinKind::kFilter: {
        const RouteEsts a = Run(*p.left);
        if (p.kind == ppl::PplBinKind::kComplement &&
            p.left->kind != ppl::PplBinKind::kStep) {
          operands->emplace_back(p.left.get(), a);
        }
        return Operator(p.kind, a, nullptr);
      }
      case ppl::PplBinKind::kUnion: {
        const RouteEsts a = Run(*p.left);
        const RouteEsts b = Run(*p.right);
        return Operator(p.kind, a, &b);
      }
      case ppl::PplBinKind::kCompose:
        break;
    }
    std::vector<const ppl::PplBinExpr*> raw;
    FlattenCompose(p, &raw);
    std::vector<RelationEst> dense_factors;
    std::vector<RelationEst> sparse_factors;
    std::vector<char> same;
    for (const ppl::PplBinExpr* f : raw) {
      RouteEsts r = Run(*f);
      dense_factors.push_back(std::move(r.dense));
      sparse_factors.push_back(std::move(r.sparse));
      same.push_back(r.same);
    }
    const ChainDp sparse(sparse_factors, c, /*dense=*/false);
    Record(p, sparse, sparse_splits);
    if (!with_dense) return {sparse.Whole(), sparse.Whole(), true};
    const ChainDp dense(dense_factors, c, /*dense=*/true, &sparse, &same);
    Record(p, dense, dense_splits);
    return {dense.Whole(), sparse.Whole(), dense.shared[dense.k - 1] != 0};
  }

  RouteEsts Operator(ppl::PplBinKind kind, const RouteEsts& a,
                     const RouteEsts* b) const {
    RouteEsts e;
    e.sparse = OperatorEst(kind, a.sparse, b ? &b->sparse : nullptr, c);
    e.same = a.same && (b == nullptr || b->same);
    e.dense = e.same ? e.sparse
                     : OperatorEst(kind, a.dense, b ? &b->dense : nullptr, c);
    return e;
  }

  /// Keeps `dp`'s split table when it changes the chain rooted at `p`.
  static void Record(const ppl::PplBinExpr& p, const ChainDp& dp,
                     ChainSplits* splits) {
    std::size_t next = 0;
    if (!KeepsParsedSplits(p, dp, &next)) {
      splits->changed.push_back({&p, dp.k, dp.split});
    }
  }
};

/// Rebuilds `node`'s parsed composition skeleton, taking `factors` left
/// to right at the leaves.
ppl::PplBinPtr ParsedSkeleton(const ppl::PplBinExpr& node,
                              std::vector<ppl::PplBinPtr>& factors,
                              std::size_t* next) {
  if (node.kind == ppl::PplBinKind::kCompose) {
    ppl::PplBinPtr l = ParsedSkeleton(*node.left, factors, next);
    ppl::PplBinPtr r = ParsedSkeleton(*node.right, factors, next);
    return ppl::PplBinExpr::Compose(std::move(l), std::move(r));
  }
  return std::move(factors[(*next)++]);
}

/// Builds the DP-optimal association over factors[i..j] from a split
/// table, moving the factor subtrees into place.
ppl::PplBinPtr BuildChain(const ChainSplits::Chain& chain,
                          std::vector<ppl::PplBinPtr>& factors, std::size_t i,
                          std::size_t j) {
  if (i == j) return std::move(factors[i]);
  const std::size_t s = chain.Split(i, j);
  return ppl::PplBinExpr::Compose(BuildChain(chain, factors, i, s),
                                  BuildChain(chain, factors, s + 1, j));
}

/// `p` with the chains in `splits` reassociated; factor order -- and
/// hence the denoted relation (Boolean matrix product is associative) --
/// unchanged.
ppl::PplBinPtr Rewrite(const ppl::PplBinExpr& p, const ChainSplits& splits) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return p.Clone();
    case ppl::PplBinKind::kComplement:
      return ppl::PplBinExpr::Complement(Rewrite(*p.left, splits));
    case ppl::PplBinKind::kFilter:
      return ppl::PplBinExpr::Filter(Rewrite(*p.left, splits));
    case ppl::PplBinKind::kUnion:
      return ppl::PplBinExpr::Union(Rewrite(*p.left, splits),
                                    Rewrite(*p.right, splits));
    case ppl::PplBinKind::kCompose:
      break;
  }
  std::vector<const ppl::PplBinExpr*> raw;
  FlattenCompose(p, &raw);
  std::vector<ppl::PplBinPtr> factors;
  factors.reserve(raw.size());
  for (const ppl::PplBinExpr* f : raw) factors.push_back(Rewrite(*f, splits));
  if (const ChainSplits::Chain* chain = splits.Find(&p)) {
    return BuildChain(*chain, factors, 0, factors.size() - 1);
  }
  std::size_t next = 0;
  return ParsedSkeleton(p, factors, &next);
}

/// The operation counts of a plan on the dense and on the sparse route.
struct MatrixOps {
  OpCounts dense;
  OpCounts sparse;
};

MatrixOps operator+(const MatrixOps& a, const OpCounts& b) {
  return {a.dense + b, a.sparse + b};
}

MatrixOps operator+(const MatrixOps& a, const MatrixOps& b) {
  return {a.dense + b.dense, a.sparse + b.sparse};
}

/// The row-restricted matrix route: positive operators propagate one node
/// set (one |t|-node sweep per step); a complement over a plain step runs
/// one kernel pass over the cached axis relation; any other complement
/// materializes its operand's relation in the plan's representation --
/// in the association the DP picked for it (`operands`), or as parsed
/// when `operands` is null. On a positive query this is exactly GKP's
/// monadic propagation.
MatrixOps Monadic(const ppl::PplBinExpr& p, const CostContext& c,
                  const OperandEsts* operands) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return {Visits(c.n), Visits(c.n)};
    case ppl::PplBinKind::kCompose:
    case ppl::PplBinKind::kUnion:
      return Monadic(*p.left, c, operands) + Monadic(*p.right, c, operands) +
             Words(c.wpr);
    case ppl::PplBinKind::kFilter:
      // The domain resolves by a preimage walk of the same shape.
      return Monadic(*p.left, c, operands) + Words(c.wpr);
    case ppl::PplBinKind::kComplement: {
      const OpCounts flip = Visits(c.n) + Words(c.wpr);
      if (p.left->kind == ppl::PplBinKind::kStep) {
        const AxisShape& axis = c.axis(p.left->axis);
        const OpCounts pass = c.interval_cache
                                  ? Runs(c.n * (axis.runs_per_row + 1.0))
                                  : Words(c.n * c.wpr);
        return {flip + pass, flip + pass};
      }
      if (operands != nullptr) {
        for (const auto& [operand, est] : *operands) {
          if (operand == p.left.get()) {
            return {flip + est.dense.dense, flip + est.sparse.sparse};
          }
        }
      }
      const RelationEst e = Estimate(*p.left, c);
      return {flip + e.dense, flip + e.sparse};
    }
  }
  return {Visits(c.n), Visits(c.n)};
}

/// Every route's price (PriceRoutes), plus what PlanQuery executes of
/// it: each matrix route's query in the association it was priced in.
struct Pricing {
  RouteCosts routes;
  RouteOps ops;
  /// The chains the reassociation DP reassociates on the dense and the
  /// sparse route. Empty where the plan materializes nothing, in parse
  /// order, and for an inadmissible dense route.
  ChainSplits dense_splits;
  ChainSplits sparse_splits;
};

Pricing Price(const CompiledQuery& q, const Tree& tree, ResultShape shape,
              bool parse_order) {
  Pricing out;
  if (q.pplbin == nullptr) return out;
  // Representation matters only where the matrix engine materializes
  // relations: full-relation shapes, and monadic plans whose complement
  // structure forces sub-matrices. Above the dense ceiling no dense
  // n x n form exists, so dense routes -- and GKP's dense full-relation
  // answer -- are inadmissible there, and sparse is admissible whatever
  // its peak estimate: the engine's run budget is the enforceable bound
  // (a genuinely dense instance trips kResourceExhausted at the first
  // over-budget merge). Under the ceiling a sparse route whose estimated
  // peak run bytes exceed the budget is inadmissible; dense takes it.
  const ppl::PplBinExpr& p = *q.pplbin;
  const CostContext c(tree);
  const double n = c.n;
  const bool monadic = shape != ResultShape::kFullRelation;
  const bool materializes = !monadic || HasNonStepComplement(p);
  const bool dense_ok =
      !materializes || n <= static_cast<double>(BitMatrix::kMaxDenseNodes);
  // Each matrix route is priced in the association it executes: the
  // DP's pick for its representation, or as parsed when forced. One
  // bottom-up pass estimates both routes.
  RouteEsts est;
  OperandEsts operands;
  if (materializes && parse_order) {
    est.dense = est.sparse = Estimate(p, c);
  } else if (materializes) {
    Reassociation pass{c, dense_ok, &out.dense_splits, &out.sparse_splits,
                       &operands};
    est = pass.Run(p);
  }
  const bool sparse_ok =
      !dense_ok || !materializes ||
      SparsePeakBytes(est.sparse, n) <=
          static_cast<double>(kSparseEvalByteBudget);
  RouteOps& counts = out.ops;
  if (monadic) {
    const MatrixOps m = Monadic(p, c, parse_order ? nullptr : &operands);
    counts.dense = m.dense;
    // Without materialized sub-matrices the representation is moot.
    counts.sparse = materializes ? m.sparse : m.dense;
    // Both engines run the identical node-set propagation on a positive
    // query; PlanQuery's tie-break prefers GKP (it shares the
    // filter-domain cache across calls).
    counts.gkp = counts.dense;
  } else {
    counts.dense = est.dense.dense;
    // Under the ceiling the payload is dense: the runs are expanded.
    counts.sparse = est.sparse.sparse;
    if (dense_ok) {
      counts.sparse +=
          Words(n * c.wpr) + Runs(n * est.sparse.runs) + OpCounts{.row = n};
    }
    counts.gkp = GkpFull(p, q.pplbin_size, est.sparse, c);
  }
  const OpCounts build = AxisBuild(MatrixAxes(p, !monadic), c);
  counts.dense += build;
  counts.sparse += build;
  if (materializes) {
    // The memory each route holds at its widest point, which is what
    // peak RSS sees: a product's three packed matrices, or the estimated
    // peak of live runs plus their row offsets.
    counts.dense += Resident(3.0 * n * c.wpr);
    counts.sparse += Resident(est.sparse.peak_runs + 1.5 * n);
  }
  // GKP evaluates positive queries only, and its full-relation answer is
  // a dense matrix: inadmissible wherever dense is.
  const UnitPrices& prices = kFittedUnitPrices;
  out.routes.gkp = q.positive && (monadic || dense_ok)
                       ? counts.gkp.Ns(prices)
                       : kInf;
  out.routes.dense = dense_ok ? counts.dense.Ns(prices) : kInf;
  out.routes.sparse = sparse_ok ? counts.sparse.Ns(prices) : kInf;
  return out;
}

}  // namespace

std::string_view ResultShapeName(ResultShape shape) {
  // Exhaustive on purpose (no default return): a new shape without a
  // name is a -Wswitch compile warning, not a silent wrong string.
  switch (shape) {
    case ResultShape::kFullRelation:
      return "full-relation";
    case ResultShape::kFromRootSet:
      return "from-root-set";
    case ResultShape::kBoolean:
      return "boolean";
    case ResultShape::kCount:
      return "count";
    case ResultShape::kTupleStream:
      return "tuple-stream";
  }
  std::abort();  // unreachable: the switch above covers every enumerator
}

std::string_view StreamBackingName(StreamBacking backing) {
  switch (backing) {
    case StreamBacking::kNone:
      return "none";
    case StreamBacking::kNodeSet:
      return "node-set";
    case StreamBacking::kEnumerator:
      return "enumerator";
    case StreamBacking::kMaterialized:
      return "materialized";
  }
  std::abort();  // unreachable: the switch above covers every enumerator
}

bool ExecutionPlan::operator==(const ExecutionPlan& other) const {
  if (engine != other.engine || shape != other.shape ||
      row_restricted != other.row_restricted || backing != other.backing ||
      repr != other.repr || cost != other.cost || routes != other.routes ||
      chains_reassociated != other.chains_reassociated) {
    return false;
  }
  if ((reassociated == nullptr) != (other.reassociated == nullptr)) {
    return false;
  }
  return reassociated == nullptr || reassociated->Equals(*other.reassociated);
}

std::string ExecutionPlan::DebugString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s/%s%s%s%s%s%s cost=%.3g",
                std::string(EnginePlanName(engine)).c_str(),
                std::string(ResultShapeName(shape)).c_str(),
                row_restricted ? " row-restricted" : "",
                backing != StreamBacking::kNone ? " backing=" : "",
                backing != StreamBacking::kNone
                    ? std::string(StreamBackingName(backing)).c_str()
                    : "",
                repr != MatrixRepr::kDense ? " repr=" : "",
                repr != MatrixRepr::kDense
                    ? std::string(MatrixReprName(repr)).c_str()
                    : "",
                cost);
  std::string out = buf;
  if (engine != EnginePlan::kNaryAnswer) {
    std::snprintf(buf, sizeof(buf), " gkp=%.3g dense=%.3g sparse=%.3g",
                  routes.gkp, routes.dense, routes.sparse);
    out += buf;
  }
  if (chains_reassociated > 0) {
    std::snprintf(buf, sizeof(buf), " reassoc=%u", chains_reassociated);
    out += buf;
  }
  return out;
}

RouteCosts PriceRoutes(const CompiledQuery& q, const Tree& tree,
                       ResultShape shape, bool parse_order, RouteOps* ops) {
  Pricing pricing = Price(q, tree, shape, parse_order);
  if (ops != nullptr) *ops = pricing.ops;
  return pricing.routes;
}

ExecutionPlan PlanQuery(const CompiledQuery& q, const Tree& tree,
                        ResultShape shape,
                        std::optional<EnginePlan> force_engine,
                        std::size_t stream_limit,
                        std::optional<MatrixRepr> force_repr,
                        bool force_parse_order) {
  ExecutionPlan plan;
  plan.shape = shape;
  const double n =
      static_cast<double>(std::max<std::size_t>(tree.Stats().node_count, 1));

  if (q.pplbin == nullptr) {
    // N-ary queries have exactly one engine; the shape selects the
    // payload derived from the answer set -- except kTupleStream, where
    // the planner additionally picks the stream backing.
    plan.engine = EnginePlan::kNaryAnswer;
    plan.cost = kFittedUnitPrices.word * n * n;
    if (shape != ResultShape::kTupleStream) return plan;
    if (q.acq == nullptr) {
      // Unions are outside the enumerable (Prop. 8) class: the stream
      // serves a cursor over the materialized Fig. 8 answer set.
      plan.backing = StreamBacking::kMaterialized;
      plan.cost = kFittedUnitPrices.word * n * n *
                  static_cast<double>(std::max<std::size_t>(q.hcl_size, 1));
      return plan;
    }
    // Enumeration vs materialization. Enumeration pays, in word ops,
    //   preprocessing: materializing one n x n relation per atom plus
    //   the two semijoin passes, ~3 |atoms| n wpr(n), then
    //   delay: ~|vars| wpr(n) per emitted tuple;
    // materialization pays the Fig. 8 machinery, ~n^2 |C| word ops for
    // the MC table -- but also O(|answers|) MEMORY, up to n^arity.
    //
    // With a bounded limit the op costs are comparable and decide: a
    // small limit amortizes preprocessing over few tuples (enumerator),
    // a huge limit on a tiny tree materializes outright. With limit 0
    // (drain everything) the answer-set memory is the binding
    // constraint, so every tree beyond kTinyTree enumerates whenever it
    // can -- only trees whose whole n^2 universe is trivially small
    // materialize.
    const double atoms = static_cast<double>(
        std::max<std::size_t>(q.acq->atoms.size(), 1));
    const double vars = atoms + 1.0;
    const double enum_preproc = 3.0 * atoms * n * WordsPerRow(n);
    const double enum_delay = vars * WordsPerRow(n);
    const double mat_cost =
        n * n * static_cast<double>(std::max<std::size_t>(q.hcl_size, 1)) +
        n * n;
    constexpr double kTinyTree = 64;
    bool enumerate;
    double enum_cost;
    if (stream_limit == 0) {
      enum_cost = enum_preproc + n * n * enum_delay;
      enumerate = n > kTinyTree;
    } else {
      enum_cost =
          enum_preproc + static_cast<double>(stream_limit) * enum_delay;
      enumerate = enum_cost <= mat_cost;
    }
    plan.backing =
        enumerate ? StreamBacking::kEnumerator : StreamBacking::kMaterialized;
    plan.cost = kFittedUnitPrices.word * (enumerate ? enum_cost : mat_cost);
    return plan;
  }

  // Binary queries: monadic shapes take the row-restricted entry points
  // of whichever engine wins the cost comparison. A kTupleStream plan on
  // a binary query streams the monadic from-root node set as 1-tuples.
  if (shape == ResultShape::kTupleStream) {
    plan.backing = StreamBacking::kNodeSet;
  }
  Pricing pricing = Price(q, tree, shape, force_parse_order);
  plan.routes = pricing.routes;
  const bool monadic = shape != ResultShape::kFullRelation;

  // Cheapest admissible route; ties go to GKP, then dense. A forced
  // engine or representation (tests, ablations) overrides the pick but
  // not the prices.
  EnginePlan chosen = EnginePlan::kMatrixGeneral;
  MatrixRepr repr = plan.routes.sparse < plan.routes.dense
                        ? MatrixRepr::kSparse
                        : MatrixRepr::kDense;
  if (plan.routes.gkp <= std::min(plan.routes.dense, plan.routes.sparse)) {
    chosen = EnginePlan::kGkpPositive;
  }
  if (force_engine.has_value()) chosen = *force_engine;
  // A forced representation without a forced engine routes to the matrix
  // engine -- the only engine with a representation to force.
  if (force_repr.has_value()) {
    if (!force_engine.has_value()) chosen = EnginePlan::kMatrixGeneral;
    repr = *force_repr;
  }
  plan.engine = chosen;
  plan.row_restricted = monadic;
  if (chosen == EnginePlan::kMatrixGeneral) {
    plan.repr = repr;
    plan.cost =
        repr == MatrixRepr::kSparse ? plan.routes.sparse : plan.routes.dense;
  } else {
    plan.cost = plan.routes.gkp;
  }

  // Composition-chain reassociation: a matrix plan that materializes
  // relations executes the association its representation was priced in
  // (a forced kAuto the dense one, where it exists). Pricing leaves no
  // rewrite for monadic sweeps, which are association-invariant, nor for
  // forced parse-order plans, the differential baseline.
  if (plan.engine == EnginePlan::kMatrixGeneral) {
    const ChainSplits& splits =
        plan.repr == MatrixRepr::kSparse || std::isinf(plan.routes.dense)
            ? pricing.sparse_splits
            : pricing.dense_splits;
    if (!splits.changed.empty()) {
      plan.reassociated = Rewrite(*q.pplbin, splits);
      plan.chains_reassociated =
          static_cast<std::uint32_t>(splits.changed.size());
    }
  }
  return plan;
}

bool PlanRequiresDenseRelation(const CompiledQuery& q,
                               const ExecutionPlan& plan) {
  // N-ary machinery (Fig. 8 answer tables, and the enumerator's per-atom
  // relations) is dense end-to-end.
  if (plan.engine == EnginePlan::kNaryAnswer) return true;
  // Matrix plans carrying a sparse (or per-node auto) representation
  // never require the dense form: the run-list kernels evaluate --
  // including full relations -- at any tree size under their run budget.
  const bool sparse_capable = plan.engine == EnginePlan::kMatrixGeneral &&
                              plan.repr != MatrixRepr::kDense;
  // A full-relation answer IS an n x n matrix on every other route.
  if (plan.shape == ResultShape::kFullRelation) return !sparse_capable;
  // Monadic matrix plans materialize a sub-matrix only underneath a
  // complement whose operand is not a plain step -- dense only when the
  // plan's representation says so.
  if (plan.engine == EnginePlan::kMatrixGeneral && q.pplbin != nullptr) {
    return HasNonStepComplement(*q.pplbin) && !sparse_capable;
  }
  return false;
}

std::optional<ExecutionPlan> PlanMemo::Lookup(std::string_view text,
                                              ResultShape shape) const {
  const std::string key = Key(text, shape);
  MutexLock lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void PlanMemo::Insert(std::string_view text, ResultShape shape,
                      const ExecutionPlan& plan) {
  std::string key = Key(text, shape);
  MutexLock lock(mu_);
  if (plans_.size() >= max_entries_ && !plans_.contains(key)) return;
  plans_.emplace(std::move(key), plan);
}

std::size_t PlanMemo::size() const {
  MutexLock lock(mu_);
  return plans_.size();
}

std::uint64_t PlanMemo::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

std::uint64_t PlanMemo::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

std::string PlanMemo::Key(std::string_view text, ResultShape shape) {
  std::string key(text);
  key.push_back('\x1f');  // cannot occur in a parseable query text
  key.append(ResultShapeName(shape));
  return key;
}

}  // namespace xpv::engine
