#include "fo/enumerate.h"

#include <algorithm>
#include <span>
#include <utility>

#include "fo/acq_internal.h"

namespace xpv::fo {

using internal::Forest;
using internal::ParentToChild;
using internal::ReducedQuery;

namespace {

/// R(x -> v) . diag(through) . s for the edge `e` between x and v, read
/// in whichever orientation it is stored, and `s` oriented v -> y: row x
/// of the result ORs the rows of `s` at the nodes of `through` that x
/// reaches along `e`. Only the result is allocated.
BitMatrix ComposeThrough(const ReducedQuery::Edge& e, int x,
                         const BitVector& through, const BitMatrix& s) {
  const BitMatrix& r = e.rel();
  BitMatrix out(r.size());
  if (e.u == x) {
    for (std::size_t row = 0; row < r.size(); ++row) {
      const std::span<const std::uint64_t> words = r.RowWords(row);
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w] & through.words()[w];
        while (bits != 0) {
          out.OrRowFrom(row, s, w * 64 + __builtin_ctzll(bits));
          bits &= bits - 1;
        }
      }
    }
  } else {
    // Stored v -> x: scatter each row k of `s` to the x-nodes k reaches.
    through.ForEachSet([&](std::size_t k) {
      r.ForEachInRow(k, [&](std::size_t row) { out.OrRowFrom(row, s, k); });
    });
  }
  return out;
}

/// Yannakakis projection optimization: existentially eliminates
/// non-output variables before enumeration. The Fig. 7 translation
/// plants projected closure variables (_start, composition midpoints)
/// into every compiled n-ary query; enumerating over them multiplies
/// the DFS work by their candidate counts and forces the dedup set to
/// absorb the duplicate projections. Instead:
///
///   * a non-output LEAF v (degree 1, edge u-v) is absorbed into its
///     neighbor by one semijoin: cand[u] &= nonempty-rows of
///     rel(u->v) restricted to cand[v];
///   * a non-output DEGREE-2 variable v (edges a-v, v-b) is composed
///     away: the new a-b relation is M(a->v) . diag(cand[v]) . M(v->b)
///     (one Boolean product, reading both relations as stored; only two
///     edges that both point into v cost a transpose); a == b
///     degenerates to a unary filter via the product's diagonal;
///   * a non-output ISOLATED variable contributes only satisfiability:
///     an empty candidate set empties the whole query.
///
/// Iterated to fixpoint this strips every chain-shaped projection (all
/// union-free PPL images), so the surviving variable set is exactly the
/// output variables -- the projection becomes injective, the enumerator
/// needs no dedup state, and each answer is produced exactly once.
/// Non-output variables of degree >= 3 (variables branching into a
/// filter) survive; dedup handles them. Returns false when the query
/// became unsatisfiable.
Result<bool> EliminateNonOutputVars(const std::vector<int>& output_ids,
                                    ReducedQuery* rq, CancelToken* cancel) {
  const std::size_t n = rq->vars.size();
  std::vector<bool> is_output(n, false);
  for (int id : output_ids) is_output[static_cast<std::size_t>(id)] = true;
  std::vector<bool> alive(n, true);
  std::vector<ReducedQuery::Edge>& edges = rq->edges;
  std::vector<bool> edge_alive(edges.size(), true);

  auto degree_of = [&](int v) {
    int d = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edge_alive[i] && (edges[i].u == v || edges[i].v == v)) ++d;
    }
    return d;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (int v = 0; v < static_cast<int>(n); ++v) {
      if (!alive[v] || is_output[static_cast<std::size_t>(v)]) continue;
      XPV_RETURN_IF_ERROR(cancel->CheckNow());
      const int deg = degree_of(v);
      const BitVector& cand_v = rq->candidates[static_cast<std::size_t>(v)];
      if (deg == 0) {
        if (cand_v.None()) return false;  // unsatisfiable
        alive[v] = false;
        changed = true;
        continue;
      }
      if (deg > 2) continue;
      // Collect the 1 or 2 live edges at v.
      std::vector<std::size_t> at;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edge_alive[i] && (edges[i].u == v || edges[i].v == v)) {
          at.push_back(i);
        }
      }
      if (deg == 1) {
        const ReducedQuery::Edge& e = edges[at[0]];
        const int u = e.u == v ? e.v : e.u;
        rq->candidates[static_cast<std::size_t>(u)].AndWith(
            internal::AcrossEdge(e, v, cand_v));
        edge_alive[at[0]] = false;
      } else {
        // Compose into a -> b through the edge leaving v; with none,
        // one transpose makes e2 leave v.
        if (edges[at[1]].u != v && edges[at[0]].u == v) {
          std::swap(at[0], at[1]);
        }
        const ReducedQuery::Edge& e1 = edges[at[0]];
        const ReducedQuery::Edge& e2 = edges[at[1]];
        const int a = e1.u == v ? e1.v : e1.u;
        const int b = e2.u == v ? e2.v : e2.u;
        BitMatrix flipped;
        if (e2.u != v) flipped = e2.rel().Transpose();
        BitMatrix composed =
            ComposeThrough(e1, a, cand_v, e2.u == v ? e2.rel() : flipped);
        edge_alive[at[0]] = false;
        edge_alive[at[1]] = false;
        if (a == b) {
          // Both edges lead to one neighbor: a unary self-join filter.
          BitVector diag(composed.size());
          for (NodeId i = 0; i < composed.size(); ++i) {
            if (composed.Get(i, i)) diag.Set(i);
          }
          rq->candidates[static_cast<std::size_t>(a)].AndWith(diag);
        } else {
          // The new edge a -> b; a parallel live edge absorbs it instead.
          bool merged = false;
          for (std::size_t i = 0; i < edges.size(); ++i) {
            ReducedQuery::Edge& other = edges[i];
            if (!edge_alive[i] || std::minmax(other.u, other.v) !=
                                      std::minmax(a, b)) {
              continue;
            }
            other.relation = std::make_shared<const BoolMatrix>(
                other.u == a ? other.rel().And(composed)
                             : other.rel().And(composed.Transpose()));
            merged = true;
            break;
          }
          if (!merged) {
            edges.push_back(
                {a, b, std::make_shared<const BoolMatrix>(std::move(composed))});
            edge_alive.push_back(true);
          }
        }
      }
      alive[v] = false;
      changed = true;
    }
  }

  // Compact ids: surviving vars keep their relative order.
  std::vector<int> remap(n, -1);
  ReducedQuery out;
  for (std::size_t v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    remap[v] = static_cast<int>(out.vars.size());
    out.var_id[rq->vars[v]] = remap[v];
    out.vars.push_back(std::move(rq->vars[v]));
    out.candidates.push_back(std::move(rq->candidates[v]));
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!edge_alive[i]) continue;
    out.edges.push_back(
        {remap[edges[i].u], remap[edges[i].v], std::move(edges[i].relation)});
  }
  *rq = std::move(out);
  return true;
}

}  // namespace

struct AcqEnumerator::Impl {
  ReducedQuery rq;
  Forest forest;
  std::vector<int> output_ids;
  std::size_t num_vars = 0;
  AcqEnumeratorOptions options;

  /// Parent-edge relations oriented parent -> child, one per non-root
  /// variable, precomputed so each DFS frame entry is one row lookup --
  /// calling internal::ParentToChild per step could transpose a full
  /// |t| x |t| matrix, making the delay O(|t|^2/64) instead of
  /// O(#vars |t|/64). Shared with the edge (and so possibly with the
  /// document's RelationCache) unless the edge points child -> parent.
  std::vector<std::shared_ptr<const BoolMatrix>> parent_rel;  // by var id

  // Resumable DFS state: current value per variable (in forest.order
  // position), kNoNode when the frame is not yet entered. `depth` is the
  // index of the next frame to fill; -1 marks exhaustion.
  std::vector<NodeId> assignment;         // by var id
  std::vector<BitVector> frame_choices;   // by order position
  std::vector<std::size_t> frame_cursor;  // next candidate to try
  int depth = 0;
  bool exhausted = false;
  bool started = false;

  /// Projection dedup, engaged only when some variable is projected away
  /// (see dedup_active); nullopt otherwise -- the DFS already produces
  /// each full assignment exactly once.
  std::optional<TupleDedup> seen;
  std::size_t produced = 0;
  Status failed;  // sticky error from cancel/dedup

  /// Fills frame_choices[pos] with the candidate row for the variable at
  /// order position `pos` given the current parent assignment.
  void FillChoices(std::size_t pos) {
    int var = forest.order[pos];
    BitVector& choices = frame_choices[pos];
    choices = rq.candidates[var];
    if (forest.parent[var] >= 0) {
      const std::span<const std::uint64_t> row =
          parent_rel[var]->dense().RowWords(assignment[forest.parent[var]]);
      std::vector<std::uint64_t>& words = choices.mutable_words();
      for (std::size_t w = 0; w < words.size(); ++w) words[w] &= row[w];
    }
  }

  /// Advances the DFS to the next full assignment; returns false when
  /// exhausted.
  bool NextAssignment() {
    if (exhausted) return false;
    const int num_frames = static_cast<int>(forest.order.size());
    if (num_frames == 0) {
      // No variables at all: exactly one (empty) assignment.
      if (started) {
        exhausted = true;
        return false;
      }
      started = true;
      return true;
    }
    if (!started) {
      started = true;
      depth = 0;
      FillChoices(0);
      frame_cursor[0] = frame_choices[0].FirstSet();
    } else {
      // Resume by advancing the deepest frame.
      depth = num_frames - 1;
      frame_cursor[depth] =
          frame_choices[depth].NextSet(frame_cursor[depth] + 1);
    }
    while (true) {
      if (depth < 0) {
        exhausted = true;
        return false;
      }
      const std::size_t n = frame_choices[depth].size();
      if (frame_cursor[depth] >= n) {
        // Frame exhausted: backtrack.
        assignment[forest.order[depth]] = kNoNode;
        --depth;
        if (depth >= 0) {
          frame_cursor[depth] =
              frame_choices[depth].NextSet(frame_cursor[depth] + 1);
        }
        continue;
      }
      assignment[forest.order[depth]] =
          static_cast<NodeId>(frame_cursor[depth]);
      if (depth + 1 == num_frames) return true;  // full assignment
      ++depth;
      FillChoices(static_cast<std::size_t>(depth));
      frame_cursor[depth] = frame_choices[depth].FirstSet();
    }
  }

  xpath::NodeTuple Project() const {
    xpath::NodeTuple tuple(output_ids.size());
    for (std::size_t i = 0; i < output_ids.size(); ++i) {
      tuple[i] = assignment[output_ids[i]];
    }
    return tuple;
  }
};

Result<AcqEnumerator> AcqEnumerator::Create(const Tree& t,
                                            const ConjunctiveQuery& q,
                                            AcqEnumeratorOptions options) {
  auto impl = std::make_unique<Impl>();
  impl->options = std::move(options);
  internal::VarUnionFind uf;
  hcl::LeafRelations leaves(impl->options.axis_cache != nullptr
                                ? impl->options.axis_cache
                                : std::make_shared<AxisCache>(t),
                            impl->options.relation_cache);
  XPV_RETURN_IF_ERROR(internal::BuildReduced(t, q, &uf, &impl->rq, leaves,
                                             &impl->options.cancel));
  // Cyclicity is judged on the raw variable graph (the documented
  // contract); elimination below may only shrink it.
  if (!internal::BuildForest(impl->rq, &impl->forest)) {
    return Status::InvalidArgument("query is cyclic: " + q.ToString());
  }
  XPV_RETURN_IF_ERROR(impl->options.cancel.CheckNow());

  // Existentially eliminate projected variables, then rebuild the
  // forest over the survivors and semijoin-reduce it.
  std::vector<int> raw_output_ids;
  for (const std::string& v : q.output_vars) {
    raw_output_ids.push_back(impl->rq.var_id.at(uf.Find(v)));
  }
  XPV_ASSIGN_OR_RETURN(
      const bool satisfiable,
      EliminateNonOutputVars(raw_output_ids, &impl->rq,
                             &impl->options.cancel));
  if (!satisfiable) {
    // A projected component with no candidates empties the answer set.
    impl->exhausted = true;
    impl->rq = ReducedQuery{};
    impl->forest = Forest{};
    leaves.Publish();
    return AcqEnumerator(std::move(impl));
  }
  if (!internal::BuildForest(impl->rq, &impl->forest)) {
    return Status::Internal("elimination produced a cyclic graph");
  }
  internal::SemijoinReduce(impl->forest, &impl->rq);
  impl->parent_rel.resize(impl->rq.vars.size());
  for (int var = 0; var < static_cast<int>(impl->rq.vars.size()); ++var) {
    if (impl->forest.parent[var] >= 0) {
      impl->parent_rel[var] = ParentToChild(impl->rq, impl->forest, var);
    }
  }
  for (const std::string& v : q.output_vars) {
    impl->output_ids.push_back(impl->rq.var_id.at(uf.Find(v)));
  }
  impl->num_vars = impl->rq.vars.size();
  impl->assignment.assign(impl->num_vars, kNoNode);
  impl->frame_choices.assign(impl->forest.order.size(), BitVector(t.size()));
  impl->frame_cursor.assign(impl->forest.order.size(), 0);
  // The projection is injective exactly when every (representative)
  // variable appears in the output tuple: then distinct assignments
  // project to distinct tuples and no dedup state is needed.
  std::vector<int> sorted_outputs = impl->output_ids;
  std::sort(sorted_outputs.begin(), sorted_outputs.end());
  bool injective = true;
  for (std::size_t id = 0; id < impl->num_vars; ++id) {
    if (!std::binary_search(sorted_outputs.begin(), sorted_outputs.end(),
                            static_cast<int>(id))) {
      injective = false;
      break;
    }
  }
  if (!injective) {
    impl->seen.emplace(impl->output_ids.size(), impl->options.dedup);
  }
  leaves.Publish();
  return AcqEnumerator(std::move(impl));
}

AcqEnumerator::AcqEnumerator(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
AcqEnumerator::AcqEnumerator(AcqEnumerator&&) noexcept = default;
AcqEnumerator& AcqEnumerator::operator=(AcqEnumerator&&) noexcept = default;
AcqEnumerator::~AcqEnumerator() = default;

Result<std::optional<xpath::NodeTuple>> AcqEnumerator::Next() {
  if (!impl_->failed.ok()) return impl_->failed;  // sticky
  while (true) {
    Status live = impl_->options.cancel.Check();
    if (!live.ok()) {
      impl_->failed = live;
      return live;
    }
    if (!impl_->NextAssignment()) return std::optional<xpath::NodeTuple>();
    xpath::NodeTuple tuple = impl_->Project();
    if (impl_->seen.has_value()) {
      // Projection may collapse distinct assignments; skip duplicates.
      Result<bool> fresh = impl_->seen->Insert(tuple);
      if (!fresh.ok()) {
        impl_->failed = fresh.status();
        return impl_->failed;
      }
      if (!*fresh) continue;
    }
    ++impl_->produced;
    return std::optional<xpath::NodeTuple>(std::move(tuple));
  }
}

std::size_t AcqEnumerator::produced() const { return impl_->produced; }

bool AcqEnumerator::dedup_active() const { return impl_->seen.has_value(); }

std::size_t AcqEnumerator::dedup_entries() const {
  return impl_->seen.has_value() ? impl_->seen->size() : 0;
}

std::size_t AcqEnumerator::resident_bytes() const {
  std::size_t bytes = impl_->assignment.capacity() * sizeof(NodeId) +
                      impl_->frame_cursor.capacity() * sizeof(std::size_t);
  for (const BitVector& frame : impl_->frame_choices) {
    bytes += frame.words().capacity() * sizeof(std::uint64_t);
  }
  if (impl_->seen.has_value()) bytes += impl_->seen->memory_bytes();
  return bytes;
}

}  // namespace xpv::fo
