#include "hcl/answer.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

namespace xpv::hcl {

namespace {

/// A set holding one all-unset row (or, at width 0, the one empty row).
bool IsEpsilon(const Valuations& v) {
  return v.count == 1 &&
         std::all_of(v.cells.begin(), v.cells.end(),
                     [](NodeId c) { return c == kNoNode; });
}

/// Builds a set from `cells` (rows of `width` back to back, in any order,
/// repeats allowed): sorts the rows and drops repeats, skipping the sort
/// when the rows are already strictly ascending.
ValuationsPtr MakeSet(std::size_t width, std::size_t count,
                      std::vector<NodeId> cells) {
  auto out = std::make_shared<Valuations>();
  out->width = width;
  if (width == 0) {
    out->count = std::min<std::size_t>(count, 1);
    return out;
  }
  auto row = [&](std::size_t i) { return cells.data() + i * width; };
  auto less = [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(row(a), row(a) + width, row(b),
                                        row(b) + width);
  };
  bool ascending = true;
  for (std::size_t i = 1; i < count && ascending; ++i) {
    ascending = less(i - 1, i);
  }
  if (ascending) {
    out->count = count;
    out->cells = std::move(cells);
    return out;
  }
  if (width == 1) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    out->count = cells.size();
    out->cells = std::move(cells);
    return out;
  }
  std::vector<std::uint32_t> order(count);
  for (std::size_t i = 0; i < count; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end(), less);
  out->cells.reserve(cells.size());
  const NodeId* prev = nullptr;
  for (std::uint32_t i : order) {
    if (prev != nullptr && std::equal(row(i), row(i) + width, prev)) continue;
    out->cells.insert(out->cells.end(), row(i), row(i) + width);
    prev = row(i);
  }
  out->count = out->cells.size() / width;
  return out;
}

/// The union of `parts`. Empty and already-taken operands (same pointer)
/// are dropped first; a single survivor is returned as is, without a
/// copy. Survivors are concatenated in first-seen order, so parts listed
/// in ascending order need no sort.
ValuationsPtr UnionOf(const std::vector<ValuationsPtr>& parts,
                      const ValuationsPtr& empty) {
  std::vector<const Valuations*> distinct;
  std::unordered_set<const Valuations*> taken;
  const ValuationsPtr* single = nullptr;
  for (const ValuationsPtr& p : parts) {
    if (p->count == 0 || !taken.insert(p.get()).second) continue;
    distinct.push_back(p.get());
    single = &p;
  }
  if (distinct.empty()) return empty;
  if (distinct.size() == 1) return *single;
  std::size_t count = 0;
  std::vector<NodeId> cells;
  for (const Valuations* p : distinct) {
    count += p->count;
    cells.insert(cells.end(), p->cells.begin(), p->cells.end());
  }
  return MakeSet(empty->width, count, std::move(cells));
}

/// Groups equal rows of `m`: equal rows get equal ids in [0, size()).
/// Rows are bucketed by a hash of their words, and rows within a bucket
/// compared word by word.
std::vector<std::uint32_t> RowClasses(const BitMatrix& m) {
  const std::size_t n = m.size();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t w : m.RowWords(r)) {
      h = (h ^ w) * 0xFF51AFD7ED558CCDULL;
      h ^= h >> 32;
    }
    keyed[r] = {h, static_cast<std::uint32_t>(r)};
  }
  std::sort(keyed.begin(), keyed.end());
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> cls(n, kUnset);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && keyed[j].first == keyed[i].first) ++j;
    for (std::size_t a = i; a < j; ++a) {
      const std::uint32_t ra = keyed[a].second;
      if (cls[ra] != kUnset) continue;
      cls[ra] = next;
      const auto words = m.RowWords(ra);
      for (std::size_t b = a + 1; b < j; ++b) {
        const std::uint32_t rb = keyed[b].second;
        if (cls[rb] == kUnset &&
            std::ranges::equal(words, m.RowWords(rb))) {
          cls[rb] = next;
        }
      }
      ++next;
    }
    i = j;
  }
  return cls;
}

}  // namespace

QueryAnswerer::QueryAnswerer(const Tree& t, const HclExpr& c,
                             std::vector<std::string> tuple_vars,
                             AnswerOptions options,
                             std::shared_ptr<AxisCache> axis_cache)
    : tree_(t),
      expr_(c),
      tuple_vars_(std::move(tuple_vars)),
      options_(std::move(options)),
      axis_cache_(std::move(axis_cache)) {
  for (const auto& v : tuple_vars_) {
    if (!var_index_.contains(v)) {
      var_index_[v] = static_cast<int>(query_vars_.size());
      query_vars_.push_back(v);
    }
  }
  const std::size_t width = query_vars_.size();
  auto empty = std::make_shared<Valuations>();
  empty->width = width;
  empty_ = std::move(empty);
  auto epsilon = std::make_shared<Valuations>();
  epsilon->width = width;
  epsilon->count = 1;
  epsilon->cells.assign(width, kNoNode);
  epsilon_ = std::move(epsilon);
}

Status QueryAnswerer::Prepare() {
  XPV_RETURN_IF_ERROR(CheckNoSharedComposition(expr_));
  form_ = SharingForm::FromHcl(expr_);
  const std::size_t n = tree_.size();
  const std::size_t num_subformulas = form_->num_subformulas();

  // Leaf relations, shared with the document's other jobs through the
  // axis cache (step leaves) and the RelationCache (whole leaves), when
  // the caller gave them.
  if (axis_cache_ == nullptr) axis_cache_ = std::make_shared<AxisCache>(tree_);
  leaf_relations_.emplace(axis_cache_, options_.relation_cache);
  leaf_of_.assign(num_subformulas, nullptr);
  union_targets_.assign(num_subformulas, {});
  for (std::size_t id = 0; id < num_subformulas; ++id) {
    const SharingExpr& d = form_->Subformula(static_cast<int>(id));
    if (d.kind == SharingKind::kUnion) {
      union_targets_[id] = VarIndicesOf(static_cast<int>(id));
    }
    if (d.kind != SharingKind::kCompose ||
        d.prefix->kind != PrefixKind::kBinary) {
      continue;
    }
    XPV_RETURN_IF_ERROR(options_.cancel.CheckNow());
    XPV_ASSIGN_OR_RETURN(std::shared_ptr<const BoolMatrix> relation,
                         leaf_relations_->Get(*d.prefix->binary));
    auto [it, inserted] = leaves_.try_emplace(relation.get());
    if (inserted) {
      it->second.relation = std::move(relation);
      // Row classes only key the vals memo; without it they are unused.
      if (options_.memoize_vals) {
        it->second.row_class = RowClasses(it->second.relation->dense());
      }
    }
    leaf_of_[id] = &it->second;
  }

  // MC table, one node set per subformula -- the dynamic program of
  // Proposition 10, bottom-up over the sharing form. Under the E11
  // no-filter ablation every set is full, so every branch is explored.
  if (options_.use_mc_filter) {
    mc_.assign(num_subformulas, BitVector());
    mc_done_.assign(num_subformulas, false);
    for (std::size_t id = 0; id < num_subformulas; ++id) {
      XPV_RETURN_IF_ERROR(options_.cancel.CheckNow());
      ComputeMc(form_->Subformula(static_cast<int>(id)));
    }
  } else {
    BitVector all(n);
    all.Fill();
    mc_.assign(num_subformulas, all);
  }

  vals_memo_.assign(num_subformulas * n, nullptr);
  prepared_ = true;
  return Status::OK();
}

const BitVector& QueryAnswerer::ComputeMc(const SharingExpr& d) {
  const std::size_t id = static_cast<std::size_t>(d.id);
  if (mc_done_[id]) return mc_[id];
  BitVector value;
  switch (d.kind) {
    case SharingKind::kSelf:
      // MC(self, u) = 1.
      value = BitVector(tree_.size());
      value.Fill();
      break;
    case SharingKind::kParam:
      // MC(p, u) = MC(Delta(p), u).
      value = ComputeMc(form_->Def(d.param));
      break;
    case SharingKind::kUnion:
      // MC(D u D', u) = MC(D, u) or MC(D', u).
      value = ComputeMc(*d.left);
      value.OrWith(ComputeMc(*d.right));
      break;
    case SharingKind::kCompose: {
      const PrefixExpr& e = *d.prefix;
      switch (e.kind) {
        case PrefixKind::kBinary:
          // MC(b/D, u) = OR over (u,u') in q_b(t) of MC(D, u'): the rows
          // of q_b meeting MC(D).
          value = leaf_of_[id]->relation->dense().RowsMeeting(
              ComputeMc(*d.left));
          break;
        case PrefixKind::kVar:
          // MC(x/D, u) = MC(D, u): by NVS(/), x does not occur in D, so x
          // can always be bound to u independently.
          value = ComputeMc(*d.left);
          break;
        case PrefixKind::kFilter:
          // MC([D]/D', u) = MC(D, u) and MC(D', u): by NVS(/) the two
          // sides are variable-disjoint, hence independently satisfiable.
          value = ComputeMc(*e.filter_body);
          value.AndWith(ComputeMc(*d.left));
          break;
      }
      break;
    }
  }
  // mc_ is sized once in Prepare, so references handed out above stay
  // valid while the recursion fills other entries.
  mc_[id] = std::move(value);
  mc_done_[id] = true;
  return mc_[id];
}

std::vector<int> QueryAnswerer::VarIndicesOf(int subformula_id) const {
  std::vector<int> out;
  for (const std::string& v : form_->VarsOf(subformula_id)) {
    auto it = var_index_.find(v);
    if (it != var_index_.end()) out.push_back(it->second);
  }
  return out;
}

ValuationsPtr QueryAnswerer::Extend(
    const ValuationsPtr& in, const std::vector<int>& target_positions) const {
  const std::size_t width = in->width;
  const std::size_t n = tree_.size();
  bool partial = false;
  for (std::size_t i = 0; i < in->count && !partial; ++i) {
    for (int pos : target_positions) {
      if (in->Row(i)[pos] == kNoNode) {
        partial = true;
        break;
      }
    }
  }
  if (!partial) return in;
  std::vector<NodeId> cells;
  std::size_t count = 0;
  std::vector<int> missing;
  for (std::size_t i = 0; i < in->count; ++i) {
    const NodeId* base = in->Row(i);
    missing.clear();
    for (int pos : target_positions) {
      if (base[pos] == kNoNode) missing.push_back(pos);
    }
    std::vector<NodeId> tuple(base, base + width);
    std::vector<NodeId> counters(missing.size(), 0);
    while (true) {
      for (std::size_t k = 0; k < missing.size(); ++k) {
        tuple[missing[k]] = counters[k];
      }
      cells.insert(cells.end(), tuple.begin(), tuple.end());
      ++count;
      std::size_t k = 0;
      for (; k < counters.size(); ++k) {
        if (++counters[k] < n) break;
        counters[k] = 0;
      }
      if (k == counters.size()) break;
    }
  }
  return MakeSet(width, count, std::move(cells));
}

ValuationsPtr QueryAnswerer::Vals(const SharingExpr& d, NodeId u) {
  // Cooperative cancellation: once the token fires, the whole recursion
  // unwinds fast through empty sets (checked first, so an interrupted
  // run does no further work) and nothing more is memoized -- a partial
  // set in the memo would corrupt later reuse.
  if (!interrupted_.ok()) return empty_;
  if (Status live = options_.cancel.Check(); !live.ok()) {
    interrupted_ = live;
    return empty_;
  }
  // Fig. 8 line 3: filter unsatisfiable cases through the MC table.
  // (Under the no-filter ablation the table is all-ones, so every branch
  // is explored and dead valuations are discarded only at merge points.)
  if (!Mc(d.id, u)) return empty_;
  // self and p cost nothing beyond their definition's memo entry.
  if (d.kind == SharingKind::kSelf || d.kind == SharingKind::kParam ||
      !options_.memoize_vals) {
    return ValsCompute(d, u);
  }
  const std::size_t id = static_cast<std::size_t>(d.id);
  const Leaf* leaf = leaf_of_[id];
  const std::size_t key = leaf != nullptr ? leaf->row_class[u] : u;
  ValuationsPtr& memo = vals_memo_[id * tree_.size() + key];
  if (memo != nullptr) return memo;
  ValuationsPtr out = ValsCompute(d, u);
  if (!interrupted_.ok()) return empty_;
  // vals_memo_ never reallocates (sized in Prepare), so `memo` is still
  // the right slot after the recursion.
  memo = out;
  return out;
}

ValuationsPtr QueryAnswerer::SuccessorUnion(const SharingExpr& d, NodeId u) {
  const std::span<const std::uint64_t> row =
      leaf_of_[static_cast<std::size_t>(d.id)]->relation->dense().RowWords(u);
  const std::vector<std::uint64_t>& next_mc = mc_[d.left->id].words();
  std::vector<ValuationsPtr> parts;
  for (std::size_t w = 0; w < row.size(); ++w) {
    std::uint64_t bits = row[w] & next_mc[w];
    while (bits != 0) {
      const NodeId v = static_cast<NodeId>(
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
      bits &= bits - 1;
      ValuationsPtr sub = Vals(*d.left, v);
      // Successors in one row class share one memo entry: skip the
      // repeat here already, UnionOf catches the non-adjacent ones.
      if (parts.empty() || parts.back() != sub) parts.push_back(std::move(sub));
    }
  }
  return UnionOf(parts, empty_);
}

ValuationsPtr QueryAnswerer::ValsCompute(const SharingExpr& d, NodeId u) {
  switch (d.kind) {
    case SharingKind::kSelf:
      // vals(self, u) = { epsilon }.
      return epsilon_;
    case SharingKind::kParam:
      return Vals(form_->Def(d.param), u);
    case SharingKind::kUnion: {
      // Both branches are extended to be total on Var((D u D')_Delta)
      // intersected with the query variables, then unioned; this
      // deduplicates valuations that differ only on variables free in the
      // other branch.
      const std::vector<int>& target =
          union_targets_[static_cast<std::size_t>(d.id)];
      return UnionOf(
          {Extend(Vals(*d.left, u), target), Extend(Vals(*d.right, u), target)},
          empty_);
    }
    case SharingKind::kCompose:
      break;
  }
  const PrefixExpr& e = *d.prefix;
  switch (e.kind) {
    case PrefixKind::kBinary:
      // vals(b/D', u) = union over successors u' of vals(D', u').
      return SuccessorUnion(d, u);
    case PrefixKind::kVar: {
      auto it = var_index_.find(e.var);
      // x projected away: vals(D', u) unchanged.
      if (it == var_index_.end()) return Vals(*d.left, u);
      // x in x: bind x to u in every valuation of the continuation. NVS(/)
      // guarantees x is unset in all of them, so the rows stay sorted and
      // distinct.
      ValuationsPtr rest = Vals(*d.left, u);
      if (rest->count == 0) return empty_;
      auto out = std::make_shared<Valuations>(*rest);
      for (std::size_t i = 0; i < out->count; ++i) {
        NodeId& cell = out->cells[i * out->width + it->second];
        assert(cell == kNoNode &&
               "NVS(/) guarantees x is unset in the continuation");
        cell = u;
      }
      return out;
    }
    case PrefixKind::kFilter: {
      // vals([D']/D'', u) = pairwise disjoint unions alpha' . alpha''.
      ValuationsPtr filter_vals = Vals(*e.filter_body, u);
      ValuationsPtr rest_vals = Vals(*d.left, u);
      if (filter_vals->count == 0 || rest_vals->count == 0) return empty_;
      if (IsEpsilon(*filter_vals)) return rest_vals;
      if (IsEpsilon(*rest_vals)) return filter_vals;
      const std::size_t width = query_vars_.size();
      std::vector<NodeId> cells;
      cells.reserve(filter_vals->count * rest_vals->count * width);
      for (std::size_t i = 0; i < filter_vals->count; ++i) {
        for (std::size_t j = 0; j < rest_vals->count; ++j) {
          const NodeId* a = filter_vals->Row(i);
          const NodeId* b = rest_vals->Row(j);
          for (std::size_t k = 0; k < width; ++k) {
            assert((a[k] == kNoNode || b[k] == kNoNode) &&
                   "NVS(/) guarantees disjoint valuation domains");
            cells.push_back(b[k] != kNoNode ? b[k] : a[k]);
          }
        }
      }
      return MakeSet(width, filter_vals->count * rest_vals->count,
                     std::move(cells));
    }
  }
  return empty_;  // unreachable: the switches above cover every kind
}

Result<xpath::TupleSet> QueryAnswerer::Answer() {
  assert(prepared_ && "call Prepare() first");
  XPV_RETURN_IF_ERROR(interrupted_);
  // partial_vals = union over u of vals(D, u).
  std::vector<ValuationsPtr> parts;
  const SharingExpr& root = form_->root();
  for (std::size_t u = mc_[root.id].FirstSet(); u < tree_.size();
       u = mc_[root.id].NextSet(u + 1)) {
    ValuationsPtr at_u = Vals(root, static_cast<NodeId>(u));
    XPV_RETURN_IF_ERROR(interrupted_);
    if (parts.empty() || parts.back() != at_u) parts.push_back(std::move(at_u));
  }
  // valuations = extend_{t,x}(partial_vals).
  std::vector<int> all_positions(query_vars_.size());
  for (std::size_t i = 0; i < all_positions.size(); ++i) {
    all_positions[i] = static_cast<int>(i);
  }
  const ValuationsPtr valuations =
      Extend(UnionOf(parts, empty_), all_positions);
  // return { alpha(x) | alpha in valuations }. Rows arrive sorted, so with
  // x = the query variables in order every insert lands at the end.
  std::vector<int> tuple_positions;
  for (const std::string& v : tuple_vars_) {
    tuple_positions.push_back(var_index_.at(v));
  }
  xpath::TupleSet answers;
  for (std::size_t i = 0; i < valuations->count; ++i) {
    const NodeId* val = valuations->Row(i);
    xpath::NodeTuple tuple(tuple_positions.size());
    for (std::size_t k = 0; k < tuple_positions.size(); ++k) {
      tuple[k] = val[tuple_positions[k]];
    }
    answers.emplace_hint(answers.end(), std::move(tuple));
  }
  // The run succeeded: leaf relations it evaluated may now serve others.
  leaf_relations_->Publish();
  return answers;
}

Result<xpath::TupleSet> AnswerQuery(
    const Tree& t, const HclExpr& c,
    const std::vector<std::string>& tuple_vars) {
  QueryAnswerer answerer(t, c, tuple_vars);
  XPV_RETURN_IF_ERROR(answerer.Prepare());
  return answerer.Answer();
}

}  // namespace xpv::hcl
