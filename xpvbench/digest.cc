#include "digest.h"

#include "common/rng.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

namespace xpvbench {

using xpv::BitVector;
using xpv::engine::QueryResult;
using xpv::engine::ResultShape;

namespace {

/// Mixes a nonempty row's bits under its index. Rows are compared as
/// canonical 64-bit words with zero padding, whichever representation
/// produced them; empty rows contribute nothing.
void MixRow(Digest& d, std::size_t row, const BitVector& bits) {
  if (bits.None()) return;
  d.Mix(row);
  for (std::uint64_t w : bits.words()) d.Mix(w);
}

}  // namespace

void Digest::MixSet(const BitVector& set) {
  Mix(set.size());
  MixRow(*this, 0, set);
}

void Digest::MixRelation(const xpv::BitMatrix& m) {
  Mix(m.size());
  BitVector row(m.size());
  for (std::size_t r = 0; r < m.size(); ++r) {
    m.CopyRowInto(r, row);
    MixRow(*this, r, row);
  }
}

void Digest::MixRelation(const xpv::BoolMatrix& m) {
  Mix(m.size());
  BitVector row(m.size());
  for (std::size_t r = 0; r < m.size(); ++r) {
    m.RowInto(r, row);
    MixRow(*this, r, row);
  }
}

void Digest::MixTuple(const xpv::xpath::NodeTuple& tuple) {
  Mix(tuple.size());
  for (xpv::NodeId v : tuple) Mix(v);
}

void Digest::MixTuples(const xpv::xpath::TupleSet& tuples) {
  Mix(tuples.size());
  for (const auto& t : tuples) MixTuple(t);
}

std::uint64_t DigestResult(const QueryResult& r, ResultShape shape,
                           bool nary) {
  Digest d;
  d.Mix(static_cast<std::uint64_t>(r.status.code()));
  if (!r.status.ok()) return d.value();
  switch (shape) {
    case ResultShape::kBoolean:
      d.Mix(r.boolean ? 1 : 2);
      break;
    case ResultShape::kCount:
      d.Mix(r.count);
      break;
    case ResultShape::kFromRootSet:
    case ResultShape::kFullRelation:
    case ResultShape::kTupleStream:
      if (nary) {
        d.MixTuples(r.tuples);
        break;
      }
      d.MixSet(r.from_root);
      if (shape != ResultShape::kFullRelation) break;
      if (r.relation_sparse != nullptr) {
        d.MixRelation(static_cast<const xpv::BoolMatrix&>(*r.relation_sparse));
      } else {
        d.MixRelation(r.relation);
      }
      break;
  }
  return d.value();
}

std::uint64_t DigestPage(const std::vector<xpv::xpath::NodeTuple>& page) {
  Digest d;
  d.Mix(page.size());
  for (const auto& t : page) d.MixTuple(t);
  return d.value();
}

std::string OracleCheck(const xpv::Tree& tree, const std::string& text,
                        ResultShape shape, bool nary, const QueryResult& result,
                        std::uint64_t seed) {
  if (!result.status.ok()) {
    return "service error: " + result.status.ToString();
  }
  xpv::Result<xpv::xpath::PathPtr> path = xpv::xpath::ParseAbbreviatedPath(text);
  if (!path.ok()) return "oracle parse error: " + path.status().ToString();
  xpv::xpath::DirectEvaluator eval(tree);

  if (!nary) {
    xpv::Result<xpv::BitMatrix> m = eval.TryEvalPath(**path, {});
    if (!m.ok()) return "oracle error: " + m.status().ToString();
    QueryResult expected;
    expected.from_root = m->Row(tree.root());
    expected.boolean = expected.from_root.Any();
    expected.count = expected.from_root.Count();
    expected.relation = std::move(m).value();
    if (DigestResult(expected, shape, false) != DigestResult(result, shape, false)) {
      return "binary answer differs from Fig. 2 semantics";
    }
    return "";
  }

  if (shape != ResultShape::kFullRelation) return "";
  const std::vector<std::string> vars = [&] {
    std::vector<std::string> out;
    for (const std::string& v : xpv::xpath::FreeVars(**path)) out.push_back(v);
    return out;
  }();
  auto selects = [&](const xpv::xpath::NodeTuple& t) -> xpv::Result<bool> {
    xpv::xpath::Assignment alpha;
    for (std::size_t i = 0; i < vars.size(); ++i) alpha[vars[i]] = t[i];
    XPV_ASSIGN_OR_RETURN(xpv::BitMatrix m, eval.TryEvalPath(**path, alpha));
    return !m.None();
  };
  xpv::Rng rng(seed);
  const std::vector<xpv::xpath::NodeTuple> answers(result.tuples.begin(),
                                                   result.tuples.end());
  for (int probe = 0; probe < 16 && !answers.empty(); ++probe) {
    const xpv::xpath::NodeTuple& t = answers[rng.Below(answers.size())];
    if (t.size() != vars.size()) return "answer tuple has the wrong arity";
    xpv::Result<bool> sel = selects(t);
    if (!sel.ok()) return "oracle error: " + sel.status().ToString();
    if (!*sel) return "an answer tuple does not select under Fig. 2";
    // Perturb one position: the oracle and the answer set must agree on
    // whether the neighbouring tuple is an answer.
    xpv::xpath::NodeTuple u = t;
    u[rng.Below(u.size())] =
        static_cast<xpv::NodeId>(rng.Below(tree.size()));
    xpv::Result<bool> usel = selects(u);
    if (!usel.ok()) return "oracle error: " + usel.status().ToString();
    if (*usel != result.tuples.contains(u)) {
      return "answer set disagrees with Fig. 2 on a perturbed tuple";
    }
  }
  return "";
}

}  // namespace xpvbench
