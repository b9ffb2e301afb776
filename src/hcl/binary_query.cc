#include "hcl/binary_query.h"

#include "ppl/canonical.h"
#include "ppl/matrix_engine.h"
#include "ppl/relation_cache.h"
#include "ppl/simplify.h"

namespace xpv::hcl {

BitMatrix AxisQuery::Evaluate(const Tree& t) const {
  BitMatrix m = AxisMatrix(t, axis_);
  if (name_test_.empty()) return m;
  return m.MaskColumns(LabelSet(t, name_test_));
}

Result<BitMatrix> AxisQuery::EvaluateCached(
    const std::shared_ptr<AxisCache>& cache) const {
  // HCL machinery is dense end-to-end; kNaryAnswer plans are refused
  // beyond BitMatrix::kMaxDenseNodes before reaching this leaf, and a
  // caller that slips through gets a job error, not a crash.
  return cache->DenseStep(axis_, name_test_);
}

std::string AxisQuery::ToString() const {
  std::string out(AxisName(axis_));
  out += "::";
  out += name_test_.empty() ? "*" : name_test_;
  return out;
}

namespace {

/// The text CompileQuery gives `p` as a binary query: the canonical text
/// of its simplified form.
std::string CompiledText(const ppl::PplBinExpr& p) {
  return ppl::Canonicalize(ppl::Simplify(p.Clone()))->ToString();
}

}  // namespace

PplBinQuery::PplBinQuery(ppl::PplBinPtr expr)
    : expr_(std::move(expr)), relation_text_(CompiledText(*expr_)) {}

BitMatrix PplBinQuery::Evaluate(const Tree& t) const {
  ppl::MatrixEngine engine(t);
  return engine.Evaluate(*expr_);
}

Result<BitMatrix> PplBinQuery::EvaluateCached(
    const std::shared_ptr<AxisCache>& cache) const {
  ppl::MatrixEngine engine(cache);
  return engine.EvaluateDense(*expr_);
}

Result<BitMatrix> FullRelationQuery::EvaluateCached(
    const std::shared_ptr<AxisCache>& cache) const {
  const std::size_t n = cache->tree().size();
  // Gate the O(n^2)-bit fill behind the fallible constructor instead of
  // letting BitMatrix::Full allocate unboundedly on an oversized tree.
  XPV_ASSIGN_OR_RETURN(BitMatrix m, BitMatrix::Create(n));
  for (std::size_t r = 0; r < n; ++r) m.SetRowRange(r, 0, n);
  return m;
}

const std::string& FullRelationQuery::RelationText() const {
  static const std::string text = CompiledText(*ppl::MakeNodesRelation());
  return text;
}

Result<std::shared_ptr<const BoolMatrix>> LeafRelations::Get(
    const BinaryQuery& b) {
  const std::string& text = b.RelationText();
  auto it = by_text_.find(text);
  if (it != by_text_.end()) return it->second;
  const std::string key =
      ppl::RelationKey(text, MatrixReprName(MatrixRepr::kDense));
  std::shared_ptr<const BoolMatrix> relation =
      relations_ != nullptr ? relations_->Get(key) : nullptr;
  if (relation == nullptr) {
    XPV_ASSIGN_OR_RETURN(BitMatrix dense, b.EvaluateCached(axes_));
    relation = std::make_shared<const BoolMatrix>(std::move(dense));
    if (relations_ != nullptr) fresh_.emplace_back(key, relation);
  }
  by_text_.emplace(text, relation);
  return relation;
}

void LeafRelations::Publish() {
  for (auto& [key, relation] : fresh_) relations_->Put(key, relation);
  fresh_.clear();
}

BinaryQueryPtr MakeAxisQuery(Axis axis, std::string name_test) {
  return std::make_shared<AxisQuery>(axis, std::move(name_test));
}

BinaryQueryPtr MakePplBinQuery(ppl::PplBinPtr expr) {
  return std::make_shared<PplBinQuery>(std::move(expr));
}

BinaryQueryPtr MakeFullRelationQuery() {
  return std::make_shared<FullRelationQuery>();
}

}  // namespace xpv::hcl
