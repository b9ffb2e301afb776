#include "hcl/binary_query.h"

#include "ppl/matrix_engine.h"

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
