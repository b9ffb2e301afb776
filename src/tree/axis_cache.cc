#include "tree/axis_cache.h"

#include <algorithm>
#include <utility>

namespace xpv {

const BoolMatrix& AxisCache::Matrix(Axis axis) {
  const auto i = static_cast<std::size_t>(axis);
  std::call_once(axis_once_[i], [&] {
    axis_storage_[i] = std::make_unique<const BoolMatrix>(
        interval_backed() ? BoolMatrix(AxisSparseMatrix(tree_, axis))
                          : BoolMatrix(AxisMatrix(tree_, axis)));
    // Publish before counting: a reader that observes the incremented
    // counter (acquire) is guaranteed to also see the entry, so the
    // byte stat can never attribute bytes to a half-built slot.
    axis_[i].store(axis_storage_[i].get(), std::memory_order_release);
    matrices_built_.fetch_add(1, std::memory_order_release);
  });
  return *axis_[i].load(std::memory_order_acquire);
}

bool AxisCache::InstallPrebuilt(Axis axis, BoolMatrix m) {
  const auto i = static_cast<std::size_t>(axis);
  bool installed = false;
  std::call_once(axis_once_[i], [&] {
    axis_storage_[i] = std::make_unique<const BoolMatrix>(std::move(m));
    axis_[i].store(axis_storage_[i].get(), std::memory_order_release);
    matrices_built_.fetch_add(1, std::memory_order_release);
    matrices_installed_.fetch_add(1, std::memory_order_release);
    installed = true;
  });
  return installed;
}

std::vector<Axis> AxisCache::BuiltAxes() const {
  std::vector<Axis> built;
  for (Axis axis : kAllAxes) {
    const auto i = static_cast<std::size_t>(axis);
    if (axis_[i].load(std::memory_order_acquire) != nullptr) {
      built.push_back(axis);
    }
  }
  return built;
}

namespace {

bool IsWildcard(const std::string& name_test) {
  return name_test.empty() || name_test == "*";
}

}  // namespace

Result<SparseBoolMatrix> AxisCache::SparseStep(Axis axis,
                                               const std::string& name_test,
                                               std::size_t max_runs) {
  const BoolMatrix& m = Matrix(axis);
  const BitVector* labels =
      IsWildcard(name_test) ? nullptr : &Labels(name_test);
  const std::size_t n = m.size();
  SparseBoolMatrix::Builder builder(n, max_runs);
  if (m.is_dense()) {
    BitVector scratch;
    for (std::size_t r = 0; r < n; ++r) {
      m.dense().CopyRowInto(r, scratch);
      if (labels != nullptr) scratch.AndWith(*labels);
      if (!builder.AppendBits(static_cast<std::uint32_t>(r), scratch)) {
        return builder.Finish();  // budget overflow -> error status
      }
    }
    return builder.Finish();
  }
  // Run-native: an unmasked step keeps every axis run; a masked one
  // intersects each run with the label set's maximal set-bit runs
  // (NextSet / NextUnset walk words, not bits).
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = static_cast<std::uint32_t>(r);
    auto [first, last] = m.sparse().RunsOf(r);
    for (auto it = first; it != last; ++it) {
      if (labels == nullptr) {
        if (!builder.Append(row, it->begin, it->end)) return builder.Finish();
        continue;
      }
      std::size_t s = labels->Get(it->begin) ? it->begin
                                             : labels->NextSet(it->begin);
      while (s < it->end) {
        const std::size_t e =
            std::min<std::size_t>(it->end, labels->NextUnset(s));
        if (!builder.Append(row, static_cast<std::uint32_t>(s),
                            static_cast<std::uint32_t>(e))) {
          return builder.Finish();
        }
        s = labels->NextSet(e);
      }
    }
  }
  return builder.Finish();
}

Result<BitMatrix> AxisCache::DenseStep(Axis axis,
                                       const std::string& name_test) {
  const BoolMatrix& m = Matrix(axis);
  if (m.is_dense()) {
    if (IsWildcard(name_test)) return m.dense();
    return m.dense().MaskColumns(Labels(name_test));
  }
  XPV_ASSIGN_OR_RETURN(BitMatrix out, m.sparse().ToDense());
  if (!IsWildcard(name_test)) out.MaskColumnsInPlace(Labels(name_test));
  return out;
}

const BitVector& AxisCache::Labels(const std::string& name_test) {
  const std::string key = name_test == "*" ? std::string() : name_test;
  MutexLock lock(label_mu_);
  auto it = labels_.find(key);
  if (it == labels_.end()) {
    it = labels_.emplace(key, LabelSet(tree_, key)).first;
    label_bytes_.fetch_add(
        it->second.words().size() * sizeof(std::uint64_t) +
            it->first.capacity() + kLabelMapNodeBytes,
        std::memory_order_release);
    label_sets_built_.fetch_add(1, std::memory_order_release);
  }
  return it->second;
}

}  // namespace xpv
