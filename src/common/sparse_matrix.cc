#include "common/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace xpv {

namespace {

/// Index of the last set bit of `v`; callers guarantee v.Any().
std::size_t LastSet(const BitVector& v) {
  const auto& words = v.words();
  for (std::size_t w = words.size(); w-- > 0;) {
    if (words[w] != 0) {
      return w * 64 + 63 -
             static_cast<std::size_t>(__builtin_clzll(words[w]));
    }
  }
  assert(false && "LastSet on empty vector");
  return 0;
}

}  // namespace

SparseBoolMatrix::SparseBoolMatrix(std::size_t n,
                                   std::vector<std::uint32_t> row_offset,
                                   std::vector<IntervalRun> runs)
    : n_(n), row_offset_(std::move(row_offset)), runs_(std::move(runs)) {
  assert(row_offset_.size() == n_ + 1);
  assert(row_offset_.back() == runs_.size());
}

// ------------------------------------------------------------------ reads

bool SparseBoolMatrix::Get(std::size_t row, std::size_t col) const {
  auto [first, last] = RunsOf(row);
  // Last run starting at or before col.
  auto it = std::upper_bound(
      first, last, static_cast<std::uint32_t>(col),
      [](std::uint32_t c, const IntervalRun& run) { return c < run.begin; });
  return it != first && col < (it - 1)->end;
}

void SparseBoolMatrix::RowInto(std::size_t row, BitVector& out) const {
  if (out.size() != n_) {
    out = BitVector(n_);
  } else {
    out.Clear();
  }
  auto [first, last] = RunsOf(row);
  for (auto it = first; it != last; ++it) out.SetRange(it->begin, it->end);
}

BitVector SparseBoolMatrix::Row(std::size_t row) const {
  BitVector out(n_);
  RowInto(row, out);
  return out;
}

BitVector SparseBoolMatrix::ImageOf(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitVector out(n_);
  rows.ForEachSet([&](std::size_t r) {
    auto [first, last] = RunsOf(r);
    for (auto it = first; it != last; ++it) out.SetRange(it->begin, it->end);
  });
  return out;
}

BitVector SparseBoolMatrix::AndOfRows(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitVector out(n_);
  out.Fill();
  // out &= row r  ==  clear `out` on the complement of row r's runs.
  rows.ForEachSet([&](std::size_t r) {
    auto [first, last] = RunsOf(r);
    std::size_t gap_begin = 0;
    for (auto it = first; it != last; ++it) {
      out.ClearRange(gap_begin, it->begin);
      gap_begin = it->end;
    }
    out.ClearRange(gap_begin, n_);
  });
  return out;
}

BitVector SparseBoolMatrix::RowsContaining(const BitVector& cols) const {
  assert(cols.size() == n_);
  BitVector out(n_);
  if (cols.None()) {
    out.Fill();
    return out;
  }
  // Row r contains cols iff no set bit of cols falls outside r's runs.
  // The span test against [first, last] rejects almost every row in O(1);
  // only rows whose runs straddle the whole span scan their gaps.
  const std::size_t first_col = cols.FirstSet();
  const std::size_t last_col = LastSet(cols);
  for (std::size_t r = 0; r < n_; ++r) {
    auto [first, last] = RunsOf(r);
    if (first == last || first->begin > first_col ||
        (last - 1)->end <= last_col) {
      continue;
    }
    bool contains = true;
    for (auto it = first; it + 1 != last; ++it) {
      const std::size_t gap_begin = std::max<std::size_t>(it->end, first_col);
      const std::size_t gap_end =
          std::min<std::size_t>((it + 1)->begin, last_col + 1);
      if (cols.AnyInRange(gap_begin, gap_end)) {
        contains = false;
        break;
      }
    }
    if (contains) out.Set(r);
  }
  return out;
}

BitVector SparseBoolMatrix::NonEmptyRows() const {
  BitVector out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    if (row_offset_[r] < row_offset_[r + 1]) out.Set(r);
  }
  return out;
}

std::size_t SparseBoolMatrix::Count() const {
  std::size_t count = 0;
  for (const IntervalRun& run : runs_) count += run.end - run.begin;
  return count;
}

// ----------------------------------------------------------------- Builder

SparseBoolMatrix::Builder::Builder(std::size_t n, std::size_t max_runs)
    : n_(n), max_runs_(max_runs) {
  row_offset_.reserve(n_ + 1);
  row_offset_.push_back(0);  // first-run offset of row 0 (the open row)
}

void SparseBoolMatrix::Builder::SealThrough(std::uint32_t row) {
  assert(row <= n_);
  while (next_row_ < row) {
    row_offset_.push_back(static_cast<std::uint32_t>(runs_.size()));
    ++next_row_;
  }
}

bool SparseBoolMatrix::Builder::Append(std::uint32_t row, std::uint32_t begin,
                                       std::uint32_t end) {
  if (overflowed_) return false;
  if (end <= begin) return true;
  assert(row < n_ && end <= n_);
  assert(row >= next_row_ && "rows must arrive in non-decreasing order");
  SealThrough(row);
  // Coalesce with the open row's last run when overlapping or adjacent;
  // row_offset_.back() is the open row's first-run offset, so any run past
  // it belongs to this row.
  if (runs_.size() > row_offset_.back() && begin <= runs_.back().end) {
    assert(begin >= runs_.back().begin && "runs within a row must be sorted");
    runs_.back().end = std::max(runs_.back().end, end);
    return true;
  }
  runs_.push_back(IntervalRun{begin, end});
  if (max_runs_ != 0 && runs_.size() > max_runs_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

bool SparseBoolMatrix::Builder::AppendBits(std::uint32_t row,
                                           const BitVector& bits) {
  assert(bits.size() == n_);
  std::size_t pos = bits.FirstSet();
  while (pos < n_) {
    const std::size_t end = bits.NextUnset(pos);
    if (!Append(row, static_cast<std::uint32_t>(pos),
                static_cast<std::uint32_t>(end))) {
      return false;
    }
    if (end >= n_) break;
    pos = bits.NextSet(end);
  }
  return true;
}

Result<SparseBoolMatrix> SparseBoolMatrix::Builder::Finish() {
  if (overflowed_) {
    return Status::ResourceExhausted(
        "sparse matrix run budget exceeded (" + std::to_string(max_runs_) +
        " runs, " + std::to_string(max_runs_ * sizeof(IntervalRun)) +
        " bytes)");
  }
  SealThrough(static_cast<std::uint32_t>(n_));
  return SparseBoolMatrix(n_, std::move(row_offset_), std::move(runs_));
}

// ------------------------------------------------------------- conversion

SparseBoolMatrix SparseBoolMatrix::FromDense(const BitMatrix& m) {
  Builder builder(m.size());
  BitVector scratch;
  for (std::size_t r = 0; r < m.size(); ++r) {
    m.CopyRowInto(r, scratch);
    builder.AppendBits(static_cast<std::uint32_t>(r), scratch);
  }
  return std::move(builder.Finish()).value();  // unbudgeted: cannot fail
}

Result<BitMatrix> SparseBoolMatrix::ToDense() const {
  XPV_ASSIGN_OR_RETURN(BitMatrix out, BitMatrix::Create(n_));
  OrInto(out);
  return out;
}

// ---------------------------------------------------------------- product

Result<SparseBoolMatrix> SparseBoolMatrix::Multiply(const SparseBoolMatrix& b,
                                                    std::size_t max_runs) const {
  assert(size() == b.size());
  const std::size_t n = size();
  const std::size_t dense_threshold =
      std::max(kDenseAccumMinRuns, n / kDenseAccumRunFactor);
  Builder builder(n, max_runs);
  std::vector<IntervalRun> gathered;
  BitVector accum(n);
  for (std::size_t r = 0; r < n; ++r) {
    auto [af, al] = RunsOf(r);
    if (af == al) continue;
    // Candidate-run count first (CSR offset subtraction, no run reads):
    // it picks the merge strategy before any gathering happens.
    std::size_t candidates = 0;
    for (auto it = af; it != al; ++it) {
      for (std::uint32_t v = it->begin; v < it->end; ++v) {
        auto [bf, bl] = b.RunsOf(v);
        candidates += static_cast<std::size_t>(bl - bf);
      }
    }
    if (candidates == 0) continue;
    bool ok = true;
    if (candidates > dense_threshold) {
      // Saturated row: OR every candidate run into a word-parallel
      // accumulator and re-extract maximal runs -- O(candidates + n/64)
      // instead of O(candidates log candidates).
      accum.Clear();
      for (auto it = af; it != al; ++it) {
        for (std::uint32_t v = it->begin; v < it->end; ++v) {
          auto [bf, bl] = b.RunsOf(v);
          for (auto jt = bf; jt != bl; ++jt) {
            accum.SetRange(jt->begin, jt->end);
          }
        }
      }
      ok = builder.AppendBits(static_cast<std::uint32_t>(r), accum);
    } else {
      gathered.clear();
      for (auto it = af; it != al; ++it) {
        for (std::uint32_t v = it->begin; v < it->end; ++v) {
          auto [bf, bl] = b.RunsOf(v);
          gathered.insert(gathered.end(), bf, bl);
        }
      }
      std::sort(gathered.begin(), gathered.end(),
                [](const IntervalRun& x, const IntervalRun& y) {
                  return x.begin < y.begin;
                });
      for (const IntervalRun& run : gathered) {
        if (!builder.Append(static_cast<std::uint32_t>(r), run.begin,
                            run.end)) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) break;  // budget overflow: Finish() reports it
  }
  return builder.Finish();
}

BitMatrix SparseBoolMatrix::MultiplyDense(const BitMatrix& b) const {
  assert(size() == b.size());
  BitMatrix out(size());
  for (std::size_t r = 0; r < size(); ++r) {
    auto [first, last] = RunsOf(r);
    for (auto it = first; it != last; ++it) {
      for (std::uint32_t v = it->begin; v < it->end; ++v) {
        out.OrRowFrom(r, b, v);
      }
    }
  }
  return out;
}

BitMatrix SparseBoolMatrix::MultiplyDenseLeft(const BitMatrix& a) const {
  assert(size() == a.size());
  BitMatrix out(size());
  for (std::size_t r = 0; r < size(); ++r) {
    a.ForEachInRow(r, [&](std::size_t v) {
      auto [first, last] = RunsOf(v);
      for (auto it = first; it != last; ++it) {
        out.SetRowRange(r, it->begin, it->end);
      }
    });
  }
  return out;
}

// ----------------------------------------------------------- elementwise

Result<SparseBoolMatrix> SparseBoolMatrix::Or(const SparseBoolMatrix& b,
                                              std::size_t max_runs) const {
  assert(size() == b.size());
  Builder builder(size(), max_runs);
  for (std::size_t r = 0; r < size(); ++r) {
    auto [xi, xe] = RunsOf(r);
    auto [yi, ye] = b.RunsOf(r);
    bool ok = true;
    // Two-pointer merge by begin; Builder::Append coalesces overlaps.
    while (xi != xe || yi != ye) {
      const IntervalRun& next =
          yi == ye || (xi != xe && xi->begin <= yi->begin) ? *xi++ : *yi++;
      if (!builder.Append(static_cast<std::uint32_t>(r), next.begin,
                          next.end)) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
  }
  return builder.Finish();
}

void SparseBoolMatrix::OrInto(BitMatrix& out) const {
  assert(out.size() == size());
  for (std::size_t r = 0; r < size(); ++r) {
    auto [first, last] = RunsOf(r);
    for (auto it = first; it != last; ++it) {
      out.SetRowRange(r, it->begin, it->end);
    }
  }
}

SparseBoolMatrix SparseBoolMatrix::Complement() const {
  const std::uint32_t n = static_cast<std::uint32_t>(size());
  Builder builder(n);  // bounded by num_runs() + n: no budget needed
  for (std::uint32_t r = 0; r < n; ++r) {
    auto [first, last] = RunsOf(r);
    std::uint32_t gap_begin = 0;
    for (auto it = first; it != last; ++it) {
      builder.Append(r, gap_begin, it->begin);
      gap_begin = it->end;
    }
    builder.Append(r, gap_begin, n);
  }
  return std::move(builder.Finish()).value();  // unbudgeted: cannot fail
}

SparseBoolMatrix SparseBoolMatrix::FilterDiagonal() const {
  const std::uint32_t n = static_cast<std::uint32_t>(size());
  Builder builder(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    auto [first, last] = RunsOf(r);
    if (first != last) builder.Append(r, r, r + 1);
  }
  return std::move(builder.Finish()).value();  // unbudgeted: cannot fail
}

}  // namespace xpv
