#include "view/delta.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace fgpdb {
namespace view {

const DeltaMultiset& DeltaMultiset::Empty() {
  static const DeltaMultiset kEmpty;
  return kEmpty;
}

void DeltaMultiset::Spill() {
  // Reserve past the current size: a delta that outgrew the inline buffer
  // is usually still growing (e.g. the Δ set of a long thinning interval).
  counts_.reserve(4 * kInlineCapacity);
  for (Entry& entry : inline_entries_) {
    counts_.emplace(std::move(entry.first), entry.second);
  }
  inline_entries_.clear();
  inline_entries_.shrink_to_fit();
  spilled_ = true;
}

void DeltaMultiset::Add(const Tuple& tuple, int64_t count) {
  if (count == 0) return;
  if (!spilled_) {
    for (Entry& entry : inline_entries_) {
      if (entry.first == tuple) {
        entry.second += count;
        if (entry.second == 0) {
          // Swap-and-pop: inline entries are unordered.
          entry = std::move(inline_entries_.back());
          inline_entries_.pop_back();
        }
        return;
      }
    }
    if (inline_entries_.size() < kInlineCapacity) {
      if (inline_entries_.capacity() < kInlineCapacity) {
        inline_entries_.reserve(kInlineCapacity);
      }
      inline_entries_.emplace_back(tuple, count);
      return;
    }
    Spill();
  }
  // try_emplace copies the tuple only for a new key; emplace would build
  // (and free) a node even when the key is present.
  auto [it, inserted] = counts_.try_emplace(tuple, count);
  if (!inserted) {
    it->second += count;
    if (it->second == 0) counts_.erase(it);
  }
}

int64_t DeltaMultiset::Count(const Tuple& tuple) const {
  if (!spilled_) {
    for (const Entry& entry : inline_entries_) {
      if (entry.first == tuple) return entry.second;
    }
    return 0;
  }
  const auto it = counts_.find(tuple);
  return it == counts_.end() ? 0 : it->second;
}

void DeltaMultiset::Merge(const DeltaMultiset& other) {
  if (!spilled_ &&
      inline_entries_.size() + other.distinct_size() > kInlineCapacity) {
    Spill();
  }
  if (spilled_) {
    counts_.reserve(counts_.size() + other.distinct_size());
  }
  other.ForEach([this](const Tuple& tuple, int64_t count) {
    Add(tuple, count);
  });
}

void DeltaMultiset::ForEach(
    const std::function<void(const Tuple&, int64_t)>& fn) const {
  if (!spilled_) {
    for (const Entry& entry : inline_entries_) fn(entry.first, entry.second);
    return;
  }
  for (const auto& [tuple, count] : counts_) fn(tuple, count);
}

int64_t DeltaMultiset::PositiveTotal() const {
  int64_t total = 0;
  ForEach([&total](const Tuple&, int64_t count) {
    if (count > 0) total += count;
  });
  return total;
}

int64_t DeltaMultiset::NegativeTotal() const {
  int64_t total = 0;
  ForEach([&total](const Tuple&, int64_t count) {
    if (count < 0) total -= count;
  });
  return total;
}

bool DeltaMultiset::IsNonNegative() const {
  bool non_negative = true;
  ForEach([&non_negative](const Tuple&, int64_t count) {
    if (count < 0) non_negative = false;
  });
  return non_negative;
}

bool DeltaMultiset::operator==(const DeltaMultiset& other) const {
  // Entries never hold zero counts, so equal size + entry-wise containment
  // is equality, regardless of which representation each side uses.
  if (distinct_size() != other.distinct_size()) return false;
  bool equal = true;
  ForEach([&](const Tuple& tuple, int64_t count) {
    if (other.Count(tuple) != count) equal = false;
  });
  return equal;
}

std::string DeltaMultiset::ToString() const {
  std::vector<Entry> sorted;
  sorted.reserve(distinct_size());
  ForEach([&sorted](const Tuple& tuple, int64_t count) {
    sorted.emplace_back(tuple, count);
  });
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  std::string out = "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ", ";
    out += sorted[i].first.ToString() + ":" + std::to_string(sorted[i].second);
  }
  out += "}";
  return out;
}

const DeltaMultiset& DeltaSet::Get(const std::string& table) const {
  const auto it = per_table_.find(table);
  return it == per_table_.end() ? DeltaMultiset::Empty() : it->second;
}

bool DeltaSet::empty() const {
  for (const auto& [table, delta] : per_table_) {
    (void)table;
    if (!delta.empty()) return false;
  }
  return true;
}

int64_t DeltaSet::TotalMagnitude() const {
  int64_t total = 0;
  for (const auto& [table, delta] : per_table_) {
    (void)table;
    total += delta.PositiveTotal() + delta.NegativeTotal();
  }
  return total;
}

void DeltaSet::ForEachTable(
    const std::function<void(const std::string&, const DeltaMultiset&)>& fn)
    const {
  for (const auto& [table, delta] : per_table_) fn(table, delta);
}

void DeltaAccumulator::RecordPreImage(const std::string& table, RowId row,
                                      const Tuple& pre_image) {
  // try_emplace copies the tuple only when the row is seen for the first
  // time this interval; repeat flips of a hot row are one map probe.
  per_table_[table].try_emplace(row, pre_image);
}

void DeltaAccumulator::Flush(const Database& db, DeltaSet* out) {
  FGPDB_CHECK(out != nullptr);
  for (auto& [table_name, rows] : per_table_) {
    if (rows.empty()) continue;
    const Table* table = db.RequireTable(table_name);
    DeltaMultiset& delta = out->ForTable(table_name);
    for (const auto& [row, pre_image] : rows) {
      const Tuple& current = table->Get(row);
      if (current == pre_image) continue;  // Reverted: nothing net changed.
      delta.Add(pre_image, -1);  // Δ−
      delta.Add(current, 1);     // Δ+
    }
    rows.clear();
  }
}

bool DeltaAccumulator::empty() const {
  for (const auto& [table, rows] : per_table_) {
    (void)table;
    if (!rows.empty()) return false;
  }
  return true;
}

size_t DeltaAccumulator::rows_touched() const {
  size_t total = 0;
  for (const auto& [table, rows] : per_table_) {
    (void)table;
    total += rows.size();
  }
  return total;
}

void DeltaAccumulator::Clear() {
  for (auto& [table, rows] : per_table_) {
    (void)table;
    rows.clear();
  }
}

}  // namespace view
}  // namespace fgpdb
