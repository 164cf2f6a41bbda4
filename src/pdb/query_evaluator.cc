#include "pdb/query_evaluator.h"

#include <algorithm>
#include <unordered_set>

#include "util/logging.h"

namespace fgpdb {
namespace pdb {

void QueryAnswer::ObserveSampleContaining(
    const std::vector<Tuple>& distinct_tuples) {
  for (const Tuple& t : distinct_tuples) ++sojourns_[t].count;
  ++num_samples_;
}

void QueryAnswer::Enter(const Tuple& tuple) {
  Sojourn& sojourn = sojourns_[tuple];
  FGPDB_CHECK(sojourn.entered_at == kOut)
      << "Enter of a tuple already in the answer: " << tuple.ToString();
  sojourn.entered_at = num_samples_;
}

void QueryAnswer::Leave(const Tuple& tuple) {
  const auto it = sojourns_.find(tuple);
  FGPDB_CHECK(it != sojourns_.end() && it->second.entered_at != kOut)
      << "Leave of a tuple not in the answer: " << tuple.ToString();
  it->second.count += num_samples_ - it->second.entered_at;
  it->second.entered_at = kOut;
}

double QueryAnswer::Probability(const Tuple& tuple) const {
  if (num_samples_ == 0) return 0.0;
  const auto it = sojourns_.find(tuple);
  if (it == sojourns_.end()) return 0.0;
  return static_cast<double>(Count(it->second)) /
         static_cast<double>(num_samples_);
}

std::vector<std::pair<Tuple, double>> QueryAnswer::Sorted() const {
  std::vector<std::pair<Tuple, double>> out;
  out.reserve(sojourns_.size());
  for (const auto& [tuple, sojourn] : sojourns_) {
    const uint64_t count = Count(sojourn);
    if (count == 0) continue;
    out.emplace_back(tuple, static_cast<double>(count) /
                                static_cast<double>(num_samples_));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<Tuple, double>> QueryAnswer::TopK(size_t k) const {
  std::vector<std::pair<Tuple, double>> out = Sorted();
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

void QueryAnswer::Merge(const QueryAnswer& other) {
  FGPDB_CHECK(&other != this) << "QueryAnswer::Merge with itself";
  const uint64_t merged_samples = num_samples_ + other.num_samples_;
  // Settle each open run at this answer's own sample count and reopen it at
  // the merged count: the run goes on counting this answer's later samples
  // only, never the other answer's.
  for (auto& [tuple, sojourn] : sojourns_) {
    if (sojourn.entered_at == kOut) continue;
    sojourn.count += num_samples_ - sojourn.entered_at;
    sojourn.entered_at = merged_samples;
  }
  for (const auto& [tuple, sojourn] : other.sojourns_) {
    const uint64_t count = other.Count(sojourn);
    if (count > 0) sojourns_[tuple].count += count;
  }
  num_samples_ = merged_samples;
}

double QueryAnswer::SquaredError(const QueryAnswer& truth) const {
  double total = 0.0;
  std::unordered_set<Tuple, TupleHasher> seen;
  for (const auto& [tuple, sojourn] : sojourns_) {
    if (Count(sojourn) == 0) continue;
    const double d = Probability(tuple) - truth.Probability(tuple);
    total += d * d;
    seen.insert(tuple);
  }
  for (const auto& [tuple, sojourn] : truth.sojourns_) {
    if (truth.Count(sojourn) == 0 || seen.count(tuple) > 0) continue;
    const double d = truth.Probability(tuple);
    total += d * d;
  }
  return total;
}

}  // namespace pdb
}  // namespace fgpdb
