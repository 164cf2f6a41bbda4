#include "oracles/marginal_estimator.h"

#include "util/logging.h"

namespace fgpdb {
namespace infer {

MarginalEstimator::MarginalEstimator(const std::vector<size_t>& domain_sizes) {
  counts_.reserve(domain_sizes.size());
  for (size_t s : domain_sizes) counts_.emplace_back(s, 0);
}

void MarginalEstimator::Observe(const factor::World& world) {
  FGPDB_CHECK_EQ(world.size(), counts_.size());
  for (size_t v = 0; v < counts_.size(); ++v) {
    const uint32_t value = world.Get(static_cast<factor::VarId>(v));
    FGPDB_CHECK_LT(value, counts_[v].size());
    ++counts_[v][value];
  }
  ++num_samples_;
}

void MarginalEstimator::Merge(const MarginalEstimator& other) {
  FGPDB_CHECK_EQ(counts_.size(), other.counts_.size());
  for (size_t v = 0; v < counts_.size(); ++v) {
    FGPDB_CHECK_EQ(counts_[v].size(), other.counts_[v].size());
    for (size_t k = 0; k < counts_[v].size(); ++k) {
      counts_[v][k] += other.counts_[v][k];
    }
  }
  num_samples_ += other.num_samples_;
}

double MarginalEstimator::Estimate(factor::VarId var, uint32_t value) const {
  if (num_samples_ == 0) return 0.0;
  return static_cast<double>(counts_.at(var).at(value)) /
         static_cast<double>(num_samples_);
}

std::vector<double> MarginalEstimator::Marginal(factor::VarId var) const {
  std::vector<double> out(counts_.at(var).size(), 0.0);
  for (size_t k = 0; k < out.size(); ++k) {
    out[k] = Estimate(var, static_cast<uint32_t>(k));
  }
  return out;
}

double MarginalEstimator::SquaredErrorAgainst(
    const std::vector<std::vector<double>>& exact) const {
  FGPDB_CHECK_EQ(exact.size(), counts_.size());
  double total = 0.0;
  for (size_t v = 0; v < counts_.size(); ++v) {
    for (size_t k = 0; k < counts_[v].size(); ++k) {
      const double d =
          Estimate(static_cast<factor::VarId>(v), static_cast<uint32_t>(k)) -
          exact[v][k];
      total += d * d;
    }
  }
  return total;
}

}  // namespace infer
}  // namespace fgpdb
