// Sample-based marginal estimation (paper Eq. 5): averages indicator counts
// across thinned MCMC samples.
#ifndef FGPDB_TESTS_ORACLES_MARGINAL_ESTIMATOR_H_
#define FGPDB_TESTS_ORACLES_MARGINAL_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "factor/world.h"

namespace fgpdb {
namespace infer {

class MarginalEstimator {
 public:
  /// `domain_sizes[v]` = domain size of variable v.
  explicit MarginalEstimator(const std::vector<size_t>& domain_sizes);

  /// Records one sampled world.
  void Observe(const factor::World& world);

  /// Merges counts from another estimator over the same variables —
  /// averaging across parallel chains (paper §5.4).
  void Merge(const MarginalEstimator& other);

  /// Estimated P(Y_var = value) = count / samples.
  double Estimate(factor::VarId var, uint32_t value) const;

  /// Full marginal vector of a variable.
  std::vector<double> Marginal(factor::VarId var) const;

  uint64_t num_samples() const { return num_samples_; }

  /// Element-wise squared error against exact marginals (tests/benches).
  double SquaredErrorAgainst(
      const std::vector<std::vector<double>>& exact) const;

 private:
  std::vector<std::vector<uint64_t>> counts_;  // [var][value]
  uint64_t num_samples_ = 0;
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_MARGINAL_ESTIMATOR_H_
