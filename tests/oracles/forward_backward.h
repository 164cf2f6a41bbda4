// Exact marginal inference for linear-chain CRFs via forward–backward.
//
// The paper's skip-chain CRF is intractable (loopy), but its linear-chain
// reduction (emission + transition + bias only, paper §3.3) admits exact
// sum-product inference. Tests use this to validate MCMC on chains; the
// contrast "exact works on chains / only MCMC works on skip chains"
// reproduces the paper's motivation for sampling (§5).
#ifndef FGPDB_TESTS_ORACLES_FORWARD_BACKWARD_H_
#define FGPDB_TESTS_ORACLES_FORWARD_BACKWARD_H_

#include <cstddef>
#include <vector>

namespace fgpdb {
namespace infer {
using std::size_t;

struct ChainPotentials {
  /// node[t][y]: log score of label y at position t (emission + bias).
  std::vector<std::vector<double>> node;
  /// edge[y][y']: log score of transitioning y -> y' (position-independent).
  std::vector<std::vector<double>> edge;
};

struct ChainResult {
  double log_partition = 0.0;
  /// marginals[t][y] = P(Y_t = y).
  std::vector<std::vector<double>> marginals;
};

/// Runs forward–backward in log space. `potentials.node` must be non-empty
/// and rectangular; `edge` must be L x L for the same L.
ChainResult ForwardBackward(const ChainPotentials& potentials);

/// Viterbi decode (most probable label sequence) over the same potentials.
std::vector<size_t> ViterbiDecode(const ChainPotentials& potentials);

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_FORWARD_BACKWARD_H_
