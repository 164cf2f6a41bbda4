// Exact inference by exhaustive enumeration — ground truth for tests.
//
// Query evaluation in general PDBs is #P-hard (paper §1); enumeration is
// feasible only for tiny graphs, which is exactly what the test suite uses
// to validate that MCMC marginals converge to the true distribution.
#ifndef FGPDB_TESTS_ORACLES_EXACT_H_
#define FGPDB_TESTS_ORACLES_EXACT_H_

#include <vector>

#include "factor/factor_graph.h"

namespace fgpdb {
namespace infer {

struct ExactResult {
  /// log Z (the paper's #P-hard normalizer, tractable only at toy scale).
  double log_partition = 0.0;
  /// marginals[var][value] = P(Y_var = value).
  std::vector<std::vector<double>> marginals;
  /// Probability of each enumerated world, in enumeration order
  /// (mixed-radix, last variable fastest). Empty if over `max_worlds`.
  std::vector<double> world_probabilities;
};

/// Enumerates all joint assignments of `graph` (fatal if more than
/// `max_worlds`) and returns exact marginals and log Z.
ExactResult ExactInference(const factor::FactorGraph& graph,
                           size_t max_worlds = 1u << 22);

/// Exact probability P(world) under the graph (enumerates Z; toy scale only).
double ExactWorldProbability(const factor::FactorGraph& graph,
                             const factor::World& world,
                             size_t max_worlds = 1u << 22);

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_EXACT_H_
