// Loopy belief propagation (sum-product) over explicit factor graphs.
//
// Included to reproduce the paper's §5.3 motivation: "approximate methods
// such as loopy belief propagation fail to converge for these types of
// graphs [27]" — BP is exact on trees, but on the loopy, tightly-coupled
// graphs skip-chains create it may oscillate or settle on biased marginals,
// which is precisely why the paper reaches for MCMC. Tests compare BP
// against exact inference on trees (must match) and on frustrated loops
// (shows the failure mode).
#ifndef FGPDB_TESTS_ORACLES_BELIEF_PROPAGATION_H_
#define FGPDB_TESTS_ORACLES_BELIEF_PROPAGATION_H_

#include <vector>

#include "factor/factor_graph.h"

namespace fgpdb {
namespace infer {

struct LoopyBpOptions {
  size_t max_iterations = 200;
  /// New message = damping * old + (1-damping) * computed (in log space).
  double damping = 0.0;
  /// Convergence threshold on the max absolute message change.
  double tolerance = 1e-8;
};

struct LoopyBpResult {
  bool converged = false;
  size_t iterations = 0;
  /// marginals[var][value] — beliefs (exact on trees, approximate on loops).
  std::vector<std::vector<double>> marginals;
};

/// Runs flooding-schedule sum-product message passing.
LoopyBpResult LoopyBeliefPropagation(const factor::FactorGraph& graph,
                                     const LoopyBpOptions& options = {});

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_BELIEF_PROPAGATION_H_
