#include "oracles/forward_backward.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/math_util.h"

namespace fgpdb {
namespace infer {

ChainResult ForwardBackward(const ChainPotentials& potentials) {
  const size_t n = potentials.node.size();
  FGPDB_CHECK_GT(n, 0u);
  const size_t labels = potentials.node[0].size();
  FGPDB_CHECK_EQ(potentials.edge.size(), labels);
  for (const auto& row : potentials.edge) FGPDB_CHECK_EQ(row.size(), labels);

  // alpha[t][y] = log sum over prefixes ending in y at t.
  std::vector<std::vector<double>> alpha(n, std::vector<double>(labels));
  std::vector<std::vector<double>> beta(n, std::vector<double>(labels));
  alpha[0] = potentials.node[0];
  std::vector<double> scratch(labels);
  for (size_t t = 1; t < n; ++t) {
    FGPDB_CHECK_EQ(potentials.node[t].size(), labels);
    for (size_t y = 0; y < labels; ++y) {
      for (size_t yp = 0; yp < labels; ++yp) {
        scratch[yp] = alpha[t - 1][yp] + potentials.edge[yp][y];
      }
      alpha[t][y] = LogSumExp(scratch) + potentials.node[t][y];
    }
  }
  for (size_t y = 0; y < labels; ++y) beta[n - 1][y] = 0.0;
  for (size_t t = n - 1; t > 0; --t) {
    for (size_t y = 0; y < labels; ++y) {
      for (size_t yn = 0; yn < labels; ++yn) {
        scratch[yn] =
            potentials.edge[y][yn] + potentials.node[t][yn] + beta[t][yn];
      }
      beta[t - 1][y] = LogSumExp(scratch);
    }
  }

  ChainResult result;
  result.log_partition = LogSumExp(alpha[n - 1]);
  result.marginals.assign(n, std::vector<double>(labels));
  for (size_t t = 0; t < n; ++t) {
    for (size_t y = 0; y < labels; ++y) {
      result.marginals[t][y] =
          std::exp(alpha[t][y] + beta[t][y] - result.log_partition);
    }
  }
  return result;
}

std::vector<size_t> ViterbiDecode(const ChainPotentials& potentials) {
  const size_t n = potentials.node.size();
  FGPDB_CHECK_GT(n, 0u);
  const size_t labels = potentials.node[0].size();
  std::vector<std::vector<double>> best(n, std::vector<double>(labels));
  std::vector<std::vector<size_t>> back(n, std::vector<size_t>(labels, 0));
  best[0] = potentials.node[0];
  for (size_t t = 1; t < n; ++t) {
    for (size_t y = 0; y < labels; ++y) {
      double best_score = -std::numeric_limits<double>::infinity();
      size_t best_prev = 0;
      for (size_t yp = 0; yp < labels; ++yp) {
        const double score = best[t - 1][yp] + potentials.edge[yp][y];
        if (score > best_score) {
          best_score = score;
          best_prev = yp;
        }
      }
      best[t][y] = best_score + potentials.node[t][y];
      back[t][y] = best_prev;
    }
  }
  std::vector<size_t> path(n);
  path[n - 1] = static_cast<size_t>(
      std::max_element(best[n - 1].begin(), best[n - 1].end()) -
      best[n - 1].begin());
  for (size_t t = n - 1; t > 0; --t) path[t - 1] = back[t][path[t]];
  return path;
}

}  // namespace infer
}  // namespace fgpdb
