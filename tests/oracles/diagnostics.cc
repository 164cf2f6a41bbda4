#include "oracles/diagnostics.h"

#include <cmath>

#include "util/logging.h"
#include "util/math_util.h"

namespace fgpdb {
namespace infer {

double Autocorrelation(const std::vector<double>& series, size_t lag) {
  const size_t n = series.size();
  if (lag >= n) return 0.0;
  const double mu = Mean(series);
  double var = 0.0;
  for (double x : series) var += (x - mu) * (x - mu);
  if (var <= 0.0) return 0.0;
  double cov = 0.0;
  for (size_t i = 0; i + lag < n; ++i) {
    cov += (series[i] - mu) * (series[i + lag] - mu);
  }
  return cov / var;
}

double EffectiveSampleSize(const std::vector<double>& series) {
  const size_t n = series.size();
  if (n == 0) return 0.0;
  if (n == 1) return 1.0;
  // Initial positive sequence (Geyer): sum consecutive-lag pairs while the
  // pair sums stay positive.
  double rho_sum = 0.0;
  for (size_t lag = 1; lag + 1 < n; lag += 2) {
    const double pair =
        Autocorrelation(series, lag) + Autocorrelation(series, lag + 1);
    if (pair <= 0.0) break;
    rho_sum += pair;
  }
  const double ess = static_cast<double>(n) / (1.0 + 2.0 * rho_sum);
  return std::max(1.0, std::min(ess, static_cast<double>(n)));
}

double GelmanRubin(const std::vector<std::vector<double>>& chains) {
  const size_t m = chains.size();
  FGPDB_CHECK_GE(m, 2u) << "Gelman-Rubin needs at least two chains";
  const size_t n = chains[0].size();
  FGPDB_CHECK_GE(n, 4u) << "chains too short for Gelman-Rubin";
  for (const auto& chain : chains) FGPDB_CHECK_EQ(chain.size(), n);

  std::vector<double> chain_means(m);
  double grand_mean = 0.0;
  for (size_t c = 0; c < m; ++c) {
    chain_means[c] = Mean(chains[c]);
    grand_mean += chain_means[c];
  }
  grand_mean /= static_cast<double>(m);

  // Between-chain variance B/n and within-chain variance W.
  double b_over_n = 0.0;
  for (size_t c = 0; c < m; ++c) {
    b_over_n += (chain_means[c] - grand_mean) * (chain_means[c] - grand_mean);
  }
  b_over_n /= static_cast<double>(m - 1);

  double w = 0.0;
  for (size_t c = 0; c < m; ++c) {
    double s2 = 0.0;
    for (double x : chains[c]) {
      s2 += (x - chain_means[c]) * (x - chain_means[c]);
    }
    w += s2 / static_cast<double>(n - 1);
  }
  w /= static_cast<double>(m);
  if (w <= 0.0) return 1.0;  // Degenerate chains: identical constants.

  const double var_plus =
      (static_cast<double>(n - 1) / static_cast<double>(n)) * w + b_over_n;
  return std::sqrt(var_plus / w);
}

}  // namespace infer
}  // namespace fgpdb
