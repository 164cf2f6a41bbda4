// MCMC convergence diagnostics.
//
// The paper balances "traditional ergodic theorems of MCMC" against DBMS
// cost issues (§4.1) — choosing the thinning interval k needs an estimate of
// how correlated consecutive samples are. These utilities quantify that:
//
//   * EffectiveSampleSize: n / (1 + 2 Σ ρ_t) from the autocorrelation of a
//     scalar chain statistic (initial-positive-sequence truncation).
//   * GelmanRubin: the potential-scale-reduction factor R̂ across parallel
//     chains (§5.4's multi-chain setting); values near 1 indicate mixing.
#ifndef FGPDB_TESTS_ORACLES_DIAGNOSTICS_H_
#define FGPDB_TESTS_ORACLES_DIAGNOSTICS_H_

#include <cstddef>
#include <vector>

namespace fgpdb {
namespace infer {
using std::size_t;

/// Autocorrelation of `series` at `lag` (biased estimator; 0 for degenerate
/// series).
double Autocorrelation(const std::vector<double>& series, size_t lag);

/// Effective sample size of a scalar chain statistic. At least 1 for
/// non-empty input; equals n for white noise.
double EffectiveSampleSize(const std::vector<double>& series);

/// Gelman-Rubin potential scale reduction factor across >= 2 chains of
/// equal length (>= 4 samples each). Near 1.0 when chains have mixed.
double GelmanRubin(const std::vector<std::vector<double>>& chains);

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_DIAGNOSTICS_H_
