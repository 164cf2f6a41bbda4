// Sampling-based query evaluation (paper §4): the marginal answer and the
// evaluator options.
//
// Pr[t ∈ Q(W)] (Eq. 4) is estimated by the sample average of Eq. 5 with
// thinning k between collected samples. The evaluator is
// pdb::SharedChainEvaluator (shared_chain.h): Algorithm 1 (maintain the
// answer through the Δ−/Δ+ sets with the Eq. 6 rewrites) or, with
// materialized=false, Algorithm 3 (re-run the full query over every
// sampled world), for one query or many on one chain.
#ifndef FGPDB_PDB_QUERY_EVALUATOR_H_
#define FGPDB_PDB_QUERY_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/tuple.h"

namespace fgpdb {
namespace pdb {

/// Marginal tuple probabilities: count of samples containing each tuple,
/// normalized by the number of samples (paper Alg. 1 lines m, z).
class QueryAnswer {
 public:
  /// Records one sample's answer set (distinct tuples only; a tuple's
  /// multiplicity within one world does not change membership).
  void ObserveSampleContaining(const std::vector<Tuple>& distinct_tuples);

  /// Marginal probability of `tuple` being in the answer.
  double Probability(const Tuple& tuple) const;

  /// All tuples with their marginals, sorted by tuple for determinism.
  std::vector<std::pair<Tuple, double>> Sorted() const;

  /// The `k` most probable tuples, ties broken by tuple order — the
  /// MystiQ-style top-k ranking the related work estimates by sampling.
  std::vector<std::pair<Tuple, double>> TopK(size_t k) const;

  uint64_t num_samples() const { return num_samples_; }

  /// Merges counts from another answer over the same query — used to
  /// average parallel chains (paper §5.4).
  void Merge(const QueryAnswer& other);

  /// Applies fn(tuple, count) to every tuple's raw sample count (the
  /// integer numerator of Probability). Iteration order is unspecified.
  void ForEachCount(
      const std::function<void(const Tuple&, uint64_t)>& fn) const {
    for (const auto& [tuple, count] : counts_) fn(tuple, count);
  }

  /// Element-wise squared error against another answer (the paper's
  /// evaluation loss). Tuples absent from one side count as probability 0.
  double SquaredError(const QueryAnswer& truth) const;

 private:
  std::unordered_map<Tuple, uint64_t, TupleHasher> counts_;
  uint64_t num_samples_ = 0;
};

struct EvaluatorOptions {
  /// MH walk-steps between collected samples (the paper's k; §5.2 uses
  /// 10,000 on the 10M-tuple corpus).
  uint64_t steps_per_sample = 1000;
  /// Walk-steps of burn-in before the first collected sample.
  uint64_t burn_in = 0;
  uint64_t seed = 42;

  /// §4.1's adaptive-k optimization: "Adaptively adjusting k to respond to
  /// these various issues". When enabled, a materialized evaluator
  /// adjusts k after each sample so that the measured routed-apply cost
  /// (draining the delta accumulator + routing it through the views) stays
  /// near `target_eval_fraction` of per-sample wall-clock: if the delta
  /// path is cheap relative to walking, k shrinks (collect counts more
  /// often — the ergodic theorems say every sample helps); if it is
  /// expensive, k grows (walk further between costly evaluations).
  /// Answer-set bookkeeping is deliberately excluded from the measured
  /// cost: it scales with the answer size, not with k, so including it
  /// would bias the controller toward over-thinning small-delta rounds.
  bool adaptive_thinning = false;
  double target_eval_fraction = 0.25;
  uint64_t min_steps_per_sample = 16;
  uint64_t max_steps_per_sample = 1 << 22;
};

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_QUERY_EVALUATOR_H_
