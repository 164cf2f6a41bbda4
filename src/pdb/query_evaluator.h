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
///
/// Two folds feed the counts; one answer uses one of them.
///  * Sojourn fold (Alg. 1, materialized views): a tuple's membership only
///    changes where its view multiplicity crosses 0, so the evaluator calls
///    Enter/Leave at those crossings and ObserveSample() once per sample.
///    Per tuple the answer keeps the samples of its closed runs plus the
///    sample count at which its open run began; every read adds the open
///    run. A sample that moves no tuple costs O(1) to observe.
///  * Full fold (Alg. 3): ObserveSampleContaining(answer set) per sample.
/// Runs are measured on this answer's own num_samples(), so an answer that
/// stops observing (a frozen query) stops counting its open runs too.
/// Counts are integers either way: both folds of one chain give bitwise
/// equal marginals.
class QueryAnswer {
 public:
  /// Full fold: records one sample's answer set (distinct tuples only; a
  /// tuple's multiplicity within one world does not change membership).
  void ObserveSampleContaining(const std::vector<Tuple>& distinct_tuples);

  /// Sojourn fold: `tuple` joined the current world's answer (its run
  /// counts from the next observed sample on). Fatal if already in.
  void Enter(const Tuple& tuple);
  /// Sojourn fold: `tuple` left the current world's answer. Fatal if not
  /// in it.
  void Leave(const Tuple& tuple);
  /// Sojourn fold: records one sample of the current world, counting every
  /// tuple whose run is open.
  void ObserveSample() { ++num_samples_; }

  /// Marginal probability of `tuple` being in the answer.
  double Probability(const Tuple& tuple) const;

  /// All tuples with their marginals, sorted by tuple for determinism.
  std::vector<std::pair<Tuple, double>> Sorted() const;

  /// The `k` most probable tuples, ties broken by tuple order — the
  /// MystiQ-style top-k ranking the related work estimates by sampling.
  std::vector<std::pair<Tuple, double>> TopK(size_t k) const;

  uint64_t num_samples() const { return num_samples_; }

  /// Merges counts from another answer over the same query — used to
  /// average parallel chains (paper §5.4). This answer's open runs stay
  /// open but count only its own later samples.
  void Merge(const QueryAnswer& other);

  /// Applies fn(tuple, count) to every tuple's raw sample count (the
  /// integer numerator of Probability), skipping tuples never observed.
  /// Iteration order is unspecified.
  void ForEachCount(
      const std::function<void(const Tuple&, uint64_t)>& fn) const {
    for (const auto& [tuple, sojourn] : sojourns_) {
      const uint64_t count = Count(sojourn);
      if (count > 0) fn(tuple, count);
    }
  }

  /// Element-wise squared error against another answer (the paper's
  /// evaluation loss). Tuples absent from one side count as probability 0.
  double SquaredError(const QueryAnswer& truth) const;

 private:
  static constexpr uint64_t kOut = ~uint64_t{0};

  struct Sojourn {
    /// Samples counted by closed runs (and by the full fold).
    uint64_t count = 0;
    /// num_samples_ when the open run began; kOut when not in the answer.
    uint64_t entered_at = kOut;
  };

  uint64_t Count(const Sojourn& sojourn) const {
    return sojourn.entered_at == kOut
               ? sojourn.count
               : sojourn.count + (num_samples_ - sojourn.entered_at);
  }

  std::unordered_map<Tuple, Sojourn, TupleHasher> sojourns_;
  uint64_t num_samples_ = 0;
};

struct EvaluatorOptions {
  /// MH walk-steps between collected samples (the paper's k; §5.2 uses
  /// 10,000 on the 10M-tuple corpus). Fixed for the chain's lifetime, so a
  /// fixed-seed run depends on its inputs only, never on timing.
  uint64_t steps_per_sample = 1000;
  /// Walk-steps of burn-in before the first collected sample.
  uint64_t burn_in = 0;
  uint64_t seed = 42;
};

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_QUERY_EVALUATOR_H_
