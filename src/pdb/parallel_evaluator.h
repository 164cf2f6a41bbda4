// Multi-chain parallel query evaluation (paper §5.4).
//
// Runs B independent chains, each over its own copy-on-write snapshot of
// the world and each built from the same ShardPlan (the one-shard
// SerialPlan for one Metropolis–Hastings walk per chain) and maintaining
// its views by delta (Alg. 1), and averages their marginal counts.
// Cross-chain samples are far more independent than within-chain samples,
// which is why the paper observes super-linear error reduction in the
// number of chains.
//
// Chains are scheduled onto a fixed-size thread pool capped at the hardware
// concurrency (never one thread per chain), each chain's world/proposal/
// evaluator are built inside its pool task and freed when it ends, and every
// finished chain folds its answer into the merged result under a mutex.
// Consequences: chain counts far beyond the core count are safe, peak
// memory is O(#threads) worlds rather than O(#chains), and merging overlaps
// sampling instead of running as a serial post-pass. Marginal counts are
// integers, so the merged answer is identical regardless of completion
// order — threaded and sequential (max_threads = 1) runs agree bitwise for
// fixed seeds.
#ifndef FGPDB_PDB_PARALLEL_EVALUATOR_H_
#define FGPDB_PDB_PARALLEL_EVALUATOR_H_

#include <vector>

#include "pdb/convergence_stats.h"
#include "pdb/probabilistic_database.h"
#include "pdb/query_evaluator.h"
#include "pdb/shard_plan.h"
#include "ra/plan.h"

namespace fgpdb {
namespace pdb {

struct ParallelOptions {
  size_t num_chains = 4;
  uint64_t samples_per_chain = 100;
  EvaluatorOptions chain_options;
  /// Worker threads. 0 = min(num_chains, hardware concurrency); never more
  /// threads than chains; 1 runs the chains one at a time on the calling
  /// thread. With one chain the cap goes to its shard stepping instead.
  size_t max_threads = 0;
  /// Also fold per-chain answer counts into CrossChainStats (per plan), so
  /// the caller can read Monte-Carlo standard errors — the until(confidence,
  /// eps) policy's stopping signal. Off by default: fixed-count callers
  /// should not pay for the per-tuple maps.
  bool track_chain_stats = false;
};

/// Result of a multi-query parallel evaluation: one merged answer per plan
/// (index-aligned with the input), plus aggregate chain statistics for
/// progress reporting.
struct MultiQueryAnswer {
  std::vector<QueryAnswer> answers;
  /// Per-plan cross-chain standard-error statistics (index-aligned with
  /// `answers`). Empty unless ParallelOptions::track_chain_stats was set.
  /// Integer-sum state, so the streaming completion-order merge yields
  /// bitwise-identical statistics run to run.
  std::vector<CrossChainStats> stats;
  uint64_t total_proposed = 0;
  uint64_t total_accepted = 0;

  double acceptance_rate() const {
    return total_proposed == 0
               ? 0.0
               : static_cast<double>(total_accepted) /
                     static_cast<double>(total_proposed);
  }
};

/// Snapshots `pdb` into `options.num_chains` copy-on-write worlds, builds
/// one chain per world from `shard_plan`, runs each for `samples_per_chain`
/// samples on a hardware-sized thread pool, and returns the merged
/// (averaged) answers. `pdb` itself is never mutated. The §4.2 economy
/// extended to §5.4: every chain maintains ALL the plans' views on its
/// single walk (one delta drain fanned out per interval), so K queries over
/// B chains cost B sampling passes instead of K·B. Per-plan merged answers
/// are bitwise-identical to K separate single-plan calls with the same
/// options, because the chain trajectory never depends on the registered
/// queries. Chain seeds are salted per chain index and each chain's shard
/// streams derive from its salted seed, so the B×S grid of RNG streams is a
/// pure function of (seed, salt, chain, shard). `shard_plan`'s factory runs
/// on the pool's worker threads, possibly concurrently. `plans` must be
/// non-empty; `seed_salt` offsets every chain's seed (distinct salts give
/// independent chain batches, e.g. across successive Session::Run epochs).
MultiQueryAnswer EvaluateParallelMulti(
    const ProbabilisticDatabase& pdb,
    const std::vector<const ra::PlanNode*>& plans,
    const ShardPlan& shard_plan, const ParallelOptions& options,
    uint64_t seed_salt = 0);

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_PARALLEL_EVALUATOR_H_
