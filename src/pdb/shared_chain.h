// Multi-query evaluation on ONE MCMC chain — the paper's central economy.
//
// One chain's delta stream can maintain many materialized views at once
// (§4.2): the sampler walks k steps, the row-granular accumulator is
// drained ONCE, and the resulting DeltaSet fans out to every registered
// view. K queries therefore cost one sampling pass plus only the subtrees
// their deltas touch: a view none of whose subscribed base tables was
// touched this round is skipped outright, by its own subscription map.
//
// The chain is an infer::ShardRunner built from a ShardPlan: S shard-local
// MetropolisHastings chains over this evaluator's world, whose accepted
// jumps are mirrored into the tables and the Δ−/Δ+ accumulator in fixed
// shard order after every interval. A serial chain is the one-shard plan
// (SerialPlan), which steps under the seed verbatim.
//
// SharedChainEvaluator is the one evaluation loop: Algorithm 1 (views
// maintained through Δ−/Δ+) or Algorithm 3 (materialized=false: the full
// query re-run over every sampled world), for one registered plan or many.
// Under Algorithm 1 the marginal counts follow the views' output deltas
// too (the sojourn fold, QueryAnswer::Enter/Leave): a tuple's run opens
// when its view multiplicity rises from 0 and closes when it falls back to
// 0, so observing a sample costs O(tuples crossing 0), not O(|answer|).
// Algorithm 3 has no deltas and folds each sample's whole answer set
// (QueryAnswer::ObserveSampleContaining).
// Stepwise (Initialize + DrawSample), so callers can record
// loss-versus-time series — how the paper's figures are measured. It is
// the engine under api::Session (the public front door), serve::Server,
// and the parallel evaluator's per-chain bodies.
#ifndef FGPDB_PDB_SHARED_CHAIN_H_
#define FGPDB_PDB_SHARED_CHAIN_H_

#include <memory>
#include <vector>

#include "infer/shard_runner.h"
#include "pdb/convergence_stats.h"
#include "pdb/probabilistic_database.h"
#include "pdb/query_evaluator.h"
#include "pdb/shard_plan.h"
#include "ra/plan.h"
#include "view/incremental.h"

namespace fgpdb {
namespace pdb {

class SharedChainEvaluator {
 public:
  /// Builds the chain from `plan`: S = plan.num_shards shard-local chains
  /// advance `pdb`'s world, each under its own RNG stream derived from
  /// options.seed (S == 1: options.seed verbatim), and each interval their
  /// accepted-jump buffers drain in fixed shard order into the ONE delta
  /// fan-out — views, marginals, and convergence stats see a single logical
  /// chain, bitwise-reproducible at a fixed seed regardless of thread
  /// interleaving. The one-shard plan is the serial chain (SerialPlan): it
  /// walks the trajectory of a bare MetropolisHastings at options.seed, and
  /// the accumulator depends only on the assignment stream, so deferring
  /// the mirror to the end of an interval coalesces identically.
  /// `materialized` selects Alg. 1 (delta-maintained views, the default)
  /// or Alg. 3 (full query per sample) for every registered query.
  /// `max_threads` caps the shard-stepping threads (0 = min(S, hardware
  /// concurrency); 1 steps the shards one at a time, with the same result).
  SharedChainEvaluator(ProbabilisticDatabase* pdb, const ShardPlan& plan,
                       EvaluatorOptions options, bool materialized = true,
                       size_t max_threads = 0);

  /// Registers a query; returns its slot index. Callable before or after
  /// Initialize(): a view registered mid-run is brought current against
  /// the chain's world (pending deltas are folded into the existing views
  /// first, without observing a sample) and starts counting samples from
  /// its registration.
  size_t AddQuery(const ra::PlanNode* plan);

  /// Runs burn-in and the one exhaustive evaluation per registered view.
  /// The burn-in is detached (the world advances, nothing is buffered),
  /// then one TupleBinding::StoreWorld brings the tables level with the
  /// world: they end where a mirrored burn-in leaves them.
  void Initialize();
  bool initialized() const { return initialized_; }

  /// Advances the chain k steps, drains the delta accumulator once, fans
  /// the DeltaSet out to every subscribed view, and observes one sample per
  /// live query. Alg. 1: each view's output delta opens or closes the runs
  /// of the tuples whose multiplicity crossed 0, so a view the deltas did
  /// not touch costs O(1) to observe. Alg. 3: the full query's answer set
  /// is folded.
  void DrawSample();

  /// Advances the chain `n` transitions and mirrors them into the tables
  /// and the delta accumulator, without observing a sample (the next
  /// DrawSample or AddQuery folds the pending deltas). Requires
  /// Initialize().
  void Step(size_t n);

  /// The sampling loop: initialize if needed, then draw at most
  /// `max_samples` samples at the fixed thinning interval k, stopping early
  /// only when convergence tracking is enabled and every query's bound
  /// holds. Returns the samples actually drawn — the fig4b "samples used"
  /// number under tracking. A sequence of quanta at a fixed seed is
  /// bitwise-identical to one call of their sum, which is what lets a fair
  /// scheduler (serve layer) interleave many tenants' chains without
  /// perturbing any single tenant's trajectory.
  uint64_t RunQuantum(uint64_t max_samples);

  /// Switches the chain to run-until-error-bound mode: every registered
  /// query tracks per-tuple batched-means standard errors, and a query
  /// whose answer is within ±eps at the requested confidence freezes — its
  /// view is paused (drained from the delta fan-out, stops paying apply
  /// cost) and its marginals stop moving. Tracking never perturbs the chain
  /// trajectory: with an unreachable eps the answers are bitwise-identical
  /// to an untracked run. Call before Initialize().
  void EnableConvergenceTracking(const ConvergenceOptions& options);
  bool tracking_convergence() const { return tracking_; }

  /// Whether `slot`'s answer satisfied the error bound and froze.
  bool converged(size_t slot) const { return slots_.at(slot).converged; }
  size_t num_converged() const { return num_converged_; }
  bool all_converged() const {
    return tracking_ && num_converged_ == slots_.size();
  }

  /// Per-tuple error stats for `slot`; null unless tracking is enabled.
  const MarginalErrorStats* error_stats(size_t slot) const {
    return slots_.at(slot).stats.get();
  }

  /// z(confidence)·max-SE for `slot` — +inf until estimable, 0 for an
  /// empty answer. Requires tracking.
  double MaxHalfWidth(size_t slot) const;

  size_t num_queries() const { return slots_.size(); }
  const QueryAnswer& answer(size_t slot) const { return slots_.at(slot).answer; }

  /// Distinct tuples in the current world's answer for `slot`.
  std::vector<Tuple> CurrentAnswerSet(size_t slot) const;

  size_t num_shards() const { return runner_->num_shards(); }

  /// Proposal/acceptance counters of the logical chain: the
  /// order-independent sums over its shard chains.
  uint64_t num_proposed() const { return runner_->num_proposed(); }
  uint64_t num_accepted() const { return runner_->num_accepted(); }
  double acceptance_rate() const { return runner_->acceptance_rate(); }

  /// The thinning interval k (fixed: EvaluatorOptions::steps_per_sample).
  uint64_t steps_per_sample() const { return options_.steps_per_sample; }

 private:
  struct Slot {
    const ra::PlanNode* plan = nullptr;
    std::unique_ptr<view::MaterializedView> view;  // null in naive mode
    QueryAnswer answer;
    /// Batched-means error tracking; null unless tracking is enabled.
    std::unique_ptr<MarginalErrorStats> stats;
    /// Set once the error bound held: the slot stops observing samples and
    /// its view is paused. Monotone — a frozen slot never thaws.
    bool converged = false;
  };

  /// Runs `slot`'s one full view evaluation and opens a run for every
  /// tuple in it.
  void InitializeView(Slot* slot);
  /// Opens or closes the runs of the tuples whose multiplicity in `slot`'s
  /// view crossed 0 under `delta`, the view's latest output delta.
  void FoldDelta(const view::DeltaMultiset& delta, Slot* slot);
  /// Counts one sample into `slot`'s marginals (and the error tracker when
  /// tracking).
  void ObserveSample(Slot* slot);
  /// Distinct tuples in the current world's answer for `slot`.
  std::vector<Tuple> AnswerSet(const Slot& slot) const;
  /// Freezes `slot` if the error bound holds.
  void MaybeFreeze(Slot* slot);
  /// True if any table with a non-empty delta in `deltas` is subscribed to
  /// by `view`.
  static bool ViewTouched(const view::MaterializedView& view,
                          const view::DeltaSet& deltas);

  ProbabilisticDatabase* pdb_;
  EvaluatorOptions options_;
  const bool materialized_;
  std::vector<Slot> slots_;
  /// Heap-held: the shard chains' listeners capture the runner's address.
  std::unique_ptr<infer::ShardRunner> runner_;
  // Reused every interval: TakeDeltas recycles its table buckets.
  view::DeltaSet delta_buf_;
  bool initialized_ = false;

  // Run-until-error-bound state.
  bool tracking_ = false;
  ConvergenceOptions convergence_;
  double z_ = 0.0;  // ZForConfidence(convergence_.confidence)
  size_t num_converged_ = 0;
};

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_SHARED_CHAIN_H_
