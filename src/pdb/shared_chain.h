// Multi-query evaluation on ONE MCMC chain — the paper's central economy.
//
// One chain's delta stream can maintain many materialized views at once
// (§4.2): the sampler walks k steps, the row-granular accumulator is
// drained ONCE, and the resulting DeltaSet fans out to every registered
// view. K queries therefore cost one sampling pass plus only the subtrees
// their deltas touch — the per-view subscription maps (PR 3) mean a query
// whose base tables were untouched this round is skipped outright via the
// chain-level union subscription map.
//
// SharedChainEvaluator is the one evaluation loop: Algorithm 1 (views
// maintained through Δ−/Δ+) or Algorithm 3 (materialized=false: the full
// query re-run over every sampled world), for one registered plan or many.
// Stepwise (Initialize + DrawSample), so callers can record
// loss-versus-time series — how the paper's figures are measured. It is
// the engine under api::Session (the public front door), serve::Server,
// and the parallel evaluator's per-chain bodies.
#ifndef FGPDB_PDB_SHARED_CHAIN_H_
#define FGPDB_PDB_SHARED_CHAIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "infer/metropolis_hastings.h"
#include "infer/shard_runner.h"
#include "pdb/convergence_stats.h"
#include "pdb/probabilistic_database.h"
#include "pdb/query_evaluator.h"
#include "pdb/shard_plan.h"
#include "ra/plan.h"
#include "util/logging.h"
#include "view/incremental.h"

namespace fgpdb {
namespace pdb {

class SharedChainEvaluator {
 public:
  /// `materialized` selects Alg. 1 (delta-maintained views, the default)
  /// or Alg. 3 (full query per sample) for every registered query.
  /// `proposal` may be nullptr ONLY when EnableSharding() follows before
  /// Initialize() — sharded chains build per-shard proposals from the plan.
  SharedChainEvaluator(ProbabilisticDatabase* pdb, infer::Proposal* proposal,
                       EvaluatorOptions options, bool materialized = true);

  /// Switches the chain to sharded execution (call before Initialize(),
  /// with a nullptr ctor proposal): S = plan.num_shards shard-local chains
  /// advance this evaluator's world concurrently, each under its own RNG
  /// stream derived from options.seed (S == 1: options.seed verbatim), and
  /// each interval their accepted-jump buffers drain in fixed shard order
  /// into the ONE delta fan-out — views, marginals, and convergence stats
  /// see a single logical chain, bitwise-reproducible at a fixed seed
  /// regardless of thread interleaving. A single-shard plan replays the
  /// serial chain bitwise (same RNG stream, same assignment stream, and
  /// the row-granular accumulator depends only on stream order — deferred
  /// per-interval mirroring coalesces identically to per-flush mirroring).
  void EnableSharding(const ShardPlan& plan, ShardedExecution exec = {});

  /// Registers a query; returns its slot index. Callable before or after
  /// Initialize(): a view registered mid-run is brought current against
  /// the chain's world (pending deltas are folded into the existing views
  /// first, without observing a sample) and starts counting samples from
  /// its registration.
  size_t AddQuery(const ra::PlanNode* plan);

  /// Runs burn-in and the one exhaustive evaluation per registered view.
  void Initialize();
  bool initialized() const { return initialized_; }

  /// Advances the chain k steps, drains the delta accumulator once, fans
  /// the DeltaSet out to every subscribed view, and folds each view's
  /// answer set into its marginal counts.
  void DrawSample();

  /// The sampling loop: initialize if needed, then draw at most
  /// `max_samples` samples at the fixed thinning interval k, stopping early
  /// only when convergence tracking is enabled and every query's bound
  /// holds. Returns the samples actually drawn — the fig4b "samples used"
  /// number under tracking. A sequence of quanta at a fixed seed is
  /// bitwise-identical to one call of their sum, which is what lets a fair
  /// scheduler (serve layer) interleave many tenants' chains without
  /// perturbing any single tenant's trajectory.
  uint64_t RunQuantum(uint64_t max_samples);

  /// RunQuantum(n), discarding the count.
  void Run(uint64_t n) { RunQuantum(n); }

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

  /// The maintained view for `slot` (materialized mode only).
  const view::MaterializedView& materialized_view(size_t slot) const;

  /// The serial sampler. Unavailable under sharding (the chain is S
  /// samplers — use the counter accessors below, which cover both modes).
  infer::MetropolisHastings& sampler() {
    FGPDB_CHECK(sampler_ != nullptr) << "no serial sampler under sharding";
    return *sampler_;
  }
  const infer::MetropolisHastings& sampler() const {
    FGPDB_CHECK(sampler_ != nullptr) << "no serial sampler under sharding";
    return *sampler_;
  }

  bool sharded() const { return runner_ != nullptr; }
  size_t num_shards() const {
    return runner_ != nullptr ? runner_->num_shards() : 1;
  }

  /// Proposal/acceptance counters of the logical chain: the serial
  /// sampler's counters, or the order-independent sum over shard chains.
  uint64_t num_proposed() const {
    return runner_ != nullptr ? runner_->num_proposed()
                              : sampler_->num_proposed();
  }
  uint64_t num_accepted() const {
    return runner_ != nullptr ? runner_->num_accepted()
                              : sampler_->num_accepted();
  }
  double acceptance_rate() const {
    const uint64_t proposed = num_proposed();
    return proposed == 0 ? 0.0
                         : static_cast<double>(num_accepted()) /
                               static_cast<double>(proposed);
  }

  /// The thinning interval k (fixed: EvaluatorOptions::steps_per_sample).
  uint64_t steps_per_sample() const { return options_.steps_per_sample; }

  /// Chain-level union subscription map: base table → number of scan
  /// operators across ALL registered views reading it. A delta for a table
  /// absent here is invisible to every registered query.
  const std::unordered_map<std::string, size_t>& subscriptions() const {
    return subscriptions_;
  }

  /// Views skipped entirely (no subscribed table touched) across all
  /// DrawSample rounds — the chain-level routing win.
  uint64_t views_skipped() const { return views_skipped_; }

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

  /// Folds `slot`'s current answer set into its marginal counts (and the
  /// error tracker when tracking).
  void ObserveSample(Slot* slot);
  /// Freezes `slot` if the error bound holds; updates the union map.
  void MaybeFreeze(Slot* slot);
  /// True if any table with a non-empty delta in `deltas` is subscribed to
  /// by `view`.
  static bool ViewTouched(const view::MaterializedView& view,
                          const view::DeltaSet& deltas);

  /// Advances the logical chain `n` transitions: the serial sampler (which
  /// mirrors per flush), or the shard runner followed by its fixed-order
  /// merge into the database mirror + delta accumulator.
  void StepChain(size_t n);

  ProbabilisticDatabase* pdb_;
  EvaluatorOptions options_;
  const bool materialized_;
  std::vector<Slot> slots_;
  std::unique_ptr<infer::MetropolisHastings> sampler_;
  /// Sharded execution (EnableSharding); null on the serial path.
  std::unique_ptr<infer::ShardRunner> runner_;
  // Reused every interval: TakeDeltas recycles its table buckets.
  view::DeltaSet delta_buf_;
  std::unordered_map<std::string, size_t> subscriptions_;
  uint64_t views_skipped_ = 0;
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
