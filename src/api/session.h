// fgpdb::api::Session — the library's front door.
//
// The paper's architecture (§5) wires four pieces per query: a SQL plan, a
// proposal kernel, an MCMC sampler, and an evaluator. Session owns that
// wiring once per connection and lets N concurrent queries amortize one
// sampler:
//
//   auto session = api::Session::Open({.database = &pdb,
//                                      .proposal_factory = factory,
//                                      .evaluator = {.steps_per_sample = 1000}});
//   auto q1 = session->Register("SELECT STRING FROM TOKEN WHERE ...");
//   auto q2 = session->Register(session->Prepare("SELECT COUNT(*) ..."));
//   session->Run(500);                     // ONE chain maintains both views
//   for (auto& [t, p] : q1.Snapshot().answer.Sorted()) ...
//
// Prepare() binds and caches plans by normalized SQL text; Register()
// attaches a prepared query as a materialized view on the session's shared
// chain (the PR 3 delta drain fans out through the union of all registered
// views' table→scan subscriptions, so K queries cost one sampling pass plus
// only the subtrees their deltas touch); Run() advances the chain;
// ResultHandle::Snapshot() reads marginals, sample counts, and
// acceptance-rate progress per query mid-run.
//
// A single ExecutionPolicy selects how pdb::SharedChainEvaluator, the one
// evaluation loop, is driven:
//
//   serial    — one shared chain, delta-maintained views (Alg. 1)
//   parallel  — num_chains COW-snapshot chains, each maintaining ALL
//               registered views; per-query answers merged as chains finish
//   naive     — one shared chain, full query per sample (Alg. 3 baseline)
//
// Thread-safety contract: a Session is externally synchronized — call it
// from one thread at a time (the parallel policy uses worker threads
// internally; the base database handed to Open() is never mutated by any
// policy, each session samples its own copy-on-write snapshot).
#ifndef FGPDB_API_SESSION_H_
#define FGPDB_API_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdb/parallel_evaluator.h"
#include "pdb/probabilistic_database.h"
#include "pdb/query_evaluator.h"
#include "pdb/shared_chain.h"
#include "ra/plan.h"

namespace fgpdb {
namespace api {

struct ExecutionPolicy {
  enum class Mode { kSerial, kParallel, kNaive, kUntil };

  Mode mode = Mode::kSerial;
  /// kParallel: chain count. kUntil: the escalation ladder's FIRST rung
  /// (1 = single shared chain with batched-means errors, ≥2 = cross-chain
  /// errors with chain doubling). Threading fields apply to both.
  size_t num_chains = 4;
  /// Intra-chain sharding (requires SessionOptions::shard_plan when > 1):
  /// each logical chain is stepped by S shard-local sub-chains merged in
  /// fixed shard order — one delta stream, one set of views, bitwise-
  /// reproducible at a seed. Orthogonal to `num_chains` (replica chains):
  /// composes with every mode, including Until. The plan's own shard count
  /// is what actually runs (locality fallback may have clamped it to 1).
  size_t num_shards = 1;
  bool use_threads = true;
  size_t max_threads = 0;

  // kUntil only — run-until-error-bound (see Until()).
  /// Two-sided confidence level of the per-tuple bound.
  double confidence = 0.95;
  /// Absolute marginal-probability half-width target: stop when every
  /// tuple's marginal carries z(confidence)·SE ≤ eps.
  double eps = 0.01;
  /// Samples per chain per round between convergence checks. Constant
  /// across rounds (the cross-chain estimator needs equal-length chains);
  /// escalation doubles the chain count, not the round length.
  uint64_t samples_per_round = 32;
  /// Ladder height: how many times Run() may double the chain count after
  /// starting at num_chains (multi-chain variant only). 3 ⇒ B,2B,4B,8B.
  size_t max_escalations = 3;
  /// Samples a query must observe before it may be declared converged.
  uint64_t min_samples = 64;

  static ExecutionPolicy Serial() { return {}; }
  /// One logical chain stepped by `num_shards` shard-local chains running
  /// concurrently (the tentpole of document-sharded inference): serial-mode
  /// semantics — one world, one delta fan-out, one set of views — at
  /// near-linear step throughput in the shard count. Requires a
  /// SessionOptions::shard_plan (e.g. ie::BuildDocumentShardPlan); S = 1
  /// and every locality fallback are bitwise-identical to Serial().
  static ExecutionPolicy Sharded(size_t num_shards, size_t max_threads = 0) {
    ExecutionPolicy p;
    p.num_shards = num_shards;
    p.max_threads = max_threads;
    return p;
  }
  static ExecutionPolicy Parallel(size_t num_chains, size_t max_threads = 0) {
    ExecutionPolicy p;
    p.mode = Mode::kParallel;
    p.num_chains = num_chains;
    p.max_threads = max_threads;
    return p;
  }
  static ExecutionPolicy Naive() {
    ExecutionPolicy p;
    p.mode = Mode::kNaive;
    return p;
  }
  /// Run-until-error-bound: sample until every registered query's marginals
  /// are within ±eps at `confidence`, or the Run() budget runs out. With
  /// num_chains == 1 the session's shared chain tracks batched-means
  /// standard errors and converged views freeze (drained from the delta
  /// fan-out); with num_chains ≥ 2 rounds of COW chains feed a cross-chain
  /// estimator and the chain count doubles per escalation while the bound
  /// is unmet. All stopping decisions are functions of the sample stream
  /// alone — repeated runs at one seed are bitwise-identical.
  static ExecutionPolicy Until(double confidence, double eps,
                               size_t num_chains = 4,
                               size_t max_threads = 0) {
    ExecutionPolicy p;
    p.mode = Mode::kUntil;
    p.confidence = confidence;
    p.eps = eps;
    p.num_chains = num_chains;
    p.max_threads = max_threads;
    return p;
  }

  /// Composition: the same policy with intra-chain sharding, e.g.
  /// Parallel(4).WithShards(8) (4 replica chains, each stepped by 8 shard
  /// chains) or Until(0.95, 0.01, 1).WithShards(8) (run-until-error-bound
  /// on one sharded logical chain).
  ExecutionPolicy WithShards(size_t num_shards) const {
    ExecutionPolicy p = *this;
    p.num_shards = num_shards;
    return p;
  }
};

class PlanCache;

struct SessionOptions {
  /// The base world: tables, bindings, and (unless `model` overrides it)
  /// the factor-graph model. Borrowed; must outlive the session. Never
  /// mutated — the session samples its own copy-on-write snapshot.
  pdb::ProbabilisticDatabase* database = nullptr;

  /// Optional cross-session plan cache (api/plan_cache.h). Borrowed; must
  /// outlive the session. When set, Prepare() reads through it: the
  /// per-session map stays the L1, this cache the shared L2, and a query
  /// planned by ANY session over the same catalog shape is reused instead
  /// of re-bound. serve::Server wires one per server.
  PlanCache* plan_cache = nullptr;

  /// Optional model override; defaults to the base database's model.
  const factor::Model* model = nullptr;

  /// Produces a fresh proposal per chain (proposals hold chain-local
  /// state). Required unless `shard_plan` is set (the plan's per-shard
  /// factory then supplies every proposal). Must be callable from worker
  /// threads under the parallel policy.
  pdb::ProposalFactory proposal_factory = {};

  /// Sharded execution plan (partition + per-shard proposal factory), e.g.
  /// from ie::BuildDocumentShardPlan. When set, the session steps every
  /// logical chain through the plan's shard chains — required when
  /// policy.num_shards > 1, and used even at one shard (the single-shard
  /// plan replays the serial chain bitwise). The plan's factory closures
  /// are copied into the session, so the plan value need not outlive it.
  pdb::ShardPlan shard_plan = {};

  /// Chain schedule: thinning k (fixed), burn-in, seed.
  pdb::EvaluatorOptions evaluator = {};

  ExecutionPolicy policy = {};
};

/// A bound, immutable plan cached by the session. Shared: several
/// registrations (or sessions over the same catalog shape) may hold it.
class PreparedQuery {
 public:
  /// The cache key: whitespace-collapsed, keyword-case-normalized text.
  const std::string& normalized_sql() const { return normalized_sql_; }
  /// The text originally handed to Prepare().
  const std::string& sql() const { return sql_; }
  const ra::PlanNode& plan() const { return *plan_; }

 private:
  friend class Session;
  PreparedQuery(std::string normalized, std::string sql, ra::PlanPtr plan)
      : normalized_sql_(std::move(normalized)),
        sql_(std::move(sql)),
        plan_(std::move(plan)) {}

  std::string normalized_sql_;
  std::string sql_;
  ra::PlanPtr plan_;
};

using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// One tuple's marginal estimate with its Monte-Carlo standard error
/// (until policy; a ±z·standard_error interval is the reported bound).
struct TupleEstimate {
  Tuple tuple;
  double probability = 0.0;
  double standard_error = 0.0;
};

/// A point-in-time copy of one registered query's progress.
struct QueryProgress {
  pdb::QueryAnswer answer;
  /// Samples folded into `answer` so far (across all chains).
  uint64_t samples = 0;
  /// The thinning interval k (fixed for the session).
  uint64_t steps_per_sample = 0;
  /// Acceptance rate of the chain(s) feeding this query.
  double acceptance_rate = 0.0;

  // --- until policy only (zero/empty under other policies) ---------------
  /// The error bound held: every tuple within ±eps at the configured
  /// confidence (serial variant: the view is frozen and drained).
  bool converged = false;
  /// z(confidence) · max-over-tuples standard error — the answer's current
  /// half-width. +inf while inestimable (too few batches/chains), 0 for an
  /// empty answer.
  double max_half_width = 0.0;
  /// Per-tuple marginal ± standard error, sorted by tuple.
  std::vector<TupleEstimate> estimates;
  /// Escalation-ladder position (multi-chain variant): rounds completed and
  /// the chain count of the most recent round.
  uint64_t rounds = 0;
  size_t chains = 0;
};

class Session;

/// Lightweight reference to a registered query. Valid while the session is
/// alive; copyable.
class ResultHandle {
 public:
  /// Stable copy of the query's progress — callable between Run() calls.
  QueryProgress Snapshot() const;

  const PreparedQueryPtr& query() const;
  size_t slot() const { return slot_; }

 private:
  friend class Session;
  ResultHandle(Session* session, size_t slot)
      : session_(session), slot_(slot) {}

  Session* session_;
  size_t slot_;
};

class Session {
 public:
  /// Opens a session over `options.database`: snapshots the base world,
  /// wires the model, and prepares the chain described by the policy.
  static std::unique_ptr<Session> Open(SessionOptions options);

  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and binds `sql` against the session's catalog. Results are
  /// cached by normalized text: preparing the same query twice returns the
  /// same PreparedQuery instance.
  PreparedQueryPtr Prepare(const std::string& sql);

  /// Attaches a prepared query as a maintained view on the session's
  /// shared chain(s). Registration is cheap and allowed mid-run; a query
  /// registered after sampling started counts samples from that point.
  ResultHandle Register(const PreparedQueryPtr& prepared);
  ResultHandle Register(const std::string& sql) {
    return Register(Prepare(sql));
  }

  /// Advances the session by `samples` collected samples per registered
  /// query: one shared chain under serial/naive, `num_chains` chains each
  /// maintaining every view under parallel (merged as they finish).
  ///
  /// Under the until policy, `samples` is a BUDGET, not a target: sampling
  /// stops as soon as every registered query's marginals are within ±eps at
  /// the configured confidence, and a multi-chain round in flight finishes
  /// before the budget is re-checked against the samples drawn by this call
  /// (so the call may overshoot by up to one round). Escalation state
  /// persists across Run() calls.
  void Run(uint64_t samples);

  /// Scheduler entry point (the serve layer's quantum): advances the
  /// session by AT MOST `max_samples` collected samples and returns the
  /// count actually drawn this call. Resident-chain policies (serial,
  /// naive, until at one chain) advance sample by sample, so a sequence of
  /// quanta at a fixed seed is bitwise-identical to one Run() of their sum
  /// — interleaving many sessions' quanta cannot perturb any one session's
  /// chain. Multi-chain policies advance one round per call (`max_samples`
  /// per chain under parallel; `samples_per_round` — the estimator's fixed
  /// round length — under until, escalating the ladder after an unconverged
  /// round, so the return may exceed `max_samples`). Returns 0 when the
  /// until policy already holds its bound: a converged session has no work.
  uint64_t RunQuantum(uint64_t max_samples);

  /// Until policy: true once every registered query satisfied the bound.
  bool converged() const;

  size_t num_registered() const { return registered_.size(); }
  const ExecutionPolicy& policy() const { return options_.policy; }

  /// Shard chains stepping each logical chain: the shard plan's count
  /// (after any locality fallback), or 1 when the session is unsharded.
  size_t num_shards() const {
    return options_.shard_plan.has_plan() ? options_.shard_plan.num_shards
                                          : 1;
  }

  /// Prepared-statement cache size (distinct normalized texts).
  size_t prepared_cache_size() const { return prepared_cache_.size(); }

  /// Session-level union subscription map: base table → scan count across
  /// every registered view (serial/naive policies; parallel chains build
  /// their own per-chain copies).
  const std::unordered_map<std::string, size_t>& subscriptions() const;

  /// The cache key for `sql`: sql::NormalizeForCache, the one definition
  /// shared with the cross-session serve-layer plan cache. Whitespace and
  /// `--`/`/* */` comments between tokens vanish, keywords uppercase, `!=`
  /// canonicalizes to `<>`; identifiers and string literals are preserved
  /// verbatim (identifier resolution against the catalog is
  /// case-sensitive). Two texts share a cache entry exactly when they
  /// tokenize identically.
  static std::string NormalizeSql(const std::string& sql);

 private:
  friend class ResultHandle;

  explicit Session(SessionOptions options);

  struct Registered {
    PreparedQueryPtr query;
    /// Merged per-query answer (multi-chain policies; serial answers live
    /// in the shared-chain evaluator).
    pdb::QueryAnswer merged;
    /// Cross-chain error statistics (until policy, multi-chain variant).
    pdb::CrossChainStats chain_stats;
    /// The bound held as of the last completed round (monotone).
    bool converged = false;
  };

  QueryProgress SnapshotSlot(size_t slot) const;
  /// Cumulative sample count of the multi-chain result state (max across
  /// registered queries, under the results lock).
  uint64_t CurrentMultiSamples() const;
  /// One round of B COW chains folded into the session state (under the
  /// results lock); returns the per-query sample count after the fold.
  uint64_t RunParallelRound(uint64_t samples_per_chain, size_t num_chains,
                            bool track_stats);
  /// The until policy's multi-chain driver: rounds + escalation ladder.
  void RunUntilMultiChain(uint64_t max_samples);

  SessionOptions options_;
  /// The session's private copy-on-write world (serial/naive chains run on
  /// it; parallel chains snapshot the base again per Run).
  std::unique_ptr<pdb::ProbabilisticDatabase> world_;
  std::unique_ptr<infer::Proposal> proposal_;
  std::unique_ptr<pdb::SharedChainEvaluator> chain_;

  std::unordered_map<std::string, PreparedQueryPtr> prepared_cache_;
  std::vector<Registered> registered_;
  /// Union of every registered view's table→scan routes (ScannedTables
  /// counts; identical to the per-view subscription maps summed).
  std::unordered_map<std::string, size_t> subscriptions_;

  /// Parallel policy bookkeeping: Run() epochs get distinct seed salts so
  /// successive calls sample fresh, decorrelated chain batches.
  uint64_t parallel_epoch_ = 0;
  uint64_t parallel_proposed_ = 0;
  uint64_t parallel_accepted_ = 0;

  /// Guards the multi-chain result state (merged answers, chain stats,
  /// counters) so ResultHandle::Snapshot() may be called from another
  /// thread WHILE Run() executes under the parallel/until policies
  /// (round-granular consistency). Serial policies remain externally
  /// synchronized.
  mutable std::mutex results_mu_;

  // Until-policy ladder state (multi-chain variant); persists across Run().
  double until_z_ = 0.0;  // ZForConfidence(policy.confidence)
  size_t until_chains_ = 0;       // current rung (0 until first Run)
  size_t until_escalations_ = 0;  // rungs climbed so far
  uint64_t until_rounds_ = 0;     // completed rounds
};

}  // namespace api
}  // namespace fgpdb

#endif  // FGPDB_API_SESSION_H_
