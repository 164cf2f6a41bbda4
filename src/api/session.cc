#include "api/session.h"

#include <algorithm>
#include <utility>

#include "api/plan_cache.h"
#include "infer/convergence.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "util/logging.h"

namespace fgpdb {
namespace api {

// --- ResultHandle -----------------------------------------------------------

QueryProgress ResultHandle::Snapshot() const {
  return session_->SnapshotSlot(slot_);
}

const PreparedQueryPtr& ResultHandle::query() const {
  return session_->registered_.at(slot_).query;
}

// --- Session ----------------------------------------------------------------

std::string Session::NormalizeSql(const std::string& sql) {
  return sql::NormalizeForCache(sql);
}

std::unique_ptr<Session> Session::Open(SessionOptions options) {
  FGPDB_CHECK(options.database != nullptr) << "SessionOptions.database is required";
  FGPDB_CHECK(options.proposal_factory != nullptr ||
              options.shard_plan.has_plan())
      << "SessionOptions.proposal_factory is required (or set shard_plan)";
  FGPDB_CHECK(options.policy.num_shards <= 1 || options.shard_plan.has_plan())
      << "ExecutionPolicy requests shards but SessionOptions.shard_plan is "
         "unset (build one with ie::BuildDocumentShardPlan or "
         "pdb::BuildShardPlan)";
  return std::unique_ptr<Session>(new Session(std::move(options)));
}

Session::Session(SessionOptions options) : options_(std::move(options)) {
  // The session's world is a copy-on-write snapshot: serial/naive chains
  // mutate it freely and the caller's database stays pristine under every
  // policy (parallel chains snapshot the base again per batch).
  world_ = options_.database->Snapshot();
  if (options_.model != nullptr) world_->set_model(options_.model);
  const ExecutionPolicy& policy = options_.policy;
  if (policy.mode == ExecutionPolicy::Mode::kUntil) {
    FGPDB_CHECK_GT(policy.num_chains, 0u);
    FGPDB_CHECK_GT(policy.eps, 0.0);
    until_z_ = infer::ZForConfidence(policy.confidence);
    until_chains_ = policy.num_chains;
  }
  // Multi-chain policies (parallel, and until starting at ≥2 chains) build
  // fresh COW chain batches per round instead of a resident shared chain.
  const bool multi_chain =
      policy.mode == ExecutionPolicy::Mode::kParallel ||
      (policy.mode == ExecutionPolicy::Mode::kUntil && policy.num_chains > 1);
  if (!multi_chain) {
    // With a shard plan the resident chain steps through shard-local
    // sub-chains (a single-shard plan replays the serial chain bitwise);
    // otherwise the classic one-proposal serial sampler.
    const bool sharded = options_.shard_plan.has_plan();
    if (!sharded) proposal_ = options_.proposal_factory(*world_);
    chain_ = std::make_unique<pdb::SharedChainEvaluator>(
        world_.get(), proposal_.get(), options_.evaluator,
        /*materialized=*/policy.mode != ExecutionPolicy::Mode::kNaive);
    if (sharded) {
      chain_->EnableSharding(
          options_.shard_plan,
          pdb::ShardedExecution{policy.use_threads, policy.max_threads});
    }
    if (policy.mode == ExecutionPolicy::Mode::kUntil) {
      chain_->EnableConvergenceTracking({.confidence = policy.confidence,
                                         .eps = policy.eps,
                                         .min_samples = policy.min_samples});
    }
  }
}

Session::~Session() = default;

PreparedQueryPtr Session::Prepare(const std::string& sql) {
  const std::string normalized = NormalizeSql(sql);
  const auto it = prepared_cache_.find(normalized);
  if (it != prepared_cache_.end()) return it->second;
  // L1 miss: read through the shared cross-session cache (if wired) before
  // paying for parse + bind. Plans reference tables by name, so a plan
  // bound by a sibling session over the same catalog shape is valid here.
  if (options_.plan_cache != nullptr) {
    if (PreparedQueryPtr shared = options_.plan_cache->Lookup(normalized)) {
      prepared_cache_.emplace(normalized, shared);
      return shared;
    }
  }
  ra::PlanPtr plan = sql::PlanQuery(sql, world_->db());
  PreparedQueryPtr prepared(
      new PreparedQuery(normalized, sql, std::move(plan)));
  prepared_cache_.emplace(normalized, prepared);
  if (options_.plan_cache != nullptr) {
    options_.plan_cache->Insert(normalized, prepared);
  }
  return prepared;
}

ResultHandle Session::Register(const PreparedQueryPtr& prepared) {
  FGPDB_CHECK(prepared != nullptr);
  const size_t slot = registered_.size();
  if (chain_ != nullptr) {
    const size_t chain_slot = chain_->AddQuery(&prepared->plan());
    FGPDB_CHECK_EQ(chain_slot, slot);
  }
  for (const std::string& table : prepared->plan().ScannedTables()) {
    ++subscriptions_[table];
  }
  {
    // Registration may race with a concurrent Snapshot() under the
    // multi-chain policies (it reallocates the slot vector).
    std::lock_guard<std::mutex> lock(results_mu_);
    registered_.push_back(Registered{prepared, pdb::QueryAnswer{},
                                     pdb::CrossChainStats{},
                                     /*converged=*/false});
  }
  return ResultHandle(this, slot);
}

uint64_t Session::RunParallelRound(uint64_t samples_per_chain,
                                   size_t num_chains, bool track_stats) {
  // A fresh batch of COW chains, every chain maintaining ALL registered
  // views on its one sampler, per-query answers merged as chains finish.
  // Distinct epoch salts decorrelate successive batches (epoch 0 matches a
  // standalone EvaluateParallelMulti).
  std::vector<const ra::PlanNode*> plans;
  plans.reserve(registered_.size());
  for (const Registered& r : registered_) plans.push_back(&r.query->plan());
  pdb::ParallelOptions parallel;
  parallel.num_chains = num_chains;
  parallel.samples_per_chain = samples_per_chain;
  parallel.chain_options = options_.evaluator;
  parallel.materialized = true;
  parallel.use_threads = options_.policy.use_threads;
  parallel.max_threads = options_.policy.max_threads;
  parallel.track_chain_stats = track_stats;
  if (options_.shard_plan.has_plan()) {
    parallel.shard_plan = &options_.shard_plan;
  }
  pdb::MultiQueryAnswer batch =
      pdb::EvaluateParallelMulti(*world_, plans, options_.proposal_factory,
                                 parallel,
                                 /*seed_salt=*/parallel_epoch_ *
                                     0xbf58476d1ce4e5b9ULL);
  std::lock_guard<std::mutex> lock(results_mu_);
  ++parallel_epoch_;
  parallel_proposed_ += batch.total_proposed;
  parallel_accepted_ += batch.total_accepted;
  uint64_t samples_total = 0;
  for (size_t q = 0; q < registered_.size(); ++q) {
    Registered& reg = registered_[q];
    reg.merged.Merge(batch.answers[q]);
    if (track_stats) {
      reg.chain_stats.Merge(batch.stats[q]);
      if (!reg.converged &&
          reg.merged.num_samples() >= options_.policy.min_samples &&
          reg.chain_stats.num_chains() >= 2 &&
          reg.chain_stats.MaxHalfWidth(until_z_) <= options_.policy.eps) {
        reg.converged = true;
      }
    }
    samples_total = std::max(samples_total, reg.merged.num_samples());
  }
  if (track_stats) ++until_rounds_;
  return samples_total;
}

void Session::RunUntilMultiChain(uint64_t max_samples) {
  // The escalation ladder: rounds of `until_chains_` COW chains, each
  // samples_per_round long, feeding the cross-chain error estimator. While
  // the bound is unmet the chain count doubles (up to max_escalations rungs
  // above the starting width); the round length never changes, so every
  // chain ever folded carries the same sample count and the cross-chain SE
  // stays well-defined. The ladder position persists across Run() calls.
  const ExecutionPolicy& policy = options_.policy;
  const uint64_t before = CurrentMultiSamples();
  while (true) {
    const uint64_t total =
        RunParallelRound(policy.samples_per_round, until_chains_,
                         /*track_stats=*/true);
    if (converged()) break;
    if (total - before >= max_samples) break;
    if (until_escalations_ < policy.max_escalations) {
      // Under results_mu_: concurrent Snapshot() readers report the ladder
      // position (QueryProgress::chains).
      std::lock_guard<std::mutex> lock(results_mu_);
      until_chains_ *= 2;
      ++until_escalations_;
    }
  }
}

void Session::Run(uint64_t samples) {
  FGPDB_CHECK(!registered_.empty())
      << "Register at least one query before Run()";
  switch (options_.policy.mode) {
    case ExecutionPolicy::Mode::kSerial:
    case ExecutionPolicy::Mode::kNaive:
      chain_->Run(samples);
      return;
    case ExecutionPolicy::Mode::kUntil:
      if (chain_ != nullptr) {
        // Single-chain variant: batched-means errors, converged views
        // freeze and leave the fan-out, and the chain stops once all have.
        chain_->Run(samples);
      } else {
        RunUntilMultiChain(samples);
      }
      return;
    case ExecutionPolicy::Mode::kParallel:
      RunParallelRound(samples, options_.policy.num_chains,
                       /*track_stats=*/false);
      return;
  }
}

uint64_t Session::CurrentMultiSamples() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  uint64_t total = 0;
  for (const Registered& reg : registered_) {
    total = std::max(total, reg.merged.num_samples());
  }
  return total;
}

uint64_t Session::RunQuantum(uint64_t max_samples) {
  FGPDB_CHECK(!registered_.empty())
      << "Register at least one query before RunQuantum()";
  if (max_samples == 0) return 0;
  const ExecutionPolicy& policy = options_.policy;
  switch (policy.mode) {
    case ExecutionPolicy::Mode::kSerial:
    case ExecutionPolicy::Mode::kNaive:
      return chain_->RunQuantum(max_samples);
    case ExecutionPolicy::Mode::kUntil: {
      if (chain_ != nullptr) return chain_->RunQuantum(max_samples);
      // Multi-chain variant: one estimator round per quantum — the round
      // length is the cross-chain SE's invariant, so the quantum cannot
      // shorten it. An unconverged round climbs the escalation ladder,
      // exactly as Run() does while its budget remains.
      if (converged()) return 0;
      const uint64_t before = CurrentMultiSamples();
      const uint64_t after = RunParallelRound(policy.samples_per_round,
                                              until_chains_,
                                              /*track_stats=*/true);
      if (!converged() && until_escalations_ < policy.max_escalations) {
        std::lock_guard<std::mutex> lock(results_mu_);
        until_chains_ *= 2;
        ++until_escalations_;
      }
      return after - before;
    }
    case ExecutionPolicy::Mode::kParallel: {
      const uint64_t before = CurrentMultiSamples();
      const uint64_t after = RunParallelRound(max_samples, policy.num_chains,
                                              /*track_stats=*/false);
      return after - before;
    }
  }
  return 0;
}

bool Session::converged() const {
  if (options_.policy.mode != ExecutionPolicy::Mode::kUntil) return false;
  if (chain_ != nullptr) return chain_->all_converged();
  std::lock_guard<std::mutex> lock(results_mu_);
  for (const Registered& reg : registered_) {
    if (!reg.converged) return false;
  }
  return !registered_.empty();
}

QueryProgress Session::SnapshotSlot(size_t slot) const {
  QueryProgress progress;
  const bool until = options_.policy.mode == ExecutionPolicy::Mode::kUntil;
  if (chain_ != nullptr) {
    progress.answer = chain_->answer(slot);
    progress.steps_per_sample = chain_->steps_per_sample();
    progress.acceptance_rate = chain_->acceptance_rate();
    if (until) {
      progress.converged = chain_->converged(slot);
      progress.max_half_width = chain_->MaxHalfWidth(slot);
      progress.chains = 1;
      const pdb::MarginalErrorStats* stats = chain_->error_stats(slot);
      stats->ForEach([&](const Tuple& t, double mean, double se) {
        progress.estimates.push_back(TupleEstimate{t, mean, se});
      });
    }
  } else {
    std::lock_guard<std::mutex> lock(results_mu_);
    const Registered& reg = registered_.at(slot);
    progress.answer = reg.merged;
    progress.steps_per_sample = options_.evaluator.steps_per_sample;
    progress.acceptance_rate =
        parallel_proposed_ == 0
            ? 0.0
            : static_cast<double>(parallel_accepted_) /
                  static_cast<double>(parallel_proposed_);
    if (until) {
      progress.converged = reg.converged;
      progress.max_half_width = reg.chain_stats.MaxHalfWidth(until_z_);
      progress.rounds = until_rounds_;
      progress.chains = until_chains_;
      reg.chain_stats.ForEach([&](const Tuple& t, double mean, double se) {
        progress.estimates.push_back(TupleEstimate{t, mean, se});
      });
    }
  }
  std::sort(progress.estimates.begin(), progress.estimates.end(),
            [](const TupleEstimate& a, const TupleEstimate& b) {
              return a.tuple < b.tuple;
            });
  progress.samples = progress.answer.num_samples();
  return progress;
}

const std::unordered_map<std::string, size_t>& Session::subscriptions() const {
  return subscriptions_;
}

}  // namespace api
}  // namespace fgpdb
