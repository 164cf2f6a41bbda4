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
  // A serial chain is the one-shard plan over the whole world.
  if (!options_.shard_plan.has_plan()) {
    options_.shard_plan = pdb::SerialPlan(options_.proposal_factory);
  }
  // Multi-chain policies (parallel, and until starting at ≥2 chains) build
  // fresh COW chain batches per round instead of a resident shared chain.
  const bool multi_chain =
      policy.mode == ExecutionPolicy::Mode::kParallel ||
      (policy.mode == ExecutionPolicy::Mode::kUntil && policy.num_chains > 1);
  if (!multi_chain) {
    chain_ = std::make_unique<pdb::SharedChainEvaluator>(
        world_.get(), options_.shard_plan, options_.evaluator,
        /*materialized=*/policy.mode != ExecutionPolicy::Mode::kNaive,
        policy.max_threads);
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
                                   size_t num_chains) {
  // A fresh batch of COW chains, every chain maintaining ALL registered
  // views on its one walk, per-query answers merged as chains finish.
  // Distinct epoch salts decorrelate successive batches (epoch 0 matches a
  // standalone EvaluateParallelMulti).
  const bool until = options_.policy.mode == ExecutionPolicy::Mode::kUntil;
  std::vector<const ra::PlanNode*> plans;
  plans.reserve(registered_.size());
  for (const Registered& r : registered_) plans.push_back(&r.query->plan());
  pdb::ParallelOptions parallel;
  parallel.num_chains = num_chains;
  parallel.samples_per_chain = samples_per_chain;
  parallel.chain_options = options_.evaluator;
  parallel.max_threads = options_.policy.max_threads;
  parallel.track_chain_stats = until;
  pdb::MultiQueryAnswer batch =
      pdb::EvaluateParallelMulti(*world_, plans, options_.shard_plan, parallel,
                                 /*seed_salt=*/parallel_epoch_ *
                                     0xbf58476d1ce4e5b9ULL);
  std::lock_guard<std::mutex> lock(results_mu_);
  ++parallel_epoch_;
  parallel_proposed_ += batch.total_proposed;
  parallel_accepted_ += batch.total_accepted;
  for (size_t q = 0; q < registered_.size(); ++q) {
    Registered& reg = registered_[q];
    reg.merged.Merge(batch.answers[q]);
    if (until) {
      reg.chain_stats.Merge(batch.stats[q]);
      if (!reg.converged &&
          reg.merged.num_samples() >= options_.policy.min_samples &&
          reg.chain_stats.num_chains() >= 2 &&
          reg.chain_stats.MaxHalfWidth(until_z_) <= options_.policy.eps) {
        reg.converged = true;
      }
    }
  }
  if (until) {
    ++until_rounds_;
    until_chains_ = num_chains;
  }
  // Every chain drew exactly samples_per_chain samples (no chain-level
  // tracking stops one early) into every registered query.
  return num_chains * samples_per_chain;
}

void Session::Run(uint64_t samples) {
  uint64_t drawn = 0;
  while (drawn < samples) {
    const uint64_t quantum = RunQuantum(samples - drawn);
    if (quantum == 0) break;
    drawn += quantum;
  }
}

uint64_t Session::RunQuantum(uint64_t max_samples) {
  FGPDB_CHECK(!registered_.empty())
      << "Register at least one query before RunQuantum()";
  if (max_samples == 0) return 0;
  const ExecutionPolicy& policy = options_.policy;
  // Resident-chain policies: serial, naive, sharded, until at one chain
  // (converged views freeze, and the chain stops once all have).
  if (chain_ != nullptr) return chain_->RunQuantum(max_samples);
  if (policy.mode == ExecutionPolicy::Mode::kParallel) {
    return RunParallelRound(max_samples, policy.num_chains);
  }
  // Until, multi-chain: one estimator round per quantum while the bound is
  // unmet. The round length is the cross-chain SE's invariant, so the
  // quantum cannot shorten it. Round r (1-based) runs
  // num_chains · 2^min(r−1, max_escalations) chains: a function of the
  // round index alone, however calls split the rounds.
  if (converged()) return 0;
  const uint64_t rung =
      std::min<uint64_t>(until_rounds_, policy.max_escalations);
  return RunParallelRound(kSamplesPerRound, policy.num_chains << rung);
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

}  // namespace api
}  // namespace fgpdb
