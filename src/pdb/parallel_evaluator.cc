#include "pdb/parallel_evaluator.h"

#include <algorithm>
#include <mutex>

#include "pdb/shared_chain.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace fgpdb {
namespace pdb {

namespace {

// Per-chain result: the chain's answers (index-aligned with the plans) and
// its sampler counters.
struct ChainResult {
  std::vector<QueryAnswer> answers;
  uint64_t proposed = 0;
  uint64_t accepted = 0;
};

// Builds, runs, and tears down one chain: a copy-on-write snapshot of the
// base world, fresh proposals from the shard plan, and a shared-chain
// evaluator maintaining every plan's view on the one chain. All chain state
// lives and dies inside this call, so a pool running T worker threads holds
// at most T worlds at a time no matter how many chains are requested.
//
// Every chain maintains its views by delta (Alg. 1) and compiles its own,
// which matters for the routed delta pipeline: the subscription maps,
// routing masks, reusable operator buffers, and the TupleArena are per-view
// state owned by exactly one chain — nothing in the delta path is shared
// across threads, so chains apply deltas without synchronization.
ChainResult RunChain(const ProbabilisticDatabase& pdb,
                     const std::vector<const ra::PlanNode*>& plans,
                     const ShardPlan& shard_plan,
                     const ParallelOptions& options, size_t chain_index,
                     uint64_t seed_salt) {
  std::unique_ptr<ProbabilisticDatabase> world = pdb.Snapshot();
  EvaluatorOptions chain_options = options.chain_options;
  // Decorrelate chains: each gets its own seed stream, a function of the
  // chain index (and the caller's salt) alone so scheduling cannot change
  // results. Shard streams derive from the salted chain seed.
  chain_options.seed = options.chain_options.seed + seed_salt +
                       0x9e3779b97f4a7c15ULL * (chain_index + 1);
  // Inner shard stepping runs one shard at a time when there are several
  // chains — the outer pool already owns the cores, and the merge is
  // order-fixed so threading never changes the answer anyway.
  SharedChainEvaluator evaluator(
      world.get(), shard_plan, chain_options, /*materialized=*/true,
      /*max_threads=*/options.num_chains == 1 ? options.max_threads : 1);
  for (const ra::PlanNode* plan : plans) evaluator.AddQuery(plan);
  evaluator.RunQuantum(options.samples_per_chain);
  ChainResult result;
  result.answers.reserve(plans.size());
  for (size_t q = 0; q < plans.size(); ++q) {
    result.answers.push_back(evaluator.answer(q));
  }
  result.proposed = evaluator.num_proposed();
  result.accepted = evaluator.num_accepted();
  return result;
}

}  // namespace

MultiQueryAnswer EvaluateParallelMulti(
    const ProbabilisticDatabase& pdb,
    const std::vector<const ra::PlanNode*>& plans,
    const ShardPlan& shard_plan, const ParallelOptions& options,
    uint64_t seed_salt) {
  FGPDB_CHECK_GT(options.num_chains, 0u);
  FGPDB_CHECK(!plans.empty());
  FGPDB_CHECK(shard_plan.has_plan()) << "ShardPlan has no proposal factory";

  MultiQueryAnswer merged;
  merged.answers.resize(plans.size());
  if (options.track_chain_stats) merged.stats.resize(plans.size());
  auto fold = [&merged, &options](const ChainResult& chain) {
    // Streaming merge: fold a chain in as soon as it finishes, while other
    // chains are still sampling. Counts are integers (cross-chain stats
    // included), so the merge order cannot change the result.
    for (size_t q = 0; q < chain.answers.size(); ++q) {
      merged.answers[q].Merge(chain.answers[q]);
      if (options.track_chain_stats) {
        merged.stats[q].ObserveChain(chain.answers[q]);
      }
    }
    merged.total_proposed += chain.proposed;
    merged.total_accepted += chain.accepted;
  };

  const size_t num_threads =
      options.max_threads > 0
          ? std::min(options.max_threads, options.num_chains)
          : ThreadPool::DefaultThreadCount(options.num_chains);
  if (num_threads > 1) {
    std::mutex merge_mu;
    ThreadPool pool(num_threads);
    for (size_t b = 0; b < options.num_chains; ++b) {
      pool.Submit([&, b] {
        const ChainResult chain =
            RunChain(pdb, plans, shard_plan, options, b, seed_salt);
        std::lock_guard<std::mutex> lock(merge_mu);
        fold(chain);
      });
    }
    pool.Wait();
  } else {
    for (size_t b = 0; b < options.num_chains; ++b) {
      fold(RunChain(pdb, plans, shard_plan, options, b, seed_salt));
    }
  }
  return merged;
}

}  // namespace pdb
}  // namespace fgpdb
