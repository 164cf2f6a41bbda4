#include "infer/shard_runner.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {

ShardRunner::ShardRunner(const factor::Model& model, factor::World* world,
                         std::vector<std::unique_ptr<Proposal>> proposals,
                         std::vector<uint32_t> partition,
                         ShardRunnerOptions options)
    : partition_(std::move(partition)), accepted_(proposals.size(), 0) {
  FGPDB_CHECK(world != nullptr);
  FGPDB_CHECK(!proposals.empty());
  const size_t num_shards = proposals.size();
  if (!partition_.empty()) {
    FGPDB_CHECK_EQ(partition_.size(), world->size());
  } else {
    FGPDB_CHECK_EQ(num_shards, 1u);
  }
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.proposal = std::move(proposals[s]);
    FGPDB_CHECK(shard.proposal != nullptr);
    // S == 1 replays the serial sampler verbatim; S > 1 gives every shard
    // its own stream as a pure function of (seed, shard index).
    const uint64_t shard_seed =
        num_shards == 1 ? options.seed : DeriveSeed(options.seed, s);
    shard.chain = std::make_unique<MetropolisHastings>(
        model, world, shard.proposal.get(), shard_seed);
    // Pre-size the accepted-assignment buffer to the chain's flush quantum
    // so interval stepping never grows it mid-walk (appends stay
    // allocation-free until an interval exceeds one mirror batch).
    shard.buffer.reserve(MetropolisHastings::kMirrorBatchLimit);
    shards_.push_back(std::move(shard));
  }
  // Listeners registered after the moves above so the captured Shard
  // addresses are final (shards_ never reallocates again).
  for (size_t s = 0; s < num_shards; ++s) {
    Shard* shard = &shards_[s];
    shard->chain->AddListener(
        [this, shard, s](const std::vector<factor::AppliedAssignment>& applied) {
          if (!recording_) return;
#ifndef NDEBUG
          // A proposal that leaves its shard breaks both exactness and the
          // race-freedom argument; catch it where it happens.
          if (!partition_.empty()) {
            for (const factor::AppliedAssignment& a : applied) {
              FGPDB_CHECK_EQ(partition_[a.var], s)
                  << "shard-local proposal touched a foreign shard";
            }
          }
#else
          (void)s;
#endif
          shard->buffer.insert(shard->buffer.end(), applied.begin(),
                               applied.end());
        });
  }
  if (options.use_threads && num_shards > 1) {
    const size_t threads =
        options.max_threads > 0
            ? std::min(options.max_threads, num_shards)
            : ThreadPool::DefaultThreadCount(num_shards);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }
}

size_t ShardRunner::StepShards(size_t n) {
  const size_t num_shards = shards_.size();
  // Per-shard accepted counts: each slot is written by exactly one task
  // (disjoint elements), summed after the barrier — an integer fold whose
  // value cannot depend on completion order.
  std::fill(accepted_.begin(), accepted_.end(), 0);
  if (pool_ != nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t steps = ShardSteps(n, s, num_shards);
      if (steps == 0) continue;
      pool_->Submit(
          [this, s, steps] { accepted_[s] = shards_[s].chain->Step(steps); });
    }
    // The pool barrier is the happens-before edge: every shard's world
    // writes, buffer appends, and accepted counts are visible to the
    // coordinator after Wait.
    pool_->Wait();
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t steps = ShardSteps(n, s, num_shards);
      if (steps > 0) accepted_[s] = shards_[s].chain->Step(steps);
    }
  }
  size_t total = 0;
  for (const size_t a : accepted_) total += a;
  return total;
}

size_t ShardRunner::Step(size_t n, const Sink& sink) {
  recording_ = true;
  const size_t accepted = StepShards(n);
  // Fixed-order drain: shard 0's stream, then shard 1's, … — the merged
  // stream is a function of the shard trajectories alone, so downstream
  // deltas are bitwise-reproducible regardless of thread interleaving.
  for (Shard& shard : shards_) {
    if (!shard.buffer.empty()) {
      sink(shard.buffer);
      shard.buffer.clear();
    }
  }
  return accepted;
}

void ShardRunner::RunBurnIn(size_t n) {
  recording_ = false;
  StepShards(n);
  recording_ = true;
}

uint64_t ShardRunner::num_proposed() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.chain->num_proposed();
  return total;
}

uint64_t ShardRunner::num_accepted() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.chain->num_accepted();
  return total;
}

}  // namespace infer
}  // namespace fgpdb
