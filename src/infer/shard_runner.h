// Shard-local Metropolis–Hastings stepping with a deterministic merge.
//
// The NER workload's factor graph is embarrassingly partitionable: skip-
// chain factors and the §5.1 proposal kernel never leave a document, so a
// partition of the variables into per-document shards admits S *exact*
// shard-local chains — a change confined to shard s has a score delta
// computable from shard s alone (the Model::FactorsRespectPartition
// contract), so the shard walks compose into one valid chain over the full
// world. This is intra-chain parallelism: unlike the §5.4 replica chains
// (parallel_evaluator), all S shard chains advance ONE world and their
// accepted-jump streams merge into ONE logical delta stream.
//
// Determinism discipline (PR 6's merge rules, applied within a chain):
//   * shard s draws from its own RNG stream, DeriveSeed(seed, s) — a pure
//     function of (master seed, shard index), never of scheduling. S == 1
//     uses `seed` verbatim, so a one-shard runner replays the serial
//     sampler's exact trajectory bitwise.
//   * Step(n) splits the n transitions over shards by fixed arithmetic
//     (shard s gets n/S plus one of the first n%S remainders).
//   * each shard buffers its accepted assignments privately while stepping;
//     after the pool barrier the coordinator drains the buffers in fixed
//     shard order 0..S-1 through one sink. Downstream consumers (database
//     mirror, delta accumulator, views, convergence stats) therefore see a
//     single assignment stream whose content is independent of thread
//     interleaving — threaded and sequential runs agree bitwise.
//
// Safety: while stepping, shard chains write only World slots of their own
// shard (disjoint scalar objects — race-free by the C++ memory model) and
// read only their shard's slots for scoring (the locality contract again).
// This covers the world's label shadow too: World::Set writes through to
// shadow byte `var`, and distinct array bytes are distinct memory
// locations, so shard-disjoint writes stay race-free with the narrow lane
// attached. The database is untouched until the coordinator's
// single-threaded drain.
#ifndef FGPDB_INFER_SHARD_RUNNER_H_
#define FGPDB_INFER_SHARD_RUNNER_H_

#include <functional>
#include <memory>
#include <vector>

#include "factor/model.h"
#include "infer/metropolis_hastings.h"
#include "infer/proposal.h"
#include "util/thread_pool.h"

namespace fgpdb {
namespace infer {

struct ShardRunnerOptions {
  /// Master seed. Shard s steps under DeriveSeed(seed, s) when S > 1;
  /// a single-shard runner uses `seed` verbatim (bitwise parity with a
  /// serial MetropolisHastings at the same seed).
  uint64_t seed = 1;
  /// Step shards on a thread pool; false = sequential in shard order
  /// (bitwise-identical results either way). Every chain in the library
  /// passes true and caps threads through `max_threads` instead.
  bool use_threads = true;
  /// Worker threads when use_threads. 0 = min(S, hardware concurrency);
  /// 1 steps the shards one at a time.
  size_t max_threads = 0;
};

class ShardRunner {
 public:
  /// Consumes one interval's merged assignment stream (the fixed-order
  /// concatenation of the shard buffers).
  using Sink =
      std::function<void(const std::vector<factor::AppliedAssignment>&)>;

  /// One chain per element of `proposals` (so S = proposals.size()), all
  /// advancing `world` in place. `partition` maps VarId → shard index and
  /// may be empty when S == 1 (everything is shard 0); when non-empty the
  /// caller vouches — normally via pdb::BuildShardPlan, which asks the
  /// model's FactorsRespectPartition — that factors and proposals respect
  /// it. `model` and `world` must outlive the runner.
  ShardRunner(const factor::Model& model, factor::World* world,
              std::vector<std::unique_ptr<Proposal>> proposals,
              std::vector<uint32_t> partition, ShardRunnerOptions options);

  size_t num_shards() const { return shards_.size(); }

  /// Runs `n` transitions split over the shards, then drains every shard's
  /// accepted-assignment buffer through `sink` in shard order 0..S-1 (one
  /// sink call per non-empty shard buffer). Returns accepted transitions.
  size_t Step(size_t n, const Sink& sink);

  /// Burn-in: `n` transitions split over shards with recording off — the
  /// world advances, nothing is buffered or merged. The split keeps the
  /// per-variable proposal density of a serial burn-in of length n (each
  /// shard holds ~1/S of the variables and takes ~n/S of the steps). The
  /// caller is responsible for resynchronizing any external mirror of the
  /// world afterwards (TupleBinding::StoreWorld).
  void RunBurnIn(size_t n);

  /// Sampler counters summed over shards (order-independent integer folds).
  uint64_t num_proposed() const;
  uint64_t num_accepted() const;
  double acceptance_rate() const {
    const uint64_t proposed = num_proposed();
    return proposed == 0 ? 0.0
                         : static_cast<double>(num_accepted()) /
                               static_cast<double>(proposed);
  }

  /// Transitions shard `shard` takes out of `n` total: the fixed
  /// n/S-plus-remainder split Step() uses.
  static size_t ShardSteps(size_t n, size_t shard, size_t num_shards) {
    return n / num_shards + (shard < n % num_shards ? 1 : 0);
  }

 private:
  struct Shard {
    std::unique_ptr<Proposal> proposal;
    std::unique_ptr<MetropolisHastings> chain;
    /// Accepted assignments since the last drain (listener-fed).
    std::vector<factor::AppliedAssignment> buffer;
  };

  /// Steps every shard (pool or sequential) without draining; returns the
  /// accepted-transition total.
  size_t StepShards(size_t n);

  std::vector<Shard> shards_;
  std::vector<uint32_t> partition_;
  /// Per-shard accepted counts of the current interval (StepShards),
  /// reused so an interval allocates nothing.
  std::vector<size_t> accepted_;
  /// False during burn-in: shard listeners drop instead of buffering.
  bool recording_ = true;
  /// Reused across intervals so Step() never pays thread spawn; null when
  /// sequential (one shard, use_threads off, or a single-thread cap).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_SHARD_RUNNER_H_
