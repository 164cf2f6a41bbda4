// ShardPlan: how one world is split into shard-local chains.
//
// A plan names the partition (VarId → shard index), the shard count, and a
// factory for per-shard proposals. Every logical chain is built from one:
// SharedChainEvaluator turns it into an infer::ShardRunner, one
// MetropolisHastings chain per shard over the SAME world, and merges the
// shards' accepted-jump streams in fixed shard order into the one delta
// fan-out every view and statistic consumes. A serial chain is the
// one-shard plan (SerialPlan): its single shard steps under the chain seed
// verbatim, so it walks a bare MetropolisHastings' trajectory bitwise.
//
// The locality contract: sharding is only *exact* when no factor and no
// proposal crosses a part boundary. BuildShardPlan enforces the factor half
// by asking Model::FactorsRespectPartition and falling back to a single
// shard when the model declines (e.g. the cross-document pairwise
// affinities of EntityResolutionModel); the proposal half is the factory's
// responsibility (per-shard proposals must confine their moves to their
// shard — shard_runner checks this in debug builds).
#ifndef FGPDB_PDB_SHARD_PLAN_H_
#define FGPDB_PDB_SHARD_PLAN_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "factor/model.h"
#include "infer/proposal.h"

namespace fgpdb {
namespace pdb {

class ProbabilisticDatabase;

/// Produces a fresh proposal for one chain over the whole of a given world
/// (proposals hold chain-local state such as the §5.1 document batch, so
/// chains cannot share one). Replica chains invoke it on pool worker
/// threads, possibly concurrently, so it must be safe to call from several
/// threads at once (both in-tree proposal factories are: they only read
/// shared immutable setup state).
using ProposalFactory =
    std::function<std::unique_ptr<infer::Proposal>(ProbabilisticDatabase&)>;

struct ShardPlan {
  /// Produces the proposal for shard `shard` of a given world. Invoked once
  /// per shard per chain (replica chains under the parallel policy each
  /// build their own set, against their own COW snapshot, on pool worker
  /// threads). Must confine its proposals to the variables of `shard`'s
  /// part; with a single-shard plan (including every locality fallback) it
  /// is invoked only with shard 0 and must cover the whole world.
  using ProposalFactory = std::function<std::unique_ptr<infer::Proposal>(
      ProbabilisticDatabase&, size_t shard)>;

  size_t num_shards = 1;
  /// VarId → shard index. Empty means single-shard (everything is shard 0).
  std::vector<uint32_t> partition;
  ProposalFactory make_proposal;

  /// False for a default-constructed ShardPlan (no factory): no chain can
  /// be built from it.
  bool has_plan() const { return static_cast<bool>(make_proposal); }
};

/// The serial chain: one shard covering the whole world, proposing through
/// `make_proposal`. An empty factory gives an empty plan.
inline ShardPlan SerialPlan(ProposalFactory make_proposal) {
  ShardPlan plan;
  if (make_proposal) {
    plan.make_proposal = [make_proposal = std::move(make_proposal)](
                             ProbabilisticDatabase& pdb, size_t) {
      return make_proposal(pdb);
    };
  }
  return plan;
}

/// Validates `partition` against `model`'s locality contract and returns a
/// plan: `num_shards` shard-local chains when the model certifies that no
/// factor crosses the partition, otherwise the exact single-shard fallback
/// (one chain over the whole world — sharding silently degrades to the
/// serial trajectory rather than to an approximation).
inline ShardPlan BuildShardPlan(const factor::Model& model,
                                std::vector<uint32_t> partition,
                                size_t num_shards,
                                ShardPlan::ProposalFactory make_proposal) {
  ShardPlan plan;
  plan.make_proposal = std::move(make_proposal);
  if (num_shards > 1 && model.FactorsRespectPartition(partition)) {
    plan.num_shards = num_shards;
    plan.partition = std::move(partition);
  }
  return plan;
}

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_SHARD_PLAN_H_
