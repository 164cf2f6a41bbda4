// Entity resolution (coreference) — the paper's second running example
// (Figure 1, bottom row; §3.4's split-merge discussion).
//
// Mentions carry a hidden cluster-id variable with domain [0, n). The model
// scores a world by summing pairwise affinities over co-clustered mentions
// (affine factors between mentions in the same cluster, Figure 1 Pane D);
// transitivity holds by construction, so no cubic number of deterministic
// constraint factors is needed — the §3.4 argument for constraint-
// preserving proposals.
#ifndef FGPDB_IE_ENTITY_RESOLUTION_H_
#define FGPDB_IE_ENTITY_RESOLUTION_H_

#include <string>
#include <vector>

#include "factor/model.h"
#include "infer/proposal.h"

namespace fgpdb {
namespace ie {

class EntityResolutionModel final : public factor::Model {
 public:
  /// Builds pairwise affinities from character-trigram Jaccard similarity:
  /// affinity(i,j) = scale * (2*sim(i,j) − threshold_shift), positive for
  /// similar strings, negative for dissimilar ones.
  explicit EntityResolutionModel(std::vector<std::string> mentions,
                                 double scale = 2.0,
                                 double threshold_shift = 0.7);

  size_t num_mentions() const { return mentions_.size(); }
  const std::string& mention(size_t i) const { return mentions_.at(i); }

  /// Symmetric pairwise affinity.
  double Affinity(size_t i, size_t j) const {
    return affinity_.at(i * mentions_.size() + j);
  }

  // --- factor::Model ---------------------------------------------------------
  /// Scratch-less convenience overload backed by member scratch:
  /// allocation-free, but NOT safe for concurrent calls on a shared model.
  double LogScoreDelta(const factor::World& world,
                       const factor::Change& change) const override;
  double LogScoreDelta(const factor::World& world,
                       const factor::Change& change,
                       factor::ScoreScratch* scratch) const override;
  std::unique_ptr<factor::ScoreScratch> MakeScratch() const override;
  double LogScore(const factor::World& world) const override;
  size_t num_variables() const override { return mentions_.size(); }
  size_t domain_size(factor::VarId) const override { return mentions_.size(); }

  /// Clusters of the world: cluster id -> member mention indexes (only
  /// non-empty clusters, sorted by smallest member for determinism).
  std::vector<std::vector<size_t>> Clusters(const factor::World& world) const;

 private:
  /// Reusable buffers for one LogScoreDelta call: the changed-variable set
  /// (membership bitmap + sorted unique list) and their new values. The
  /// model's analog of the dense weight tables is the affinity matrix,
  /// which is compiled once at construction; scoring needs no hashing,
  /// only this scratch to stay allocation-free.
  struct DeltaScratch final : factor::ScoreScratch {
    std::vector<uint8_t> is_changed;   // [n] membership bitmap, reset per call.
    std::vector<uint32_t> new_value;   // [n] valid where is_changed.
    std::vector<factor::VarId> changed;  // Sorted unique changed vars.
  };

  std::vector<std::string> mentions_;
  std::vector<double> affinity_;  // Dense n*n symmetric matrix.
  mutable DeltaScratch member_scratch_;  // Backs the scratch-less overload.
};

/// Split–merge proposal (paper §3.4): picks a mention pair; co-clustered
/// pairs trigger an anchored random split, cross-cluster pairs a merge.
/// The proposal ratio (s−2)·log 2 makes the move exactly reversible.
class SplitMergeProposal final : public infer::Proposal {
 public:
  explicit SplitMergeProposal(const EntityResolutionModel& model)
      : model_(model) {}

  using infer::Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override;

 private:
  const EntityResolutionModel& model_;
  // Reused split working buffers (cluster members, used cluster-id bitmap):
  // propose allocates nothing once their capacity is warm.
  std::vector<size_t> members_;
  std::vector<uint8_t> used_;
};

/// Baseline kernel: move one uniformly chosen mention to a uniformly chosen
/// cluster id. Symmetric; used for correctness tests against exact
/// inference.
class SingleMentionMoveProposal final : public infer::Proposal {
 public:
  explicit SingleMentionMoveProposal(const EntityResolutionModel& model)
      : model_(model) {}

  using infer::Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override;

 private:
  const EntityResolutionModel& model_;
};

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_ENTITY_RESOLUTION_H_
