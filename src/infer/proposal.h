// Proposal distributions q(·|w) for Metropolis–Hastings (paper §3.4).
//
// A proposal hypothesizes a Change to the current world. Constraint-
// preserving proposals (like split-merge for entity resolution) keep the
// chain inside the feasible region without deterministic constraint factors.
//
// Propose() writes into a caller-owned Change so the hot path allocates
// nothing: the sampler passes the same Change buffer every step and the
// assignment vector's capacity is reused forever. Proposers likewise keep
// their site-selection state (document batches, candidate-label buffers)
// in member storage — propose does zero hashing/allocation, exactly like
// the compiled scoring path it feeds.
//
// One kernel can declare itself so MetropolisHastings::Step(n) runs a
// fused loop for it: the §5.1 uniform relabel (AsUniformRelabel, a
// UniformRelabelProposal), over a model with a lane scorer
// (infer/relabel_lane.h) on a world with a label shadow. That loop makes
// the kernel's draws itself and must leave every draw, applied assignment
// and world bitwise as the generic loop would; the tests hold it to a
// forwarding wrapper that does not declare. Every other proposal, and the
// kernel over any other model or world, runs through the generic loop.
#ifndef FGPDB_INFER_PROPOSAL_H_
#define FGPDB_INFER_PROPOSAL_H_

#include <memory>
#include <vector>

#include "factor/model.h"
#include "factor/world.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {

class MetropolisHastings;
class UniformRelabelProposal;

class Proposal {
 public:
  virtual ~Proposal() = default;

  /// Draws w' ~ q(·|w) into `*change` (cleared first; its buffer capacity is
  /// reused). `log_ratio` receives log q(w|w') − log q(w'|w) (0 for
  /// symmetric proposals). An empty Change is a self-transition.
  virtual void Propose(const factor::World& world, Rng& rng,
                       factor::Change* change, double* log_ratio) = 0;

  /// Convenience overload returning the Change by value (allocates; for
  /// tests and diagnostics, never the sampler's hot loop).
  factor::Change Propose(const factor::World& world, Rng& rng,
                         double* log_ratio) {
    factor::Change change;
    Propose(world, rng, &change, log_ratio);
    return change;
  }

  /// Non-null when this proposal IS the uniform-relabel kernel of paper
  /// §5.1 (a UniformRelabelProposal, whose Propose() is final). Declaring
  /// it lets MetropolisHastings::Step(n) run its relabel loop (over a
  /// lane-scoring model on a shadowed world), which makes the same draws
  /// as Propose() inline and decides each proposal exactly as the generic
  /// loop would; an undeclared wrapper around the same kernel runs through
  /// the generic loop (the path the tests compare it to).
  virtual UniformRelabelProposal* AsUniformRelabel() { return nullptr; }
};

/// The uniform-relabel kernel (paper §5.1): pick a site uniformly from the
/// current batch, then a value uniformly from [0, num_values()), and reload
/// the batch every so many proposals. The proposal is symmetric, so the
/// ratio is 0. Subclasses supply only the reload; the batch and the
/// proposals-left counter live here and are the one state that both
/// Propose() and MetropolisHastings::Step(n)'s relabel loop read, so a
/// chain may alternate the two freely.
class UniformRelabelProposal : public Proposal {
 public:
  explicit UniformRelabelProposal(uint32_t num_values)
      : num_values_(num_values) {
    FGPDB_CHECK_GT(num_values_, 0u);
  }

  using Proposal::Propose;
  /// {DrawSite(rng) ← rng.UniformInt(num_values())}, log_ratio = 0.
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) final;

  UniformRelabelProposal* AsUniformRelabel() final { return this; }

  /// The site draw, Propose()'s first: reloads the batch from `rng` when
  /// no proposals are left, then picks a site of it uniformly.
  factor::VarId DrawSite(Rng& rng) {
    if (proposals_left_ == 0) proposals_left_ = ReloadSites(rng, &sites_);
    --proposals_left_;
    return sites_[rng.UniformInt(sites_.size())];
  }

  /// The current batch (empty before the first proposal).
  const std::vector<factor::VarId>& sites() const { return sites_; }
  uint32_t num_values() const { return num_values_; }
  /// Proposals the current batch still serves; 0 = the next draw reloads.
  size_t proposals_left() const { return proposals_left_; }

 protected:
  /// Refills `*sites` (non-empty) drawing from `rng`, and returns how many
  /// proposals the new batch serves (> 0).
  virtual size_t ReloadSites(Rng& rng, std::vector<factor::VarId>* sites) = 0;

 private:
  // Step(n)'s relabel loop keeps the batch pointer and the counter in
  // locals and reloads through ReloadSites itself, as DrawSite would.
  friend class MetropolisHastings;
  const uint32_t num_values_;
  std::vector<factor::VarId> sites_;
  size_t proposals_left_ = 0;
};

/// The generic symmetric kernel: pick a variable uniformly, pick a new value
/// uniformly from its domain (paper §5.1 uses exactly this over labels).
class UniformSingleVariableProposal final : public Proposal {
 public:
  explicit UniformSingleVariableProposal(const factor::Model& model)
      : model_(model) {}

  using Proposal::Propose;
  void Propose(const factor::World& /*world*/, Rng& rng,
               factor::Change* change, double* log_ratio) override {
    *log_ratio = 0.0;
    change->Clear();
    if (model_.num_variables() == 0) return;
    const auto var =
        static_cast<factor::VarId>(rng.UniformInt(model_.num_variables()));
    const uint32_t value =
        static_cast<uint32_t>(rng.UniformInt(model_.domain_size(var)));
    change->Set(var, value);
  }

 private:
  const factor::Model& model_;
};

/// Gibbs move expressed as an MH proposal: resamples one uniformly chosen
/// variable from its full conditional. The proposal-ratio correction makes
/// the MH acceptance probability exactly 1, so the chain never rejects.
///
/// The conditional is one LogScoreDelta per candidate value, with the
/// current value's lane a hard +0.0 (the score of staying put). It runs
/// through Step(n)'s generic loop, which rescores the drawn candidate.
class GibbsProposal final : public Proposal {
 public:
  explicit GibbsProposal(const factor::Model& model)
      : model_(model), scratch_(model.MakeScratch()) {}

  using Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override;

 private:
  const factor::Model& model_;
  // Reused across Propose calls: the per-candidate Change, the conditional
  // log-weights, and the model's scoring scratch — a Gibbs move scores
  // every candidate value, so this loop is as hot as the sampler itself.
  std::unique_ptr<factor::ScoreScratch> scratch_;
  factor::Change candidate_;
  std::vector<double> log_weights_;
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_PROPOSAL_H_
