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
#ifndef FGPDB_INFER_PROPOSAL_H_
#define FGPDB_INFER_PROPOSAL_H_

#include <memory>
#include <vector>

#include "factor/model.h"
#include "factor/world.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {

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

  /// True when this proposal is EXACTLY the single-site Gibbs kernel:
  /// Propose() draws a site via DrawGibbsSite, then resamples it from its
  /// full conditional (one LogCategorical draw), with the proposal-ratio
  /// correction that makes MH acceptance ≈ 1. Declaring this makes
  /// MetropolisHastings::Step(n) fuse propose/score/accept into its
  /// row-driven loop, which replicates the declared draw order and
  /// floating-point arithmetic bitwise; an undeclared Gibbs kernel runs
  /// through the generic loop (the two-call path the tests compare it to).
  virtual bool IsSingleSiteGibbs() const { return false; }

  /// The Gibbs kernel's site-selection draw, i.e. the first draw Propose()
  /// makes. The fused kernel calls it directly in place of Propose().
  virtual factor::VarId DrawGibbsSite(const factor::World& world, Rng& rng) {
    (void)world;
    (void)rng;
    FGPDB_CHECK(false) << "not a single-site Gibbs proposal";
    return 0;
  }
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
/// The conditional over the label axis is computed through the model's
/// ConditionalRow fast path when available (one vectorized reduction over
/// the compiled weight tables); models without one fall back to one
/// LogScoreDelta per candidate value. Both paths produce bitwise-identical
/// weight rows, so the chain trajectory does not depend on which ran.
class GibbsProposal final : public Proposal {
 public:
  explicit GibbsProposal(const factor::Model& model)
      : model_(model), scratch_(model.MakeScratch()) {}

  using Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override;

  bool IsSingleSiteGibbs() const override { return true; }
  factor::VarId DrawGibbsSite(const factor::World& /*world*/,
                              Rng& rng) override {
    return static_cast<factor::VarId>(rng.UniformInt(model_.num_variables()));
  }

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
