// Metropolis–Hastings random walk (paper §3.4, Algorithm 2).
//
// Each step draws w' ~ q(·|w), computes the acceptance probability
//
//   α(w', w) = min(1, [π(w')/π(w)] · [q(w|w')/q(w'|w)])     (Eq. 3)
//
// from the *local* factor delta (Appendix 9.2 — ZX and untouched factors
// cancel), and on acceptance applies the change to the world and notifies
// listeners. The pdb layer registers a listener that mirrors accepted
// changes into the relational tables and the Δ−/Δ+ buffers.
//
// Step(n) is the one step kernel: n propose/score/apply transitions run
// against the in-memory world, and the accepted-jump stream crosses the
// listener (mirror/DeltaAccumulator) boundary once per flush instead of
// once per step. Listeners see the same assignments in the same order as n
// calls of Step(1) — the concatenation of the per-step applied records — so
// the database mirror, the coalesced deltas, and every downstream view and
// marginal are bitwise-identical; only the crossing count is amortized.
#ifndef FGPDB_INFER_METROPOLIS_HASTINGS_H_
#define FGPDB_INFER_METROPOLIS_HASTINGS_H_

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "factor/model.h"
#include "infer/proposal.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {

/// Exactly `u < std::exp(log_alpha)`, for every u and log_alpha (NaN and
/// infinities included), without the exp when a cubic bound already
/// decides a rejection. With x = −log_alpha, e^x ≥ P(x) = 1 + x + x²/2 +
/// x³/6 for every real x (the Taylor remainder e^ξ·x⁴/24 is never
/// negative), so u·P(x) ≥ 1 + 2⁻³⁰ puts u above e^(−x) by far more than
/// the few ulps of rounding in P, the product and std::exp. A burned-in
/// §5.1 chain rejects nearly every proposal by a wide margin; those
/// rejections cost a few multiplies instead of an exp.
inline bool UniformBelowExp(double u, double log_alpha) {
  const double x = -log_alpha;
  const double p = 1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0)));
  if (u * p >= 1.0 + 0x1p-30) return false;
  return u < std::exp(log_alpha);
}

/// The MH acceptance test of Eq. 3, shared by both loops of Step(n): a
/// log_alpha ≥ 0 accepts without a draw; otherwise one Uniform() draw u
/// accepts iff u < exp(log_alpha).
inline bool MetropolisAccepts(double log_alpha, Rng& rng) {
  return log_alpha >= 0.0 || UniformBelowExp(rng.Uniform(), log_alpha);
}

class RelabelLaneModel;

class MetropolisHastings {
 public:
  /// Listener invoked after accepted changes are applied to the world.
  /// Under Step(n) one invocation may carry the assignments of many steps.
  using Listener =
      std::function<void(const std::vector<factor::AppliedAssignment>&)>;

  MetropolisHastings(const factor::Model& model, factor::World* world,
                     Proposal* proposal, uint64_t seed = 1);

  /// Registers a post-acceptance listener.
  void AddListener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Assignments buffered between listener flushes under Step(n): the
  /// buffer stays well under a page while the boundary crossing cost
  /// becomes negligible per step.
  static constexpr size_t kMirrorBatchLimit = 4096;

  /// One propose/accept-or-reject transition. Returns true on acceptance
  /// (self-transitions count as accepted). Listeners are notified before
  /// returning.
  bool Step() { return Step(1) == 1; }

  /// The step kernel: runs `n` transitions, buffering the accepted non-noop
  /// assignments and crossing the listener boundary once every
  /// kMirrorBatchLimit assignments (and once more for the tail), so the
  /// per-step mirror cost amortizes away. All buffered assignments are
  /// flushed before returning — after Step(n), listeners have seen exactly
  /// what n calls of Step(1) would have shown them, in the same order.
  /// Returns the number of accepted transitions.
  ///
  /// One of two loops runs; both decide acceptance through
  /// MetropolisAccepts, and the relabel loop replays the generic loop
  /// draw-for-draw, so accepted jumps, applied streams, counters, final
  /// worlds and the next RNG draw are bitwise-identical to running the
  /// same kernel through it.
  ///   * Relabel (the §5.1 kernel): runs when the proposal declares it
  ///     (Proposal::AsUniformRelabel), the model implements
  ///     RelabelLaneModel (infer/relabel_lane.h) and the world carries a
  ///     label shadow. Step(n) makes one virtual call into the model,
  ///     which refreshes what its scorer caches and runs RelabelLoop with
  ///     its one-label delta inlined. The loop draws the site and the
  ///     value itself — no virtual Propose, no Change built per step — and
  ///     accepts a proposal of the current value without scoring it: the
  ///     generic loop scores it to +0.0 (Model::LogScoreDelta's no-op
  ///     contract) and accepts without a draw. The RNG, the site batch
  ///     pointer and size, the proposals-left counter and the sampler
  ///     counters live in locals while it runs. They are written back to
  ///     the sampler and the proposal (and read again after) around every
  ///     listener flush and every batch reload (ReloadSites, once per
  ///     batch), and written back on return, so listeners and the reload
  ///     see exactly the state the generic loop would have left there.
  ///   * Generic: Propose, LogScoreDelta, accept, apply — every other
  ///     proposal (GibbsProposal included), the relabel kernel on any
  ///     other model or world, and the reference the relabel loop is
  ///     tested against.
  size_t Step(size_t n);

  /// Runs `n` transitions (Algorithm 2's random walk).
  void Run(size_t n) { Step(n); }

  uint64_t num_proposed() const { return num_proposed_; }
  uint64_t num_accepted() const { return num_accepted_; }
  double acceptance_rate() const {
    return num_proposed_ == 0
               ? 0.0
               : static_cast<double>(num_accepted_) /
                     static_cast<double>(num_proposed_);
  }

  factor::World& world() { return *world_; }
  Rng& rng() { return rng_; }

 private:
  // Runs RelabelLoop with its lane scorer (RelabelLaneModel::RunRelabelLoop).
  friend class RelabelLaneModel;

  /// The relabel loop: `n` transitions of relabel_'s kernel on a world
  /// whose label shadow is `lane`, scoring a proposal of a new value as
  /// delta(var, value), which must equal model_.LogScoreDelta(*world_,
  /// {var → value}) bitwise. Defined below the class so a RelabelLaneModel
  /// can instantiate it with its scorer inlined.
  template <typename Delta>
  size_t RelabelLoop(size_t n, const uint8_t* lane, Delta delta);

  /// Hands batch_applied_ to every listener (if non-empty) and clears it.
  void Flush();

  const factor::Model& model_;
  factor::World* world_;
  Proposal* proposal_;
  Rng rng_;
  std::vector<Listener> listeners_;
  /// Per-chain scoring scratch (model.MakeScratch()): each sampler owns its
  /// buffers, so scoring allocates nothing per step and parallel chains
  /// sharing one model never share mutable state.
  std::unique_ptr<factor::ScoreScratch> score_scratch_;

  /// The proposal's relabel declaration (Proposal::AsUniformRelabel),
  /// resolved once: null runs the generic loop.
  UniformRelabelProposal* relabel_ = nullptr;
  /// The model's lane scorer (a RelabelLaneModel), resolved once when
  /// relabel_ is set: null runs the generic loop.
  const RelabelLaneModel* lane_model_ = nullptr;

  /// Reused proposal buffer: Propose writes into it every step, so the
  /// propose phase does zero allocation.
  factor::Change change_buf_;
  /// Accepted-jump buffer; flushed to listeners at kMirrorBatchLimit
  /// assignments and at the end of every Step(n).
  std::vector<factor::AppliedAssignment> batch_applied_;
  uint64_t num_proposed_ = 0;
  uint64_t num_accepted_ = 0;
};

template <typename Delta>
size_t MetropolisHastings::RelabelLoop(size_t n, const uint8_t* lane,
                                       Delta delta) {
  // UniformRelabelProposal::Propose's draws, made here: the site (reloading
  // the batch from the RNG exactly where DrawSite would), then the value. A
  // proposal of the current value is accepted unscored: the generic loop
  // scores it to exactly +0.0 (the Model::LogScoreDelta no-op contract),
  // accepts without an acceptance draw, and applies nothing. The proposal
  // ratio is 0 and x + 0.0 decides like x, so log_alpha is the model ratio.
  UniformRelabelProposal& proposal = *relabel_;
  const uint32_t num_values = proposal.num_values();
  const bool record = !listeners_.empty();
  batch_applied_.clear();

  // The per-proposal state, in locals: a rejection (nearly every proposal
  // of a burned-in chain) writes no heap object. spill() stores it back
  // before every call out of the loop; fill() reads back what such a call
  // may have moved (a listener may draw from rng() or propose).
  Rng rng = rng_;
  uint64_t proposed = num_proposed_;
  uint64_t accepted = num_accepted_;
  const uint64_t end = proposed + n;
  const uint64_t accepted_before = accepted;
  size_t left = 0;
  const factor::VarId* sites = nullptr;
  size_t num_sites = 0;
  const auto spill = [&] {
    rng_ = rng;
    num_proposed_ = proposed;
    num_accepted_ = accepted;
    proposal.proposals_left_ = left;
  };
  const auto fill = [&] {
    rng = rng_;
    left = proposal.proposals_left_;
    sites = proposal.sites_.data();
    num_sites = proposal.sites_.size();
  };
  fill();

  while (proposed != end) {
    ++proposed;
    if (left == 0) {
      spill();
      proposal.proposals_left_ = proposal.ReloadSites(rng_, &proposal.sites_);
      fill();
    }
    --left;
    const factor::VarId var = sites[rng.UniformInt(num_sites)];
    const auto value = static_cast<uint32_t>(rng.UniformInt(num_values));
    const uint32_t old_value = lane[var];
    if (value == old_value) {
      ++accepted;
      continue;
    }
    if (!MetropolisAccepts(delta(var, value), rng)) continue;
    world_->Set(var, value);
    ++accepted;
    if (!record) continue;
    batch_applied_.push_back({var, old_value, value});
    if (batch_applied_.size() >= kMirrorBatchLimit) {
      spill();
      Flush();
      fill();
    }
  }
  spill();
  Flush();
  return static_cast<size_t>(accepted - accepted_before);
}

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_METROPOLIS_HASTINGS_H_
