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
  /// The proposal's declaration picks one of two loops; both decide
  /// acceptance through MetropolisAccepts, and the relabel loop replays
  /// the generic loop draw-for-draw, so accepted jumps, applied streams,
  /// counters, final worlds and the next RNG draw are bitwise-identical to
  /// running the same kernel through it.
  ///   * Relabel (Proposal::AsUniformRelabel, the §5.1 kernel): draws the
  ///     site and the value inline — no virtual Propose, no Change rebuilt
  ///     per step — and accepts a proposal of the current value (read from
  ///     the label shadow when the world has one) without scoring it: the
  ///     generic loop scores it to +0.0 (Model::LogScoreDelta's no-op
  ///     contract) and accepts without a draw.
  ///   * Generic: Propose, LogScoreDelta, accept, apply — every other
  ///     proposal (GibbsProposal included), and the reference the relabel
  ///     loop is tested against.
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

  /// Reused proposal buffer: Propose writes into it every step (the
  /// relabel loop rewrites its one assignment in place), so the propose
  /// phase does zero allocation.
  factor::Change change_buf_;
  /// Accepted-jump buffer; flushed to listeners at kMirrorBatchLimit
  /// assignments and at the end of every Step(n).
  std::vector<factor::AppliedAssignment> batch_applied_;
  uint64_t num_proposed_ = 0;
  uint64_t num_accepted_ = 0;
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_METROPOLIS_HASTINGS_H_
