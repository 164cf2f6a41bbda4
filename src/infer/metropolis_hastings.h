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

#include <functional>
#include <memory>
#include <vector>

#include "factor/model.h"
#include "infer/proposal.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {

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
  ///
  /// When the proposal declares itself single-site Gibbs
  /// (Proposal::IsSingleSiteGibbs), the loop samples the candidate directly
  /// from the model's vectorized ConditionalRow — one scoring pass per step
  /// instead of Propose's row fill plus a second LogScoreDelta for the
  /// acceptance test. The fused loop replicates GibbsProposal::Propose +
  /// the generic loop draw-for-draw and FP-op-for-FP-op, so accepted jumps,
  /// applied streams and final worlds are bitwise-identical to the
  /// two-call path. Returns the number of accepted transitions.
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

  /// Reused proposal buffer: Propose writes into it every step, so the
  /// propose phase does zero allocation.
  factor::Change change_buf_;
  /// Accepted-jump buffer; flushed to listeners at kMirrorBatchLimit
  /// assignments and at the end of every Step(n).
  std::vector<factor::AppliedAssignment> batch_applied_;
  /// Fused-kernel buffers: the conditional row, its exponentiated probs
  /// (the allocation-free Rng::LogCategorical replica), and the Change
  /// reused by the per-candidate fallback fill.
  std::vector<double> row_buf_;
  std::vector<double> prob_buf_;
  factor::Change fused_change_;
  uint64_t num_proposed_ = 0;
  uint64_t num_accepted_ = 0;
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_METROPOLIS_HASTINGS_H_
