// Metropolis–Hastings random walk (paper §3.4, Algorithm 2).
//
// Each Step() draws w' ~ q(·|w), computes the acceptance probability
//
//   α(w', w) = min(1, [π(w')/π(w)] · [q(w|w')/q(w'|w)])     (Eq. 3)
//
// from the *local* factor delta (Appendix 9.2 — ZX and untouched factors
// cancel), and on acceptance applies the change to the world and notifies
// listeners. The pdb layer registers a listener that mirrors accepted
// changes into the relational tables and the Δ−/Δ+ buffers.
//
// Step(n) is the batched step kernel: n propose/score/apply transitions run
// against the in-memory world, and the accepted-jump stream crosses the
// listener (mirror/DeltaAccumulator) boundary once per flush instead of
// once per step. Listeners see the same assignments in the same order as n
// single Steps — the concatenation of the per-step applied records — so the
// database mirror, the coalesced deltas, and every downstream view and
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

/// Cumulative wall-clock split of Step() into its four phases — the
/// hot-path profiling hook (ROADMAP: "breaks a step into propose / score /
/// apply / mirror and attack the biggest slice"):
///
///   propose — drawing w' ~ q(·|w) from the proposal kernel
///   score   — the local factor delta (Appendix 9.2) + the acceptance test
///   apply   — writing an accepted change into the World
///   mirror  — listener notification: table mirroring + delta accumulation
///
/// Rejected steps contribute to propose/score only; empty proposals
/// (self-transitions) to propose only. Under batched stepping the mirror
/// phase is paid per flush, not per step — `mirror_flushes` counts the
/// boundary crossings so per-step and per-crossing costs both fall out.
struct StepPhaseTotals {
  uint64_t steps = 0;
  uint64_t mirror_flushes = 0;
  double propose_seconds = 0.0;
  double score_seconds = 0.0;
  double apply_seconds = 0.0;
  double mirror_seconds = 0.0;

  double TotalSeconds() const {
    return propose_seconds + score_seconds + apply_seconds + mirror_seconds;
  }
};

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

  /// One propose/accept-or-reject transition. Returns true on acceptance.
  /// Listeners are notified before returning (the unbatched reference
  /// path — per-step granularity for tests and ablations).
  bool Step();

  /// The batched step kernel: runs `n` transitions, buffering the accepted
  /// non-noop assignments and crossing the listener boundary once every
  /// `mirror_batch_limit()` assignments (and once more for the tail), so
  /// the per-step mirror cost amortizes away. All buffered assignments are
  /// flushed before returning — after Step(n), listeners have seen exactly
  /// what n single Steps would have shown them, in the same order. Returns
  /// the number of accepted transitions.
  size_t Step(size_t n);

  /// Runs `n` transitions (Algorithm 2's random walk) through the batched
  /// kernel.
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

  /// Assignments buffered between listener flushes under Step(n). 1 makes
  /// the batched kernel notify per accepted step (the unbatched ablation);
  /// the default keeps the buffer well under a page while making the
  /// boundary crossing cost negligible per step.
  void set_mirror_batch_limit(size_t limit) {
    FGPDB_CHECK_GT(limit, 0u);
    mirror_batch_limit_ = limit;
  }
  size_t mirror_batch_limit() const { return mirror_batch_limit_; }

  /// Attaches a per-phase timing accumulator (nullptr detaches; the
  /// default). While attached, every Step() adds its phase wall-clock to
  /// `totals` — two clock reads per phase, so leave it off outside
  /// profiling runs. `totals` must outlive the attachment.
  void set_phase_totals(StepPhaseTotals* totals) { phase_totals_ = totals; }

  /// Row-driven Gibbs kernel (default on): when the proposal declares
  /// itself single-site Gibbs (Proposal::IsSingleSiteGibbs), Step(n)
  /// samples the candidate directly from the model's vectorized
  /// ConditionalRow inside the batch loop — one scoring pass per step
  /// instead of Propose's row fill plus a second LogScoreDelta for the
  /// acceptance test. The fused path replicates the reference pair
  /// (GibbsProposal::Propose + the two-call step) draw-for-draw and
  /// FP-op-for-FP-op, so accepted jumps, applied streams, and final worlds
  /// are bitwise-identical; false keeps the two-call path (the parity
  /// reference and ablation). Non-Gibbs proposals are unaffected.
  void set_row_gibbs(bool on) { row_gibbs_ = on; }
  bool row_gibbs() const { return row_gibbs_; }

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
  /// Step() body; kTimed compiles the phase clock reads in or out, so the
  /// detached (default) path pays nothing for the profiling hook.
  template <bool kTimed>
  bool StepImpl();
  /// Step(n) body under the same kTimed discipline.
  template <bool kTimed>
  size_t StepBatchImpl(size_t n);

  /// Reused proposal buffer: Propose writes into it every step, so the
  /// propose phase does zero allocation.
  factor::Change change_buf_;
  std::vector<factor::AppliedAssignment> applied_scratch_;
  /// Accepted-jump buffer for the batched kernel; flushed to listeners at
  /// mirror_batch_limit_ assignments and at the end of every Step(n).
  std::vector<factor::AppliedAssignment> batch_applied_;
  /// Fused-kernel buffers: the conditional row, its exponentiated probs
  /// (the allocation-free Rng::LogCategorical replica), and the Change
  /// reused by the per-candidate fallback fill.
  std::vector<double> row_buf_;
  std::vector<double> prob_buf_;
  factor::Change fused_change_;
  bool row_gibbs_ = true;
  size_t mirror_batch_limit_ = 4096;
  uint64_t num_proposed_ = 0;
  uint64_t num_accepted_ = 0;
  StepPhaseTotals* phase_totals_ = nullptr;
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_METROPOLIS_HASTINGS_H_
