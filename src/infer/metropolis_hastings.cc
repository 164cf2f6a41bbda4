#include "infer/metropolis_hastings.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math_util.h"

namespace fgpdb {
namespace infer {

MetropolisHastings::MetropolisHastings(const factor::Model& model,
                                       factor::World* world,
                                       Proposal* proposal, uint64_t seed)
    : model_(model),
      world_(world),
      proposal_(proposal),
      rng_(seed),
      score_scratch_(model.MakeScratch()) {
  FGPDB_CHECK(world_ != nullptr);
  FGPDB_CHECK(proposal_ != nullptr);
}

size_t MetropolisHastings::Step(size_t n) {
  // Listener notifications carry concatenated per-step applied records, so
  // a flush is exactly what the same steps would have reported one at a
  // time: same assignments, same order, same coalesced deltas. Without
  // listeners the applied stream has no consumer and is not recorded.
  const bool record = !listeners_.empty();
  batch_applied_.clear();
  size_t accepted = 0;

  auto flush = [&]() {
    if (batch_applied_.empty()) return;
    for (const auto& listener : listeners_) listener(batch_applied_);
#ifndef NDEBUG
    // Hot-block discipline: shadow/world agreement on every variable this
    // flush carried. Own writes only — a full-world scan would race with
    // sibling shard chains advancing other shards.
    if (const uint8_t* shadow = world_->label_shadow()) {
      for (const auto& a : batch_applied_) {
        FGPDB_CHECK_EQ(static_cast<uint32_t>(shadow[a.var]),
                       world_->Get(a.var))
            << "label shadow diverged from world values";
      }
    }
#endif
    batch_applied_.clear();
  };

  // Row-driven Gibbs: for a proposal that IS the single-site Gibbs kernel,
  // fuse propose/score/accept — draw the site, fill the conditional row
  // once, sample the candidate straight from it, and reuse row[new] as the
  // acceptance's model ratio (legal by the ConditionalRow contract: each
  // lane is bitwise the per-candidate LogScoreDelta, which is exactly what
  // the two-call reference path would recompute). Draw order and FP
  // arithmetic replicate GibbsProposal::Propose + the generic loop below
  // term-for-term, so the trajectory is bitwise-identical to running the
  // same kernel through the generic loop; only the second scoring pass
  // disappears.
  if (proposal_->IsSingleSiteGibbs() && model_.num_variables() > 0) {
    for (size_t i = 0; i < n; ++i) {
      ++num_proposed_;
      const factor::VarId var = proposal_->DrawGibbsSite(*world_, rng_);
      const size_t k = model_.domain_size(var);
      row_buf_.resize(k);
      const uint32_t old_value = world_->Get(var);
      if (!model_.ConditionalRow(*world_, var, row_buf_.data(),
                                 score_scratch_.get())) {
        // Per-candidate fill, exactly as GibbsProposal's fallback — the
        // deltas are deterministic in (world, change), so the row matches
        // what the reference path computes bitwise.
        std::fill(row_buf_.begin(), row_buf_.end(), 0.0);
        for (uint32_t v = 0; v < k; ++v) {
          if (v == old_value) continue;
          fused_change_.Clear();
          fused_change_.Set(var, v);
          row_buf_[v] = model_.LogScoreDelta(*world_, fused_change_,
                                             score_scratch_.get());
        }
      }
      // Allocation-free replica of Rng::LogCategorical: same FP ops in the
      // same order, same single Uniform() draw.
      const double lse = LogSumExp(row_buf_);
      prob_buf_.resize(k);
      for (size_t v = 0; v < k; ++v) {
        prob_buf_[v] = std::exp(row_buf_[v] - lse);
      }
      double total = 0.0;
      for (const double w : prob_buf_) total += w;
      FGPDB_CHECK_GT(total, 0.0);
      const double target = rng_.Uniform() * total;
      double cum = 0.0;
      auto new_value = static_cast<uint32_t>(k - 1);
      for (size_t v = 0; v < k; ++v) {
        cum += prob_buf_[v];
        if (target < cum) {
          new_value = static_cast<uint32_t>(v);
          break;
        }
      }
      if (new_value == old_value) {
        // Self-transition: the reference path emits an empty Change, which
        // the step loop accepts without an acceptance draw.
        ++num_accepted_;
        ++accepted;
        continue;
      }
      // GibbsProposal's proposal-ratio correction plus the generic loop's
      // acceptance, term-for-term. log_alpha is ~0 but not exactly 0 in
      // FP, so the acceptance draw is consumed exactly when the reference
      // consumes it.
      const double log_q_forward = row_buf_[new_value] - lse;
      const double log_q_backward = row_buf_[old_value] - lse;
      const double log_proposal_ratio = log_q_backward - log_q_forward;
      const double log_alpha = row_buf_[new_value] + log_proposal_ratio;
      bool accept = log_alpha >= 0.0;
      if (!accept) accept = rng_.Uniform() < std::exp(log_alpha);
      if (!accept) continue;
      world_->Set(var, new_value);
      if (record) batch_applied_.push_back({var, old_value, new_value});
      ++num_accepted_;
      ++accepted;
      if (batch_applied_.size() >= kMirrorBatchLimit) flush();
    }
    flush();
    return accepted;
  }

  for (size_t i = 0; i < n; ++i) {
    ++num_proposed_;
    double log_proposal_ratio = 0.0;
    proposal_->Propose(*world_, rng_, &change_buf_, &log_proposal_ratio);
    if (change_buf_.empty()) {
      ++num_accepted_;
      ++accepted;
      continue;
    }
    const double log_model_ratio =
        model_.LogScoreDelta(*world_, change_buf_, score_scratch_.get());
    const double log_alpha = log_model_ratio + log_proposal_ratio;
    bool accept = log_alpha >= 0.0;
    if (!accept) accept = rng_.Uniform() < std::exp(log_alpha);
    if (!accept) continue;

    // Apply in assignment order, keeping only real modifications — the
    // in-place equivalent of World::Apply + the no-op filter, appending
    // straight onto the batch buffer.
    for (const auto& a : change_buf_.assignments) {
      const uint32_t old_value = world_->Get(a.var);
      world_->Set(a.var, a.value);
      if (record && old_value != a.value) {
        batch_applied_.push_back({a.var, old_value, a.value});
      }
    }
    ++num_accepted_;
    ++accepted;
    if (batch_applied_.size() >= kMirrorBatchLimit) flush();
  }
  flush();
  return accepted;
}

}  // namespace infer
}  // namespace fgpdb
