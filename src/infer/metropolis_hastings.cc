#include "infer/metropolis_hastings.h"

#include "util/logging.h"

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
  relabel_ = proposal_->AsUniformRelabel();
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

  // Relabel: for a proposal that IS the §5.1 uniform-relabel kernel, make
  // UniformRelabelProposal::Propose's draws here — DrawSite (which reloads
  // the batch from rng_ exactly where Propose would), then the value — and
  // score through the one-assignment change_buf_ rewritten in place. A
  // proposal of the current value is accepted unscored: the generic loop
  // scores it to exactly +0.0 (the Model::LogScoreDelta no-op contract),
  // accepts without an acceptance draw, and applies nothing. The proposal
  // ratio is 0 and x + 0.0 decides like x, so log_alpha is the model ratio.
  if (relabel_ != nullptr) {
    const uint32_t num_values = relabel_->num_values();
    const uint8_t* const shadow = world_->label_shadow();
    change_buf_.Clear();
    change_buf_.Set(0, 0);
    factor::Assignment& proposed = change_buf_.assignments[0];
    for (size_t i = 0; i < n; ++i) {
      ++num_proposed_;
      const factor::VarId var = relabel_->DrawSite(rng_);
      const auto value = static_cast<uint32_t>(rng_.UniformInt(num_values));
      const uint32_t old_value =
          shadow != nullptr ? shadow[var] : world_->Get(var);
      if (value != old_value) {
        proposed = {var, value};
        const double log_alpha = model_.LogScoreDelta(*world_, change_buf_,
                                                      score_scratch_.get());
        if (!MetropolisAccepts(log_alpha, rng_)) continue;
        world_->Set(var, value);
        if (record) batch_applied_.push_back({var, old_value, value});
      }
      ++num_accepted_;
      ++accepted;
      if (batch_applied_.size() >= kMirrorBatchLimit) flush();
    }
    flush();
    return accepted;
  }

  // Generic: Propose, LogScoreDelta, accept, apply — every other proposal
  // (single-site Gibbs included), and the reference the relabel loop is
  // tested against.
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
    if (!MetropolisAccepts(log_alpha, rng_)) continue;

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
