#include "infer/metropolis_hastings.h"

#include "infer/relabel_lane.h"
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
  if (relabel_ != nullptr) {
    lane_model_ = dynamic_cast<const RelabelLaneModel*>(&model_);
  }
}

void MetropolisHastings::Flush() {
  if (batch_applied_.empty()) return;
  for (const auto& listener : listeners_) listener(batch_applied_);
#ifndef NDEBUG
  // Hot-block discipline: shadow/world agreement on every variable this
  // flush carried. Own writes only — a full-world scan would race with
  // sibling shard chains advancing other shards.
  if (const uint8_t* shadow = world_->label_shadow()) {
    for (const auto& a : batch_applied_) {
      FGPDB_CHECK_EQ(static_cast<uint32_t>(shadow[a.var]), world_->Get(a.var))
          << "label shadow diverged from world values";
    }
  }
#endif
  batch_applied_.clear();
}

size_t MetropolisHastings::Step(size_t n) {
  // Listener notifications carry concatenated per-step applied records, so
  // a flush is exactly what the same steps would have reported one at a
  // time: same assignments, same order, same coalesced deltas. Without
  // listeners the applied stream has no consumer and is not recorded.
  if (lane_model_ != nullptr) {
    if (const uint8_t* const lane = world_->label_shadow()) {
      return lane_model_->StepRelabelLane(this, n, lane);
    }
  }

  // Generic: Propose, LogScoreDelta, accept, apply — every other proposal
  // (single-site Gibbs included, and the relabel kernel on a model without
  // a lane scorer or a world without a label lane), and the reference the
  // relabel loop is tested against.
  const bool record = !listeners_.empty();
  batch_applied_.clear();
  size_t accepted = 0;
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
    if (batch_applied_.size() >= kMirrorBatchLimit) Flush();
  }
  Flush();
  return accepted;
}

}  // namespace infer
}  // namespace fgpdb
