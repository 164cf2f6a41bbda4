#include "infer/proposal.h"

#include "util/math_util.h"

namespace fgpdb {
namespace infer {

void UniformRelabelProposal::Propose(const factor::World& /*world*/,
                                     Rng& rng, factor::Change* change,
                                     double* log_ratio) {
  *log_ratio = 0.0;
  change->Clear();
  const factor::VarId var = DrawSite(rng);
  change->Set(var, static_cast<uint32_t>(rng.UniformInt(num_values_)));
}

void GibbsProposal::Propose(const factor::World& world, Rng& rng,
                            factor::Change* change, double* log_ratio) {
  *log_ratio = 0.0;
  change->Clear();
  if (model_.num_variables() == 0) return;
  const auto var =
      static_cast<factor::VarId>(rng.UniformInt(model_.num_variables()));
  const size_t k = model_.domain_size(var);
  const uint32_t old_value = world.Get(var);

  // Conditional log-weights: delta of moving var to each candidate value
  // (the current value has delta 0 by definition).
  std::vector<double>& log_weights = log_weights_;
  log_weights.assign(k, 0.0);
  for (uint32_t v = 0; v < k; ++v) {
    if (v == old_value) continue;
    candidate_.Clear();
    candidate_.Set(var, v);
    log_weights[v] = model_.LogScoreDelta(world, candidate_, scratch_.get());
  }
  const auto new_value = static_cast<uint32_t>(rng.LogCategorical(log_weights));

  // q(w'|w) = p(new | rest), q(w|w') = p(old | rest); the correction
  // cancels the model ratio so acceptance is exactly 1.
  const double lse = LogSumExp(log_weights);
  const double log_q_forward = log_weights[new_value] - lse;
  const double log_q_backward = log_weights[old_value] - lse;
  *log_ratio = log_q_backward - log_q_forward;

  if (new_value != old_value) change->Set(var, new_value);
}

}  // namespace infer
}  // namespace fgpdb
