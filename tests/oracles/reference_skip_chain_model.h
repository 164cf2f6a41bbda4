// The uncompiled skip-chain scorer: the parity reference for
// ie::SkipChainNerModel's compiled dense tables.
//
// Every factor side is scored by probing Parameters::Get with the feature
// ids of ie/ner_features.h — node = emission + bias, transition, and skip
// (skip_same + skip_same_label when the two labels agree, else 0). The
// structure (string ids, sequence neighbors, skip partners) is read from
// the compiled model's hot_block() and SkipPartners(), and the weights from
// its live parameters(), so a weight update reaches both scorers at once.
// LogScoreDelta enumerates the touched factors itself, deduplicated and in
// sorted order — nodes, then chain edges, then skip pairs — and sums
// new − old per factor in that order, which is the order the compiled path
// sums in. The two therefore agree bitwise, not merely within rounding.
//
// Transitions are scored for every sequence neighbor: the reference mirrors
// a model built with the default use_transitions = true. A Gibbs chain over
// it fills each conditional row candidate by candidate, as it does over the
// compiled model, so the two walk the same trajectory.
#ifndef FGPDB_TESTS_ORACLES_REFERENCE_SKIP_CHAIN_MODEL_H_
#define FGPDB_TESTS_ORACLES_REFERENCE_SKIP_CHAIN_MODEL_H_

#include <cstdint>

#include "factor/model.h"
#include "ie/labels.h"
#include "ie/skip_chain_model.h"

namespace fgpdb {
namespace testing {

class ReferenceSkipChainModel final : public factor::Model {
 public:
  /// Scores `model`'s structure under `model`'s parameters; `model` must
  /// outlive the reference.
  explicit ReferenceSkipChainModel(const ie::SkipChainNerModel& model)
      : model_(model) {}

  double LogScoreDelta(const factor::World& world,
                       const factor::Change& change) const override;
  double LogScore(const factor::World& world) const override;
  size_t num_variables() const override { return model_.num_variables(); }
  size_t domain_size(factor::VarId) const override { return ie::kNumLabels; }

 private:
  double NodeScore(factor::VarId v, uint32_t y) const;
  double EdgeScore(uint32_t from, uint32_t to) const;
  double SkipScore(uint32_t ya, uint32_t yb) const;

  const ie::SkipChainNerModel& model_;
};

}  // namespace testing
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_REFERENCE_SKIP_CHAIN_MODEL_H_
