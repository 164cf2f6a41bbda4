#include "oracles/reference_skip_chain_model.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ie/ner_features.h"

namespace fgpdb {
namespace testing {

using factor::VarId;

double ReferenceSkipChainModel::NodeScore(VarId v, uint32_t y) const {
  const factor::Parameters& params = model_.parameters();
  return params.Get(ie::EmissionFeature(
             model_.hot_block().records[v].string_id, y)) +
         params.Get(ie::BiasFeature(y));
}

double ReferenceSkipChainModel::EdgeScore(uint32_t from, uint32_t to) const {
  return model_.parameters().Get(ie::TransitionFeature(from, to));
}

double ReferenceSkipChainModel::SkipScore(uint32_t ya, uint32_t yb) const {
  if (ya != yb) return 0.0;
  const factor::Parameters& params = model_.parameters();
  return params.Get(ie::SkipSameFeature()) +
         params.Get(ie::SkipSameLabelFeature(ya));
}

double ReferenceSkipChainModel::LogScoreDelta(
    const factor::World& world, const factor::Change& change) const {
  std::vector<VarId> nodes;
  std::vector<std::pair<VarId, VarId>> edges;
  std::vector<std::pair<VarId, VarId>> skips;
  for (const factor::Assignment& assignment : change.assignments) {
    const VarId v = assignment.var;
    nodes.push_back(v);
    const ie::TokenHotBlock::Record& rec = model_.hot_block().records[v];
    if (rec.prev >= 0) edges.emplace_back(static_cast<VarId>(rec.prev), v);
    if (rec.next >= 0) edges.emplace_back(v, static_cast<VarId>(rec.next));
    for (const VarId p : model_.SkipPartners(v)) {
      skips.emplace_back(std::min(v, p), std::max(v, p));
    }
  }
  // A factor shared by two changed variables is scored once.
  auto sort_unique = [](auto& items) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  };
  sort_unique(nodes);
  sort_unique(edges);
  sort_unique(skips);

  const factor::PatchedWorld patched(world, change);
  double delta = 0.0;
  for (const VarId v : nodes) {
    delta += NodeScore(v, patched.Get(v)) - NodeScore(v, world.Get(v));
  }
  for (const auto& [a, b] : edges) {
    delta += EdgeScore(patched.Get(a), patched.Get(b)) -
             EdgeScore(world.Get(a), world.Get(b));
  }
  for (const auto& [a, b] : skips) {
    delta += SkipScore(patched.Get(a), patched.Get(b)) -
             SkipScore(world.Get(a), world.Get(b));
  }
  return delta;
}

double ReferenceSkipChainModel::LogScore(const factor::World& world) const {
  double total = 0.0;
  for (size_t i = 0; i < num_variables(); ++i) {
    const auto v = static_cast<VarId>(i);
    const uint32_t y = world.Get(v);
    total += NodeScore(v, y);
    const int32_t next = model_.hot_block().records[v].next;
    if (next >= 0) total += EdgeScore(y, world.Get(static_cast<VarId>(next)));
    for (const VarId p : model_.SkipPartners(v)) {
      if (p > v) total += SkipScore(y, world.Get(p));  // Each pair once.
    }
  }
  return total;
}

}  // namespace testing
}  // namespace fgpdb
