#include "ie/skip_chain_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "ie/ner_features.h"
#include "util/logging.h"

namespace fgpdb {
namespace ie {
namespace {

using factor::VarId;

// Label accessors the hot scoring paths are templated over. Both return the
// identical value for every variable (write-through shadow invariant), so
// scores are bitwise-equal whichever layout a world carries; the shadow
// lane reads 1 byte per label instead of 4 and skips the bounds check.
struct ShadowLabels {
  const uint8_t* shadow;
  uint32_t operator()(VarId v) const { return shadow[v]; }
};
struct WorldLabels {
  const factor::World* world;
  uint32_t operator()(VarId v) const { return world->Get(v); }
};

}  // namespace

SkipChainNerModel::SkipChainNerModel(const TokenPdb& tokens,
                                     SkipChainOptions options)
    : options_(options) {
  if (tokens.hot != nullptr &&
      tokens.hot->MatchesStructure(options_.use_skip_edges,
                                   options_.max_skip_group)) {
    hot_ = tokens.hot.get();
  } else {
    // Non-default skip structure (or a TokenPdb assembled without the
    // shared block): build a private one.
    owned_hot_ = std::make_unique<TokenHotBlock>(
        BuildTokenHotBlock(tokens.vocab, tokens.string_ids, tokens.docs,
                           options_.use_skip_edges, options_.max_skip_group));
    hot_ = owned_hot_.get();
  }

  // Register the dense score tables. Entry values mirror Parameters::Get
  // sums term-by-term (see CompiledWeights), so compiled scores are
  // bitwise-equal to probing Get per factor side. Emission and bias fold
  // into one node table, summed in that order.
  const auto num_strings =
      static_cast<uint32_t>(std::max<size_t>(1, tokens.vocab.size()));
  const size_t node = compiled_.AddTable(
      num_strings, kNumLabels,
      {[](uint32_t sid, uint32_t y) { return EmissionFeature(sid, y); },
       [](uint32_t, uint32_t y) { return BiasFeature(y); }});
  const size_t trans = compiled_.AddTable(
      kNumLabels, kNumLabels,
      {[](uint32_t a, uint32_t b) { return TransitionFeature(a, b); }});
  const size_t skip = compiled_.AddTable(
      1, kNumLabels,
      {[](uint32_t, uint32_t) { return SkipSameFeature(); },
       [](uint32_t, uint32_t y) { return SkipSameLabelFeature(y); }});
  node_table_ = compiled_.data(node);
  trans_table_ = compiled_.data(trans);
  skip_table_ = compiled_.data(skip);
}

void SkipChainNerModel::CollectTouched(const factor::Change& change,
                                       TouchedScratch* out) const {
  out->nodes.clear();
  out->edges.clear();
  out->skips.clear();
  for (const auto& assignment : change.assignments) {
    const VarId v = assignment.var;
    out->nodes.push_back(v);
    const TokenHotBlock::Record& rec = hot_->records[v];
    if (options_.use_transitions) {
      if (rec.prev >= 0) {
        out->edges.emplace_back(static_cast<VarId>(rec.prev), v);
      }
      if (rec.next >= 0) {
        out->edges.emplace_back(v, static_cast<VarId>(rec.next));
      }
    }
    for (const VarId p : SkipPartners(v)) {
      out->skips.emplace_back(std::min(v, p), std::max(v, p));
    }
  }
  if (change.assignments.size() == 1) {
    // One variable's factors are distinct by construction and already in
    // sorted order (prev < v < next; partners ascending) — skip the sort.
    return;
  }
  // Deduplicate factors shared between changed variables (e.g. the edge
  // between two adjacent changed tokens) so they are scored exactly once.
  auto dedupe = [](auto& items) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  };
  dedupe(out->nodes);
  dedupe(out->edges);
  dedupe(out->skips);
}

template <typename GetLabel>
double SkipChainNerModel::CompiledSingleDeltaImpl(VarId var,
                                                  uint32_t new_label,
                                                  const GetLabel& get) const {
  const TokenHotBlock::Record& rec = hot_->records[var];
  const uint32_t old_label = get(var);
  const double* node_row =
      node_table_ + static_cast<size_t>(rec.string_id) * kNumLabels;
  double delta = node_row[new_label] - node_row[old_label];
  if (options_.use_transitions) {
    if (rec.prev >= 0) {
      const double* row =
          trans_table_ +
          static_cast<size_t>(get(static_cast<VarId>(rec.prev))) * kNumLabels;
      delta += row[new_label] - row[old_label];
    }
    if (rec.next >= 0) {
      const uint32_t yn = get(static_cast<VarId>(rec.next));
      delta += trans_table_[static_cast<size_t>(new_label) * kNumLabels + yn] -
               trans_table_[static_cast<size_t>(old_label) * kNumLabels + yn];
    }
  }
  for (const VarId p : SkipPartners(var)) {
    const uint32_t yp = get(p);
    // The skip factor fires only on label agreement; agreement makes the
    // pair's first label equal to var's, so indexing by var's label reads
    // the same entry the pairwise enumeration does.
    const double score_new = new_label == yp ? skip_table_[new_label] : 0.0;
    const double score_old = old_label == yp ? skip_table_[old_label] : 0.0;
    delta += score_new - score_old;
  }
  return delta;
}

double SkipChainNerModel::CompiledSingleDelta(const factor::World& world,
                                              VarId var,
                                              uint32_t new_label) const {
  if (const uint8_t* shadow = world.label_shadow()) {
    return CompiledSingleDeltaImpl(var, new_label, ShadowLabels{shadow});
  }
  return CompiledSingleDeltaImpl(var, new_label, WorldLabels{&world});
}

double SkipChainNerModel::CompiledLogScoreDelta(const factor::World& world,
                                                const factor::Change& change,
                                                TouchedScratch* scratch) const {
  CollectTouched(change, scratch);
  const factor::PatchedWorld patched(world, change);
  double delta = 0.0;
  for (VarId v : scratch->nodes) {
    const double* node_row =
        node_table_ +
        static_cast<size_t>(hot_->records[v].string_id) * kNumLabels;
    delta += node_row[patched.Get(v)] - node_row[world.Get(v)];
  }
  for (const auto& [a, b] : scratch->edges) {
    delta += trans_table_[static_cast<size_t>(patched.Get(a)) * kNumLabels +
                          patched.Get(b)] -
             trans_table_[static_cast<size_t>(world.Get(a)) * kNumLabels +
                          world.Get(b)];
  }
  for (const auto& [a, b] : scratch->skips) {
    const uint32_t na = patched.Get(a);
    const double score_new = na == patched.Get(b) ? skip_table_[na] : 0.0;
    const uint32_t oa = world.Get(a);
    const double score_old = oa == world.Get(b) ? skip_table_[oa] : 0.0;
    delta += score_new - score_old;
  }
  return delta;
}

double SkipChainNerModel::LogScoreDelta(const factor::World& world,
                                        const factor::Change& change) const {
  return LogScoreDelta(world, change, &member_scratch_);
}

double SkipChainNerModel::LogScoreDelta(const factor::World& world,
                                        const factor::Change& change,
                                        factor::ScoreScratch* scratch) const {
  TouchedScratch* s = scratch != nullptr
                          ? static_cast<TouchedScratch*>(scratch)
                          : &member_scratch_;
  EnsureCompiled();
  if (change.assignments.size() == 1) {
    const auto& a = change.assignments[0];
    return CompiledSingleDelta(world, a.var, a.value);
  }
  return CompiledLogScoreDelta(world, change, s);
}

std::unique_ptr<factor::ScoreScratch> SkipChainNerModel::MakeScratch() const {
  return std::make_unique<TouchedScratch>();
}

bool SkipChainNerModel::FactorsRespectPartition(
    const std::vector<uint32_t>& partition) const {
  if (partition.size() != num_variables()) return false;
  for (VarId v = 0; v < partition.size(); ++v) {
    const TokenHotBlock::Record& rec = hot_->records[v];
    if (options_.use_transitions && rec.next >= 0 &&
        partition[static_cast<VarId>(rec.next)] != partition[v]) {
      return false;
    }
    if (options_.use_skip_edges) {
      for (const VarId partner : SkipPartners(v)) {
        if (partition[partner] != partition[v]) return false;
      }
    }
  }
  return true;
}

double SkipChainNerModel::LogScore(const factor::World& world) const {
  const size_t n = num_variables();
  double total = 0.0;
  EnsureCompiled();
  for (size_t i = 0; i < n; ++i) {
    const VarId v = static_cast<VarId>(i);
    const TokenHotBlock::Record& rec = hot_->records[v];
    const uint32_t y = world.Get(v);
    total += node_table_[static_cast<size_t>(rec.string_id) * kNumLabels + y];
    if (options_.use_transitions && rec.next >= 0) {
      total += trans_table_[static_cast<size_t>(y) * kNumLabels +
                            world.Get(static_cast<VarId>(rec.next))];
    }
    for (VarId p : SkipPartners(v)) {
      if (p > v && y == world.Get(p)) total += skip_table_[y];
    }
  }
  return total;
}

void SkipChainNerModel::FeatureDelta(const factor::World& world,
                                     const factor::Change& change,
                                     factor::SparseVector* out) const {
  FeatureDelta(world, change, out, &member_scratch_);
}

void SkipChainNerModel::FeatureDelta(const factor::World& world,
                                     const factor::Change& change,
                                     factor::SparseVector* out,
                                     factor::ScoreScratch* scratch) const {
  TouchedScratch* s = scratch != nullptr
                          ? static_cast<TouchedScratch*>(scratch)
                          : &member_scratch_;
  CollectTouched(change, s);
  const factor::PatchedWorld patched(world, change);
  const auto old_label = [&](VarId v) { return world.Get(v); };
  const auto new_label = [&](VarId v) { return patched.Get(v); };

  for (VarId v : s->nodes) {
    const uint32_t sid = hot_->records[v].string_id;
    const uint32_t y_new = new_label(v);
    const uint32_t y_old = old_label(v);
    if (y_new == y_old) continue;
    out->Add(EmissionFeature(sid, y_new), 1.0);
    out->Add(BiasFeature(y_new), 1.0);
    out->Add(EmissionFeature(sid, y_old), -1.0);
    out->Add(BiasFeature(y_old), -1.0);
  }
  for (const auto& [a, b] : s->edges) {
    out->Add(TransitionFeature(new_label(a), new_label(b)), 1.0);
    out->Add(TransitionFeature(old_label(a), old_label(b)), -1.0);
  }
  for (const auto& [a, b] : s->skips) {
    const uint32_t na = new_label(a);
    if (na == new_label(b)) {
      out->Add(SkipSameFeature(), 1.0);
      out->Add(SkipSameLabelFeature(na), 1.0);
    }
    const uint32_t oa = old_label(a);
    if (oa == old_label(b)) {
      out->Add(SkipSameFeature(), -1.0);
      out->Add(SkipSameLabelFeature(oa), -1.0);
    }
  }
  out->Consolidate();
}

void SkipChainNerModel::InitializeFromCorpusStatistics(const TokenPdb& tokens,
                                                       double skip_weight,
                                                       double emission_scale) {
  // Smoothed per-string label log-odds from the TRUTH column, plus label
  // frequency biases and BIO-consistent transition preferences. This mimics
  // what SampleRank converges to without spending bench time on training.
  const double kSmoothing = 0.5;
  std::unordered_map<uint64_t, double> counts;  // (string, label) -> count
  std::vector<double> label_counts(kNumLabels, kSmoothing);
  for (size_t i = 0; i < tokens.num_tokens(); ++i) {
    const uint64_t key =
        (static_cast<uint64_t>(tokens.string_ids[i]) << 8) | tokens.truth[i];
    counts[key] += 1.0;
    label_counts[tokens.truth[i]] += 1.0;
  }
  std::unordered_map<uint32_t, double> string_totals;
  for (size_t i = 0; i < tokens.num_tokens(); ++i) {
    string_totals[tokens.string_ids[i]] += 1.0;
  }
  // One emission weight per (string, label), plus biases, transitions, and
  // the skip features — size the store once instead of growing through it.
  params_.Reserve(string_totals.size() * kNumLabels + kNumLabels +
                  kNumLabels * kNumLabels + 1 + kNumLabels);
  for (const auto& [sid, total] : string_totals) {
    for (uint32_t y = 0; y < kNumLabels; ++y) {
      const auto it = counts.find((static_cast<uint64_t>(sid) << 8) | y);
      const double c = (it == counts.end() ? 0.0 : it->second) + kSmoothing;
      params_.Set(EmissionFeature(sid, y),
                  emission_scale *
                      (std::log(c / (total + kSmoothing * kNumLabels)) -
                       std::log(kSmoothing /
                                (total + kSmoothing * kNumLabels))));
    }
  }
  double total_tokens = 0.0;
  for (double c : label_counts) total_tokens += c;
  for (uint32_t y = 0; y < kNumLabels; ++y) {
    params_.Set(BiasFeature(y), std::log(label_counts[y] / total_tokens));
  }
  for (uint32_t a = 0; a < kNumLabels; ++a) {
    for (uint32_t b = 0; b < kNumLabels; ++b) {
      params_.Set(TransitionFeature(a, b), ValidTransition(a, b) ? 0.0 : -4.0);
    }
  }
  params_.Set(SkipSameFeature(), skip_weight);
  for (uint32_t y = 0; y < kNumLabels; ++y) {
    params_.Set(SkipSameLabelFeature(y), y == kLabelO ? 0.0 : skip_weight);
  }
}

}  // namespace ie
}  // namespace fgpdb
