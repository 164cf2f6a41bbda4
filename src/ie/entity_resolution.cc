#include "ie/entity_resolution.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/logging.h"

namespace fgpdb {
namespace ie {
namespace {

// Character trigram set (padded) for Jaccard similarity.
std::set<std::string> Trigrams(const std::string& s) {
  std::string padded = "##" + s + "##";
  std::set<std::string> grams;
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    grams.insert(padded.substr(i, 3));
  }
  return grams;
}

double TrigramJaccard(const std::string& a, const std::string& b) {
  const auto ga = Trigrams(a);
  const auto gb = Trigrams(b);
  if (ga.empty() && gb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& g : ga) {
    if (gb.count(g) > 0) ++inter;
  }
  const size_t uni = ga.size() + gb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

std::set<std::string> Words(const std::string& s) {
  std::set<std::string> words;
  std::string word;
  for (char c : s + " ") {
    if (c == ' ') {
      if (!word.empty()) words.insert(word);
      word.clear();
    } else {
      word += c;
    }
  }
  return words;
}

// Fraction of the larger mention's words shared with the smaller one —
// "John Smith" vs "J. Smith" share the surname token, a stronger
// coreference signal than character n-grams alone.
double WordOverlap(const std::string& a, const std::string& b) {
  const auto wa = Words(a);
  const auto wb = Words(b);
  if (wa.empty() || wb.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& w : wa) {
    if (wb.count(w) > 0) ++inter;
  }
  return static_cast<double>(inter) /
         static_cast<double>(std::max(wa.size(), wb.size()));
}

double MentionSimilarity(const std::string& a, const std::string& b) {
  return std::max(TrigramJaccard(a, b), WordOverlap(a, b));
}

}  // namespace

EntityResolutionModel::EntityResolutionModel(std::vector<std::string> mentions,
                                             double scale,
                                             double threshold_shift)
    : mentions_(std::move(mentions)) {
  const size_t n = mentions_.size();
  FGPDB_CHECK_GT(n, 0u);
  affinity_.assign(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double sim = MentionSimilarity(mentions_[i], mentions_[j]);
      const double a = scale * (2.0 * sim - threshold_shift);
      affinity_[i * n + j] = a;
      affinity_[j * n + i] = a;
    }
  }
}

double EntityResolutionModel::LogScoreDelta(const factor::World& world,
                                            const factor::Change& change) const {
  return LogScoreDelta(world, change, &member_scratch_);
}

double EntityResolutionModel::LogScoreDelta(
    const factor::World& world, const factor::Change& change,
    factor::ScoreScratch* scratch) const {
  DeltaScratch* s = scratch != nullptr ? static_cast<DeltaScratch*>(scratch)
                                       : &member_scratch_;
  const size_t n = mentions_.size();
  if (s->is_changed.size() != n) {
    s->is_changed.assign(n, 0);
    s->new_value.resize(n);
  }
  s->changed.clear();
  for (const auto& a : change.assignments) {
    if (!s->is_changed[a.var]) {
      s->is_changed[a.var] = 1;
      s->changed.push_back(a.var);
    }
    s->new_value[a.var] = a.value;  // Duplicate assignments: last one wins.
  }
  std::sort(s->changed.begin(), s->changed.end());

  const auto label_new = [&](size_t v) {
    return s->is_changed[v] ? s->new_value[v]
                            : world.Get(static_cast<factor::VarId>(v));
  };
  // Enumerate the pairs with at least one changed endpoint once each, in
  // ascending (min, max) order — the order the previous std::set-based
  // implementation iterated in, preserving bitwise summation — without
  // materializing the pair set.
  double delta = 0.0;
  const auto add_pair = [&](size_t i, size_t j) {
    const bool same_new = label_new(i) == label_new(j);
    const bool same_old = world.Get(static_cast<factor::VarId>(i)) ==
                          world.Get(static_cast<factor::VarId>(j));
    if (same_new != same_old) {
      delta += (same_new ? 1.0 : -1.0) * affinity_[i * n + j];
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (s->is_changed[i]) {
      for (size_t j = i + 1; j < n; ++j) add_pair(i, j);
    } else {
      // Only pairs whose larger endpoint changed; `changed` is sorted.
      auto it = std::upper_bound(s->changed.begin(), s->changed.end(),
                                 static_cast<factor::VarId>(i));
      for (; it != s->changed.end(); ++it) add_pair(i, *it);
    }
  }
  for (factor::VarId v : s->changed) s->is_changed[v] = 0;
  return delta;
}

std::unique_ptr<factor::ScoreScratch> EntityResolutionModel::MakeScratch()
    const {
  return std::make_unique<DeltaScratch>();
}

double EntityResolutionModel::LogScore(const factor::World& world) const {
  const size_t n = mentions_.size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (world.Get(static_cast<factor::VarId>(i)) ==
          world.Get(static_cast<factor::VarId>(j))) {
        total += Affinity(i, j);
      }
    }
  }
  return total;
}

std::vector<std::vector<size_t>> EntityResolutionModel::Clusters(
    const factor::World& world) const {
  std::map<uint32_t, std::vector<size_t>> by_id;
  for (size_t i = 0; i < mentions_.size(); ++i) {
    by_id[world.Get(static_cast<factor::VarId>(i))].push_back(i);
  }
  std::vector<std::vector<size_t>> out;
  out.reserve(by_id.size());
  for (auto& [id, members] : by_id) {
    (void)id;
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

void SplitMergeProposal::Propose(const factor::World& world, Rng& rng,
                                 factor::Change* change, double* log_ratio) {
  *log_ratio = 0.0;
  change->Clear();
  const size_t n = model_.num_mentions();
  if (n < 2) return;

  // Pick an unordered mention pair uniformly.
  const size_t i = rng.UniformInt(n);
  size_t j = rng.UniformInt(n - 1);
  if (j >= i) ++j;

  const uint32_t ci = world.Get(static_cast<factor::VarId>(i));
  const uint32_t cj = world.Get(static_cast<factor::VarId>(j));

  if (ci == cj) {
    // --- Split: j anchors a fresh cluster; other members flip a fair coin.
    members_.clear();
    used_.assign(n, 0);
    for (size_t m = 0; m < n; ++m) {
      used_[world.Get(static_cast<factor::VarId>(m))] = 1;
      if (world.Get(static_cast<factor::VarId>(m)) == ci) members_.push_back(m);
    }
    const size_t s = members_.size();
    if (s < 2) return;  // Cannot split a singleton.
    uint32_t fresh = 0;
    while (fresh < n && used_[fresh]) ++fresh;
    FGPDB_CHECK_LT(fresh, n) << "no free cluster id";  // ≤ n clusters always.
    change->Set(static_cast<factor::VarId>(j), fresh);
    for (size_t m : members_) {
      if (m == i || m == j) continue;
      if (rng.Bernoulli(0.5)) change->Set(static_cast<factor::VarId>(m), fresh);
    }
    // q(merge back)/q(split): the |A||B| pair-choice factors cancel, leaving
    // the (1/2)^(s-2) assignment probability.
    *log_ratio = static_cast<double>(s - 2) * std::log(2.0);
  } else {
    // --- Merge: move all of j's cluster into i's.
    size_t s = 0;
    for (size_t m = 0; m < n; ++m) {
      const uint32_t cm = world.Get(static_cast<factor::VarId>(m));
      if (cm == ci) ++s;
      if (cm == cj) {
        ++s;
        change->Set(static_cast<factor::VarId>(m), ci);
      }
    }
    *log_ratio = -static_cast<double>(s - 2) * std::log(2.0);
  }
}

void SingleMentionMoveProposal::Propose(const factor::World& world, Rng& rng,
                                        factor::Change* change,
                                        double* log_ratio) {
  (void)world;
  *log_ratio = 0.0;
  change->Clear();
  const size_t n = model_.num_mentions();
  const auto var = static_cast<factor::VarId>(rng.UniformInt(n));
  change->Set(var, static_cast<uint32_t>(rng.UniformInt(n)));
}

}  // namespace ie
}  // namespace fgpdb
