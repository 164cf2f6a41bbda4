// Skip-chain conditional random field for NER (paper §5.1, Figure 3).
//
// Factor templates over the TOKEN relation's LABEL variables:
//   emission:   ψ(string_i, y_i)          — string/label compatibility
//   transition: ψ(y_i, y_{i+1})           — 1st-order Markov dependency
//   bias:       ψ(y_i)                    — label frequency
//   skip:       ψ(y_i, y_j) for same-string token pairs within a document
//               (capitalized strings only, following Sutton & McCallum) —
//               this is what makes the graph loopy and exact inference
//               intractable, the paper's central difficulty.
//
// The model is *templated*: no factor objects are instantiated. Score and
// feature deltas are computed lazily from the variables a Change touches
// (paper §3.4 / Appendix 9.2), so an MH step costs O(1) w.r.t. corpus size.
//
// Scoring is *compiled* (factor/compiled_weights.h): the per-template
// weights are materialized into dense tables — node [string × label]
// (emission + bias folded), transition [label × label], skip-agreement
// [label] — so a walk step is pure array indexing: zero hashing, zero
// allocation. Tables hold the same doubles Parameters::Get returns and
// refresh lazily when the parameter version moves, so SampleRank training
// and compiled inference compose; scores are bitwise-identical to probing
// Parameters::Get per factor side (the test suite's uncompiled reference
// scorer checks this).
//
// The per-token structure (string ids, sequence neighbors, skip partners)
// is read from a packed, cache-line-aligned ie::TokenHotBlock rather than
// separate per-field allocations, and variable labels are read from the
// world's narrow uint8 shadow when one is attached (factor::World::
// EnableLabelShadow) — together these keep a step's whole working set in a
// handful of cache lines. Shadow reads are value-identical to World::Get
// by the write-through invariant, so scores are bitwise-equal either way.
#ifndef FGPDB_IE_SKIP_CHAIN_MODEL_H_
#define FGPDB_IE_SKIP_CHAIN_MODEL_H_

#include <memory>
#include <vector>

#include "factor/compiled_weights.h"
#include "factor/model.h"
#include "ie/token_hot_block.h"
#include "ie/token_pdb.h"

namespace fgpdb {
namespace ie {

struct SkipChainOptions {
  /// Include skip factors (false = plain linear-chain CRF: the tractable
  /// baseline for exact-inference tests).
  bool use_skip_edges = true;
  /// Include transition factors.
  bool use_transitions = true;
  /// Skip groups larger than this fall back to consecutive-occurrence
  /// chaining to bound the quadratic pair count.
  size_t max_skip_group = 24;
};

class SkipChainNerModel final : public factor::FeatureModel {
 public:
  /// The model scores against a TokenHotBlock: `tokens.hot` when its
  /// structure matches `options` (the default — every default-structure
  /// model shares the one block BuildTokenPdb built), otherwise a private
  /// block built here from `tokens`. In the shared case the block lives in
  /// `tokens`, so `tokens` must outlive the model. Thread-safe for
  /// concurrent scoring once constructed (parameters are read-only during
  /// inference), as long as concurrent callers pass their own
  /// MakeScratch() scratch.
  SkipChainNerModel(const TokenPdb& tokens, SkipChainOptions options = {});

  // --- factor::Model --------------------------------------------------------
  /// Scratch-less convenience overload backed by member scratch:
  /// allocation-free, but NOT safe for concurrent calls on a shared model.
  double LogScoreDelta(const factor::World& world,
                       const factor::Change& change) const override;
  double LogScoreDelta(const factor::World& world,
                       const factor::Change& change,
                       factor::ScoreScratch* scratch) const override;
  std::unique_ptr<factor::ScoreScratch> MakeScratch() const override;
  double LogScore(const factor::World& world) const override;
  /// Locality for sharded execution: node factors are single-variable,
  /// chain edges link sequence neighbors, and skip partners are
  /// same-document by construction — so any partition that keeps each
  /// document whole is certified exact. Checked against the instantiated
  /// templates (hot-block next/skip spans), honoring the enabled factor
  /// types.
  bool FactorsRespectPartition(
      const std::vector<uint32_t>& partition) const override;
  size_t num_variables() const override { return hot_->num_tokens(); }
  size_t domain_size(factor::VarId) const override { return kNumLabels; }

  // --- factor::FeatureModel --------------------------------------------------
  void FeatureDelta(const factor::World& world, const factor::Change& change,
                    factor::SparseVector* out) const override;
  void FeatureDelta(const factor::World& world, const factor::Change& change,
                    factor::SparseVector* out,
                    factor::ScoreScratch* scratch) const override;
  factor::Parameters& parameters() override { return params_; }
  const factor::Parameters& parameters() const override { return params_; }

  /// Lightweight view over one token's skip partners in the hot block's
  /// CSR array — iterable like the vector the model historically stored.
  struct PartnerSpan {
    const factor::VarId* first;
    const factor::VarId* last;
    const factor::VarId* begin() const { return first; }
    const factor::VarId* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    bool empty() const { return first == last; }
    factor::VarId front() const { return *first; }
    factor::VarId operator[](size_t i) const { return first[i]; }
  };

  /// Skip partners of a variable (same-document, same-string tokens),
  /// sorted ascending.
  PartnerSpan SkipPartners(factor::VarId var) const {
    return {hot_->partners_begin(var), hot_->partners_end(var)};
  }

  /// The hot block this model scores against (shared or private).
  const TokenHotBlock& hot_block() const { return *hot_; }

  /// Number of skip edges instantiated (diagnostics; each edge counted once).
  size_t num_skip_edges() const { return hot_->num_skip_edges; }

  /// True if the compiled tables mirror the current parameters (they
  /// refresh lazily on the next scoring call after a weight update).
  bool compiled_fresh() const { return compiled_.fresh(params_); }

  /// Seeds emission/bias/transition weights from simple corpus statistics
  /// (log-odds of TRUTH labels). Gives a usable model without running
  /// SampleRank — benches use this to skip training time.
  void InitializeFromCorpusStatistics(const TokenPdb& tokens,
                                      double skip_weight = 1.0,
                                      double emission_scale = 2.0);

 private:
  /// Reusable buffers for the factor instances one change touches:
  /// nodes, chain edges, skip edges. Purely an allocation cache.
  struct TouchedScratch final : factor::ScoreScratch {
    std::vector<factor::VarId> nodes;
    std::vector<std::pair<factor::VarId, factor::VarId>> edges;
    std::vector<std::pair<factor::VarId, factor::VarId>> skips;
  };

  // Enumerates the touched factor instances into `out`, deduplicated so
  // factors shared between changed variables are scored exactly once.
  void CollectTouched(const factor::Change& change, TouchedScratch* out) const;

  /// Rebuilds the dense tables if the parameter version moved.
  void EnsureCompiled() const { compiled_.EnsureFresh(params_); }

  /// Single-assignment fast path: the §5.1 kernel flips one label per
  /// step, and for one variable the touched enumeration is already sorted
  /// and duplicate-free (skip partners are kept ascending), so this skips
  /// scratch, sorting, and patched-world scans outright. Dispatches on the
  /// world's label layout (shadow lane vs uint32 array); both read the
  /// same values, so the delta is layout-independent bitwise.
  double CompiledSingleDelta(const factor::World& world, factor::VarId var,
                             uint32_t new_label) const;
  template <typename GetLabel>
  double CompiledSingleDeltaImpl(factor::VarId var, uint32_t new_label,
                                 const GetLabel& get) const;

  double CompiledLogScoreDelta(const factor::World& world,
                               const factor::Change& change,
                               TouchedScratch* scratch) const;

  SkipChainOptions options_;
  factor::Parameters params_;
  /// The packed per-token structure this model scores against. Points at
  /// the TokenPdb's shared block when the skip options match it, else at
  /// owned_hot_.
  const TokenHotBlock* hot_ = nullptr;
  std::unique_ptr<TokenHotBlock> owned_hot_;

  // Compiled scoring state. The tables' backing storage never moves, so
  // the raw row pointers below stay valid across lazy rebuilds. mutable:
  // refreshed from const scoring paths (thread-safe, see CompiledWeights).
  mutable factor::CompiledWeights compiled_;
  const double* node_table_ = nullptr;   // [num_strings × kNumLabels]
  const double* trans_table_ = nullptr;  // [kNumLabels × kNumLabels]
  const double* skip_table_ = nullptr;   // [kNumLabels], both-labels-agree
  mutable TouchedScratch member_scratch_;  // Backs the scratch-less overload.
};

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_SKIP_CHAIN_MODEL_H_
