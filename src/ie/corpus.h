// Synthetic news-like corpus generator.
//
// The paper evaluates on ten million tokens of 2004 New York Times text
// with Stanford-NER reference labels — data we cannot redistribute. This
// generator is the documented substitution (docs/ARCHITECTURE.md §9): a
// generative process that preserves the properties the experiments
// exercise:
//
//   * documents composed of sentences over a background vocabulary,
//   * PER/ORG/LOC/MISC mentions drawn from per-document entity pools, so
//     the same surface string recurs within a document (skip edges),
//   * deliberately ambiguous strings shared across lexicons ("Boston" the
//     city vs "Boston" the organization — the paper's Query 4 motivation),
//   * BIO ground-truth labels (the TRUTH column of the TOKEN relation),
//   * label sparsity (most tokens are O).
#ifndef FGPDB_IE_CORPUS_H_
#define FGPDB_IE_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ie/labels.h"

namespace fgpdb {
namespace ie {

struct TokenRecord {
  int64_t tok_id = 0;
  int64_t doc_id = 0;
  std::string text;
  uint32_t truth_label = kLabelO;
};

struct CorpusOptions {
  /// Approximate total tokens (generation stops at the first document
  /// boundary at or past this).
  size_t num_tokens = 10000;
  /// Mean document length (documents vary around this).
  size_t tokens_per_doc = 250;
  /// Probability a sentence slot starts an entity mention.
  double entity_density = 0.12;
  /// Fraction of pool entities drawn from an open-ended synthetic name
  /// space instead of the fixed head lexicons. Real text is Zipfian: a few
  /// very frequent entity strings plus a long tail seen once or twice. The
  /// tail is what keeps string-level query marginals from saturating at
  /// 0/1 (rare strings have weak emission statistics, so their labels stay
  /// genuinely uncertain — the regime the paper's figures live in).
  double rare_entity_fraction = 0.4;
  uint64_t seed = 2004;  // The corpus year, in the paper's honor.
};

struct SyntheticCorpus {
  std::vector<TokenRecord> tokens;
  size_t num_docs = 0;

  /// Token index ranges per document: docs[d] = [begin, end).
  std::vector<std::pair<size_t, size_t>> doc_ranges;
};

/// Deterministically generates a corpus from the options' seed.
SyntheticCorpus GenerateCorpus(const CorpusOptions& options);

/// The ambiguous city/organization string used by the paper's Query 4.
inline constexpr const char* kBostonString = "Boston";

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_CORPUS_H_
