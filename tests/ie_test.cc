// Information-extraction layer tests: corpus generation, the TOKEN PDB,
// the skip-chain CRF's local-scoring identities, BIO metrics, and the §5.1
// proposal distribution.
#include <gtest/gtest.h>

#include "ie/corpus.h"
#include "ie/entity_resolution.h"
#include "ie/metrics.h"
#include "ie/ner_proposal.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/metropolis_hastings.h"
#include "oracles/exact.h"

namespace fgpdb {
namespace ie {
namespace {

TEST(LabelsTest, RoundTripAndStructure) {
  EXPECT_EQ(kNumLabels, 9u);
  for (uint32_t y = 0; y < kNumLabels; ++y) {
    EXPECT_EQ(LabelIndex(LabelName(y)), y);
  }
  EXPECT_EQ(LabelName(kLabelO), "O");
  EXPECT_TRUE(IsBegin(LabelIndex("B-ORG")));
  EXPECT_TRUE(IsInside(LabelIndex("I-LOC")));
  EXPECT_FALSE(IsBegin(kLabelO));
  EXPECT_EQ(LabelType(LabelIndex("I-PER")), EntityType::kPer);
  EXPECT_EQ(InsideLabel(EntityType::kMisc), LabelIndex("I-MISC"));
}

TEST(LabelsTest, BioTransitionValidity) {
  const uint32_t b_per = LabelIndex("B-PER");
  const uint32_t i_per = LabelIndex("I-PER");
  const uint32_t i_org = LabelIndex("I-ORG");
  EXPECT_TRUE(ValidTransition(b_per, i_per));
  EXPECT_TRUE(ValidTransition(i_per, i_per));
  EXPECT_FALSE(ValidTransition(b_per, i_org));
  EXPECT_FALSE(ValidTransition(kLabelO, i_per));
  EXPECT_TRUE(ValidTransition(kLabelO, b_per));
  EXPECT_TRUE(ValidTransition(i_org, kLabelO));
}

TEST(CorpusTest, DeterministicFromSeed) {
  const CorpusOptions options{.num_tokens = 500, .tokens_per_doc = 80, .seed = 3};
  const SyntheticCorpus a = GenerateCorpus(options);
  const SyntheticCorpus b = GenerateCorpus(options);
  ASSERT_EQ(a.tokens.size(), b.tokens.size());
  for (size_t i = 0; i < a.tokens.size(); ++i) {
    EXPECT_EQ(a.tokens[i].text, b.tokens[i].text);
    EXPECT_EQ(a.tokens[i].truth_label, b.tokens[i].truth_label);
  }
}

TEST(CorpusTest, TruthLabelsAreValidBio) {
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 2000, .tokens_per_doc = 100, .seed = 5});
  for (const auto& [begin, end] : corpus.doc_ranges) {
    uint32_t prev = kLabelO;
    for (size_t i = begin; i < end; ++i) {
      EXPECT_TRUE(ValidTransition(prev, corpus.tokens[i].truth_label))
          << "invalid BIO at token " << i;
      prev = corpus.tokens[i].truth_label;
    }
  }
}

TEST(CorpusTest, MostTokensAreO) {
  const SyntheticCorpus corpus = GenerateCorpus({.num_tokens = 3000, .seed = 7});
  size_t o_count = 0;
  for (const auto& t : corpus.tokens) {
    if (t.truth_label == kLabelO) ++o_count;
  }
  const double frac = static_cast<double>(o_count) / corpus.tokens.size();
  EXPECT_GT(frac, 0.6);  // Label sparsity, like real news text.
  EXPECT_LT(frac, 0.95);  // But entities do occur.
}

TEST(CorpusTest, StringsRepeatWithinDocuments) {
  // The property skip edges rely on: entity strings recur within documents.
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 4000, .tokens_per_doc = 200, .seed = 9});
  size_t docs_with_repeats = 0;
  for (const auto& [begin, end] : corpus.doc_ranges) {
    std::unordered_map<std::string, int> entity_counts;
    for (size_t i = begin; i < end; ++i) {
      if (corpus.tokens[i].truth_label != kLabelO) {
        ++entity_counts[corpus.tokens[i].text];
      }
    }
    for (const auto& [text, count] : entity_counts) {
      (void)text;
      if (count >= 2) {
        ++docs_with_repeats;
        break;
      }
    }
  }
  EXPECT_GT(docs_with_repeats, corpus.doc_ranges.size() / 2);
}

TEST(CorpusTest, DocRangesPartitionTokens) {
  const SyntheticCorpus corpus = GenerateCorpus({.num_tokens = 1000, .seed = 11});
  size_t expected_begin = 0;
  for (const auto& [begin, end] : corpus.doc_ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, corpus.tokens.size());
  EXPECT_EQ(corpus.doc_ranges.size(), corpus.num_docs);
}

TEST(TokenPdbTest, SchemaAndInitialization) {
  const SyntheticCorpus corpus = GenerateCorpus({.num_tokens = 300, .seed = 13});
  TokenPdb tokens = BuildTokenPdb(corpus);
  const Table* table = tokens.pdb->db().RequireTable(kTokenTable);
  EXPECT_EQ(table->size(), corpus.tokens.size());
  EXPECT_EQ(table->schema().RequireIndexOf("LABEL"), kColLabel);
  // All labels initialized to O (paper §5.1).
  table->Scan([&](RowId, const Tuple& t) {
    EXPECT_EQ(t.at(kColLabel), Value::String("O"));
  });
  // World mirrors the O initialization.
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    EXPECT_EQ(tokens.pdb->world().Get(static_cast<factor::VarId>(v)), kLabelO);
  }
  // Bindings point at the LABEL column.
  EXPECT_EQ(tokens.pdb->binding().num_variables(), corpus.tokens.size());
  EXPECT_EQ(tokens.pdb->binding().field(0).column, kColLabel);
}

TEST(SkipChainModelTest, SkipPartnersAreSymmetricAndSameString) {
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 1500, .tokens_per_doc = 150, .seed = 17});
  TokenPdb tokens = BuildTokenPdb(corpus);
  SkipChainNerModel model(tokens);
  EXPECT_GT(model.num_skip_edges(), 0u);
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    for (factor::VarId p : model.SkipPartners(static_cast<factor::VarId>(v))) {
      EXPECT_EQ(tokens.string_ids[v], tokens.string_ids[p]);
      const auto& back = model.SkipPartners(p);
      EXPECT_NE(std::find(back.begin(), back.end(),
                          static_cast<factor::VarId>(v)),
                back.end())
          << "skip edge not symmetric";
    }
  }
}

TEST(SkipChainModelTest, DeltaMatchesFullScoreDifference) {
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 400, .tokens_per_doc = 80, .seed = 19});
  TokenPdb tokens = BuildTokenPdb(corpus);
  SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);
  factor::World world = tokens.pdb->world();
  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    factor::Change change;
    const size_t k = 1 + rng.UniformInt(3u);
    for (size_t i = 0; i < k; ++i) {
      change.Set(static_cast<factor::VarId>(rng.UniformInt(tokens.num_tokens())),
                 static_cast<uint32_t>(rng.UniformInt(kNumLabels)));
    }
    const double local = model.LogScoreDelta(world, change);
    factor::World after = world;
    after.Apply(change);
    const double full = model.LogScore(after) - model.LogScore(world);
    ASSERT_NEAR(local, full, 1e-9) << "trial " << trial;
    world = after;
  }
}

TEST(SkipChainModelTest, FeatureDeltaDotEqualsScoreDelta) {
  // The log-linear identity: θ·Δφ == Δ(θ·φ) (paper §3.1's ψ = exp(φ·θ)).
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 300, .tokens_per_doc = 60, .seed = 29});
  TokenPdb tokens = BuildTokenPdb(corpus);
  SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);
  factor::World world = tokens.pdb->world();
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    factor::Change change;
    change.Set(static_cast<factor::VarId>(rng.UniformInt(tokens.num_tokens())),
               static_cast<uint32_t>(rng.UniformInt(kNumLabels)));
    factor::SparseVector features;
    model.FeatureDelta(world, change, &features);
    ASSERT_NEAR(model.parameters().Dot(features),
                model.LogScoreDelta(world, change), 1e-9);
    world.Apply(change);
  }
}

TEST(SkipChainModelTest, LinearChainAblationHasNoSkipEdges) {
  const SyntheticCorpus corpus = GenerateCorpus({.num_tokens = 600, .seed = 37});
  TokenPdb tokens = BuildTokenPdb(corpus);
  SkipChainNerModel linear(tokens, {.use_skip_edges = false});
  EXPECT_EQ(linear.num_skip_edges(), 0u);
  SkipChainNerModel skip(tokens);
  EXPECT_GT(skip.num_skip_edges(), 0u);
}

TEST(NerProposalTest, FlipsOneLabelVariableWithinBatch) {
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 500, .tokens_per_doc = 60, .seed = 41});
  TokenPdb tokens = BuildTokenPdb(corpus);
  DocumentBatchProposal proposal(&tokens.docs,
                                 {.proposals_per_batch = 100, .docs_per_batch = 2});
  Rng rng(43);
  for (int i = 0; i < 500; ++i) {
    double log_ratio = 1.0;
    const factor::Change change =
        proposal.Propose(tokens.pdb->world(), rng, &log_ratio);
    EXPECT_EQ(log_ratio, 0.0);  // Symmetric.
    ASSERT_EQ(change.assignments.size(), 1u);
    EXPECT_LT(change.assignments[0].value, kNumLabels);
    // The proposed variable must be inside the current batch, and a batch
    // serves exactly proposals_per_batch proposals before the next reload.
    const auto& batch = proposal.sites();
    EXPECT_NE(std::find(batch.begin(), batch.end(), change.assignments[0].var),
              batch.end());
    EXPECT_EQ(proposal.proposals_left(), 99u - i % 100u);
  }
}

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<uint32_t> truth = {0, 1, 2, 0, 3, 0};
  const NerScores s = ScoreBio(truth, truth);
  EXPECT_DOUBLE_EQ(s.token_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  EXPECT_EQ(s.truth_mentions, 2u);
}

TEST(MetricsTest, PartialCredit) {
  const uint32_t O = 0, B_PER = 1, I_PER = 2, B_ORG = 3;
  // Truth: [B-PER I-PER O B-ORG]; prediction gets the PER mention right but
  // misses the ORG and hallucinates one at position 2.
  const std::vector<uint32_t> truth = {B_PER, I_PER, O, B_ORG};
  const std::vector<uint32_t> pred = {B_PER, I_PER, B_ORG, O};
  const NerScores s = ScoreBio(pred, truth);
  EXPECT_DOUBLE_EQ(s.token_accuracy, 0.5);
  EXPECT_EQ(s.truth_mentions, 2u);
  EXPECT_EQ(s.predicted_mentions, 2u);
  EXPECT_EQ(s.matched_mentions, 1u);
  EXPECT_DOUBLE_EQ(s.precision, 0.5);
  EXPECT_DOUBLE_EQ(s.recall, 0.5);
}

TEST(MetricsTest, MentionsCannotSpanDocuments) {
  const uint32_t B_PER = 1, I_PER = 2;
  const std::vector<uint32_t> labels = {B_PER, I_PER, I_PER, I_PER};
  // Without a boundary: one mention. With a boundary at 2: two mentions.
  EXPECT_EQ(ScoreBio(labels, labels).truth_mentions, 1u);
  EXPECT_EQ(ScoreBio(labels, labels, {0, 2}).truth_mentions, 2u);
}

TEST(EntityResolutionTest, AffinityReflectsStringSimilarity) {
  EntityResolutionModel model({"John Smith", "J. Smith", "J. Simms", "Acme"});
  EXPECT_GT(model.Affinity(0, 1), model.Affinity(0, 3));
  EXPECT_GT(model.Affinity(1, 2), model.Affinity(0, 3));
  EXPECT_DOUBLE_EQ(model.Affinity(0, 1), model.Affinity(1, 0));
}

TEST(EntityResolutionTest, DeltaMatchesFullScoreDifference) {
  EntityResolutionModel model(
      {"John Smith", "J. Smith", "J. Simms", "Acme Corp", "Acme"});
  factor::World world(model.num_variables());
  Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    factor::Change change;
    const size_t k = 1 + rng.UniformInt(3u);
    for (size_t i = 0; i < k; ++i) {
      change.Set(static_cast<factor::VarId>(rng.UniformInt(5u)),
                 static_cast<uint32_t>(rng.UniformInt(5u)));
    }
    const double local = model.LogScoreDelta(world, change);
    factor::World after = world;
    after.Apply(change);
    ASSERT_NEAR(local, model.LogScore(after) - model.LogScore(world), 1e-9);
    world = after;
  }
}

TEST(EntityResolutionTest, MhClustersSimilarMentions) {
  // "John Smith"/"J. Smith" should co-cluster; "Acme Corp" should not join.
  EntityResolutionModel model({"John Smith", "J. Smith", "Acme Corp"});
  factor::World world(3);
  world.Set(0, 0);
  world.Set(1, 1);
  world.Set(2, 2);
  SplitMergeProposal proposal(model);
  infer::MetropolisHastings sampler(model, &world, &proposal, /*seed=*/51);
  size_t together = 0, with_acme = 0;
  const int kSamples = 4000;
  sampler.Run(1000);
  for (int i = 0; i < kSamples; ++i) {
    sampler.Step();
    if (world.Get(0) == world.Get(1)) ++together;
    if (world.Get(0) == world.Get(2)) ++with_acme;
  }
  EXPECT_GT(together, with_acme);
  EXPECT_GT(static_cast<double>(together) / kSamples, 0.5);
}

TEST(EntityResolutionTest, SplitMergeMatchesExactPairwiseMarginals) {
  // Detailed-balance check: split-merge must converge to the same
  // co-clustering marginals as the (symmetric, trivially correct)
  // single-mention-move kernel.
  EntityResolutionModel model({"ab", "abc", "xyz"});
  auto run = [&](infer::Proposal* proposal, uint64_t seed) {
    factor::World world(3);
    world.Set(0, 0);
    world.Set(1, 1);
    world.Set(2, 2);
    infer::MetropolisHastings sampler(model, &world, proposal, seed);
    sampler.Run(2000);
    double together01 = 0;
    const int kSamples = 60000;
    for (int i = 0; i < kSamples; ++i) {
      sampler.Step();
      if (world.Get(0) == world.Get(1)) together01 += 1;
    }
    return together01 / kSamples;
  };
  SplitMergeProposal split_merge(model);
  SingleMentionMoveProposal single_move(model);
  const double p_sm = run(&split_merge, 61);
  const double p_single = run(&single_move, 67);
  EXPECT_NEAR(p_sm, p_single, 0.03);
}

TEST(EntityResolutionTest, ClustersPartitionMentions) {
  EntityResolutionModel model({"a", "b", "c", "d"});
  factor::World world(4);
  world.Set(0, 2);
  world.Set(1, 2);
  world.Set(2, 0);
  world.Set(3, 1);
  const auto clusters = model.Clusters(world);
  ASSERT_EQ(clusters.size(), 3u);
  size_t total = 0;
  for (const auto& c : clusters) total += c.size();
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
}

}  // namespace
}  // namespace ie
}  // namespace fgpdb
