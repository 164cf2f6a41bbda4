// The compiled scoring layer's contract (factor/compiled_weights.h): dense
// tables return bit-for-bit the doubles the naive Parameters::Get scoring
// computes, tables refresh lazily when the parameter version moves, and the
// scratch-reuse protocol changes no results.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "factor/compiled_weights.h"
#include "ie/corpus.h"
#include "ie/entity_resolution.h"
#include "ie/ner_features.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/metropolis_hastings.h"
#include "learn/objective.h"
#include "learn/samplerank.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"
#include "util/rng.h"

namespace fgpdb {
namespace ie {
namespace {

struct CompiledVsNaive {
  TokenPdb tokens;
  std::unique_ptr<SkipChainNerModel> compiled;
  std::unique_ptr<SkipChainNerModel> naive;
  factor::World world;

  explicit CompiledVsNaive(size_t num_tokens, uint64_t seed) {
    const SyntheticCorpus corpus = GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 60, .seed = seed});
    tokens = BuildTokenPdb(corpus);
    compiled = std::make_unique<SkipChainNerModel>(tokens);
    naive = std::make_unique<SkipChainNerModel>(
        tokens, SkipChainOptions{.use_compiled_scoring = false});
    compiled->InitializeFromCorpusStatistics(tokens);
    naive->InitializeFromCorpusStatistics(tokens);
    world = factor::World(tokens.num_tokens());
  }

  /// Randomizes the world's labels in place.
  void ShuffleWorld(Rng& rng) {
    for (size_t v = 0; v < world.size(); ++v) {
      world.Set(static_cast<factor::VarId>(v),
                static_cast<uint32_t>(rng.UniformInt(kNumLabels)));
    }
  }

  /// A random change touching 1..4 variables (duplicates allowed, so the
  /// last-assignment-wins overlay semantics get exercised too).
  factor::Change RandomChange(Rng& rng) const {
    factor::Change change;
    const size_t k = 1 + rng.UniformInt(4);
    for (size_t i = 0; i < k; ++i) {
      change.Set(
          static_cast<factor::VarId>(rng.UniformInt(tokens.num_tokens())),
          static_cast<uint32_t>(rng.UniformInt(kNumLabels)));
    }
    return change;
  }
};

// The randomized parity oracle: compiled scoring must equal the naive
// Parameters::Get path bitwise over ~1k random changes, with and without
// caller-provided scratch.
TEST(CompiledScoringTest, RandomizedParityOracle) {
  CompiledVsNaive fixture(1200, 71);
  Rng rng(2024);
  auto compiled_scratch = fixture.compiled->MakeScratch();
  ASSERT_NE(compiled_scratch, nullptr);
  for (int round = 0; round < 1000; ++round) {
    if (round % 50 == 0) fixture.ShuffleWorld(rng);
    const factor::Change change = fixture.RandomChange(rng);
    const double naive = fixture.naive->LogScoreDelta(fixture.world, change);
    // Bitwise equality, not ASSERT_NEAR: the tables must hold the *same
    // doubles* Get() returns, added in the same order.
    ASSERT_EQ(naive, fixture.compiled->LogScoreDelta(fixture.world, change))
        << "scratch-less parity broke at round " << round;
    ASSERT_EQ(naive, fixture.compiled->LogScoreDelta(fixture.world, change,
                                                     compiled_scratch.get()))
        << "scratch parity broke at round " << round;
  }
}

TEST(CompiledScoringTest, FullLogScoreParity) {
  CompiledVsNaive fixture(800, 13);
  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    fixture.ShuffleWorld(rng);
    ASSERT_NEAR(fixture.naive->LogScore(fixture.world),
                fixture.compiled->LogScore(fixture.world), 1e-9);
  }
}

TEST(CompiledScoringTest, FeatureDeltaDotEqualsCompiledScoreDelta) {
  CompiledVsNaive fixture(600, 29);
  Rng rng(17);
  fixture.ShuffleWorld(rng);
  auto scratch = fixture.compiled->MakeScratch();
  factor::SparseVector features;
  for (int round = 0; round < 200; ++round) {
    const factor::Change change = fixture.RandomChange(rng);
    features.Clear();
    fixture.compiled->FeatureDelta(fixture.world, change, &features,
                                   scratch.get());
    ASSERT_NEAR(fixture.compiled->parameters().Dot(features),
                fixture.compiled->LogScoreDelta(fixture.world, change,
                                                scratch.get()),
                1e-9);
  }
}

// Weight mutations move Parameters::version(); the next scoring call must
// rebuild the tables and agree with the naive path again — the invariant
// that lets SampleRank training and compiled inference compose.
TEST(CompiledScoringTest, ParameterUpdateInvalidatesTables) {
  CompiledVsNaive fixture(500, 43);
  Rng rng(99);
  fixture.ShuffleWorld(rng);

  // Warm the tables.
  const factor::Change probe = fixture.RandomChange(rng);
  (void)fixture.compiled->LogScoreDelta(fixture.world, probe);
  ASSERT_TRUE(fixture.compiled->compiled_fresh());

  // A direct perceptron-style update through the Parameters API.
  const uint64_t before = fixture.compiled->parameters().version();
  fixture.compiled->parameters().Update(
      EmissionFeature(fixture.tokens.string_ids[0], 3), 0.75);
  fixture.naive->parameters().Update(
      EmissionFeature(fixture.tokens.string_ids[0], 3), 0.75);
  EXPECT_GT(fixture.compiled->parameters().version(), before);
  EXPECT_FALSE(fixture.compiled->compiled_fresh());

  for (int round = 0; round < 100; ++round) {
    const factor::Change change = fixture.RandomChange(rng);
    ASSERT_EQ(fixture.naive->LogScoreDelta(fixture.world, change),
              fixture.compiled->LogScoreDelta(fixture.world, change));
  }
  EXPECT_TRUE(fixture.compiled->compiled_fresh());
}

// End-to-end invalidation: run real SampleRank steps on the compiled model
// (training goes through UpdateSparse), then check parity against a naive
// model handed the trained weights.
TEST(CompiledScoringTest, SampleRankTrainingRefreshesTables) {
  CompiledVsNaive fixture(400, 57);
  learn::LabelAccuracyObjective objective(fixture.tokens.truth);
  DocumentBatchProposal proposal(&fixture.tokens.docs,
                                 {.proposals_per_batch = 50});
  learn::SampleRank trainer(fixture.compiled.get(), &proposal, &objective,
                            {.learning_rate = 0.5, .seed = 11});
  factor::World train_world(fixture.tokens.num_tokens());
  // Interleave training (version bumps) with compiled scoring (rebuilds).
  Rng rng(303);
  for (int phase = 0; phase < 4; ++phase) {
    const learn::SampleRankStats stats = trainer.Train(&train_world, 500);
    EXPECT_GT(stats.proposals, 0u);
    fixture.naive->parameters() = fixture.compiled->parameters();
    fixture.ShuffleWorld(rng);
    for (int round = 0; round < 100; ++round) {
      const factor::Change change = fixture.RandomChange(rng);
      ASSERT_EQ(fixture.naive->LogScoreDelta(fixture.world, change),
                fixture.compiled->LogScoreDelta(fixture.world, change));
    }
  }
}

// The ER model's scratch rewrite must keep the local/global identity for
// multi-variable changes (split-merge moves touch whole clusters).
TEST(CompiledScoringTest, EntityResolutionDeltaMatchesGlobalDifference) {
  const std::vector<std::string> mentions = {
      "John Smith", "J. Smith",  "Smith",     "Acme Corp", "ACME",
      "Acme Inc",   "Boston",    "Boston MA", "J Smith",   "Acme"};
  EntityResolutionModel model(mentions);
  factor::World world(mentions.size());
  Rng rng(7);
  auto scratch = model.MakeScratch();
  ASSERT_NE(scratch, nullptr);
  for (int round = 0; round < 500; ++round) {
    for (size_t v = 0; v < world.size(); ++v) {
      world.Set(static_cast<factor::VarId>(v),
                static_cast<uint32_t>(rng.UniformInt(mentions.size())));
    }
    factor::Change change;
    const size_t k = 1 + rng.UniformInt(5);
    for (size_t i = 0; i < k; ++i) {
      change.Set(static_cast<factor::VarId>(rng.UniformInt(mentions.size())),
                 static_cast<uint32_t>(rng.UniformInt(mentions.size())));
    }
    const double local = model.LogScoreDelta(world, change, scratch.get());
    ASSERT_EQ(local, model.LogScoreDelta(world, change));  // Scratch parity.
    factor::World applied = world;
    applied.Apply(change);
    ASSERT_NEAR(local, model.LogScore(applied) - model.LogScore(world), 1e-9);
  }
}

// The vectorized Gibbs-conditional fast path: ConditionalRow must fill
// every candidate lane with the exact bits the per-candidate single-flip
// delta computes, across ≥1k randomized sites, and the no-move lane must
// be a clean zero (out[old] == +0.0, the candidate path's hard zero).
TEST(CompiledScoringTest, ConditionalRowMatchesPerCandidateBitwise) {
  CompiledVsNaive fixture(1200, 83);
  Rng rng(909);
  auto scratch = fixture.compiled->MakeScratch();
  double row[kNumLabels];
  // The uncompiled reference model offers no fast path: callers must fall
  // back to per-candidate scoring.
  EXPECT_FALSE(fixture.naive->ConditionalRow(fixture.world, 0, row, nullptr));

  size_t sites = 0;
  for (int round = 0; round < 2; ++round) {
    fixture.ShuffleWorld(rng);
    for (size_t v = 0; v < fixture.tokens.num_tokens(); ++v) {
      const auto var = static_cast<factor::VarId>(v);
      ASSERT_TRUE(fixture.compiled->ConditionalRow(fixture.world, var, row,
                                                   scratch.get()));
      const uint32_t old_label = fixture.world.Get(var);
      ASSERT_EQ(row[old_label], 0.0) << "site " << v;
      ASSERT_FALSE(std::signbit(row[old_label])) << "site " << v;
      factor::Change change;
      for (uint32_t y = 0; y < kNumLabels; ++y) {
        if (y == old_label) continue;
        change.Clear();
        change.Set(var, y);
        // Bitwise against both the compiled per-candidate path (the lane's
        // summation-order contract) and the naive Parameters::Get path.
        ASSERT_EQ(row[y], fixture.compiled->LogScoreDelta(fixture.world,
                                                          change))
            << "site " << v << " label " << y;
        ASSERT_EQ(row[y], fixture.naive->LogScoreDelta(fixture.world, change))
            << "site " << v << " label " << y;
      }
      ++sites;
    }
  }
  EXPECT_GE(sites, 1000u);
}

// Same contract for the entity-resolution model's scatter-based rows.
TEST(CompiledScoringTest, EntityResolutionConditionalRowMatchesPerCandidate) {
  const std::vector<std::string> mentions = {
      "John Smith", "J. Smith",  "Smith",     "Acme Corp", "ACME",
      "Acme Inc",   "Boston",    "Boston MA", "J Smith",   "Acme"};
  EntityResolutionModel model(mentions);
  const size_t n = mentions.size();
  factor::World world(n);
  Rng rng(4242);
  std::vector<double> row(n);
  factor::Change change;
  for (int round = 0; round < 150; ++round) {
    for (size_t v = 0; v < n; ++v) {
      world.Set(static_cast<factor::VarId>(v),
                static_cast<uint32_t>(rng.UniformInt(n)));
    }
    for (size_t v = 0; v < n; ++v) {
      const auto var = static_cast<factor::VarId>(v);
      ASSERT_TRUE(model.ConditionalRow(world, var, row.data(), nullptr));
      const uint32_t cur = world.Get(var);
      ASSERT_EQ(row[cur], 0.0);
      for (uint32_t c = 0; c < n; ++c) {
        if (c == cur) continue;
        change.Clear();
        change.Set(var, c);
        ASSERT_EQ(row[c], model.LogScoreDelta(world, change))
            << "round " << round << " var " << v << " cluster " << c;
      }
    }
  }
}

// The batched kernel's seed-schedule contract: Step(n) must land on the
// same world as n single Steps at the same seed, accept the same count,
// and show listeners the same applied stream in the same order — both at
// the default flush interval and at the per-step (limit=1) ablation.
TEST(CompiledScoringTest, BatchedStepMatchesSingleStepsBitwise) {
  CompiledVsNaive fixture(600, 31);
  const size_t kSteps = 6000;
  const uint64_t kSeed = 123;

  struct Runner {
    factor::World world;
    DocumentBatchProposal proposal;
    infer::MetropolisHastings sampler;
    std::vector<factor::AppliedAssignment> stream;

    Runner(const CompiledVsNaive& f, uint64_t seed)
        : world(f.tokens.num_tokens()),
          proposal(&f.tokens.docs, {.proposals_per_batch = 250}),
          sampler(*f.compiled, &world, &proposal, seed) {
      sampler.AddListener([this](
          const std::vector<factor::AppliedAssignment>& applied) {
        stream.insert(stream.end(), applied.begin(), applied.end());
      });
    }
  };

  Runner single(fixture, kSeed);
  Runner batched(fixture, kSeed);
  Runner per_step(fixture, kSeed);
  per_step.sampler.set_mirror_batch_limit(1);

  size_t accepted_single = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    if (single.sampler.Step()) ++accepted_single;
  }
  const size_t accepted_batched = batched.sampler.Step(kSteps);
  const size_t accepted_per_step = per_step.sampler.Step(kSteps);

  EXPECT_EQ(accepted_single, accepted_batched);
  EXPECT_EQ(accepted_single, accepted_per_step);
  EXPECT_EQ(single.sampler.num_accepted(), batched.sampler.num_accepted());
  for (size_t v = 0; v < single.world.size(); ++v) {
    const auto var = static_cast<factor::VarId>(v);
    ASSERT_EQ(single.world.Get(var), batched.world.Get(var)) << "var " << v;
    ASSERT_EQ(single.world.Get(var), per_step.world.Get(var)) << "var " << v;
  }
  ASSERT_EQ(single.stream.size(), batched.stream.size());
  ASSERT_EQ(single.stream.size(), per_step.stream.size());
  for (size_t i = 0; i < single.stream.size(); ++i) {
    ASSERT_EQ(single.stream[i].var, batched.stream[i].var) << "record " << i;
    ASSERT_EQ(single.stream[i].old_value, batched.stream[i].old_value);
    ASSERT_EQ(single.stream[i].new_value, batched.stream[i].new_value);
    ASSERT_EQ(single.stream[i].var, per_step.stream[i].var) << "record " << i;
    ASSERT_EQ(single.stream[i].old_value, per_step.stream[i].old_value);
    ASSERT_EQ(single.stream[i].new_value, per_step.stream[i].new_value);
  }
}

// The row-driven Gibbs kernel (PR 10): with a single-site Gibbs proposal,
// Step(n)'s fused path — candidate sampled straight from ConditionalRow,
// row[new] reused as the acceptance's model ratio — must replay the
// reference two-call path (GibbsProposal::Propose + LogScoreDelta) exactly:
// same accepted count, same applied stream, same final world, bitwise,
// over ≥1k steps. Runs on shadow-carrying worlds so the narrow label lane
// is exercised end to end.
TEST(CompiledScoringTest, RowGibbsMatchesReferenceBitwise) {
  CompiledVsNaive fixture(800, 47);
  const size_t kSteps = 4000;
  const uint64_t kSeed = 777;

  struct Runner {
    factor::World world;
    infer::GibbsProposal proposal;
    infer::MetropolisHastings sampler;
    std::vector<factor::AppliedAssignment> stream;

    Runner(const CompiledVsNaive& f, uint64_t seed)
        : world(f.tokens.pdb->world()),  // Carries the label shadow.
          proposal(*f.compiled),
          sampler(*f.compiled, &world, &proposal, seed) {
      sampler.AddListener(
          [this](const std::vector<factor::AppliedAssignment>& applied) {
            stream.insert(stream.end(), applied.begin(), applied.end());
          });
    }
  };

  Runner fused(fixture, kSeed);
  ASSERT_TRUE(fused.sampler.row_gibbs());  // The default.
  ASSERT_TRUE(fused.world.has_label_shadow());
  Runner reference(fixture, kSeed);
  reference.sampler.set_row_gibbs(false);
  Runner single(fixture, kSeed);
  single.sampler.set_row_gibbs(false);

  const size_t accepted_fused = fused.sampler.Step(kSteps);
  const size_t accepted_reference = reference.sampler.Step(kSteps);
  size_t accepted_single = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    if (single.sampler.Step()) ++accepted_single;
  }

  EXPECT_EQ(accepted_fused, accepted_reference);
  EXPECT_EQ(accepted_fused, accepted_single);
  ASSERT_EQ(fused.stream.size(), reference.stream.size());
  ASSERT_EQ(fused.stream.size(), single.stream.size());
  EXPECT_GT(fused.stream.size(), 0u);
  for (size_t i = 0; i < fused.stream.size(); ++i) {
    ASSERT_EQ(fused.stream[i].var, reference.stream[i].var) << "record " << i;
    ASSERT_EQ(fused.stream[i].old_value, reference.stream[i].old_value);
    ASSERT_EQ(fused.stream[i].new_value, reference.stream[i].new_value);
    ASSERT_EQ(fused.stream[i].var, single.stream[i].var);
    ASSERT_EQ(fused.stream[i].new_value, single.stream[i].new_value);
  }
  for (size_t v = 0; v < fused.world.size(); ++v) {
    const auto var = static_cast<factor::VarId>(v);
    ASSERT_EQ(fused.world.Get(var), reference.world.Get(var)) << "var " << v;
    ASSERT_EQ(fused.world.Get(var), single.world.Get(var));
  }
  EXPECT_TRUE(fused.world.LabelShadowConsistent());

  // The fallback (non-compiled) row fill must fuse identically too: the
  // naive model has no ConditionalRow, so the fused kernel's per-candidate
  // fill is exercised against the reference pair.
  factor::World naive_fused_world = fixture.tokens.pdb->world();
  factor::World naive_reference_world = fixture.tokens.pdb->world();
  infer::GibbsProposal naive_prop_a(*fixture.naive);
  infer::GibbsProposal naive_prop_b(*fixture.naive);
  infer::MetropolisHastings naive_fused_chain(*fixture.naive,
                                              &naive_fused_world,
                                              &naive_prop_a, kSeed);
  infer::MetropolisHastings naive_reference_chain(*fixture.naive,
                                                  &naive_reference_world,
                                                  &naive_prop_b, kSeed);
  naive_reference_chain.set_row_gibbs(false);
  EXPECT_EQ(naive_fused_chain.Step(1000), naive_reference_chain.Step(1000));
  for (size_t v = 0; v < naive_fused_world.size(); ++v) {
    const auto var = static_cast<factor::VarId>(v);
    ASSERT_EQ(naive_fused_world.Get(var), naive_reference_world.Get(var))
        << "var " << v;
  }
}

// Label-layout parity (PR 10): a world carrying the uint8 shadow lane and
// a shadow-less world must walk identical trajectories — the shadow is a
// write-through mirror, never a second source of truth. Also pins the
// shared-vs-private hot block equivalence: a model that builds its own
// block (TokenPdb without one) scores bitwise like one sharing the pdb's.
TEST(CompiledScoringTest, HotBlockLayoutsWalkIdenticalTrajectories) {
  const SyntheticCorpus corpus =
      GenerateCorpus({.num_tokens = 900, .tokens_per_doc = 60, .seed = 53});
  TokenPdb tokens = BuildTokenPdb(corpus);
  SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);

  factor::World shadowed = tokens.pdb->world();
  ASSERT_TRUE(shadowed.has_label_shadow());
  factor::World plain = tokens.pdb->world();
  plain.DisableLabelShadow();
  ASSERT_FALSE(plain.has_label_shadow());

  DocumentBatchProposal proposal_a(&tokens.docs, {.proposals_per_batch = 200});
  DocumentBatchProposal proposal_b(&tokens.docs, {.proposals_per_batch = 200});
  infer::MetropolisHastings chain_a(model, &shadowed, &proposal_a, 99);
  infer::MetropolisHastings chain_b(model, &plain, &proposal_b, 99);
  EXPECT_EQ(chain_a.Step(5000), chain_b.Step(5000));
  for (size_t v = 0; v < shadowed.size(); ++v) {
    const auto var = static_cast<factor::VarId>(v);
    ASSERT_EQ(shadowed.Get(var), plain.Get(var)) << "var " << v;
  }
  EXPECT_TRUE(shadowed.LabelShadowConsistent());

  // Shared vs private hot block: strip the pdb-owned block from a second
  // TokenPdb over the same corpus; the model then builds its own, which
  // must be structurally identical and score bitwise the same.
  TokenPdb tokens2 = BuildTokenPdb(corpus);
  tokens2.hot.reset();
  SkipChainNerModel private_model(tokens2);
  private_model.InitializeFromCorpusStatistics(tokens2);
  EXPECT_EQ(model.num_skip_edges(), private_model.num_skip_edges());
  Rng rng(2718);
  factor::World world(tokens.num_tokens());
  factor::Change change;
  for (int round = 0; round < 300; ++round) {
    const auto var =
        static_cast<factor::VarId>(rng.UniformInt(tokens.num_tokens()));
    change.Clear();
    change.Set(var, static_cast<uint32_t>(rng.UniformInt(kNumLabels)));
    ASSERT_EQ(model.LogScoreDelta(world, change),
              private_model.LogScoreDelta(world, change));
    const auto span_a = model.SkipPartners(var);
    const auto span_b = private_model.SkipPartners(var);
    ASSERT_EQ(span_a.size(), span_b.size());
    for (size_t i = 0; i < span_a.size(); ++i) {
      ASSERT_EQ(span_a[i], span_b[i]);
    }
  }
}

// End-to-end across the mirror boundary: Queries 1–4 evaluated on one
// shared chain must answer bitwise-identically whether the accepted-jump
// stream crosses into the DB mirror once per batch (default) or once per
// accepted step (mirror_batch_limit = 1, the unbatched ablation).
TEST(CompiledScoringTest, SharedChainBatchedMirrorMatchesPerStepOnQueries) {
  CompiledVsNaive fixture(400, 61);
  fixture.tokens.pdb->set_model(fixture.compiled.get());
  auto clone = fixture.tokens.pdb->Clone();
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 300, .burn_in = 600, .seed = 2026};
  const std::vector<const char*> queries = {kQuery1, kQuery2, kQuery3,
                                            kQuery4};

  DocumentBatchProposal batched_proposal(&fixture.tokens.docs,
                                         {.proposals_per_batch = 300});
  DocumentBatchProposal per_step_proposal(&fixture.tokens.docs,
                                          {.proposals_per_batch = 300});
  pdb::SharedChainEvaluator batched(fixture.tokens.pdb.get(),
                                    &batched_proposal, options);
  pdb::SharedChainEvaluator per_step(clone.get(), &per_step_proposal, options);
  per_step.sampler().set_mirror_batch_limit(1);

  std::vector<ra::PlanPtr> plans;
  for (const char* query : queries) {
    plans.push_back(sql::PlanQuery(query, fixture.tokens.pdb->db()));
    batched.AddQuery(plans.back().get());
    plans.push_back(sql::PlanQuery(query, clone->db()));
    per_step.AddQuery(plans.back().get());
  }
  batched.Run(12);
  per_step.Run(12);

  for (size_t q = 0; q < queries.size(); ++q) {
    const pdb::QueryAnswer& a = batched.answer(q);
    const pdb::QueryAnswer& b = per_step.answer(q);
    EXPECT_EQ(a.num_samples(), b.num_samples()) << queries[q];
    const auto a_sorted = a.Sorted();
    const auto b_sorted = b.Sorted();
    ASSERT_EQ(a_sorted.size(), b_sorted.size()) << queries[q];
    for (size_t i = 0; i < a_sorted.size(); ++i) {
      EXPECT_EQ(a_sorted[i].first, b_sorted[i].first) << queries[q];
      EXPECT_EQ(a_sorted[i].second, b_sorted[i].second)
          << queries[q] << " tuple " << a_sorted[i].first.ToString();
    }
    EXPECT_EQ(a.SquaredError(b), 0.0) << queries[q];
  }
}

// CompiledWeights in isolation: registration-order term sums, lazy refresh
// semantics, and the stability of data() pointers across rebuilds.
TEST(CompiledWeightsTest, TableMirrorsParametersLazily) {
  factor::Parameters params;
  factor::CompiledWeights compiled;
  const size_t t = compiled.AddTable(
      3, 4,
      {[](uint32_t i, uint32_t j) { return factor::MakeFeatureId("a", i, j); },
       [](uint32_t, uint32_t j) { return factor::MakeFeatureId("b", j); }});
  const double* data = compiled.data(t);
  EXPECT_FALSE(compiled.fresh(params));

  params.Set(factor::MakeFeatureId("a", 1, 2), 0.25);
  params.Set(factor::MakeFeatureId("b", 2), -1.5);
  EXPECT_TRUE(compiled.EnsureFresh(params));
  EXPECT_FALSE(compiled.EnsureFresh(params));  // Fresh: no rebuild.
  EXPECT_EQ(compiled.data(t), data);           // Storage never moves.
  EXPECT_EQ(data[1 * 4 + 2], 0.25 + -1.5);
  EXPECT_EQ(data[0 * 4 + 2], -1.5);  // "a" term absent, "b" term present.
  EXPECT_EQ(data[1 * 4 + 3], 0.0);

  params.Update(factor::MakeFeatureId("a", 1, 2), 1.0);
  EXPECT_FALSE(compiled.fresh(params));
  EXPECT_TRUE(compiled.EnsureFresh(params));
  EXPECT_EQ(data[1 * 4 + 2], 1.25 + -1.5);
}

TEST(CompiledWeightsTest, CopiedParametersAlwaysInvalidate) {
  factor::Parameters a;
  a.Set(factor::MakeFeatureId("w", 1), 2.0);
  factor::Parameters b;
  b.Set(factor::MakeFeatureId("w", 1), 5.0);

  factor::CompiledWeights compiled;
  const size_t t = compiled.AddTable(
      1, 2,
      {[](uint32_t, uint32_t j) { return factor::MakeFeatureId("w", j); }});
  compiled.EnsureFresh(a);
  EXPECT_EQ(compiled.data(t)[1], 2.0);
  // Even if the source's counter is not ahead of ours, assignment must
  // leave the version moved so stale tables cannot be read.
  a = b;
  EXPECT_FALSE(compiled.fresh(a));
  compiled.EnsureFresh(a);
  EXPECT_EQ(compiled.data(t)[1], 5.0);
}

}  // namespace
}  // namespace ie
}  // namespace fgpdb
