// The compiled scoring layer's contract (factor/compiled_weights.h): dense
// tables return bit-for-bit the doubles the naive Parameters::Get scoring
// computes, tables refresh lazily when the parameter version moves, and the
// scratch-reuse protocol changes no results. Also the step kernel's parity
// references: ReferenceStep for Step(n), TwoCallGibbs for the fused Gibbs
// loop, and per-step mirroring for the shared chain on Queries 1–4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
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
#include "view/incremental.h"

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

using Stream = std::vector<factor::AppliedAssignment>;

// The step kernel's reference: one MH transition written out plainly —
// Propose, LogScoreDelta, the acceptance test, World::Apply, then the no-op
// filter. Appends the accepted real modifications to `stream`; returns true
// on acceptance (self-transitions included), as MetropolisHastings::Step().
bool ReferenceStep(const factor::Model& model, factor::World* world,
                   infer::Proposal* proposal, Rng* rng, Stream* stream) {
  double log_proposal_ratio = 0.0;
  const factor::Change change =
      proposal->Propose(*world, *rng, &log_proposal_ratio);
  if (change.empty()) return true;
  const double log_model_ratio = model.LogScoreDelta(*world, change);
  const double log_alpha = log_model_ratio + log_proposal_ratio;
  bool accept = log_alpha >= 0.0;
  if (!accept) accept = rng->Uniform() < std::exp(log_alpha);
  if (!accept) return false;
  Stream applied;
  world->Apply(change, &applied);
  for (const factor::AppliedAssignment& a : applied) {
    if (a.old_value != a.new_value) stream->push_back(a);
  }
  return true;
}

// Forwards to GibbsProposal without declaring itself single-site Gibbs, so
// MetropolisHastings runs it through the generic loop: Propose fills the
// conditional row and draws, then the acceptance test rescores the drawn
// candidate with a second LogScoreDelta. The two-call reference the fused
// row kernel must replay.
class TwoCallGibbs final : public infer::Proposal {
 public:
  explicit TwoCallGibbs(const factor::Model& model) : gibbs_(model) {}

  using Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override {
    gibbs_.Propose(world, rng, change, log_ratio);
  }

 private:
  infer::GibbsProposal gibbs_;
};

// One chain over a private copy of `start` that records every listener
// flush. The sampler and its listener hold addresses of the members, so a
// chain is built in place and never copied.
template <typename P>
struct RecordingChain {
  factor::World world;
  P proposal;
  infer::MetropolisHastings sampler;
  Stream stream;

  template <typename... ProposalArgs>
  RecordingChain(const factor::Model& model, const factor::World& start,
                 uint64_t seed, ProposalArgs&&... proposal_args)
      : world(start),
        proposal(std::forward<ProposalArgs>(proposal_args)...),
        sampler(model, &world, &proposal, seed) {
    sampler.AddListener([this](const Stream& applied) {
      stream.insert(stream.end(), applied.begin(), applied.end());
    });
  }
  RecordingChain(const RecordingChain&) = delete;
  RecordingChain& operator=(const RecordingChain&) = delete;
};

// Same final world and same applied stream, record for record.
void ExpectSameWalk(const factor::World& world_a, const Stream& stream_a,
                    const factor::World& world_b, const Stream& stream_b) {
  ASSERT_EQ(stream_a.size(), stream_b.size());
  for (size_t i = 0; i < stream_a.size(); ++i) {
    ASSERT_EQ(stream_a[i].var, stream_b[i].var) << "record " << i;
    ASSERT_EQ(stream_a[i].old_value, stream_b[i].old_value) << "record " << i;
    ASSERT_EQ(stream_a[i].new_value, stream_b[i].new_value) << "record " << i;
  }
  ASSERT_EQ(world_a.size(), world_b.size());
  for (size_t v = 0; v < world_a.size(); ++v) {
    const auto var = static_cast<factor::VarId>(v);
    ASSERT_EQ(world_a.Get(var), world_b.Get(var)) << "var " << v;
  }
}

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

// The step kernel's seed-schedule contract: Step(n) must land on the same
// world as n calls of Step() and as n ReferenceSteps at the same seed,
// accept the same count, and show listeners the same applied stream in the
// same order. A shuffled start keeps acceptance high enough that Step(n)
// crosses its mid-batch mirror flush.
TEST(CompiledScoringTest, BatchedStepMatchesSingleStepsBitwise) {
  CompiledVsNaive fixture(6000, 31);
  Rng shuffle(8);
  fixture.ShuffleWorld(shuffle);
  const size_t kSteps = 20000;
  const uint64_t kSeed = 123;
  const NerProposalOptions batch{.proposals_per_batch = 250};
  const auto& docs = fixture.tokens.docs;

  using Chain = RecordingChain<DocumentBatchProposal>;
  Chain batched(*fixture.compiled, fixture.world, kSeed, &docs, batch);
  Chain single(*fixture.compiled, fixture.world, kSeed, &docs, batch);
  // Walked by ReferenceStep; its sampler stays idle.
  Chain reference(*fixture.compiled, fixture.world, kSeed, &docs, batch);
  Rng reference_rng(kSeed);

  const size_t accepted_batched = batched.sampler.Step(kSteps);
  size_t accepted_single = 0;
  size_t accepted_reference = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    if (single.sampler.Step()) ++accepted_single;
    if (ReferenceStep(*fixture.compiled, &reference.world, &reference.proposal,
                      &reference_rng, &reference.stream)) {
      ++accepted_reference;
    }
  }

  EXPECT_EQ(accepted_batched, accepted_single);
  EXPECT_EQ(accepted_batched, accepted_reference);
  EXPECT_EQ(batched.sampler.num_accepted(), single.sampler.num_accepted());
  EXPECT_GT(batched.stream.size(),
            infer::MetropolisHastings::kMirrorBatchLimit);
  ExpectSameWalk(batched.world, batched.stream, single.world, single.stream);
  ExpectSameWalk(batched.world, batched.stream, reference.world,
                 reference.stream);
}

// The row-driven Gibbs kernel: with a single-site Gibbs proposal, Step(n)'s
// fused loop — candidate sampled straight from ConditionalRow, row[new]
// reused as the acceptance's model ratio — must replay the two-call path
// (TwoCallGibbs through the generic loop) and ReferenceStep exactly: same
// accepted count, same applied stream, same final world, bitwise. Runs on a
// shuffled, shadow-carrying world so the narrow label lane is exercised end
// to end and both loops cross their mid-batch flush.
TEST(CompiledScoringTest, RowGibbsMatchesReferenceBitwise) {
  CompiledVsNaive fixture(8000, 47);
  fixture.world = fixture.tokens.pdb->world();  // Carries the label shadow.
  ASSERT_TRUE(fixture.world.has_label_shadow());
  Rng shuffle(12);
  fixture.ShuffleWorld(shuffle);
  const size_t kSteps = 20000;
  const uint64_t kSeed = 777;
  const SkipChainNerModel& model = *fixture.compiled;

  RecordingChain<infer::GibbsProposal> fused(model, fixture.world, kSeed,
                                             model);
  RecordingChain<TwoCallGibbs> two_call(model, fixture.world, kSeed, model);
  // Walked by ReferenceStep; its sampler stays idle.
  RecordingChain<infer::GibbsProposal> reference(model, fixture.world, kSeed,
                                                 model);
  Rng reference_rng(kSeed);

  const size_t accepted_fused = fused.sampler.Step(kSteps);
  const size_t accepted_two_call = two_call.sampler.Step(kSteps);
  size_t accepted_reference = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    if (ReferenceStep(model, &reference.world, &reference.proposal,
                      &reference_rng, &reference.stream)) {
      ++accepted_reference;
    }
  }

  EXPECT_EQ(accepted_fused, accepted_two_call);
  EXPECT_EQ(accepted_fused, accepted_reference);
  EXPECT_GT(fused.stream.size(), infer::MetropolisHastings::kMirrorBatchLimit);
  ExpectSameWalk(fused.world, fused.stream, two_call.world, two_call.stream);
  ExpectSameWalk(fused.world, fused.stream, reference.world,
                 reference.stream);
  EXPECT_TRUE(fused.world.LabelShadowConsistent());
  EXPECT_TRUE(two_call.world.LabelShadowConsistent());

  // The fallback (non-compiled) row fill must fuse identically too: the
  // naive model has no ConditionalRow, so the fused kernel's per-candidate
  // fill is exercised against the two-call path.
  const SkipChainNerModel& naive = *fixture.naive;
  RecordingChain<infer::GibbsProposal> naive_fused(naive, fixture.world,
                                                   kSeed, naive);
  RecordingChain<TwoCallGibbs> naive_two_call(naive, fixture.world, kSeed,
                                              naive);
  EXPECT_EQ(naive_fused.sampler.Step(1000), naive_two_call.sampler.Step(1000));
  ExpectSameWalk(naive_fused.world, naive_fused.stream, naive_two_call.world,
                 naive_two_call.stream);
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

// End-to-end across the mirror boundary: Queries 1–4 on one shared chain,
// which mirrors per Step(k) flush, must answer bitwise like a hand-rolled
// loop that crosses into the DB mirror after every step — k × Step(), then
// TakeDeltas and MaterializedView::Apply per query. The chain starts from a
// shuffled world without burn-in, so its first intervals accept more than
// kMirrorBatchLimit assignments and Step(k) flushes mid-batch.
TEST(CompiledScoringTest, SharedChainBatchedMirrorMatchesPerStepOnQueries) {
  CompiledVsNaive fixture(6000, 61);
  pdb::ProbabilisticDatabase& batched_pdb = *fixture.tokens.pdb;
  batched_pdb.set_model(fixture.compiled.get());
  Rng shuffle(3);
  for (size_t v = 0; v < batched_pdb.world().size(); ++v) {
    batched_pdb.world().Set(static_cast<factor::VarId>(v),
                            static_cast<uint32_t>(shuffle.UniformInt(kNumLabels)));
  }
  batched_pdb.binding().StoreWorld(batched_pdb.world(), &batched_pdb.db());
  auto per_step_pdb = batched_pdb.Clone();
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 20000, .burn_in = 0, .seed = 2026};
  const size_t kSamples = 4;
  const NerProposalOptions batch{.proposals_per_batch = 300};
  const std::vector<const char*> queries = {kQuery1, kQuery2, kQuery3,
                                            kQuery4};

  DocumentBatchProposal batched_proposal(&fixture.tokens.docs, batch);
  pdb::SharedChainEvaluator batched(&batched_pdb, &batched_proposal, options);
  size_t largest_flush = 0;
  batched.sampler().AddListener([&](const Stream& applied) {
    largest_flush = std::max(largest_flush, applied.size());
  });
  std::vector<ra::PlanPtr> plans;
  for (const char* query : queries) {
    plans.push_back(sql::PlanQuery(query, batched_pdb.db()));
    batched.AddQuery(plans.back().get());
  }
  batched.Run(kSamples);
  EXPECT_GE(largest_flush, infer::MetropolisHastings::kMirrorBatchLimit);

  DocumentBatchProposal per_step_proposal(&fixture.tokens.docs, batch);
  auto sampler = per_step_pdb->MakeSampler(&per_step_proposal, options.seed);
  std::vector<std::unique_ptr<view::MaterializedView>> views;
  for (const char* query : queries) {
    plans.push_back(sql::PlanQuery(query, per_step_pdb->db()));
    views.push_back(std::make_unique<view::MaterializedView>(*plans.back()));
    views.back()->Initialize(per_step_pdb->db());
  }
  std::vector<pdb::QueryAnswer> per_step(queries.size());
  view::DeltaSet deltas;
  for (size_t sample = 0; sample < kSamples; ++sample) {
    for (uint64_t i = 0; i < options.steps_per_sample; ++i) sampler->Step();
    per_step_pdb->TakeDeltas(&deltas);
    for (size_t q = 0; q < queries.size(); ++q) {
      views[q]->Apply(deltas);
      std::vector<Tuple> distinct;
      views[q]->contents().ForEach(
          [&](const Tuple& t, int64_t) { distinct.push_back(t); });
      per_step[q].ObserveSampleContaining(distinct);
    }
  }

  for (size_t q = 0; q < queries.size(); ++q) {
    const pdb::QueryAnswer& a = batched.answer(q);
    const pdb::QueryAnswer& b = per_step[q];
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
