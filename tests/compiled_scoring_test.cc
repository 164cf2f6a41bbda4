// The compiled scoring layer's contract (factor/compiled_weights.h): dense
// tables return bit-for-bit the doubles the uncompiled Parameters::Get
// reference (oracles/reference_skip_chain_model.h) computes, tables refresh
// lazily when the parameter version moves, and the scratch-reuse protocol
// changes no results. Also the step kernel's parity references:
// ReferenceStep for Step(n) (the §5.1 kernel and Gibbs alike),
// GenericRelabel for the fused relabel loop, and per-step mirroring
// (oracles/mirrored_sampler.h) for the shared chain on Queries 1–4.
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
#include "ie/shard_plan.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/metropolis_hastings.h"
#include "infer/shard_runner.h"
#include "learn/objective.h"
#include "learn/samplerank.h"
#include "oracles/mirrored_sampler.h"
#include "oracles/reference_skip_chain_model.h"
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
  // Scores `compiled`'s structure under its live parameters.
  std::unique_ptr<testing::ReferenceSkipChainModel> naive;
  factor::World world;

  explicit CompiledVsNaive(size_t num_tokens, uint64_t seed) {
    const SyntheticCorpus corpus = GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 60, .seed = seed});
    tokens = BuildTokenPdb(corpus);
    compiled = std::make_unique<SkipChainNerModel>(tokens);
    compiled->InitializeFromCorpusStatistics(tokens);
    naive = std::make_unique<testing::ReferenceSkipChainModel>(*compiled);
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

// Forwards to a §5.1 relabel proposal without declaring the kernel
// (AsUniformRelabel stays null), so MetropolisHastings runs it through the
// generic loop: Propose draws the site and the value, and every proposal is
// scored, proposals of the current value included. The reference the fused
// relabel loop must replay.
class GenericRelabel final : public infer::Proposal {
 public:
  explicit GenericRelabel(std::unique_ptr<infer::Proposal> relabel)
      : relabel_(std::move(relabel)) {}

  using Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override {
    relabel_->Propose(world, rng, change, log_ratio);
  }

  const infer::UniformRelabelProposal& relabel() const {
    return *relabel_->AsUniformRelabel();
  }

 private:
  std::unique_ptr<infer::Proposal> relabel_;
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

  // A direct perceptron-style update through the Parameters API (the
  // reference reads the same store).
  const uint64_t before = fixture.compiled->parameters().version();
  fixture.compiled->parameters().Update(
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
// (training goes through UpdateSparse), then check parity against the
// reference, which reads the trained weights.
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

// Single-site Gibbs through Step(n)'s generic loop: GibbsProposal fills its
// conditional row one LogScoreDelta per candidate, and Step(20000) must
// replay ReferenceStep exactly — same accepted count, applied stream and
// final world, bitwise — on a shuffled world with the label shadow and on
// a copy without it, crossing the mid-batch flush. The uncompiled reference
// model scores every candidate to the same bits as the compiled one, so a
// Gibbs chain over it walks the same trajectory.
TEST(CompiledScoringTest, RowGibbsMatchesReferenceBitwise) {
  CompiledVsNaive fixture(8000, 47);
  fixture.world = fixture.tokens.pdb->world();  // Carries the label shadow.
  ASSERT_TRUE(fixture.world.has_label_shadow());
  Rng shuffle(12);
  fixture.ShuffleWorld(shuffle);
  const size_t kSteps = 20000;
  const uint64_t kSeed = 777;
  const SkipChainNerModel& model = *fixture.compiled;
  const testing::ReferenceSkipChainModel& naive = *fixture.naive;

  factor::World plain = fixture.world;
  plain.DisableLabelShadow();
  for (const factor::World* start : {&fixture.world, &plain}) {
    RecordingChain<infer::GibbsProposal> chain(model, *start, kSeed, model);
    RecordingChain<infer::GibbsProposal> naive_chain(naive, *start, kSeed,
                                                     naive);
    // Walked by ReferenceStep; its sampler stays idle.
    RecordingChain<infer::GibbsProposal> reference(model, *start, kSeed,
                                                   model);
    Rng reference_rng(kSeed);

    const size_t accepted = chain.sampler.Step(kSteps);
    size_t accepted_reference = 0;
    for (size_t i = 0; i < kSteps; ++i) {
      if (ReferenceStep(model, &reference.world, &reference.proposal,
                        &reference_rng, &reference.stream)) {
        ++accepted_reference;
      }
    }

    EXPECT_EQ(accepted, accepted_reference);
    EXPECT_EQ(naive_chain.sampler.Step(kSteps), accepted);
    EXPECT_GT(chain.stream.size(),
              infer::MetropolisHastings::kMirrorBatchLimit);
    ExpectSameWalk(chain.world, chain.stream, reference.world,
                   reference.stream);
    ExpectSameWalk(chain.world, chain.stream, naive_chain.world,
                   naive_chain.stream);
    EXPECT_EQ(chain.world.has_label_shadow(), start->has_label_shadow());
    EXPECT_TRUE(chain.world.LabelShadowConsistent());
    EXPECT_TRUE(reference.world.LabelShadowConsistent());
  }
}

// The generic loop's seed-schedule contract under single-site Gibbs:
// Step(n) must land where n calls of Step() land — same accepted count,
// counters, applied stream and final world — across the mid-batch flush,
// and both accept every step (acceptance is exactly 1 for Gibbs).
TEST(CompiledScoringTest, GibbsBatchedStepMatchesSingleStepsBitwise) {
  CompiledVsNaive fixture(6000, 61);
  fixture.world = fixture.tokens.pdb->world();  // Carries the label shadow.
  ASSERT_TRUE(fixture.world.has_label_shadow());
  Rng shuffle(19);
  fixture.ShuffleWorld(shuffle);
  const size_t kSteps = 12000;
  const uint64_t kSeed = 4242;
  const SkipChainNerModel& model = *fixture.compiled;

  using Chain = RecordingChain<infer::GibbsProposal>;
  Chain batched(model, fixture.world, kSeed, model);
  Chain single(model, fixture.world, kSeed, model);
  const size_t accepted_batched = batched.sampler.Step(kSteps);
  size_t accepted_single = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    if (single.sampler.Step()) ++accepted_single;
  }

  EXPECT_EQ(accepted_batched, kSteps);
  EXPECT_EQ(accepted_single, kSteps);
  EXPECT_EQ(batched.sampler.num_proposed(), single.sampler.num_proposed());
  EXPECT_EQ(batched.sampler.num_accepted(), single.sampler.num_accepted());
  EXPECT_GT(batched.stream.size(),
            infer::MetropolisHastings::kMirrorBatchLimit);
  ExpectSameWalk(batched.world, batched.stream, single.world, single.stream);
  EXPECT_TRUE(batched.world.LabelShadowConsistent());
}

// Gibbs over the entity-resolution model, where a mention's candidates are
// every cluster id: Step(n) through the generic loop must replay n
// ReferenceSteps and n calls of Step() bitwise, accept every step, and
// cross the mid-batch flush.
TEST(CompiledScoringTest, EntityResolutionGibbsMatchesReferenceBitwise) {
  const std::vector<std::string> mentions = {
      "John Smith", "J. Smith",  "Smith",     "Acme Corp", "ACME",
      "Acme Inc",   "Boston",    "Boston MA", "J Smith",   "Acme"};
  EntityResolutionModel model(mentions);
  factor::World start(mentions.size());
  Rng shuffle(31);
  for (size_t v = 0; v < start.size(); ++v) {
    start.Set(static_cast<factor::VarId>(v),
              static_cast<uint32_t>(shuffle.UniformInt(mentions.size())));
  }
  const size_t kSteps = 10000;
  const uint64_t kSeed = 99;

  using Chain = RecordingChain<infer::GibbsProposal>;
  Chain batched(model, start, kSeed, model);
  Chain single(model, start, kSeed, model);
  // Walked by ReferenceStep; its sampler stays idle.
  Chain reference(model, start, kSeed, model);
  Rng reference_rng(kSeed);

  const size_t accepted_batched = batched.sampler.Step(kSteps);
  size_t accepted_single = 0;
  size_t accepted_reference = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    if (single.sampler.Step()) ++accepted_single;
    if (ReferenceStep(model, &reference.world, &reference.proposal,
                      &reference_rng, &reference.stream)) {
      ++accepted_reference;
    }
  }

  EXPECT_EQ(accepted_batched, kSteps);
  EXPECT_EQ(accepted_single, kSteps);
  EXPECT_EQ(accepted_reference, kSteps);
  EXPECT_GT(batched.stream.size(),
            infer::MetropolisHastings::kMirrorBatchLimit);
  ExpectSameWalk(batched.world, batched.stream, single.world, single.stream);
  ExpectSameWalk(batched.world, batched.stream, reference.world,
                 reference.stream);
}

// Why Gibbs needs no loop of its own: the proposal ratio GibbsProposal
// reports cancels the model ratio the generic loop rescores for the drawn
// candidate, so log α is 0 up to rounding; a draw of the current value is
// an empty change with a ratio of exactly 0. Checked at ≥1k random sites
// on the compiled skip-chain model, its uncompiled reference, and the
// entity-resolution model.
TEST(CompiledScoringTest, GibbsProposalRatioCancelsModelRatio) {
  size_t moves = 0;
  size_t stays = 0;
  auto check_site = [&](const factor::Model& model, const factor::World& world,
                        infer::GibbsProposal* proposal, Rng* rng) {
    double log_ratio = 1.0;
    const factor::Change change = proposal->Propose(world, *rng, &log_ratio);
    if (change.empty()) {
      ASSERT_EQ(log_ratio, 0.0);
      ++stays;
      return;
    }
    ASSERT_EQ(change.assignments.size(), 1u);
    const factor::Assignment& move = change.assignments[0];
    ASSERT_NE(move.value, world.Get(move.var));
    ASSERT_NEAR(model.LogScoreDelta(world, change) + log_ratio, 0.0, 1e-9);
    ++moves;
  };

  CompiledVsNaive fixture(1200, 83);
  Rng rng(909);
  infer::GibbsProposal compiled_gibbs(*fixture.compiled);
  infer::GibbsProposal naive_gibbs(*fixture.naive);
  for (int round = 0; round < 2; ++round) {
    fixture.ShuffleWorld(rng);
    for (int site = 0; site < 500; ++site) {
      check_site(*fixture.compiled, fixture.world, &compiled_gibbs, &rng);
      check_site(*fixture.naive, fixture.world, &naive_gibbs, &rng);
    }
  }

  const std::vector<std::string> mentions = {
      "John Smith", "J. Smith",  "Smith",     "Acme Corp", "ACME",
      "Acme Inc",   "Boston",    "Boston MA", "J Smith",   "Acme"};
  EntityResolutionModel er_model(mentions);
  infer::GibbsProposal er_gibbs(er_model);
  factor::World er_world(mentions.size());
  for (int round = 0; round < 100; ++round) {
    for (size_t v = 0; v < er_world.size(); ++v) {
      er_world.Set(static_cast<factor::VarId>(v),
                   static_cast<uint32_t>(rng.UniformInt(mentions.size())));
    }
    for (int site = 0; site < 10; ++site) {
      check_site(er_model, er_world, &er_gibbs, &rng);
    }
  }
  EXPECT_GE(moves + stays, 3000u);
  EXPECT_GT(moves, 1000u);
  EXPECT_GT(stays, 0u);
}

// The relabel loop: with the §5.1 kernel declared (DocumentBatchProposal),
// Step(n) draws site and value inline, accepts proposals of the current
// value unscored and decides rejections through the exp-free bound. It must
// replay the generic loop (GenericRelabel) exactly: same accepted counts,
// counters, applied stream, final world, batch state and next RNG draw.
// Call sizes split batches of 250 mid-call and cross the mirror flush; the
// world is shuffled so early steps accept often and later ones mostly
// reject. Then the same through a 4-shard ShardRunner.
TEST(CompiledScoringTest, RelabelLoopMatchesGenericLoopBitwise) {
  CompiledVsNaive fixture(8000, 89);
  fixture.world = fixture.tokens.pdb->world();  // Carries the label shadow.
  ASSERT_TRUE(fixture.world.has_label_shadow());
  Rng shuffle(19);
  fixture.ShuffleWorld(shuffle);
  const SkipChainNerModel& model = *fixture.compiled;
  const NerProposalOptions batch{.proposals_per_batch = 250};
  const auto& docs = fixture.tokens.docs;
  const std::vector<size_t> kCalls = {7, 1, 4099, 20000, 1, 7};
  const uint64_t kSeed = 4242;

  factor::World plain = fixture.world;
  plain.DisableLabelShadow();
  for (const factor::World* start : {&fixture.world, &plain}) {
    RecordingChain<DocumentBatchProposal> fused(model, *start, kSeed, &docs,
                                                batch);
    RecordingChain<GenericRelabel> generic(
        model, *start, kSeed,
        std::make_unique<DocumentBatchProposal>(&docs, batch));
    ASSERT_NE(fused.proposal.AsUniformRelabel(), nullptr);
    ASSERT_EQ(generic.proposal.AsUniformRelabel(), nullptr);
    for (const size_t n : kCalls) {
      ASSERT_EQ(fused.sampler.Step(n), generic.sampler.Step(n))
          << "Step(" << n << ")";
      ASSERT_EQ(fused.sampler.num_proposed(), generic.sampler.num_proposed());
      ASSERT_EQ(fused.sampler.num_accepted(), generic.sampler.num_accepted());
      ASSERT_EQ(fused.proposal.proposals_left(),
                generic.proposal.relabel().proposals_left());
      ASSERT_EQ(fused.proposal.sites(), generic.proposal.relabel().sites());
    }
    EXPECT_GT(fused.stream.size(),
              infer::MetropolisHastings::kMirrorBatchLimit);
    EXPECT_LT(fused.sampler.acceptance_rate(), 0.5);
    ExpectSameWalk(fused.world, fused.stream, generic.world, generic.stream);
    EXPECT_EQ(fused.sampler.rng().Next(), generic.sampler.rng().Next());
    EXPECT_TRUE(fused.world.LabelShadowConsistent());
  }

  // Four shard chains over document blocks: each shard's chain takes the
  // relabel loop on one side and the generic loop on the other.
  const pdb::ShardPlan plan = BuildDocumentShardPlan(
      fixture.tokens, model, {.num_shards = 4, .proposal = batch});
  ASSERT_EQ(plan.num_shards, 4u);
  std::vector<std::unique_ptr<infer::Proposal>> fused_proposals;
  std::vector<std::unique_ptr<infer::Proposal>> generic_proposals;
  for (size_t s = 0; s < plan.num_shards; ++s) {
    fused_proposals.push_back(plan.make_proposal(*fixture.tokens.pdb, s));
    generic_proposals.push_back(std::make_unique<GenericRelabel>(
        plan.make_proposal(*fixture.tokens.pdb, s)));
  }
  factor::World fused_world = fixture.world;
  factor::World generic_world = fixture.world;
  infer::ShardRunner fused(model, &fused_world, std::move(fused_proposals),
                           plan.partition, {.seed = kSeed});
  infer::ShardRunner generic(model, &generic_world,
                             std::move(generic_proposals), plan.partition,
                             {.seed = kSeed});
  Stream fused_stream;
  Stream generic_stream;
  for (const size_t n : kCalls) {
    ASSERT_EQ(fused.Step(n,
                         [&](const Stream& s) {
                           fused_stream.insert(fused_stream.end(), s.begin(),
                                               s.end());
                         }),
              generic.Step(n, [&](const Stream& s) {
                generic_stream.insert(generic_stream.end(), s.begin(),
                                      s.end());
              }))
        << "Step(" << n << ")";
    ASSERT_EQ(fused.num_proposed(), generic.num_proposed());
    ASSERT_EQ(fused.num_accepted(), generic.num_accepted());
  }
  ExpectSameWalk(fused_world, fused_stream, generic_world, generic_stream);
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
// which mirrors once per interval, must answer bitwise like a hand-rolled
// loop on a bare sampler that crosses into the DB mirror after every step —
// k × Step(), then TakeDeltas and MaterializedView::Apply per query. The
// chain starts from a shuffled world without burn-in, so its first
// intervals accept more than kMirrorBatchLimit assignments and Step(k)
// flushes mid-interval.
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
  auto per_step_pdb = batched_pdb.Snapshot();
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 20000, .burn_in = 0, .seed = 2026};
  const size_t kSamples = 4;
  const NerProposalOptions batch{.proposals_per_batch = 300};
  const std::vector<const char*> queries = {kQuery1, kQuery2, kQuery3,
                                            kQuery4};

  pdb::SharedChainEvaluator batched(
      &batched_pdb,
      pdb::SerialPlan([&fixture, &batch](pdb::ProbabilisticDatabase&)
                          -> std::unique_ptr<infer::Proposal> {
        return std::make_unique<DocumentBatchProposal>(&fixture.tokens.docs,
                                                       batch);
      }),
      options);
  std::vector<ra::PlanPtr> plans;
  for (const char* query : queries) {
    plans.push_back(sql::PlanQuery(query, batched_pdb.db()));
    batched.AddQuery(plans.back().get());
  }
  batched.RunQuantum(kSamples);

  DocumentBatchProposal per_step_proposal(&fixture.tokens.docs, batch);
  auto sampler = testing::MakeMirroredSampler(
      per_step_pdb.get(), &per_step_proposal, options.seed);
  // Assignments applied per interval. The two trajectories are asserted
  // equal below, so the largest count is also the shared chain's.
  size_t interval_applied = 0;
  size_t largest_interval = 0;
  sampler->AddListener(
      [&](const Stream& applied) { interval_applied += applied.size(); });
  std::vector<std::unique_ptr<view::MaterializedView>> views;
  for (const char* query : queries) {
    plans.push_back(sql::PlanQuery(query, per_step_pdb->db()));
    views.push_back(std::make_unique<view::MaterializedView>(*plans.back()));
    views.back()->Initialize(per_step_pdb->db());
  }
  std::vector<pdb::QueryAnswer> per_step(queries.size());
  view::DeltaSet deltas;
  for (size_t sample = 0; sample < kSamples; ++sample) {
    interval_applied = 0;
    for (uint64_t i = 0; i < options.steps_per_sample; ++i) sampler->Step();
    largest_interval = std::max(largest_interval, interval_applied);
    per_step_pdb->TakeDeltas(&deltas);
    for (size_t q = 0; q < queries.size(); ++q) {
      views[q]->Apply(deltas);
      std::vector<Tuple> distinct;
      views[q]->contents().ForEach(
          [&](const Tuple& t, int64_t) { distinct.push_back(t); });
      per_step[q].ObserveSampleContaining(distinct);
    }
  }
  EXPECT_GE(largest_interval, infer::MetropolisHastings::kMirrorBatchLimit);

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
