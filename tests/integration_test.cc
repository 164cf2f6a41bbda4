// End-to-end integration: the paper's full pipeline — generate corpus,
// train the skip-chain CRF with SampleRank, run MCMC query evaluation with
// view maintenance, and validate the probabilistic answers against the
// ground truth and against exact inference where tractable.
#include <gtest/gtest.h>

#include <cmath>

#include "ie/corpus.h"
#include "ie/metrics.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/metropolis_hastings.h"
#include "learn/samplerank.h"
#include "oracles/forward_backward.h"
#include "oracles/marginal_estimator.h"
#include "oracles/mirrored_sampler.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"

namespace fgpdb {
namespace {

TEST(IntegrationTest, TrainedPipelineAnswersQuery1Accurately) {
  // 1. Corpus + PDB.
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = 3000, .tokens_per_doc = 120, .seed = 55});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);

  // 2. Train with SampleRank (paper §5.2).
  ie::SkipChainNerModel model(tokens);
  learn::LabelAccuracyObjective objective(tokens.truth);
  ie::DocumentBatchProposal train_proposal(&tokens.docs,
                                           {.proposals_per_batch = 800});
  learn::SampleRank trainer(&model, &train_proposal, &objective,
                            {.learning_rate = 1.0, .seed = 21});
  factor::World train_world = tokens.pdb->world();
  trainer.Train(&train_world, 200000);
  tokens.pdb->set_model(&model);

  // 3. Evaluate Query 1 with view maintenance.
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, tokens.pdb->db());
  pdb::SharedChainEvaluator evaluator(
      tokens.pdb.get(),
      pdb::SerialPlan([&tokens](pdb::ProbabilisticDatabase&)
                          -> std::unique_ptr<infer::Proposal> {
        return std::make_unique<ie::DocumentBatchProposal>(
            &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 800});
      }),
      {.steps_per_sample = 1000, .burn_in = 30000, .seed = 23});
  evaluator.AddQuery(plan.get());
  evaluator.RunQuantum(150);

  // 4. Strings that are truly always B-PER should have high marginals;
  //    strings never labeled person should have low marginals.
  std::unordered_map<std::string, std::pair<int, int>> truth_counts;
  for (const auto& record : corpus.tokens) {
    auto& [per, total] = truth_counts[record.text];
    if (record.truth_label == ie::LabelIndex("B-PER")) ++per;
    ++total;
  }
  double always_per_mass = 0.0;
  int always_per_n = 0;
  double never_per_mass = 0.0;
  int never_per_n = 0;
  for (const auto& [tuple, p] : evaluator.answer(0).Sorted()) {
    const std::string& text = tuple.at(0).AsString();
    const auto it = truth_counts.find(text);
    ASSERT_NE(it, truth_counts.end());
    const auto [per, total] = it->second;
    if (per == total) {
      always_per_mass += p;
      ++always_per_n;
    } else if (per == 0) {
      never_per_mass += p;
      ++never_per_n;
    }
  }
  ASSERT_GT(always_per_n, 0);
  const double always_avg = always_per_mass / always_per_n;
  EXPECT_GT(always_avg, 0.75)
      << "unambiguous person strings should have high marginals";
  // Never-person strings do appear in the answer with nonzero probability —
  // exactly like the paper's Figure 8 tail ("God", "Kunming", ...) — because
  // a frequent string has many chances for one of its tokens to be labeled
  // B-PER in some sample. The calibration claim is per-string: their average
  // marginal must sit clearly below the true persons'.
  if (never_per_n > 0) {
    EXPECT_LT(never_per_mass / never_per_n, always_avg - 0.3)
        << "never-person strings should rank clearly below true persons";
  }
}

TEST(IntegrationTest, McmcMatchesForwardBackwardOnLinearChain) {
  // With skip edges disabled the model is a linear chain, so MH marginals
  // must converge to the exact forward-backward marginals — the "sanity
  // anchor" connecting our sampler to exact inference.
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = 60, .tokens_per_doc = 60, .seed = 63});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  ASSERT_EQ(tokens.docs.size(), 1u);
  ie::SkipChainNerModel model(tokens, {.use_skip_edges = false});
  model.InitializeFromCorpusStatistics(tokens, /*skip_weight=*/0.0,
                                       /*emission_scale=*/1.0);
  tokens.pdb->set_model(&model);

  // Exact marginals via forward-backward on equivalent potentials.
  const size_t n = tokens.num_tokens();
  infer::ChainPotentials potentials;
  potentials.node.assign(n, std::vector<double>(ie::kNumLabels));
  potentials.edge.assign(ie::kNumLabels,
                         std::vector<double>(ie::kNumLabels));
  factor::World probe(n);
  // Node potential (emission + bias) of label y at position t is the local
  // delta of a transition-free, skip-free copy of the model.
  ie::SkipChainNerModel node_only(
      tokens, {.use_skip_edges = false, .use_transitions = false});
  node_only.parameters() = model.parameters();
  for (size_t t = 0; t < n; ++t) {
    for (uint32_t y = 0; y < ie::kNumLabels; ++y) {
      factor::Change change;
      change.Set(static_cast<factor::VarId>(t), y);
      potentials.node[t][y] = node_only.LogScoreDelta(probe, change);
    }
  }
  // Transition potentials read from the shared parameter store.
  for (uint32_t a = 0; a < ie::kNumLabels; ++a) {
    for (uint32_t b = 0; b < ie::kNumLabels; ++b) {
      potentials.edge[a][b] = model.parameters().Get(
          factor::MakeFeatureId("transition", a, b));
    }
  }
  const infer::ChainResult exact = infer::ForwardBackward(potentials);

  // MCMC marginals.
  ie::DocumentBatchProposal proposal(&tokens.docs,
                                     {.proposals_per_batch = 100000});
  infer::MetropolisHastings sampler(model, &tokens.pdb->world(), &proposal,
                                    /*seed=*/71);
  infer::MarginalEstimator estimator(tokens.pdb->binding().DomainSizes());
  sampler.Run(50000);
  for (int i = 0; i < 1200000; ++i) {
    sampler.Step();
    if (i % 5 == 0) estimator.Observe(tokens.pdb->world());
  }
  double max_abs_err = 0.0;
  for (size_t t = 0; t < n; ++t) {
    for (uint32_t y = 0; y < ie::kNumLabels; ++y) {
      max_abs_err = std::max(
          max_abs_err, std::abs(estimator.Estimate(static_cast<factor::VarId>(t), y) -
                                exact.marginals[t][y]));
    }
  }
  EXPECT_LT(max_abs_err, 0.05)
      << "MCMC should converge to forward-backward marginals on a chain";
}

TEST(IntegrationTest, DatabaseStaysConsistentWithWorldDuringSampling) {
  // The invariant of §3: the relational DB always stores the single current
  // possible world.
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = 400, .tokens_per_doc = 80, .seed = 81});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  ie::SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);
  tokens.pdb->set_model(&model);
  ie::DocumentBatchProposal proposal(&tokens.docs);
  auto sampler =
      testing::MakeMirroredSampler(tokens.pdb.get(), &proposal, /*seed=*/91);
  sampler->Run(20000);
  const Table* table = tokens.pdb->db().RequireTable(ie::kTokenTable);
  const auto domain = ie::LabelDomain();
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    const Value& stored = table->Get(v).at(ie::kColLabel);
    EXPECT_EQ(domain->RequireIndexOf(stored),
              tokens.pdb->world().Get(static_cast<factor::VarId>(v)))
        << "field " << v << " diverged from the world";
  }
}

TEST(IntegrationTest, AggregateAnswerDistributionIsPeaked) {
  // Fig. 7's qualitative claim: the Query 2 count distribution concentrates
  // around its mode (which is what makes MCMC effective on aggregates).
  // Asserted for each of 8 chain seeds at 1600 samples each. At 400
  // samples, chain seeds 97-136 read as low as 0.47, so one seed at that
  // length tested the seed rather than the sampler; at 1600 all 40 read at
  // least 0.89.
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = 2000, .tokens_per_doc = 100, .seed = 95});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  ie::SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);
  tokens.pdb->set_model(&model);
  for (const uint64_t seed : {97, 98, 99, 100, 101, 102, 103, 104}) {
    SCOPED_TRACE(::testing::Message() << "chain seed " << seed);
    auto pdb = tokens.pdb->Snapshot();
    ra::PlanPtr plan = sql::PlanQuery(ie::kQuery2, pdb->db());
    pdb::SharedChainEvaluator evaluator(
        pdb.get(),
        pdb::SerialPlan([&tokens](pdb::ProbabilisticDatabase&)
                            -> std::unique_ptr<infer::Proposal> {
          return std::make_unique<ie::DocumentBatchProposal>(&tokens.docs);
        }),
        {.steps_per_sample = 500, .burn_in = 40000, .seed = seed});
    evaluator.AddQuery(plan.get());
    evaluator.RunQuantum(1600);
    // Mass within ±10% of the mean count should dominate.
    const auto answer = evaluator.answer(0).Sorted();
    double mean = 0.0;
    for (const auto& [tuple, p] : answer) mean += tuple.at(0).AsNumeric() * p;
    double near_mass = 0.0, total_mass = 0.0;
    for (const auto& [tuple, p] : answer) {
      total_mass += p;
      if (std::abs(tuple.at(0).AsNumeric() - mean) <= 0.1 * mean + 2) {
        near_mass += p;
      }
    }
    EXPECT_GT(near_mass / total_mass, 0.8);
  }
}

}  // namespace
}  // namespace fgpdb
