// Multi-query shared-chain correctness (the paper's central economy): K
// queries registered on ONE api::Session must answer exactly what K
// standalone single-query runs answer at the same seed — the chain
// trajectory never depends on which views ride it, so the per-query
// marginals are required to be bitwise-identical, not just close.
#include <gtest/gtest.h>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/parallel_evaluator.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"

namespace fgpdb {
namespace {

struct NerFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  explicit NerFixture(size_t num_tokens, uint64_t seed = 21) {
    ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 60, .seed = seed});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }

  pdb::ProposalFactory MakeFactory() {
    return [this](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
      return std::make_unique<ie::DocumentBatchProposal>(
          &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 300});
    };
  }
};

const std::vector<const char*>& PaperQueries() {
  static const std::vector<const char*> kQueries = {
      ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4};
  return kQueries;
}

void ExpectBitwiseEqual(const pdb::QueryAnswer& got,
                        const pdb::QueryAnswer& want, const char* query) {
  EXPECT_EQ(got.num_samples(), want.num_samples()) << query;
  const auto got_sorted = got.Sorted();
  const auto want_sorted = want.Sorted();
  ASSERT_EQ(got_sorted.size(), want_sorted.size()) << query;
  for (size_t i = 0; i < got_sorted.size(); ++i) {
    EXPECT_EQ(got_sorted[i].first, want_sorted[i].first) << query;
    // Bitwise: both sides computed count/num_samples from equal integers.
    EXPECT_EQ(got_sorted[i].second, want_sorted[i].second)
        << query << " tuple " << got_sorted[i].first.ToString();
  }
  EXPECT_EQ(got.SquaredError(want), 0.0) << query;
}

TEST(SessionSharedChainTest, QueryBundleMatchesStandaloneRunsBitwise) {
  NerFixture fixture(500);
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 400, .burn_in = 800, .seed = 2024};

  // One session, Queries 1–4 on one shared chain.
  auto session = api::Session::Open({.database = fixture.tokens.pdb.get(),
                                     .proposal_factory = fixture.MakeFactory(),
                                     .evaluator = options});
  std::vector<api::ResultHandle> handles;
  for (const char* query : PaperQueries()) {
    handles.push_back(session->Register(query));
  }
  session->Run(30);

  // Four standalone single-query chains with the same seed.
  for (size_t q = 0; q < PaperQueries().size(); ++q) {
    const char* query = PaperQueries()[q];
    auto world = fixture.tokens.pdb->Snapshot();
    ra::PlanPtr plan = sql::PlanQuery(query, world->db());
    pdb::SharedChainEvaluator standalone(
        world.get(), pdb::SerialPlan(fixture.MakeFactory()), options);
    standalone.AddQuery(plan.get());
    standalone.RunQuantum(30);
    ExpectBitwiseEqual(handles[q].Snapshot().answer, standalone.answer(0),
                       query);
  }
}

TEST(SessionSharedChainTest, ParallelBundleMatchesPerQueryParallelRuns) {
  NerFixture fixture(400);
  const pdb::EvaluatorOptions chain_options{
      .steps_per_sample = 300, .burn_in = 600, .seed = 77};

  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = chain_options,
       .policy = api::ExecutionPolicy::Parallel(3)});
  std::vector<api::ResultHandle> handles;
  for (const char* query : PaperQueries()) {
    handles.push_back(session->Register(query));
  }
  session->Run(20);

  pdb::ParallelOptions parallel;
  parallel.num_chains = 3;
  parallel.samples_per_chain = 20;
  parallel.chain_options = chain_options;
  for (size_t q = 0; q < PaperQueries().size(); ++q) {
    const char* query = PaperQueries()[q];
    ra::PlanPtr plan = sql::PlanQuery(query, fixture.tokens.pdb->db());
    const pdb::MultiQueryAnswer standalone = pdb::EvaluateParallelMulti(
        *fixture.tokens.pdb, {plan.get()},
        pdb::SerialPlan(fixture.MakeFactory()), parallel);
    ExpectBitwiseEqual(handles[q].Snapshot().answer, standalone.answers[0],
                       query);
  }
}

TEST(SessionSharedChainTest, MidRunRegistrationMatchesLateStartedChain) {
  // A query registered after 10 samples must see exactly the marginals a
  // standalone run started at that point in the chain would see: the
  // standalone twin's burn-in is the session's burn-in plus the 10 already
  // taken intervals.
  NerFixture fixture(400);
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 250, .burn_in = 500, .seed = 9};

  auto session = api::Session::Open({.database = fixture.tokens.pdb.get(),
                                     .proposal_factory = fixture.MakeFactory(),
                                     .evaluator = options});
  session->Register(ie::kQuery1);
  session->Run(10);
  api::ResultHandle late = session->Register(ie::kQuery3);
  session->Run(20);
  EXPECT_EQ(late.Snapshot().samples, 20u);

  auto world = fixture.tokens.pdb->Snapshot();
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery3, world->db());
  pdb::SharedChainEvaluator standalone(
      world.get(), pdb::SerialPlan(fixture.MakeFactory()),
      {.steps_per_sample = 250, .burn_in = 500 + 10 * 250, .seed = 9});
  standalone.AddQuery(plan.get());
  standalone.RunQuantum(20);
  ExpectBitwiseEqual(late.Snapshot().answer, standalone.answer(0),
                     ie::kQuery3);
}

}  // namespace
}  // namespace fgpdb
