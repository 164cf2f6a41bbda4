// Algorithm 1 vs Algorithm 3: with the same chain (same seed/proposal),
// the materialized evaluator must produce byte-identical marginals to the
// naive evaluator — the paper's Fig. 4 premise ("the two approaches
// generate the same set of samples"). The Query 1–4 harness runs through
// api::Session, expressing the comparison as an execution-policy swap
// (serial = Alg. 1 views, naive = Alg. 3) on the unified front door.
#include <gtest/gtest.h>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/query_evaluator.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"

namespace fgpdb {
namespace {

struct NerFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  explicit NerFixture(size_t num_tokens, uint64_t seed = 11) {
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
          &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 400});
    };
  }
};

class EvaluatorEquivalenceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(EvaluatorEquivalenceTest, NaiveAndMaterializedAgreeExactly) {
  // Two sessions over the same base world, two policies, same seeds:
  // identical chains, so identical answers are required, not just close.
  NerFixture fixture(600);
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 500, .burn_in = 1000, .seed = 99};

  auto naive_session =
      api::Session::Open({.database = fixture.tokens.pdb.get(),
                          .proposal_factory = fixture.MakeFactory(),
                          .evaluator = options,
                          .policy = api::ExecutionPolicy::Naive()});
  auto serial_session =
      api::Session::Open({.database = fixture.tokens.pdb.get(),
                          .proposal_factory = fixture.MakeFactory(),
                          .evaluator = options,
                          .policy = api::ExecutionPolicy::Serial()});
  api::ResultHandle naive = naive_session->Register(GetParam());
  api::ResultHandle materialized = serial_session->Register(GetParam());
  naive_session->Run(40);
  serial_session->Run(40);

  const auto answer_naive = naive.Snapshot().answer.Sorted();
  const auto answer_materialized = materialized.Snapshot().answer.Sorted();
  ASSERT_EQ(answer_naive.size(), answer_materialized.size())
      << "different answer supports for query: " << GetParam();
  for (size_t i = 0; i < answer_naive.size(); ++i) {
    EXPECT_EQ(answer_naive[i].first, answer_materialized[i].first);
    EXPECT_DOUBLE_EQ(answer_naive[i].second, answer_materialized[i].second)
        << "marginal mismatch on tuple " << answer_naive[i].first.ToString();
  }
  EXPECT_EQ(naive.Snapshot().answer.SquaredError(materialized.Snapshot().answer),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, EvaluatorEquivalenceTest,
                         ::testing::Values(ie::kQuery1, ie::kQuery2,
                                           ie::kQuery3, ie::kQuery4));

TEST(QueryAnswerTest, MarginalsAreSampleAverages) {
  pdb::QueryAnswer answer;
  const Tuple a{Value::String("x")};
  const Tuple b{Value::String("y")};
  answer.ObserveSampleContaining({a, b});
  answer.ObserveSampleContaining({a});
  answer.ObserveSampleContaining({a});
  answer.ObserveSampleContaining({});
  EXPECT_DOUBLE_EQ(answer.Probability(a), 0.75);
  EXPECT_DOUBLE_EQ(answer.Probability(b), 0.25);
  EXPECT_DOUBLE_EQ(answer.Probability(Tuple{Value::String("z")}), 0.0);
  EXPECT_EQ(answer.num_samples(), 4u);
}

TEST(QueryAnswerTest, DeterministicTupleHasProbabilityOne) {
  // Paper §4: a tuple in the answer of every world is deterministic.
  pdb::QueryAnswer answer;
  const Tuple a{Value::Int(1)};
  for (int i = 0; i < 10; ++i) answer.ObserveSampleContaining({a});
  EXPECT_DOUBLE_EQ(answer.Probability(a), 1.0);
}

TEST(QueryAnswerTest, MergeAveragesAcrossChains) {
  pdb::QueryAnswer a, b;
  const Tuple t{Value::Int(7)};
  a.ObserveSampleContaining({t});
  a.ObserveSampleContaining({});
  b.ObserveSampleContaining({t});
  b.ObserveSampleContaining({t});
  a.Merge(b);
  EXPECT_EQ(a.num_samples(), 4u);
  EXPECT_DOUBLE_EQ(a.Probability(t), 0.75);
}

TEST(QueryAnswerTest, SquaredErrorCoversBothSupports) {
  pdb::QueryAnswer a, b;
  const Tuple x{Value::Int(1)};
  const Tuple y{Value::Int(2)};
  a.ObserveSampleContaining({x});        // P_a(x)=1
  b.ObserveSampleContaining({y});        // P_b(y)=1
  // Error = (1-0)^2 for x + (0-1)^2 for y.
  EXPECT_DOUBLE_EQ(a.SquaredError(b), 2.0);
  EXPECT_DOUBLE_EQ(b.SquaredError(a), 2.0);
}

TEST(EvaluatorTest, AnswersConvergeWithMoreSamples) {
  // The any-time property (paper §5.3): loss decreases with samples. We
  // check that a long run's marginal for a deterministic-ish tuple is more
  // extreme than a 1-sample estimate's coarse {0,1} support would suggest.
  NerFixture fixture(400);
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  ie::DocumentBatchProposal proposal(&fixture.tokens.docs,
                                     {.proposals_per_batch = 400});
  pdb::SharedChainEvaluator evaluator(
      fixture.tokens.pdb.get(), &proposal,
      {.steps_per_sample = 200, .burn_in = 4000, .seed = 3});
  evaluator.AddQuery(plan.get());
  evaluator.Run(300);
  // At least one person-name string should be (nearly) always in the answer.
  double best = 0.0;
  for (const auto& [tuple, p] : evaluator.answer(0).Sorted()) {
    (void)tuple;
    best = std::max(best, p);
  }
  EXPECT_GE(best, 0.9);
}

TEST(EvaluatorTest, CurrentAnswerSetMatchesBetweenEvaluators) {
  NerFixture fixture(300);
  auto world_a = fixture.tokens.pdb->Clone();
  auto world_b = fixture.tokens.pdb->Clone();
  ra::PlanPtr plan_a = sql::PlanQuery(ie::kQuery1, world_a->db());
  ra::PlanPtr plan_b = sql::PlanQuery(ie::kQuery1, world_b->db());
  ie::DocumentBatchProposal pa(&fixture.tokens.docs);
  ie::DocumentBatchProposal pb(&fixture.tokens.docs);
  pdb::SharedChainEvaluator naive(world_a.get(), &pa,
                                  {.steps_per_sample = 100, .seed = 5},
                                  /*materialized=*/false);
  pdb::SharedChainEvaluator mat(world_b.get(), &pb,
                                {.steps_per_sample = 100, .seed = 5});
  naive.AddQuery(plan_a.get());
  mat.AddQuery(plan_b.get());
  naive.Run(5);
  mat.Run(5);
  auto sa = naive.CurrentAnswerSet(0);
  auto sb = mat.CurrentAnswerSet(0);
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
}

TEST(EvaluatorTest, ThinningIntervalStaysFixed) {
  // k is EvaluatorOptions::steps_per_sample and nothing steers it: every
  // sample costs exactly k chain steps, however long a step or a view
  // update takes, so a fixed-seed run never depends on timing.
  NerFixture fixture(1000);
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  ie::DocumentBatchProposal proposal(&fixture.tokens.docs);
  pdb::SharedChainEvaluator evaluator(
      fixture.tokens.pdb.get(), &proposal,
      {.steps_per_sample = 500, .burn_in = 300});
  evaluator.AddQuery(plan.get());
  evaluator.Run(10);
  EXPECT_EQ(evaluator.steps_per_sample(), 500u);
  EXPECT_EQ(evaluator.num_proposed(), 300u + 10u * 500u);
  EXPECT_EQ(evaluator.RunQuantum(7), 7u);
  EXPECT_EQ(evaluator.steps_per_sample(), 500u);
  EXPECT_EQ(evaluator.num_proposed(), 300u + 17u * 500u);
  EXPECT_EQ(evaluator.answer(0).num_samples(), 17u);
}

TEST(EvaluatorTest, QuantaReplayOneRunBitwise) {
  // Run(n) is RunQuantum(n), and quanta compose: 5 + 4 + 3 samples at one
  // seed walk the same chain as Run(12), so Queries 1-4 sharing that chain
  // end on bitwise-identical marginals. The serve scheduler relies on this
  // to slice a tenant's budget without perturbing its trajectory.
  NerFixture fixture(400);
  auto world_a = fixture.tokens.pdb->Clone();
  auto world_b = fixture.tokens.pdb->Clone();
  ie::DocumentBatchProposal pa(&fixture.tokens.docs);
  ie::DocumentBatchProposal pb(&fixture.tokens.docs);
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 150, .burn_in = 400, .seed = 9};
  pdb::SharedChainEvaluator whole(world_a.get(), &pa, options);
  pdb::SharedChainEvaluator sliced(world_b.get(), &pb, options);
  std::vector<ra::PlanPtr> plans;
  for (const char* query :
       {ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4}) {
    plans.push_back(sql::PlanQuery(query, world_a->db()));
    whole.AddQuery(plans.back().get());
    plans.push_back(sql::PlanQuery(query, world_b->db()));
    sliced.AddQuery(plans.back().get());
  }
  whole.Run(12);
  for (const uint64_t quantum : {5u, 4u, 3u}) {
    EXPECT_EQ(sliced.RunQuantum(quantum), quantum);
  }
  EXPECT_EQ(sliced.num_proposed(), whole.num_proposed());
  EXPECT_EQ(sliced.num_accepted(), whole.num_accepted());
  for (size_t q = 0; q < whole.num_queries(); ++q) {
    EXPECT_EQ(sliced.answer(q).num_samples(), 12u) << "query " << q + 1;
    EXPECT_EQ(sliced.answer(q).Sorted(), whole.answer(q).Sorted())
        << "query " << q + 1;
  }
}

}  // namespace
}  // namespace fgpdb
