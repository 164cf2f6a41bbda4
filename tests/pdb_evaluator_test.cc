// Algorithm 1 vs Algorithm 3: with the same chain (same seed/proposal),
// the materialized evaluator must produce byte-identical marginals to the
// naive evaluator — the paper's Fig. 4 premise ("the two approaches
// generate the same set of samples"). The Query 1–4 harness runs through
// api::Session, expressing the comparison as an execution-policy swap
// (serial = Alg. 1 views, naive = Alg. 3) on the unified front door.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

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

  pdb::ProposalFactory MakeFactory(size_t proposals_per_batch = 400) {
    return [this, proposals_per_batch](pdb::ProbabilisticDatabase&)
               -> std::unique_ptr<infer::Proposal> {
      return std::make_unique<ie::DocumentBatchProposal>(
          &tokens.docs,
          ie::NerProposalOptions{.proposals_per_batch = proposals_per_batch});
    };
  }

  /// A serial chain over the default §5.1 kernel configuration.
  pdb::ShardPlan DefaultBatchPlan() {
    return pdb::SerialPlan(
        MakeFactory(ie::NerProposalOptions{}.proposals_per_batch));
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

// Drives a sojourn-fold answer (Enter/Leave at membership changes, then
// ObserveSample) and a full-fold twin (ObserveSampleContaining the whole
// answer set) through the same sequence of worlds.
struct FoldTwins {
  pdb::QueryAnswer sojourn;
  pdb::QueryAnswer full;
  std::set<Tuple> current;

  void MoveTo(const std::set<Tuple>& next) {
    for (const Tuple& t : current) {
      if (next.count(t) == 0) sojourn.Leave(t);
    }
    for (const Tuple& t : next) {
      if (current.count(t) == 0) sojourn.Enter(t);
    }
    current = next;
  }

  void Observe() {
    sojourn.ObserveSample();
    full.ObserveSampleContaining({current.begin(), current.end()});
  }
};

std::map<Tuple, uint64_t> Counts(const pdb::QueryAnswer& answer) {
  std::map<Tuple, uint64_t> counts;
  answer.ForEachCount([&](const Tuple& t, uint64_t count) {
    EXPECT_TRUE(counts.emplace(t, count).second) << t.ToString();
  });
  return counts;
}

// Every read of `got` equals the same read of `want`, bitwise.
void ExpectSameReads(const pdb::QueryAnswer& got,
                     const pdb::QueryAnswer& want,
                     const std::vector<Tuple>& probes) {
  EXPECT_EQ(got.num_samples(), want.num_samples());
  EXPECT_EQ(got.Sorted(), want.Sorted());
  EXPECT_EQ(got.TopK(2), want.TopK(2));
  EXPECT_EQ(Counts(got), Counts(want));
  for (const Tuple& t : probes) {
    EXPECT_EQ(got.Probability(t), want.Probability(t)) << t.ToString();
  }
  EXPECT_EQ(got.SquaredError(want), 0.0);
  EXPECT_EQ(want.SquaredError(got), 0.0);
}

std::vector<Tuple> SmallUniverse() {
  std::vector<Tuple> universe;
  for (int64_t i = 0; i < 6; ++i) universe.push_back(Tuple{Value::Int(i)});
  return universe;
}

// Random walk over subsets of `universe`: each step flips one tuple's
// membership, and 0-2 steps separate consecutive samples, so some tuples
// enter and leave again between two observations.
void Walk(FoldTwins* twins, const std::vector<Tuple>& universe,
          size_t samples, uint32_t seed) {
  std::mt19937 rng(seed);
  for (size_t i = 0; i < samples; ++i) {
    const int moves = static_cast<int>(rng() % 3);
    for (int m = 0; m < moves; ++m) {
      std::set<Tuple> next = twins->current;
      const Tuple& t = universe[rng() % universe.size()];
      if (next.erase(t) == 0) next.insert(t);
      twins->MoveTo(next);
    }
    twins->Observe();
  }
}

TEST(QueryAnswerTest, SojournFoldMatchesFullFold) {
  const std::vector<Tuple> universe = SmallUniverse();
  FoldTwins twins;
  twins.MoveTo({universe[0], universe[1], universe[2]});
  for (uint32_t seed : {1u, 2u, 3u}) {
    Walk(&twins, universe, 50, seed);
    ExpectSameReads(twins.sojourn, twins.full, universe);
  }
  // An answer that never changed membership still reads its whole run.
  FoldTwins steady;
  steady.MoveTo({universe[4]});
  for (int i = 0; i < 7; ++i) steady.Observe();
  ExpectSameReads(steady.sojourn, steady.full, universe);
  EXPECT_DOUBLE_EQ(steady.sojourn.Probability(universe[4]), 1.0);
}

TEST(QueryAnswerTest, EnteredButUnobservedTupleIsInvisible) {
  const Tuple a{Value::String("a")};
  const Tuple b{Value::String("b")};
  pdb::QueryAnswer answer;
  answer.Enter(a);
  EXPECT_TRUE(answer.Sorted().empty());
  EXPECT_TRUE(answer.TopK(5).empty());
  EXPECT_TRUE(Counts(answer).empty());
  EXPECT_EQ(answer.Probability(a), 0.0);
  EXPECT_EQ(answer.SquaredError(pdb::QueryAnswer{}), 0.0);

  answer.ObserveSample();
  // A run that opens and closes between two samples counts nothing.
  answer.Enter(b);
  answer.Leave(b);
  answer.ObserveSample();
  EXPECT_EQ(answer.Sorted(),
            (std::vector<std::pair<Tuple, double>>{{a, 1.0}}));
  EXPECT_EQ(answer.Probability(b), 0.0);
  EXPECT_EQ(Counts(answer), (std::map<Tuple, uint64_t>{{a, 2}}));
}

TEST(QueryAnswerTest, MergeWithOpenRunsMatchesFullFoldMerge) {
  const std::vector<Tuple> universe = SmallUniverse();
  FoldTwins a, b;
  a.MoveTo({universe[0], universe[1]});
  b.MoveTo({universe[1], universe[5]});
  Walk(&a, universe, 30, 7);
  Walk(&b, universe, 20, 8);
  ASSERT_FALSE(a.current.empty());
  ASSERT_FALSE(b.current.empty());

  // Open runs on both sides, merged into either side or into an empty
  // answer (how parallel chains fold into one estimate).
  pdb::QueryAnswer into_empty, into_empty_full;
  into_empty.Merge(a.sojourn);
  into_empty.Merge(b.sojourn);
  into_empty_full.Merge(a.full);
  into_empty_full.Merge(b.full);
  ExpectSameReads(into_empty, into_empty_full, universe);

  pdb::QueryAnswer b_into_a = a.sojourn;
  b_into_a.Merge(b.sojourn);
  pdb::QueryAnswer b_into_a_full = a.full;
  b_into_a_full.Merge(b.full);
  ExpectSameReads(b_into_a, b_into_a_full, universe);

  // After the merge a's open runs go on counting a's own samples only.
  a.sojourn.Merge(b.sojourn);
  a.full.Merge(b.full);
  Walk(&a, universe, 10, 9);
  ExpectSameReads(a.sojourn, a.full, universe);
}

TEST(QueryAnswerTest, SojournMisuseIsFatal) {
  const Tuple t{Value::Int(3)};
  pdb::QueryAnswer entered;
  entered.Enter(t);
  EXPECT_DEATH(entered.Enter(t), "already in the answer");
  pdb::QueryAnswer never_entered;
  EXPECT_DEATH(never_entered.Leave(t), "not in the answer");
  pdb::QueryAnswer left;
  left.Enter(t);
  left.ObserveSample();
  left.Leave(t);
  EXPECT_DEATH(left.Leave(t), "not in the answer");
}

TEST(EvaluatorTest, AnswersConvergeWithMoreSamples) {
  // The any-time property (paper §5.3): loss decreases with samples. We
  // check that a long run's marginal for a deterministic-ish tuple is more
  // extreme than a 1-sample estimate's coarse {0,1} support would suggest.
  NerFixture fixture(400);
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  pdb::SharedChainEvaluator evaluator(
      fixture.tokens.pdb.get(), pdb::SerialPlan(fixture.MakeFactory()),
      {.steps_per_sample = 200, .burn_in = 4000, .seed = 3});
  evaluator.AddQuery(plan.get());
  evaluator.RunQuantum(300);
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
  auto world_a = fixture.tokens.pdb->Snapshot();
  auto world_b = fixture.tokens.pdb->Snapshot();
  ra::PlanPtr plan_a = sql::PlanQuery(ie::kQuery1, world_a->db());
  ra::PlanPtr plan_b = sql::PlanQuery(ie::kQuery1, world_b->db());
  pdb::SharedChainEvaluator naive(world_a.get(), fixture.DefaultBatchPlan(),
                                  {.steps_per_sample = 100, .seed = 5},
                                  /*materialized=*/false);
  pdb::SharedChainEvaluator mat(world_b.get(), fixture.DefaultBatchPlan(),
                                {.steps_per_sample = 100, .seed = 5});
  naive.AddQuery(plan_a.get());
  mat.AddQuery(plan_b.get());
  naive.RunQuantum(5);
  mat.RunQuantum(5);
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
  pdb::SharedChainEvaluator evaluator(
      fixture.tokens.pdb.get(), fixture.DefaultBatchPlan(),
      {.steps_per_sample = 500, .burn_in = 300});
  evaluator.AddQuery(plan.get());
  evaluator.RunQuantum(10);
  EXPECT_EQ(evaluator.steps_per_sample(), 500u);
  EXPECT_EQ(evaluator.num_proposed(), 300u + 10u * 500u);
  EXPECT_EQ(evaluator.RunQuantum(7), 7u);
  EXPECT_EQ(evaluator.steps_per_sample(), 500u);
  EXPECT_EQ(evaluator.num_proposed(), 300u + 17u * 500u);
  EXPECT_EQ(evaluator.answer(0).num_samples(), 17u);
}

TEST(EvaluatorTest, QuantaReplayOneRunBitwise) {
  // Quanta compose: 5 + 4 + 3 samples at one seed walk the same chain as
  // one RunQuantum(12), so Queries 1-4 sharing that chain end on
  // bitwise-identical marginals. The serve scheduler relies on this
  // to slice a tenant's budget without perturbing its trajectory.
  NerFixture fixture(400);
  auto world_a = fixture.tokens.pdb->Snapshot();
  auto world_b = fixture.tokens.pdb->Snapshot();
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 150, .burn_in = 400, .seed = 9};
  pdb::SharedChainEvaluator whole(world_a.get(), fixture.DefaultBatchPlan(),
                                  options);
  pdb::SharedChainEvaluator sliced(world_b.get(), fixture.DefaultBatchPlan(),
                                   options);
  std::vector<ra::PlanPtr> plans;
  for (const char* query :
       {ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4}) {
    plans.push_back(sql::PlanQuery(query, world_a->db()));
    whole.AddQuery(plans.back().get());
    plans.push_back(sql::PlanQuery(query, world_b->db()));
    sliced.AddQuery(plans.back().get());
  }
  whole.RunQuantum(12);
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

TEST(EvaluatorTest, MidRunRegistrationFoldsPendingDeltas) {
  // Steps taken outside a sample leave deltas in the accumulator. Adding a
  // query drains them into the existing views first, and the tuples that
  // drain moves in or out of Query 1's answer must open or close their
  // runs there. Alg. 3 re-runs every query per sample, so its twin driven
  // by the same calls is the reference.
  NerFixture fixture(400);
  auto world_a = fixture.tokens.pdb->Snapshot();
  auto world_b = fixture.tokens.pdb->Snapshot();
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 200, .burn_in = 400, .seed = 17};
  pdb::SharedChainEvaluator mat(world_a.get(), fixture.DefaultBatchPlan(),
                                options);
  pdb::SharedChainEvaluator naive(world_b.get(), fixture.DefaultBatchPlan(),
                                  options, /*materialized=*/false);
  std::vector<ra::PlanPtr> plans;
  auto add = [&plans](pdb::SharedChainEvaluator* evaluator,
                      pdb::ProbabilisticDatabase* world, const char* query) {
    plans.push_back(sql::PlanQuery(query, world->db()));
    return evaluator->AddQuery(plans.back().get());
  };
  add(&mat, world_a.get(), ie::kQuery1);
  add(&naive, world_b.get(), ie::kQuery1);
  mat.RunQuantum(10);
  naive.RunQuantum(10);
  mat.Step(3000);
  naive.Step(3000);
  add(&mat, world_a.get(), ie::kQuery3);
  add(&naive, world_b.get(), ie::kQuery3);
  mat.RunQuantum(30);
  naive.RunQuantum(30);

  const uint64_t want_samples[] = {40, 30};
  for (size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(mat.answer(q).num_samples(), want_samples[q]);
    EXPECT_EQ(naive.answer(q).num_samples(), want_samples[q]);
    EXPECT_FALSE(mat.answer(q).Sorted().empty()) << "query slot " << q;
    EXPECT_EQ(mat.answer(q).Sorted(), naive.answer(q).Sorted())
        << "query slot " << q;
    EXPECT_EQ(mat.answer(q).SquaredError(naive.answer(q)), 0.0);
  }
}

}  // namespace
}  // namespace fgpdb
