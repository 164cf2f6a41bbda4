// Parallel multi-chain evaluation tests (paper §5.4).
#include <gtest/gtest.h>

#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/parallel_evaluator.h"
#include "sql/binder.h"

namespace fgpdb {
namespace pdb {
namespace {

struct ParallelFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  ParallelFixture() {
    const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = 500, .tokens_per_doc = 60, .seed = 31});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }

  ProposalFactory MakeFactory() {
    return [this](ProbabilisticDatabase&) {
      return std::make_unique<ie::DocumentBatchProposal>(
          &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 300});
    };
  }

  /// Single-plan evaluation through the multi-plan driver.
  QueryAnswer Evaluate(const ra::PlanNode& plan,
                       const ParallelOptions& options) {
    return EvaluateParallelMulti(*tokens.pdb, {&plan},
                                 SerialPlan(MakeFactory()), options)
        .answers[0];
  }
};

TEST(ParallelEvaluatorTest, MergedSampleCountIsSumOfChains) {
  ParallelFixture fixture;
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  ParallelOptions options;
  options.num_chains = 3;
  options.samples_per_chain = 10;
  options.chain_options = {.steps_per_sample = 200, .burn_in = 500, .seed = 1};
  const QueryAnswer answer = fixture.Evaluate(*plan, options);
  EXPECT_EQ(answer.num_samples(), 30u);
}

TEST(ParallelEvaluatorTest, ThreadedAndSequentialAgree) {
  // Chains are seeded deterministically per-index, so running them on
  // threads or sequentially (one thread) must give identical merged answers.
  ParallelFixture fixture;
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  ParallelOptions options;
  options.num_chains = 4;
  options.samples_per_chain = 8;
  options.chain_options = {.steps_per_sample = 150, .burn_in = 300, .seed = 2};
  const QueryAnswer threaded = fixture.Evaluate(*plan, options);
  options.max_threads = 1;
  const QueryAnswer sequential = fixture.Evaluate(*plan, options);
  EXPECT_EQ(threaded.SquaredError(sequential), 0.0);
}

TEST(ParallelEvaluatorTest, ChainsBeyondCoreCountQueueOnThePool) {
  // 16 chains on a hardware-sized pool (often far fewer workers): excess
  // chains queue, every chain still runs exactly once, and the streaming
  // merge must equal the sequential merge bitwise (integer counts).
  ParallelFixture fixture;
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  ParallelOptions options;
  options.num_chains = 16;
  options.samples_per_chain = 4;
  options.chain_options = {.steps_per_sample = 100, .burn_in = 100, .seed = 7};
  const QueryAnswer threaded = fixture.Evaluate(*plan, options);
  EXPECT_EQ(threaded.num_samples(), 64u);
  options.max_threads = 1;
  const QueryAnswer sequential = fixture.Evaluate(*plan, options);
  EXPECT_EQ(threaded.SquaredError(sequential), 0.0);
  EXPECT_EQ(threaded.Sorted(), sequential.Sorted());
}

TEST(ParallelEvaluatorTest, ExplicitThreadCapIsHonoredAndStable) {
  // max_threads = 2 with 6 chains: results must match the unlimited and
  // sequential runs — scheduling must never leak into answers.
  ParallelFixture fixture;
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  ParallelOptions options;
  options.num_chains = 6;
  options.samples_per_chain = 5;
  options.chain_options = {.steps_per_sample = 120, .burn_in = 120, .seed = 11};
  options.max_threads = 2;
  const QueryAnswer capped = fixture.Evaluate(*plan, options);
  options.max_threads = 1;
  const QueryAnswer sequential = fixture.Evaluate(*plan, options);
  EXPECT_EQ(capped.num_samples(), 30u);
  EXPECT_EQ(capped.SquaredError(sequential), 0.0);
}

TEST(ParallelEvaluatorTest, BaseWorldIsUntouchedByChains) {
  // Chains run on copy-on-write snapshots; the base database must come back
  // bit-identical (the §5.4 contract that lets one base serve many chains).
  ParallelFixture fixture;
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());
  const std::vector<Tuple> before =
      fixture.tokens.pdb->db().RequireTable(ie::kTokenTable)->Rows();
  ParallelOptions options;
  options.num_chains = 4;
  options.samples_per_chain = 5;
  options.chain_options = {.steps_per_sample = 100, .burn_in = 100, .seed = 5};
  fixture.Evaluate(*plan, options);
  const std::vector<Tuple> after =
      fixture.tokens.pdb->db().RequireTable(ie::kTokenTable)->Rows();
  EXPECT_EQ(before, after);
}

TEST(ParallelEvaluatorTest, MoreChainsReduceError) {
  // The Fig. 5 effect: with a fixed per-chain budget, more chains give
  // lower squared error against a long-run reference.
  ParallelFixture fixture;
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, fixture.tokens.pdb->db());

  // Reference: one long materialized run.
  ParallelOptions ref_options;
  ref_options.num_chains = 4;
  ref_options.samples_per_chain = 400;
  ref_options.chain_options = {.steps_per_sample = 200, .burn_in = 2000,
                               .seed = 777};
  ref_options.max_threads = 1;
  const QueryAnswer reference = fixture.Evaluate(*plan, ref_options);

  auto error_with_chains = [&](size_t chains, uint64_t seed) {
    ParallelOptions options;
    options.num_chains = chains;
    options.samples_per_chain = 12;
    options.chain_options = {.steps_per_sample = 200, .burn_in = 200,
                             .seed = seed};
    options.max_threads = 1;
    const QueryAnswer answer = fixture.Evaluate(*plan, options);
    return answer.SquaredError(reference);
  };

  // Average over a few seeds to damp noise.
  double err1 = 0.0, err8 = 0.0;
  for (uint64_t s = 0; s < 3; ++s) {
    err1 += error_with_chains(1, 100 + s);
    err8 += error_with_chains(8, 200 + s);
  }
  EXPECT_LT(err8, err1);
}

TEST(ParallelEvaluatorTest, MultiPlanAnswersMatchSinglePlanCalls) {
  // Every chain maintains all the plans' views by delta on its one walk,
  // and the walk never depends on which views ride it: each plan's merged
  // answer must equal a single-plan call with the same options, bitwise.
  ParallelFixture fixture;
  std::vector<ra::PlanPtr> plans;
  std::vector<const ra::PlanNode*> plan_ptrs;
  for (const char* query :
       {ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4}) {
    plans.push_back(sql::PlanQuery(query, fixture.tokens.pdb->db()));
    plan_ptrs.push_back(plans.back().get());
  }
  ParallelOptions options;
  options.num_chains = 3;
  options.samples_per_chain = 8;
  options.chain_options = {.steps_per_sample = 150, .burn_in = 200, .seed = 13};
  const MultiQueryAnswer multi =
      EvaluateParallelMulti(*fixture.tokens.pdb, plan_ptrs,
                            SerialPlan(fixture.MakeFactory()), options);
  ASSERT_EQ(multi.answers.size(), plans.size());
  for (size_t q = 0; q < plans.size(); ++q) {
    const QueryAnswer single = fixture.Evaluate(*plans[q], options);
    EXPECT_EQ(multi.answers[q].num_samples(), 24u) << "plan " << q;
    EXPECT_EQ(multi.answers[q].num_samples(), single.num_samples())
        << "plan " << q;
    EXPECT_EQ(multi.answers[q].Sorted(), single.Sorted()) << "plan " << q;
  }
}

}  // namespace
}  // namespace pdb
}  // namespace fgpdb
