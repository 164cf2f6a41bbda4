// Cross-seed, cross-query equivalence sweep: the repository's strongest
// end-to-end property. For every (corpus seed × paper query), the
// materialized evaluator (Alg. 1) must produce exactly the marginals the
// naive evaluator (Alg. 3) produces on the same chain — across different
// proposal kernels, including the BIO-constrained one.
#include <gtest/gtest.h>

#include "ie/bio_proposal.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"

namespace fgpdb {
namespace {

struct SweepCase {
  const char* query;
  uint64_t corpus_seed;
  bool bio_kernel;
};

class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int, bool>> {};

TEST_P(EquivalenceSweep, NaiveEqualsMaterializedOnIdenticalChains) {
  const auto& [query, seed, bio_kernel] = GetParam();
  ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = 400,
       .tokens_per_doc = 60,
       .seed = static_cast<uint64_t>(seed)});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  ie::SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);
  tokens.pdb->set_model(&model);

  auto world_a = tokens.pdb->Snapshot();
  auto world_b = tokens.pdb->Snapshot();
  ra::PlanPtr plan_a = sql::PlanQuery(query, world_a->db());
  ra::PlanPtr plan_b = sql::PlanQuery(query, world_b->db());

  auto make_proposal =
      [&](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
    if (bio_kernel) {
      return std::make_unique<ie::BioConstrainedProposal>(
          &tokens.docs, /*proposals_per_batch=*/300);
    }
    return std::make_unique<ie::DocumentBatchProposal>(
        &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 300});
  };

  const pdb::EvaluatorOptions options{
      .steps_per_sample = 400,
      .burn_in = 800,
      .seed = 1000 + static_cast<uint64_t>(seed)};
  pdb::SharedChainEvaluator naive(
      world_a.get(), pdb::SerialPlan(make_proposal), options,
      /*materialized=*/false);
  pdb::SharedChainEvaluator materialized(
      world_b.get(), pdb::SerialPlan(make_proposal), options);
  naive.AddQuery(plan_a.get());
  materialized.AddQuery(plan_b.get());
  naive.RunQuantum(25);
  materialized.RunQuantum(25);
  EXPECT_EQ(naive.answer(0).SquaredError(materialized.answer(0)), 0.0)
      << "query " << query << " seed " << seed << " bio=" << bio_kernel;
}

INSTANTIATE_TEST_SUITE_P(
    QueriesTimesSeedsTimesKernels, EquivalenceSweep,
    ::testing::Combine(
        ::testing::Values(ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4,
                          // The extended-SQL shapes through the same path.
                          "SELECT COUNT(DISTINCT LABEL) FROM TOKEN",
                          "SELECT STRING FROM TOKEN WHERE LABEL LIKE 'B-%'",
                          "SELECT DOC_ID FROM TOKEN WHERE LABEL IN "
                          "('B-PER', 'B-ORG') GROUP BY DOC_ID "
                          "HAVING COUNT(*) BETWEEN 2 AND 12"),
        ::testing::Range(1, 4), ::testing::Bool()));

}  // namespace
}  // namespace fgpdb
