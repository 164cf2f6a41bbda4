// Figure 8 (Appendix 9.1): example probabilities for join Query 4 — person
// mentions co-occurring in a document with a token "Boston" labeled B-ORG.
// "Boston" is deliberately ambiguous between a location and an organization
// in our corpus generator (mirroring the Red Sox ambiguity the paper
// discusses), so the join's answer tuples carry genuinely intermediate
// probabilities.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "fig8");
  const size_t n = static_cast<size_t>(50000 * BenchScale());
  const uint64_t k = std::max<uint64_t>(100, n / 1000);

  std::cout << "=== Figure 8: Query 4 tuple probabilities ("
            << HumanCount(static_cast<double>(n)) << " tuples, master seed "
            << master << ") ===\n"
            << "query: " << ie::kQuery4 << "\n\n";
  NerBench bench(n, DeriveSeed(master, 0));
  auto world = bench.tokens.pdb->Snapshot();
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery4, world->db());
  pdb::SharedChainEvaluator evaluator(
      world.get(), bench.MakeSerialPlan(),
      {.steps_per_sample = 10 * k,
       .burn_in = DefaultBurnIn(n),
       .seed = DeriveSeed(master, 1)});
  evaluator.AddQuery(plan.get());
  evaluator.RunQuantum(1500);

  auto answer = evaluator.answer(0).Sorted();
  std::sort(answer.begin(), answer.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // Show the full probability spread (the paper's chart mixes confident
  // and long-tail tuples): the 8 highest plus the 8 lowest marginals.
  TablePrinter table({"person mention", "Pr[t in answer]", "bar"});
  std::vector<size_t> shown;
  for (size_t i = 0; i < answer.size() && i < 8; ++i) shown.push_back(i);
  const size_t tail_start = answer.size() > 16 ? answer.size() - 8 : 8;
  for (size_t i = tail_start; i < answer.size(); ++i) shown.push_back(i);
  for (size_t i : shown) {
    const size_t bar_len = static_cast<size_t>(40.0 * answer[i].second);
    table.AddRow({answer[i].first.at(0).AsString(),
                  FormatDouble(answer[i].second, 4),
                  std::string(bar_len, '#')});
  }
  table.Print(std::cout);
  std::cout << "\n" << answer.size()
            << " distinct strings appeared in the answer across samples.\n";

  // At our corpus scale the string-level marginals saturate (every common
  // person name co-occurs with some confidently-ORG "Boston" in every
  // sample; the paper's 10M-token corpus made such co-occurrence rare).
  // The per-document refinement exposes the intermediate probabilities the
  // paper's figure shows: tuples gated on a genuinely ambiguous "Boston".
  const char* kQuery4PerDoc =
      "SELECT T1.DOC_ID, T2.STRING FROM TOKEN T1, TOKEN T2 "
      "WHERE T1.STRING = 'Boston' AND T1.LABEL = 'B-ORG' "
      "AND T1.DOC_ID = T2.DOC_ID AND T2.LABEL = 'B-PER'";
  auto world2 = bench.tokens.pdb->Snapshot();
  ra::PlanPtr plan2 = sql::PlanQuery(kQuery4PerDoc, world2->db());
  pdb::SharedChainEvaluator evaluator2(
      world2.get(), bench.MakeSerialPlan(),
      {.steps_per_sample = 10 * k,
       .burn_in = DefaultBurnIn(n),
       .seed = DeriveSeed(master, 2)});
  evaluator2.AddQuery(plan2.get());
  evaluator2.RunQuantum(1500);
  auto per_doc = evaluator2.answer(0).Sorted();
  std::sort(per_doc.begin(), per_doc.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::cout << "\nPer-document refinement (DOC_ID, STRING) — probability "
               "spread:\n";
  TablePrinter table2({"doc", "person mention", "Pr[t in answer]", "bar"});
  std::vector<size_t> shown2;
  for (size_t i = 0; i < per_doc.size() && i < 6; ++i) shown2.push_back(i);
  for (size_t i = per_doc.size() / 2;
       i < per_doc.size() && shown2.size() < 12; ++i) {
    shown2.push_back(i);
  }
  const size_t tail2 = per_doc.size() > 18 ? per_doc.size() - 6 : 12;
  for (size_t i = tail2; i < per_doc.size(); ++i) shown2.push_back(i);
  for (size_t i : shown2) {
    const size_t bar_len = static_cast<size_t>(40.0 * per_doc[i].second);
    table2.AddRow({per_doc[i].first.at(0).ToString(),
                   per_doc[i].first.at(1).AsString(),
                   FormatDouble(per_doc[i].second, 4),
                   std::string(bar_len, '#')});
  }
  table2.Print(std::cout);
  std::cout << "\nPaper shape check: a mix of high-confidence and long-tail "
               "tuples (the paper's Kunming/Ramirez/Theo/... bar chart), "
               "all gated on the ambiguous 'Boston'=B-ORG interpretation.\n";
  return 0;
}
