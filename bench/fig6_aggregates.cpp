// Figure 6: aggregate query evaluation — normalized squared-error loss over
// time for Query 2 (global COUNT of person mentions) and Query 3 (documents
// with equal person and organization mention counts).
//
// Paper: 1M tuples, truth from 5000 samples at k=10,000; Query 2 converges
// rapidly (its answer distribution is tightly peaked — Fig. 7), Query 3 at a
// "respectable rate". Default here: 100k tuples, scaled truth run.
#include <iostream>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "fig6");
  const size_t n = static_cast<size_t>(100000 * BenchScale());
  const uint64_t k = std::max<uint64_t>(100, n / 1000);
  const uint64_t samples = 300;

  std::cout << "=== Figure 6: aggregate queries, loss over time ("
            << HumanCount(static_cast<double>(n)) << " tuples, master seed "
            << master << ") ===\n"
            << "Query 2: " << ie::kQuery2 << "\nQuery 3: " << ie::kQuery3
            << "\n\n";
  NerBench bench(n, DeriveSeed(master, 0));

  struct Series {
    std::vector<double> seconds;
    std::vector<double> loss;
  };
  // Two streams per query: its truth run and its measured chain.
  auto run_query = [&](const char* query, uint64_t stream) {
    const pdb::QueryAnswer truth =
        EstimateGroundTruth(bench, query, 1200, k, DeriveSeed(master, stream));
    auto world = bench.tokens.pdb->Snapshot();
    ra::PlanPtr plan = sql::PlanQuery(query, world->db());
    pdb::SharedChainEvaluator evaluator(
        world.get(), bench.MakeSerialPlan(),
        {.steps_per_sample = k,
         .burn_in = 0,
         .seed = DeriveSeed(master, stream + 1)});
    evaluator.AddQuery(plan.get());
    Series series;
    Stopwatch timer;
    evaluator.Initialize();
    for (uint64_t i = 0; i < samples; ++i) {
      evaluator.DrawSample();
      series.seconds.push_back(timer.ElapsedSeconds());
      series.loss.push_back(evaluator.answer(0).SquaredError(truth));
    }
    return series;
  };

  const Series q2 = run_query(ie::kQuery2, 1);
  std::cerr << "[fig6] Query 2 done\n";
  const Series q3 = run_query(ie::kQuery3, 3);
  std::cerr << "[fig6] Query 3 done\n";

  const double norm2 = std::max(q2.loss.front(), 1e-12);
  const double norm3 = std::max(q3.loss.front(), 1e-12);
  TablePrinter table({"sample", "q2 time (s)", "q2 loss (norm)", "q3 time (s)",
                      "q3 loss (norm)"});
  for (uint64_t i = 0; i < samples; i += 15) {
    table.AddRow({std::to_string(i + 1), FormatDouble(q2.seconds[i], 4),
                  FormatDouble(q2.loss[i] / norm2, 4),
                  FormatDouble(q3.seconds[i], 4),
                  FormatDouble(q3.loss[i] / norm3, 4)});
  }
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);

  // Convergence summary: fraction of the run needed to halve each loss.
  auto half_index = [](const Series& s) {
    const double target = s.loss.front() / 2.0;
    for (size_t i = 0; i < s.loss.size(); ++i) {
      if (s.loss[i] <= target) return i;
    }
    return s.loss.size();
  };
  std::cout << "\nSamples to half loss: Query 2 = " << half_index(q2) + 1
            << ", Query 3 = " << half_index(q3) + 1 << "\n";
  std::cout << "Paper shape check: Query 2 converges rapidly toward zero; "
               "Query 3 converges at a slower but steady rate.\n";
  return 0;
}
