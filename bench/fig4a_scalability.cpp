// Figure 4(a): scalability of query evaluation — time to halve the squared
// error of Query 1, naive (Alg. 3) vs materialized (Alg. 1), over a
// log-scale sweep of database sizes.
//
// Paper: 10k … 10M NYT tokens, k = 10,000, Apache Derby on disk; naive
// projected to 227 hours at 10M vs <2.5h materialized, and a crossover at
// 10k tuples (naive 19s vs materialized 21s) where diff-table overhead
// dominates. Here: an in-memory engine whose scans are ~1000x faster than
// Derby-on-disk, so k scales with size to keep query evaluation (the thing
// Fig. 4 measures) the naive path's bottleneck; all evaluators start from
// a burned-in world so the measurement is not dominated by the mixing
// transient of the all-'O' initialization. Expected shape: near-parity at
// the small end, materialized increasingly dominant as tuples grow.
#include <iostream>

#include "bench_common.h"
#include "pdb/shared_chain.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "fig4a");
  const double scale = BenchScale();

  std::vector<size_t> sizes = {10000, 30000, 100000, 300000};
  if (scale > 1.0) {
    for (auto& s : sizes) s = static_cast<size_t>(s * scale);
  }

  std::cout << "=== Figure 4(a): Query 1 time-to-half-error vs #tuples "
            << "(master seed " << master << ") ===\n"
            << "query: " << ie::kQuery1 << "\n\n";
  // Both evaluators replay the *same* chain (same seed), so they produce
  // identical answers sample-for-sample (paper §5.3: "the two approaches
  // generate the same set of samples") and the wall-clock ratio equals the
  // per-sample cost ratio regardless of where the error target lands. The
  // run stops at half error or at the sample cap, whichever first; the
  // achieved error fraction is reported for transparency.
  TablePrinter table({"tuples", "k (steps/sample)", "naive (s)",
                      "materialized (s)", "speedup", "samples",
                      "err fraction reached"});

  for (size_t i = 0; i < sizes.size(); ++i) {
    const size_t n = sizes[i];
    // Four streams per size row: corpus, burn-in, truth, measured chains.
    const uint64_t row_stream = 4 * static_cast<uint64_t>(i);
    NerBench bench(n, DeriveSeed(master, row_stream));
    const uint64_t k = std::max<uint64_t>(100, n / 1000);

    // Burn the base world to stationarity once; evaluators and the truth
    // run all start from snapshots of it.
    bench.BurnIn(DefaultBurnIn(n), DeriveSeed(master, row_stream + 1));
    const pdb::QueryAnswer truth =
        EstimateGroundTruth(bench, ie::kQuery1, /*samples=*/2500,
                            /*steps_per_sample=*/k,
                            DeriveSeed(master, row_stream + 2));

    const uint64_t max_samples = 500;
    auto measure = [&](bool materialized, uint64_t* samples_used,
                       double* error_fraction) {
      auto world = bench.tokens.pdb->Snapshot();
      ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, world->db());
      // The SAME derived seed for both evaluators: identical sample sets.
      const pdb::EvaluatorOptions options{
          .steps_per_sample = k,
          .burn_in = 0,
          .seed = DeriveSeed(master, row_stream + 3)};
      pdb::SharedChainEvaluator evaluator(
          world.get(), bench.MakeSerialPlan(), options, materialized);
      evaluator.AddQuery(plan.get());
      Stopwatch timer;
      evaluator.Initialize();
      evaluator.DrawSample();
      const double initial = evaluator.answer(0).SquaredError(truth);
      uint64_t used = 1;
      double current = initial;
      while (used < max_samples && current > initial / 2.0) {
        evaluator.DrawSample();
        ++used;
        current = evaluator.answer(0).SquaredError(truth);
      }
      *samples_used = used;
      *error_fraction = initial > 0.0 ? current / initial : 0.0;
      return timer.ElapsedSeconds();
    };

    uint64_t naive_samples = 0, mat_samples = 0;
    double naive_fraction = 0.0, mat_fraction = 0.0;
    const double naive_seconds = measure(false, &naive_samples, &naive_fraction);
    const double mat_seconds = measure(true, &mat_samples, &mat_fraction);

    table.AddRow({HumanCount(static_cast<double>(n)), std::to_string(k),
                  FormatDouble(naive_seconds, 4), FormatDouble(mat_seconds, 4),
                  FormatDouble(naive_seconds / mat_seconds, 3),
                  std::to_string(naive_samples),
                  FormatDouble(mat_fraction, 3)});
    std::cerr << "[fig4a] finished n=" << n << "\n";
  }

  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);
  std::cout << "\nPaper shape check: near-parity at the smallest size "
               "(delta bookkeeping overhead vs cheap small scans), with the "
               "materialized advantage growing steadily in #tuples — the "
               "paper's 10k crossover and 10M-tuple orders-of-magnitude gap "
               "at the respective extremes.\n";
  return 0;
}
