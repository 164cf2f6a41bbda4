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
//
// PR 8 appends the sharded-execution scalability sweep: step throughput of
// ONE logical chain driven by 1..32 document-shard sub-chains over a large
// corpus (default 1M tokens). Flags (after the common --seed=N):
//   --tokens=N        sweep corpus size (default 1,000,000 x FGPDB_BENCH_SCALE)
//   --shards=1,2,4    comma-separated shard counts (default 1,2,4,8,16,32)
//   --sweep_steps=N   proposals measured per shard count (default 2,000,000)
//   --sweep_only      skip the time-to-half-error section (CI smoke)
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "ie/shard_plan.h"
#include "pdb/shared_chain.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

namespace {

// DeriveSeed streams: 4 per half-error size (corpus, burn, truth, chains)
// then a dedicated block for the shard sweep.
constexpr uint64_t kStreamSweepCorpus = 100;
constexpr uint64_t kStreamSweepChainBase = 101;

struct SweepRow {
  size_t shards = 1;
  uint64_t steps = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;   // MH proposals across all shard chains.
  double tokens_per_sec = 0.0;  // Accepted token-label updates mirrored
                                // into the TOKEN relation.
};

std::vector<size_t> ParseShardList(const std::string& csv) {
  std::vector<size_t> shards;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const size_t value = static_cast<size_t>(std::strtoull(item.c_str(), nullptr, 10));
    if (value > 0) shards.push_back(value);
  }
  return shards;
}

std::vector<SweepRow> RunShardSweep(uint64_t master, size_t num_tokens,
                                    const std::vector<size_t>& shard_counts,
                                    uint64_t sweep_steps) {
  std::cerr << "[fig4a] building " << HumanCount(static_cast<double>(num_tokens))
            << "-token sweep corpus...\n";
  NerBench bench(num_tokens, DeriveSeed(master, kStreamSweepCorpus));

  // Interval between shard-buffer merges: large enough that the fan-out
  // drain amortizes (mirrors production steps_per_sample), small enough
  // that a sweep sees many merge boundaries.
  const uint64_t interval = 8192;
  const uint64_t measure_samples = std::max<uint64_t>(8, sweep_steps / interval);

  std::vector<SweepRow> rows;
  for (size_t si = 0; si < shard_counts.size(); ++si) {
    const size_t requested = shard_counts[si];
    pdb::ShardPlan plan = ie::BuildDocumentShardPlan(
        bench.tokens, *bench.model, {.num_shards = requested});
    auto world = bench.tokens.pdb->Snapshot();
    // Every shard count gets its own seed stream: the sweep measures
    // throughput, not a differential, and distinct streams keep rows
    // independent.
    pdb::SharedChainEvaluator chain(
        world.get(), plan,
        {.steps_per_sample = interval,
         .burn_in = 0,
         .seed = DeriveSeed(master, kStreamSweepChainBase + si)});
    chain.Initialize();
    chain.RunQuantum(4);  // Warm the shard chains, pool, and proposal batches.

    const uint64_t accepted_before = chain.num_accepted();
    Stopwatch timer;
    chain.RunQuantum(measure_samples);
    const double seconds = timer.ElapsedSeconds();
    const uint64_t accepted = chain.num_accepted() - accepted_before;

    SweepRow row;
    row.shards = chain.num_shards();
    row.steps = measure_samples * interval;
    row.seconds = seconds;
    row.steps_per_sec = static_cast<double>(row.steps) / seconds;
    row.tokens_per_sec = static_cast<double>(accepted) / seconds;
    rows.push_back(row);
    std::cerr << "[fig4a] sweep shards=" << requested << " done ("
              << FormatDouble(row.steps_per_sec, 0) << " steps/s)\n";
  }
  return rows;
}

void PrintShardSweep(const std::vector<SweepRow>& rows) {
  TablePrinter table({"shards", "steps", "seconds", "steps/sec",
                      "tokens/sec (accepted)", "speedup vs 1"});
  const double base = rows.empty() ? 1.0 : rows.front().steps_per_sec;
  for (const SweepRow& row : rows) {
    table.AddRow({std::to_string(row.shards),
                  std::to_string(row.steps),
                  FormatDouble(row.seconds, 3),
                  HumanCount(row.steps_per_sec),
                  HumanCount(row.tokens_per_sec),
                  FormatDouble(row.steps_per_sec / base, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "fig4a");
  const double scale = BenchScale();

  size_t sweep_tokens = static_cast<size_t>(1000000 * scale);
  std::vector<size_t> shard_counts = {1, 2, 4, 8, 16, 32};
  uint64_t sweep_steps = 2000000;
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tokens=", 0) == 0) {
      sweep_tokens = static_cast<size_t>(std::strtoull(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--shards=", 0) == 0) {
      shard_counts = ParseShardList(arg.substr(9));
    } else if (arg.rfind("--sweep_steps=", 0) == 0) {
      sweep_steps = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (arg == "--sweep_only") {
      sweep_only = true;
    } else {
      std::cerr << "[fig4a] unknown flag " << arg << "\n";
      return 1;
    }
  }

  if (!sweep_only) {
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
      // run all start from clones of it.
      {
        auto proposal = bench.MakeProposal();
        auto sampler = bench.tokens.pdb->MakeSampler(
            proposal.get(), DeriveSeed(master, row_stream + 1));
        sampler->Run(DefaultBurnIn(n));
        bench.tokens.pdb->DiscardDeltas();
      }
      const pdb::QueryAnswer truth =
          EstimateGroundTruth(bench, ie::kQuery1, /*samples=*/2500,
                              /*steps_per_sample=*/k,
                              DeriveSeed(master, row_stream + 2));

      const uint64_t max_samples = 500;
      auto measure = [&](bool materialized, uint64_t* samples_used,
                         double* error_fraction) {
        auto world = bench.tokens.pdb->Clone();
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
                 "at the respective extremes.\n\n";
  }

  // --- PR 8: sharded-execution step-throughput sweep ------------------------
  std::cout << "=== Sharded execution: step throughput vs shard count ("
            << HumanCount(static_cast<double>(sweep_tokens))
            << " tokens, " << std::thread::hardware_concurrency()
            << " cores, master seed " << master << ") ===\n\n";
  const std::vector<SweepRow> rows =
      RunShardSweep(master, sweep_tokens, shard_counts, sweep_steps);
  PrintShardSweep(rows);
  std::cout << "\nShape check: steps/sec grows with the shard count up to "
               "the core count (shard chains are independent between merge "
               "boundaries), then flattens — on a single-core host all "
               "rows land within noise of each other and the interesting "
               "number is the overhead of S>1 vs S=1.\n";
  return 0;
}
