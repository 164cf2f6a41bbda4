// Multi-query shared-chain economy (the acceptance bench for the Session
// front door): registering the paper's Queries 1–4 on ONE api::Session must
// (a) produce per-query answers bitwise-equal to four standalone
// single-query runs at the same seed, and (b) finish in measurably less
// total sampling wall-clock than the four standalone runs, because the
// bundle pays for one chain (one burn-in, one walk, one delta drain per
// interval) instead of four.
//
//   ./bench/bench_session_multiquery  (honors FGPDB_BENCH_SCALE)
#include <cstdio>
#include <vector>

#include "api/session.h"
#include "bench_common.h"
#include "pdb/shared_chain.h"

using namespace fgpdb;
using namespace fgpdb::bench;

namespace {

constexpr uint64_t kSamples = 200;

struct StandaloneResult {
  pdb::QueryAnswer answer;
  double seconds = 0.0;
};

StandaloneResult RunStandalone(const NerBench& bench, const char* query,
                               const pdb::EvaluatorOptions& options) {
  auto world = bench.tokens.pdb->Snapshot();
  ra::PlanPtr plan = sql::PlanQuery(query, world->db());
  pdb::SharedChainEvaluator evaluator(world.get(), bench.MakeSerialPlan(),
                                      options);
  evaluator.AddQuery(plan.get());
  Stopwatch timer;
  evaluator.RunQuantum(kSamples);
  StandaloneResult result;
  result.seconds = timer.ElapsedSeconds();
  result.answer = evaluator.answer(0);
  return result;
}

bool BitwiseEqual(const pdb::QueryAnswer& a, const pdb::QueryAnswer& b) {
  if (a.num_samples() != b.num_samples()) return false;
  const auto sa = a.Sorted();
  const auto sb = b.Sorted();
  if (sa.size() != sb.size()) return false;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!(sa[i].first == sb[i].first) || sa[i].second != sb[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "session_multiquery");
  const size_t num_tokens =
      static_cast<size_t>(20000 * BenchScale());
  NerBench bench(num_tokens, DeriveSeed(master, 0));
  const std::vector<const char*> queries = {ie::kQuery1, ie::kQuery2,
                                            ie::kQuery3, ie::kQuery4};
  // ONE chain seed shared by the bundle and every standalone run — the
  // bitwise-equality check requires identical sample sets.
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 2000,
      .burn_in = DefaultBurnIn(num_tokens),
      .seed = DeriveSeed(master, 1)};

  std::printf("# session_multiquery: %zu tokens, %zu queries, %llu samples, "
              "k=%llu, burn_in=%llu, chain_seed=%llu\n",
              num_tokens, queries.size(),
              static_cast<unsigned long long>(kSamples),
              static_cast<unsigned long long>(options.steps_per_sample),
              static_cast<unsigned long long>(options.burn_in),
              static_cast<unsigned long long>(options.seed));

  // --- Four standalone single-query chains --------------------------------
  std::vector<StandaloneResult> standalone;
  double standalone_total = 0.0;
  for (const char* query : queries) {
    standalone.push_back(RunStandalone(bench, query, options));
    std::printf("standalone  q%zu  %8.3fs\n", standalone.size(),
                standalone.back().seconds);
    standalone_total += standalone.back().seconds;
  }

  // --- One Session, all four queries on the shared chain ------------------
  auto session = api::Session::Open(
      {.database = bench.tokens.pdb.get(),
       .proposal_factory =
           [&bench](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
             return bench.MakeProposal();
           },
       .evaluator = options});
  std::vector<api::ResultHandle> handles;
  for (const char* query : queries) handles.push_back(session->Register(query));
  Stopwatch bundle_timer;
  session->Run(kSamples);
  const double bundle_seconds = bundle_timer.ElapsedSeconds();

  bool all_bitwise = true;
  for (size_t q = 0; q < queries.size(); ++q) {
    const bool equal =
        BitwiseEqual(handles[q].Snapshot().answer, standalone[q].answer);
    if (!equal) {
      std::printf("MISMATCH on query %zu\n", q + 1);
      all_bitwise = false;
    }
  }

  std::printf("bundle (1 session, 4 views)  %8.3fs\n", bundle_seconds);
  std::printf("standalone total             %8.3fs\n", standalone_total);
  std::printf("speedup                      %8.2fx\n",
              standalone_total / bundle_seconds);
  std::printf("bitwise_equal                %s\n",
              all_bitwise ? "true" : "false");
  return all_bitwise ? 0 : 1;
}
