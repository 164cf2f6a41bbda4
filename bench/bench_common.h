// Shared fixtures for the figure-reproduction benches.
//
// Scale: every bench honors FGPDB_BENCH_SCALE (default 1.0) so the suite
// finishes in minutes on one core by default but can be pushed toward the
// paper's 10M-tuple runs (e.g. FGPDB_BENCH_SCALE=10). docs/BENCHMARKS.md
// maps each bench's default sizes to the paper's.
#ifndef FGPDB_BENCH_BENCH_COMMON_H_
#define FGPDB_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/shard_plan.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace fgpdb {
namespace bench {

inline double BenchScale() {
  const char* env = std::getenv("FGPDB_BENCH_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

/// The ONE seed a bench run is reproducible from: `--seed=N` on the command
/// line beats the FGPDB_BENCH_SEED environment variable beats `fallback`.
/// Every stochastic stream in a bench (corpus, ground truth, each evaluator,
/// each ablation row) must derive its own seed from this value via
/// DeriveSeed — never hardcode a second literal, or two streams silently
/// share (or silently decouple) and the run stops being reproducible from
/// the printed master seed.
inline uint64_t MasterSeed(int argc, char** argv, uint64_t fallback = 2004) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      return std::strtoull(arg.c_str() + 7, nullptr, 10);
    }
  }
  const char* env = std::getenv("FGPDB_BENCH_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// Stream-seed derivation lives in util/rng.h (fgpdb::DeriveSeed): one
// definition of the math for benches and the sharded/parallel execution
// layers alike, so printed master seeds reproduce everything. Unqualified
// DeriveSeed in benches resolves to it through the enclosing namespace.

/// Bench-binary preamble: resolves the master seed, prints the one line a
/// run is reproducible from, and strips `--seed=N` out of argv (Google
/// Benchmark rejects flags it does not know). Call first thing in main.
inline uint64_t InitBenchSeed(int* argc, char** argv, const char* tag) {
  const uint64_t master = MasterSeed(*argc, argv);
  std::cout << "[" << tag << "] master seed " << master
            << " (reproduce with --seed=" << master << ")\n";
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]).rfind("--seed=", 0) == 0) continue;
    argv[out++] = argv[i];
  }
  *argc = out;
  return master;
}

/// A ready-to-sample NER probabilistic database: corpus, TOKEN relation,
/// skip-chain CRF with corpus-statistics weights (standing in for the
/// SampleRank-trained weights so benches skip training time — §5.2 puts
/// training at minutes, orthogonal to query-evaluation cost).
struct NerBench {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  explicit NerBench(size_t num_tokens, uint64_t seed = 2004) {
    ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 250, .seed = seed});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }

  std::unique_ptr<ie::DocumentBatchProposal> MakeProposal(
      size_t proposals_per_batch = 2000) const {
    return std::make_unique<ie::DocumentBatchProposal>(
        &tokens.docs,
        ie::NerProposalOptions{.proposals_per_batch = proposals_per_batch});
  }

  /// The serial chain's plan: one shard proposing through MakeProposal.
  pdb::ShardPlan MakeSerialPlan(size_t proposals_per_batch = 2000) const {
    return pdb::SerialPlan(
        [this, proposals_per_batch](pdb::ProbabilisticDatabase&)
            -> std::unique_ptr<infer::Proposal> {
          return MakeProposal(proposals_per_batch);
        });
  }

  /// Burns the base world in place: `steps` walk-steps of the serial chain
  /// at `seed`, after which the tables hold the burned-in world and no
  /// deltas are pending. Arms that snapshot the base afterwards all start
  /// from the same stationary world.
  void BurnIn(uint64_t steps, uint64_t seed) {
    pdb::SharedChainEvaluator(tokens.pdb.get(), MakeSerialPlan(),
                              {.burn_in = steps, .seed = seed})
        .Initialize();
  }
};

/// Walk-steps needed to mix away from the all-'O' initialization. The §5.1
/// kernel proposes a uniform label on a uniform batch variable, so a
/// mislabeled token gets its correct label proposed with probability ~1/9
/// per visit; reaching stationarity needs a few dozen passes over the
/// corpus. ~40 proposals per token is comfortably past the transient.
inline uint64_t DefaultBurnIn(size_t num_tokens) {
  return static_cast<uint64_t>(40) * num_tokens;
}

/// Estimates the ground-truth answer by a long materialized run on a clone
/// (the paper estimates truth the same way: a much longer sampling run).
inline pdb::QueryAnswer EstimateGroundTruth(const NerBench& bench,
                                            const std::string& query,
                                            uint64_t samples,
                                            uint64_t steps_per_sample,
                                            uint64_t seed = 314159) {
  auto world = bench.tokens.pdb->Snapshot();
  ra::PlanPtr plan = sql::PlanQuery(query, world->db());
  pdb::SharedChainEvaluator evaluator(
      world.get(), bench.MakeSerialPlan(),
      {.steps_per_sample = steps_per_sample,
       .burn_in = DefaultBurnIn(bench.tokens.num_tokens()),
       .seed = seed});
  evaluator.AddQuery(plan.get());
  evaluator.RunQuantum(samples);
  return evaluator.answer(0);
}

}  // namespace bench
}  // namespace fgpdb

#endif  // FGPDB_BENCH_BENCH_COMMON_H_
