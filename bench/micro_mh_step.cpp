// Microbench for the §3.4 / Appendix 9.2 claim: the cost of one MH
// walk-step is constant with respect to the database size, because only the
// factors touching the proposed change are evaluated.
//
// Every stochastic stream derives from ONE master seed (printed at startup;
// override with --seed=N or FGPDB_BENCH_SEED) so any run is reproducible
// from its own output.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <utility>

#include "bench_common.h"
#include "infer/metropolis_hastings.h"

using namespace fgpdb;
using namespace fgpdb::bench;

namespace {

uint64_t g_master = 2004;

// Distinct DeriveSeed streams per fixture so benchmarks never share (or
// silently decouple) generator states.
enum SeedStream : uint64_t {
  kStreamStepCorpus = 0,
  kStreamStepSampler,
  kStreamLinearCorpus,
  kStreamLinearSampler,
  // Retired with BM_MhStepPhases; kept so the streams after them keep
  // their seeds.
  kStreamPhasesCorpus,
  kStreamPhasesSampler,
  kStreamScoreCorpus,
  kStreamScoreSampler,
  kStreamScoreChanges,
  kStreamGibbsCorpus,
  kStreamGibbsSampler,
  kStreamBatchedCorpus,
  kStreamBatchedSampler,
  kStreamSweepCorpus,
  kStreamSweepSampler,
};

// Mirrors every listener flush of `sampler` into `pdb`'s tables and delta
// accumulator, the boundary an engine chain crosses once per interval, so
// the kernel micros time the mirror along with the step.
void MirrorInto(infer::MetropolisHastings* sampler,
                pdb::ProbabilisticDatabase* pdb) {
  sampler->AddListener(
      [pdb](const std::vector<factor::AppliedAssignment>& applied) {
        pdb->MirrorApplied(applied);
      });
}

void BM_MhStep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, kStreamStepCorpus));
  auto proposal = bench.MakeProposal();
  infer::MetropolisHastings sampler(
      *bench.model, &bench.tokens.pdb->world(), proposal.get(),
      DeriveSeed(g_master, kStreamStepSampler));
  MirrorInto(&sampler, bench.tokens.pdb.get());
  // Warm the proposal's document batch.
  sampler.Run(100);
  for (auto _ : state) {
    sampler.Step();
  }
  state.SetLabel(std::to_string(n) + " tuples");
  // Drain the accumulated deltas so memory stays bounded.
  bench.tokens.pdb->DiscardDeltas();
}

// Forwards to the §5.1 proposal without declaring the uniform-relabel
// kernel, so Step(n) runs it through the generic loop: the reference the
// parity tests hold the fused relabel loop to (GenericRelabel in
// tests/compiled_scoring_test.cc).
class GenericRelabel final : public infer::Proposal {
 public:
  explicit GenericRelabel(std::unique_ptr<infer::Proposal> relabel)
      : relabel_(std::move(relabel)) {}

  using Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override {
    relabel_->Propose(world, rng, change, log_ratio);
  }

 private:
  std::unique_ptr<infer::Proposal> relabel_;
};

// Step(kBatch) per iteration; `generic` runs the same chain through the
// generic loop instead of the fused relabel loop.
void StepBatched(benchmark::State& state, bool generic) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kBatch = 256;
  NerBench bench(n, DeriveSeed(g_master, kStreamBatchedCorpus));
  std::unique_ptr<infer::Proposal> proposal = bench.MakeProposal();
  if (generic) {
    proposal = std::make_unique<GenericRelabel>(std::move(proposal));
  }
  infer::MetropolisHastings sampler(
      *bench.model, &bench.tokens.pdb->world(), proposal.get(),
      DeriveSeed(g_master, kStreamBatchedSampler));
  MirrorInto(&sampler, bench.tokens.pdb.get());
  sampler.Run(100);
  for (auto _ : state) {
    sampler.Step(kBatch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetLabel(std::to_string(n) + " tuples, Step(" +
                 std::to_string(kBatch) + ")" +
                 (generic ? ", generic loop" : ""));
  bench.tokens.pdb->DiscardDeltas();
}

void BM_MhStepBatched(benchmark::State& state) {
  // The batched kernel: Step(kBatch) crosses the mirror boundary once per
  // flush instead of once per accepted step. items/s is steps/s; compare
  // its inverse against BM_MhStep's ns/iteration.
  StepBatched(state, /*generic=*/false);
}

void BM_MhStepGeneric(benchmark::State& state) {
  // BM_MhStepBatched's chain (same corpus and seeds, bitwise the same
  // walk) through the generic loop: virtual Propose, a Change per step,
  // every proposal scored, an exp per rejection. The ratio of the two
  // arms' ns/step is what the fused relabel loop saves.
  StepBatched(state, /*generic=*/true);
}

void BM_MhStepLinearChain(benchmark::State& state) {
  // Ablation: without skip edges the per-step factor count is smaller.
  const size_t n = static_cast<size_t>(state.range(0));
  ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = n, .seed = DeriveSeed(g_master, kStreamLinearCorpus)});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  ie::SkipChainNerModel model(tokens, {.use_skip_edges = false});
  model.InitializeFromCorpusStatistics(tokens);
  tokens.pdb->set_model(&model);
  ie::DocumentBatchProposal proposal(&tokens.docs);
  infer::MetropolisHastings sampler(
      model, &tokens.pdb->world(), &proposal,
      DeriveSeed(g_master, kStreamLinearSampler));
  MirrorInto(&sampler, tokens.pdb.get());
  sampler.Run(100);
  for (auto _ : state) {
    sampler.Step();
  }
  tokens.pdb->DiscardDeltas();
}

// Fixture for the LogScoreDelta micros: a mixed (non-all-'O') world and a
// pool of pre-drawn §5.1 kernel changes, so the loop measures scoring and
// nothing else.
struct ScoreDeltaFixture {
  NerBench bench;
  factor::World world;
  std::vector<factor::Change> changes;

  explicit ScoreDeltaFixture(size_t num_tokens)
      : bench(num_tokens, DeriveSeed(g_master, kStreamScoreCorpus)) {
    auto proposal = bench.MakeProposal();
    world = bench.tokens.pdb->world();
    infer::MetropolisHastings sampler(
        *bench.model, &world, proposal.get(),
        DeriveSeed(g_master, kStreamScoreSampler));
    sampler.Run(50000);  // Mix off the all-'O' initialization.
    Rng rng(DeriveSeed(g_master, kStreamScoreChanges));
    double log_ratio = 0.0;
    changes.resize(4096);
    for (auto& change : changes) {
      do {
        change = proposal->Propose(world, rng, &log_ratio);
      } while (change.empty());
    }
  }
};

void BM_LogScoreDelta(benchmark::State& state) {
  // The hot path in isolation: one compiled model scoring pre-drawn
  // changes through caller-owned scratch — zero hashing, zero allocation.
  const size_t n = static_cast<size_t>(state.range(0));
  ScoreDeltaFixture fixture(n);
  auto scratch = fixture.bench.model->MakeScratch();
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sink += fixture.bench.model->LogScoreDelta(fixture.world,
                                               fixture.changes[i],
                                               scratch.get());
    if (++i == fixture.changes.size()) i = 0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetLabel(std::to_string(n) + " tuples, compiled");
}

void BM_MhStepWorkingSet(benchmark::State& state) {
  // Working-set sweep for the cache-resident layout: 10k tokens keep the
  // hot block inside L2, 2M tokens (32 MB of 16-byte records alone, plus
  // weights and the label shadow) spill far past LLC, so the per-step cost
  // becomes a pure memory-latency probe.
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, kStreamSweepCorpus));
  auto proposal = bench.MakeProposal();
  infer::MetropolisHastings sampler(
      *bench.model, &bench.tokens.pdb->world(), proposal.get(),
      DeriveSeed(g_master, kStreamSweepSampler));
  MirrorInto(&sampler, bench.tokens.pdb.get());
  sampler.Run(100);
  for (auto _ : state) {
    sampler.Step();
  }
  state.SetLabel(std::to_string(n) + " tuples");
  bench.tokens.pdb->DiscardDeltas();
}

void BM_GibbsStep(benchmark::State& state) {
  // Gibbs resampling scores the 8 other labels, one LogScoreDelta each,
  // and the generic loop rescores the drawn one. No engine path builds a
  // GibbsProposal; this micro keeps the kernel runnable.
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, kStreamGibbsCorpus));
  infer::GibbsProposal proposal(*bench.model);
  infer::MetropolisHastings sampler(
      *bench.model, &bench.tokens.pdb->world(), &proposal,
      DeriveSeed(g_master, kStreamGibbsSampler));
  MirrorInto(&sampler, bench.tokens.pdb.get());
  for (auto _ : state) {
    sampler.Step();
  }
  bench.tokens.pdb->DiscardDeltas();
}

}  // namespace

BENCHMARK(BM_MhStep)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepBatched)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepGeneric)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_LogScoreDelta)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepLinearChain)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_GibbsStep)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepWorkingSet)
    ->Arg(10000)->Arg(50000)->Arg(200000)->Arg(500000)->Arg(1000000)
    ->Arg(2000000)
    ->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  g_master = InitBenchSeed(&argc, argv, "micro_mh_step");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
