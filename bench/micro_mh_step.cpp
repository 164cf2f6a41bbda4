// Microbench for the §3.4 / Appendix 9.2 claim: the cost of one MH
// walk-step is constant with respect to the database size, because only the
// factors touching the proposed change are evaluated.
//
// Every stochastic stream derives from ONE master seed (printed at startup;
// override with --seed=N or FGPDB_BENCH_SEED) so any run is reproducible
// from its own output.
#include <benchmark/benchmark.h>

#include <iostream>

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
  kStreamRowGibbsCorpus,
  kStreamRowGibbsSampler,
};

void BM_MhStep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, kStreamStepCorpus));
  auto proposal = bench.MakeProposal();
  auto sampler = bench.tokens.pdb->MakeSampler(
      proposal.get(), DeriveSeed(g_master, kStreamStepSampler));
  // Warm the proposal's document batch.
  sampler->Run(100);
  for (auto _ : state) {
    sampler->Step();
  }
  state.SetLabel(std::to_string(n) + " tuples");
  // Drain the accumulated deltas so memory stays bounded.
  bench.tokens.pdb->DiscardDeltas();
}

void BM_MhStepBatched(benchmark::State& state) {
  // The batched kernel: Step(kBatch) crosses the mirror boundary once per
  // flush instead of once per accepted step. items/s is steps/s; compare
  // its inverse against BM_MhStep's ns/iteration.
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kBatch = 256;
  NerBench bench(n, DeriveSeed(g_master, kStreamBatchedCorpus));
  auto proposal = bench.MakeProposal();
  auto sampler = bench.tokens.pdb->MakeSampler(
      proposal.get(), DeriveSeed(g_master, kStreamBatchedSampler));
  sampler->Run(100);
  for (auto _ : state) {
    sampler->Step(kBatch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetLabel(std::to_string(n) + " tuples, Step(" +
                 std::to_string(kBatch) + ")");
  bench.tokens.pdb->DiscardDeltas();
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
  auto sampler = tokens.pdb->MakeSampler(
      &proposal, DeriveSeed(g_master, kStreamLinearSampler));
  sampler->Run(100);
  for (auto _ : state) {
    sampler->Step();
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
    auto sampler = bench.tokens.pdb->MakeSampler(
        proposal.get(), DeriveSeed(g_master, kStreamScoreSampler));
    sampler->Run(50000);  // Mix off the all-'O' initialization.
    bench.tokens.pdb->DiscardDeltas();
    world = bench.tokens.pdb->world();
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

void BM_LogScoreDeltaNaive(benchmark::State& state) {
  // Ablation: identical model and change stream, scored through per-factor
  // Parameters::Get probes — what compilation buys.
  const size_t n = static_cast<size_t>(state.range(0));
  ScoreDeltaFixture fixture(n);
  ie::SkipChainNerModel naive(fixture.bench.tokens,
                              {.use_compiled_scoring = false});
  naive.InitializeFromCorpusStatistics(fixture.bench.tokens);
  auto scratch = naive.MakeScratch();
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sink += naive.LogScoreDelta(fixture.world, fixture.changes[i],
                                scratch.get());
    if (++i == fixture.changes.size()) i = 0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetLabel(std::to_string(n) + " tuples, naive Get()");
}

void BM_ConditionalRow(benchmark::State& state) {
  // The vectorized Gibbs conditional: one contiguous reduction over the
  // dense tables fills all 9 candidate lanes.
  const size_t n = static_cast<size_t>(state.range(0));
  ScoreDeltaFixture fixture(n);
  auto scratch = fixture.bench.model->MakeScratch();
  double row[ie::kNumLabels];
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const factor::VarId var = fixture.changes[i].assignments[0].var;
    fixture.bench.model->ConditionalRow(fixture.world, var, row,
                                        scratch.get());
    sink += row[ie::kNumLabels - 1];
    if (++i == fixture.changes.size()) i = 0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetLabel(std::to_string(n) + " tuples, all-label row");
}

void BM_MhStepWorkingSet(benchmark::State& state) {
  // Working-set sweep for the cache-resident layout: 10k tokens keep the
  // hot block inside L2, 2M tokens (32 MB of 16-byte records alone, plus
  // weights and the label shadow) spill far past LLC, so the per-step cost
  // becomes a pure memory-latency probe.
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, kStreamSweepCorpus));
  auto proposal = bench.MakeProposal();
  auto sampler = bench.tokens.pdb->MakeSampler(
      proposal.get(), DeriveSeed(g_master, kStreamSweepSampler));
  sampler->Run(100);
  for (auto _ : state) {
    sampler->Step();
  }
  state.SetLabel(std::to_string(n) + " tuples");
  bench.tokens.pdb->DiscardDeltas();
}

void BM_GibbsRowKernel(benchmark::State& state) {
  // Row-driven Gibbs: Step(n)'s fused loop samples the candidate straight
  // off ConditionalRow and reuses row[new] as the model ratio. The two-call
  // path it replays bitwise lives in the tests
  // (RowGibbsMatchesReferenceBitwise).
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kBatch = 1024;
  NerBench bench(n, DeriveSeed(g_master, kStreamRowGibbsCorpus));
  infer::GibbsProposal proposal(*bench.model);
  auto sampler = bench.tokens.pdb->MakeSampler(
      &proposal, DeriveSeed(g_master, kStreamRowGibbsSampler));
  sampler->Run(100);
  for (auto _ : state) {
    sampler->Step(kBatch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetLabel(std::to_string(n) + " tuples, row kernel");
  bench.tokens.pdb->DiscardDeltas();
}

void BM_GibbsStep(benchmark::State& state) {
  // Gibbs resampling evaluates the local conditional for all 9 labels —
  // through ConditionalRow when the model offers it.
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, kStreamGibbsCorpus));
  infer::GibbsProposal proposal(*bench.model);
  auto sampler = bench.tokens.pdb->MakeSampler(
      &proposal, DeriveSeed(g_master, kStreamGibbsSampler));
  for (auto _ : state) {
    sampler->Step();
  }
  bench.tokens.pdb->DiscardDeltas();
}

}  // namespace

BENCHMARK(BM_MhStep)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepBatched)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_LogScoreDelta)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_LogScoreDeltaNaive)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_ConditionalRow)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepLinearChain)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_GibbsStep)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MhStepWorkingSet)
    ->Arg(10000)->Arg(50000)->Arg(200000)->Arg(500000)->Arg(1000000)
    ->Arg(2000000)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_GibbsRowKernel)->Arg(10000)->Arg(200000)
    ->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  g_master = InitBenchSeed(&argc, argv, "micro_mh_step");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
