// Microbench for the Eq. 6 claim: maintaining a view through a bounded
// delta costs O(|Δ|), versus O(|w|) to re-run the query — "as high as a
// full degree of a polynomial" of savings (§4.2) — measured per operator
// shape (σπ, γ, ⋈), plus the cost of row-granular delta coalescing.
//
// PR-3 additions: join configurations with large per-round deltas (so
// the ΔL⋈ΔR cross term dominates) and a many-tables-few-touched
// configuration (an 8-way join chain where each round touches one base
// table — the case delta routing exists for).
//
// View initialization (the one full evaluation Alg. 1 pays per query) is
// timed against a bare filtered scan of the same table, its floor.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "infer/metropolis_hastings.h"
#include "ra/executor.h"
#include "ra/plan.h"
#include "util/rng.h"
#include "view/incremental.h"

using namespace fgpdb;
using namespace fgpdb::bench;

namespace {

uint64_t g_master = 2004;

// Builds the DeltaSet of a run of MH steps that changes `flips` labels,
// like a thinning interval. The listener counts applied assignments, not
// accepted steps: on a burned-in world nearly every accepted step proposes
// the current label and changes nothing. A §5.1 step changes at most one
// label, so Step(flips − applied) never overshoots.
view::DeltaSet MakeLabelDeltas(NerBench& bench, size_t flips, uint64_t seed) {
  auto proposal = bench.MakeProposal();
  infer::MetropolisHastings sampler(*bench.model, &bench.tokens.pdb->world(),
                                    proposal.get(), seed);
  size_t applied = 0;
  sampler.AddListener(
      [&bench, &applied](const std::vector<factor::AppliedAssignment>& a) {
        bench.tokens.pdb->MirrorApplied(a);
        applied += a.size();
      });
  bench.tokens.pdb->DiscardDeltas();
  while (applied < flips) sampler.Step(flips - applied);
  return bench.tokens.pdb->TakeDeltas();
}

NerBench& BurnedInBench(size_t num_tokens);

// Query 1 re-run from scratch on a burned-in world (the all-'O' initial
// world selects no row), the same world BM_FilteredScan and
// BM_ViewInitialize read.
void BM_FullQueryExecution(benchmark::State& state) {
  NerBench& bench = BurnedInBench(static_cast<size_t>(state.range(0)));
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, bench.tokens.pdb->db());
  size_t answer_tuples = 0;
  for (auto _ : state) {
    const auto answer = ra::Execute(*plan, bench.tokens.pdb->db());
    answer_tuples = answer.size();
    benchmark::DoNotOptimize(answer_tuples);
  }
  state.counters["answer_tuples"] = static_cast<double>(answer_tuples);
}

// Pre-generates a consistent sequence of delta rounds (each `flips` label
// changes) so the timed loop measures only MaterializedView::Apply.
// The sequence comes from one continuous chain, so applying the rounds in
// order keeps the view consistent.
std::vector<view::DeltaSet> MakeDeltaSequence(NerBench& bench, size_t rounds,
                                              size_t flips, uint64_t seed) {
  std::vector<view::DeltaSet> out;
  out.reserve(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    out.push_back(MakeLabelDeltas(bench, flips, seed + r));
  }
  return out;
}

// Each benchmark below is pinned to exactly `rounds` iterations (deltas
// replay consistently only once, in order, from the initial world).
constexpr size_t kDeltaRounds = 1000;

// The world is burned in first, so the rounds come from the chain's
// stationary phase (where an engine's views spend their life), not its
// transient away from all-'O'. `delta_tuples` is the mean |Δ−| + |Δ+| per
// round.
void ApplyDeltaBench(benchmark::State& state, const char* query,
                     size_t rounds, size_t flips) {
  const size_t n = static_cast<size_t>(state.range(0));
  NerBench bench(n, DeriveSeed(g_master, 1));
  bench.BurnIn(DefaultBurnIn(n), DeriveSeed(g_master, 9));
  ra::PlanPtr plan = sql::PlanQuery(query, bench.tokens.pdb->db());
  view::MaterializedView view(*plan);
  view.Initialize(bench.tokens.pdb->db());
  // A few spare rounds in case the framework runs warm-up iterations.
  const auto deltas =
      MakeDeltaSequence(bench, rounds + 64, flips, DeriveSeed(g_master, 2));
  size_t i = 0;
  int64_t delta_tuples = 0;
  for (auto _ : state) {
    FGPDB_CHECK_LT(i, deltas.size());
    delta_tuples += deltas[i].TotalMagnitude();
    benchmark::DoNotOptimize(view.Apply(deltas[i++]));
  }
  state.counters["delta_tuples"] =
      static_cast<double>(delta_tuples) / static_cast<double>(i);
}

void BM_ViewApplyDelta(benchmark::State& state) {
  ApplyDeltaBench(state, ie::kQuery1, kDeltaRounds, 100);
}

void BM_ViewApplyDeltaJoin(benchmark::State& state) {
  // Query 4's self-join, maintained through deltas.
  ApplyDeltaBench(state, ie::kQuery4, kDeltaRounds, 100);
}

void BM_ViewApplyDeltaAggregate(benchmark::State& state) {
  // Query 3's grouped COUNT_IF + HAVING, maintained through deltas.
  ApplyDeltaBench(state, ie::kQuery3, kDeltaRounds, 100);
}

// Longer thinning intervals (500 and 2000 label changes) through Query 4's
// self-join. On the stationary chain most changes flip the same few
// ambiguous tokens back and forth and coalesce away, so a round carries
// about 111 and 119 delta tuples (`delta_tuples`). A round of 2000 changes
// takes millions of proposals, so these benches draw fewer rounds than the
// others to keep set-up under about 30 s. The large-delta case, where the
// ΔL⋈ΔR cross term dominates, is BM_ViewApplyDeltaJoinCross.
constexpr size_t kJoinHeavyRounds = 64;

void BM_ViewApplyDeltaJoinHeavy(benchmark::State& state) {
  ApplyDeltaBench(state, ie::kQuery4, kJoinHeavyRounds,
                  static_cast<size_t>(state.range(1)));
}

// --- Join cross term: ΔL⋈ΔR with unfiltered deltas -------------------------
//
// Query 4's selections shrink the deltas before they reach the join, so the
// cross term stays tiny there. This configuration feeds both join inputs
// raw deltas: per round, `flips` value updates on EACH side of L ⋈ R. A
// nested-loop cross term pays |ΔL|·|ΔR| tuple projections per round;
// hash-grouped probing pays O(|Δ|·matches).
constexpr size_t kCrossRows = 4096;
constexpr size_t kCrossKeys = 1024;  // 4 rows per join key.
constexpr size_t kCrossRounds = 200;

void BuildCrossTable(Database* db, const std::string& name, int64_t v_base) {
  Schema schema({Attribute{"K", ValueType::kInt64},
                 Attribute{"V", ValueType::kInt64}});
  Table* table = db->CreateTable(name, std::move(schema));
  for (size_t r = 0; r < kCrossRows; ++r) {
    table->Insert(Tuple{Value::Int(static_cast<int64_t>(r % kCrossKeys)),
                        Value::Int(v_base + static_cast<int64_t>(r))});
  }
}

std::vector<view::DeltaSet> MakeCrossDeltas(size_t rounds, size_t flips,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> shadow(2,
                                           std::vector<int64_t>(kCrossRows));
  for (size_t side = 0; side < 2; ++side) {
    for (size_t r = 0; r < kCrossRows; ++r) {
      shadow[side][r] = static_cast<int64_t>(side) * 1000000 +
                        static_cast<int64_t>(r);
    }
  }
  std::vector<view::DeltaSet> out;
  out.reserve(rounds);
  for (size_t round = 0; round < rounds; ++round) {
    view::DeltaSet deltas;
    for (size_t side = 0; side < 2; ++side) {
      view::DeltaMultiset& d = deltas.ForTable(side == 0 ? "L" : "R");
      for (size_t f = 0; f < flips; ++f) {
        const size_t r = rng.UniformInt(kCrossRows);
        const int64_t k = static_cast<int64_t>(r % kCrossKeys);
        d.Add(Tuple{Value::Int(k), Value::Int(shadow[side][r])}, -1);
        ++shadow[side][r];
        d.Add(Tuple{Value::Int(k), Value::Int(shadow[side][r])}, 1);
      }
    }
    out.push_back(std::move(deltas));
  }
  return out;
}

void BM_ViewApplyDeltaJoinCross(benchmark::State& state) {
  const size_t flips = static_cast<size_t>(state.range(0));
  Database db;
  BuildCrossTable(&db, "L", 0);
  BuildCrossTable(&db, "R", 1000000);
  ra::PlanPtr plan = std::make_unique<ra::JoinNode>(
      std::make_unique<ra::ScanNode>("L", db.RequireTable("L")->schema()),
      std::make_unique<ra::ScanNode>("R", db.RequireTable("R")->schema()),
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr);
  view::MaterializedView view(*plan);
  view.Initialize(db);
  const auto deltas =
      MakeCrossDeltas(kCrossRounds + 64, flips, DeriveSeed(g_master, 3));
  size_t i = 0;
  for (auto _ : state) {
    FGPDB_CHECK_LT(i, deltas.size());
    benchmark::DoNotOptimize(view.Apply(deltas[i++]));
  }
}

// --- Many-tables-few-touched: the routing win case -------------------------
//
// An 8-way join chain R0 ⋈ R1 ⋈ … ⋈ R7 on a shared key, with each delta
// round touching only `touched` of the 8 base tables. A router that knows
// which subtrees read which tables skips the untouched ones outright; an
// unrouted pipeline walks all 15 operators to discover their deltas are
// empty.
constexpr size_t kManyTables = 8;
constexpr size_t kManyTableRows = 512;
constexpr size_t kManyTableRounds = 1000;

std::string ManyTableName(size_t i) { return "R" + std::to_string(i); }

void BuildManyTableDb(Database* db) {
  for (size_t t = 0; t < kManyTables; ++t) {
    Schema schema({Attribute{"K", ValueType::kInt64},
                   Attribute{"V", ValueType::kInt64}});
    Table* table = db->CreateTable(ManyTableName(t), std::move(schema));
    for (size_t k = 0; k < kManyTableRows; ++k) {
      table->Insert(Tuple{Value::Int(static_cast<int64_t>(k)),
                          Value::Int(static_cast<int64_t>(t * 1000 + k))});
    }
  }
}

// ((R0 ⋈ R1) ⋈ R2) ⋈ … on K. The accumulated left side keeps K at column 0.
ra::PlanPtr BuildManyTableJoinPlan(const Database& db) {
  ra::PlanPtr plan = std::make_unique<ra::ScanNode>(
      ManyTableName(0), db.RequireTable(ManyTableName(0))->schema());
  for (size_t t = 1; t < kManyTables; ++t) {
    ra::PlanPtr right = std::make_unique<ra::ScanNode>(
        ManyTableName(t), db.RequireTable(ManyTableName(t))->schema());
    plan = std::make_unique<ra::JoinNode>(
        std::move(plan), std::move(right), std::vector<size_t>{0},
        std::vector<size_t>{0}, nullptr);
  }
  return plan;
}

// Synthesizes `rounds` delta rounds, each flipping V on `flips` rows of the
// first `touched` tables. Views never re-read tables after Initialize, so a
// shadow copy of the V column keeps the stream consistent without mutating
// the database.
std::vector<view::DeltaSet> MakeManyTableDeltas(size_t rounds, size_t touched,
                                                size_t flips, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> shadow(
      kManyTables, std::vector<int64_t>(kManyTableRows));
  for (size_t t = 0; t < kManyTables; ++t) {
    for (size_t k = 0; k < kManyTableRows; ++k) {
      shadow[t][k] = static_cast<int64_t>(t * 1000 + k);
    }
  }
  std::vector<view::DeltaSet> out;
  out.reserve(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    view::DeltaSet deltas;
    for (size_t t = 0; t < touched; ++t) {
      view::DeltaMultiset& d = deltas.ForTable(ManyTableName(t));
      for (size_t f = 0; f < flips; ++f) {
        const size_t k = rng.UniformInt(kManyTableRows);
        const int64_t next = shadow[t][k] + 1;
        d.Add(Tuple{Value::Int(static_cast<int64_t>(k)),
                    Value::Int(shadow[t][k])},
              -1);
        d.Add(Tuple{Value::Int(static_cast<int64_t>(k)), Value::Int(next)}, 1);
        shadow[t][k] = next;
      }
    }
    out.push_back(std::move(deltas));
  }
  return out;
}

void BM_ViewApplyDeltaManyTables(benchmark::State& state) {
  const size_t touched = static_cast<size_t>(state.range(0));
  Database db;
  BuildManyTableDb(&db);
  ra::PlanPtr plan = BuildManyTableJoinPlan(db);
  view::MaterializedView view(*plan);
  view.Initialize(db);
  const auto deltas = MakeManyTableDeltas(kManyTableRounds + 64, touched,
                                          /*flips=*/4, DeriveSeed(g_master, 4));
  size_t i = 0;
  for (auto _ : state) {
    FGPDB_CHECK_LT(i, deltas.size());
    benchmark::DoNotOptimize(view.Apply(deltas[i++]));
  }
  const view::ApplyStats& stats = view.stats();
  state.counters["ops_visited_per_round"] =
      static_cast<double>(stats.operators_visited) /
      static_cast<double>(stats.rounds);
  state.counters["ops_skipped_per_round"] =
      static_cast<double>(stats.operators_skipped) /
      static_cast<double>(stats.rounds);
}

// --- Initialization: one streamed pass per view ----------------------------
//
// Both benchmarks below (and BM_FullQueryExecution) run on a burned-in
// world: the initial world labels every token 'O', so Query 1 would select
// nothing. One corpus per size is built and burned in on first use and
// shared by every instance of that size.
NerBench& BurnedInBench(size_t num_tokens) {
  static std::map<size_t, std::unique_ptr<NerBench>> cache;
  std::unique_ptr<NerBench>& bench = cache[num_tokens];
  if (bench == nullptr) {
    bench = std::make_unique<NerBench>(num_tokens, DeriveSeed(g_master, 7));
    bench->BurnIn(DefaultBurnIn(num_tokens), DeriveSeed(g_master, 8));
  }
  return *bench;
}

// MaterializedView::Initialize of Query `range(0)` (1-4) at `range(1)`
// tokens, on a freshly compiled view, as a Session registers it.
void BM_ViewInitialize(benchmark::State& state) {
  static const char* const kQueries[] = {ie::kQuery1, ie::kQuery2,
                                         ie::kQuery3, ie::kQuery4};
  const char* query = kQueries[state.range(0) - 1];
  NerBench& bench = BurnedInBench(static_cast<size_t>(state.range(1)));
  const Database& db = bench.tokens.pdb->db();
  ra::PlanPtr plan = sql::PlanQuery(query, db);
  size_t answer_tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto view = std::make_unique<view::MaterializedView>(*plan);
    state.ResumeTiming();
    view->Initialize(db);
    answer_tuples = view->contents().distinct_size();
    benchmark::DoNotOptimize(answer_tuples);
    state.PauseTiming();
    view.reset();
    state.ResumeTiming();
  }
  state.counters["answer_tuples"] = static_cast<double>(answer_tuples);
}

// A bare Table::Scan testing LABEL = 'B-PER': the work Queries 1 and 2
// cannot avoid, with nothing copied or hashed.
void BM_FilteredScan(benchmark::State& state) {
  NerBench& bench = BurnedInBench(static_cast<size_t>(state.range(0)));
  const Table* table = bench.tokens.pdb->db().RequireTable(ie::kTokenTable);
  const size_t label = table->schema().RequireIndexOf("LABEL");
  const Value b_per = Value::String("B-PER");
  size_t matches = 0;
  for (auto _ : state) {
    matches = 0;
    table->Scan([&](RowId, const Tuple& t) {
      if (t.at(label) == b_per) ++matches;
    });
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
}

void ViewInitializeArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t tokens : {10000, 100000, 500000}) {
    for (int64_t query = 1; query <= 4; ++query) b->Args({query, tokens});
  }
}

void BM_AccumulatorCoalescing(benchmark::State& state) {
  // Row-granular accumulation: a flip records one pre-image copy the first
  // time its row is touched; Flush emits at most one −/+ pair per changed
  // row, so a row flipped R times between evaluations contributes at most
  // 2 delta entries, not 2R.
  const size_t flips = static_cast<size_t>(state.range(0));
  NerBench bench(10000, DeriveSeed(g_master, 6));
  for (auto _ : state) {
    view::DeltaAccumulator acc;
    view::DeltaSet deltas;
    uint32_t current = ie::kLabelO;
    for (size_t i = 0; i < flips; ++i) {
      const uint32_t next = (current + 1) % ie::kNumLabels;
      bench.tokens.pdb->binding().ApplyToDatabase(
          {{0, current, next}}, &bench.tokens.pdb->db(), &acc);
      current = next;
    }
    acc.Flush(bench.tokens.pdb->db(), &deltas);
    benchmark::DoNotOptimize(deltas.Get(ie::kTokenTable).distinct_size());
  }
}

}  // namespace

BENCHMARK(BM_FullQueryExecution)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewApplyDelta)->Arg(10000)->Arg(100000)
    ->Iterations(kDeltaRounds)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewApplyDeltaJoin)->Arg(10000)->Arg(50000)
    ->Iterations(kDeltaRounds)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewApplyDeltaAggregate)->Arg(10000)->Arg(50000)
    ->Iterations(kDeltaRounds)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewApplyDeltaJoinHeavy)->Args({20000, 500})->Args({20000, 2000})
    ->Iterations(kJoinHeavyRounds)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewApplyDeltaJoinCross)->Arg(64)->Arg(256)
    ->Iterations(kCrossRounds)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewApplyDeltaManyTables)->Arg(1)->Arg(8)
    ->Iterations(kManyTableRounds)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AccumulatorCoalescing)->Arg(10)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ViewInitialize)->Apply(ViewInitializeArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FilteredScan)->Arg(10000)->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  g_master = InitBenchSeed(&argc, argv, "micro_view_maintenance");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
