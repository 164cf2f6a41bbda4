// The traced replay of one Session request.
//
// Rebuilds what api::Session::Open + Register + RunQuantum do for a
// resident (serial, sharded or single-chain until) policy from the public
// calls of the modules underneath, in the same order, with a span around
// each call:
//
//   storage   ProbabilisticDatabase::Snapshot, TupleBinding::StoreWorld
//   api       Session::NormalizeSql + sql::PlanQuery (Prepare's miss path)
//   view      MaterializedView construction, Initialize, Apply per query
//   infer     MetropolisHastings::Step(n) or ShardRunner::Step, burn-in,
//             MarginalErrorStats::ObserveSample + MaxHalfWidth
//   pdb       MirrorApplied (the listener / shard sink), TakeDeltas, the
//             evaluator's view routing, QueryAnswer::ObserveSampleContaining
//
// Sampling follows pdb::SharedChainEvaluator::DrawSample step for step:
// views are routed like ViewTouched, and a query whose answer holds the
// until bound freezes exactly as Session::Open configures it. The answers
// are therefore bitwise-equal to the untraced Session's at the same seed;
// the traced run checks that on every run.
#ifndef FGPDB_BENCH_E2E_REPLAY_H_
#define FGPDB_BENCH_E2E_REPLAY_H_

#include <memory>
#include <vector>

#include "api/session.h"
#include "e2e.h"
#include "infer/shard_runner.h"
#include "pdb/convergence_stats.h"
#include "trace.h"
#include "view/incremental.h"

namespace fgpdb {
namespace e2e {

/// Per-layer measurements accumulated over every replayed request.
struct LayerSamples {
  std::vector<double> snapshot_ms, prepare_us, compile_us, burn_in_s,
      store_world_ms, view_init_ms;
  // One entry per sample.
  std::vector<double> step_ns, drain_us, delta_rows, route_us, apply_us,
      observe_us, answer_tuples, convergence_us;
  std::vector<double> apply_us_by_query[4];
  // One entry per request.
  std::vector<double> arena_tuples;
  int64_t mirror_ns = 0;
  uint64_t mirrored = 0;
  uint64_t proposed = 0;
  uint64_t accepted = 0;
  uint64_t samples = 0;
  uint64_t views_considered = 0;
  uint64_t views_skipped = 0;
  uint64_t ops_visited = 0;
  uint64_t ops_skipped = 0;
};

/// Records the per-layer metrics of `samples` and the tracer's attribution
/// (`wall_ns`: the traced requests' total wall time).
void ReportLayers(const LayerSamples& samples, const Tracer& tracer,
                  int64_t wall_ns, Report* report);

class Replay {
 public:
  /// Session::Open + Register: snapshot the base world, build the chain,
  /// prepare and compile every query.
  Replay(const ChainConfig& config, Tracer* tracer, LayerSamples* out);
  /// Folds the request's end-of-life counters into the layer samples.
  ~Replay();

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Session::RunQuantum: initializes on first use, then draws up to
  /// `max_samples`, stopping early once every query holds the until bound.
  uint64_t RunQuantum(uint64_t max_samples);

  bool all_converged() const {
    return tracking_ && num_converged_ == slots_.size();
  }
  size_t num_queries() const { return slots_.size(); }
  const pdb::QueryAnswer& answer(size_t q) const { return slots_[q].answer; }
  bool converged(size_t q) const { return slots_[q].converged; }
  double MaxHalfWidth(size_t q) const;

 private:
  struct Slot {
    size_t pool_index = 0;
    ra::PlanPtr plan;
    std::unique_ptr<view::MaterializedView> view;
    pdb::QueryAnswer answer;
    std::unique_ptr<pdb::MarginalErrorStats> stats;
    bool converged = false;
  };

  void Initialize();
  void DrawSample();
  void Mirror(const std::vector<factor::AppliedAssignment>& applied);
  uint64_t num_proposed() const;
  uint64_t num_accepted() const;

  ChainConfig config_;
  Tracer* tracer_;
  LayerSamples* out_;
  std::unique_ptr<pdb::ProbabilisticDatabase> world_;
  std::unique_ptr<infer::Proposal> proposal_;
  std::unique_ptr<infer::MetropolisHastings> sampler_;
  std::unique_ptr<infer::ShardRunner> runner_;
  std::vector<Slot> slots_;
  view::DeltaSet delta_buf_;
  bool initialized_ = false;
  bool tracking_ = false;
  double z_ = 0.0;
  uint64_t min_samples_ = 0;
  size_t num_converged_ = 0;

  // Span names.
  uint16_t snapshot_, prepare_, compile_, burn_in_, store_world_, view_init_,
      sample_, step_, mirror_, drain_, route_, observe_, convergence_;
  uint16_t apply_[4];
};

}  // namespace e2e
}  // namespace fgpdb

#endif  // FGPDB_BENCH_E2E_REPLAY_H_
