#include "replay.h"

#include <algorithm>
#include <string>

#include "infer/convergence.h"
#include "sql/binder.h"

namespace fgpdb {
namespace e2e {

Replay::Replay(const ChainConfig& config, Tracer* tracer, LayerSamples* out)
    : config_(config), tracer_(tracer), out_(out) {
  Tracer& t = *tracer_;
  snapshot_ = t.Intern("storage.snapshot");
  store_world_ = t.Intern("storage.store_world");
  prepare_ = t.Intern("api.prepare");
  compile_ = t.Intern("view.compile");
  view_init_ = t.Intern("view.initialize");
  burn_in_ = t.Intern("infer.burn_in");
  step_ = t.Intern("infer.step");
  convergence_ = t.Intern("infer.convergence");
  mirror_ = t.Intern("pdb.mirror");
  drain_ = t.Intern("pdb.delta_drain");
  route_ = t.Intern("pdb.route");
  observe_ = t.Intern("pdb.observe");
  sample_ = t.Intern("bench.sample");
  for (size_t q = 0; q < 4; ++q) {
    apply_[q] = t.Intern("view.apply.q" + std::to_string(q + 1));
  }

  // Session::Open: the request's copy-on-write world, then the chain.
  t.Begin(snapshot_);
  world_ = config_.fixture->tokens.pdb->Snapshot();
  out_->snapshot_ms.push_back(t.End().total_ns * 1e-6);
  const uint64_t seed = config_.evaluator.seed;
  if (config_.num_shards > 1) {
    const pdb::ShardPlan& plan = config_.fixture->shard_plan;
    std::vector<std::unique_ptr<infer::Proposal>> proposals;
    for (size_t s = 0; s < plan.num_shards; ++s) {
      proposals.push_back(plan.make_proposal(*world_, s));
    }
    runner_ = std::make_unique<infer::ShardRunner>(
        world_->model(), &world_->world(), std::move(proposals),
        plan.partition,
        infer::ShardRunnerOptions{seed, /*use_threads=*/true,
                                  /*max_threads=*/0});
  } else {
    proposal_ = MakeProposalFactory(*config_.fixture)(*world_);
    sampler_ = std::make_unique<infer::MetropolisHastings>(
        world_->model(), &world_->world(), proposal_.get(), seed);
    sampler_->AddListener(
        [this](const std::vector<factor::AppliedAssignment>& applied) {
          Mirror(applied);
        });
  }
  if (config_.until) {
    tracking_ = true;
    z_ = infer::ZForConfidence(kConfidence);
    min_samples_ = PolicyFor(config_).min_samples;
  }

  // Register: Prepare's miss path, then the view's compile.
  for (const char* sql : config_.queries) {
    Slot slot;
    slot.pool_index = QueryIndex(sql);
    t.Begin(prepare_);
    // Kept for its cost only: Prepare normalizes to key its plan cache.
    const std::string normalized = api::Session::NormalizeSql(sql);
    slot.plan = sql::PlanQuery(sql, world_->db());
    out_->prepare_us.push_back(t.End().total_ns * 1e-3);
    t.Begin(compile_);
    slot.view = std::make_unique<view::MaterializedView>(*slot.plan);
    out_->compile_us.push_back(t.End().total_ns * 1e-3);
    if (tracking_) slot.stats = std::make_unique<pdb::MarginalErrorStats>();
    slots_.push_back(std::move(slot));
  }
}

Replay::~Replay() {
  double arena = 0.0;
  for (const Slot& slot : slots_) {
    const view::ApplyStats& stats = slot.view->stats();
    out_->ops_visited += stats.operators_visited;
    out_->ops_skipped += stats.operators_skipped;
    arena += static_cast<double>(slot.view->arena_size());
  }
  out_->arena_tuples.push_back(arena);
  out_->proposed += num_proposed();
  out_->accepted += num_accepted();
}

uint64_t Replay::num_proposed() const {
  return runner_ != nullptr ? runner_->num_proposed()
                            : sampler_->num_proposed();
}

uint64_t Replay::num_accepted() const {
  return runner_ != nullptr ? runner_->num_accepted()
                            : sampler_->num_accepted();
}

double Replay::MaxHalfWidth(size_t q) const {
  return slots_[q].stats->MaxHalfWidth(z_);
}

void Replay::Mirror(const std::vector<factor::AppliedAssignment>& applied) {
  tracer_->Begin(mirror_);
  world_->MirrorApplied(applied);
  out_->mirror_ns += tracer_->End().total_ns;
  out_->mirrored += applied.size();
}

void Replay::Initialize() {
  Tracer& t = *tracer_;
  t.Begin(burn_in_);
  if (runner_ != nullptr) {
    runner_->RunBurnIn(config_.evaluator.burn_in);
    out_->burn_in_s.push_back(t.End().total_ns * 1e-9);
    t.Begin(store_world_);
    world_->binding().StoreWorld(world_->world(), &world_->db());
    out_->store_world_ms.push_back(t.End().total_ns * 1e-6);
  } else {
    sampler_->Run(config_.evaluator.burn_in);
    out_->burn_in_s.push_back(t.End().total_ns * 1e-9);
  }
  world_->DiscardDeltas();
  for (Slot& slot : slots_) {
    t.Begin(view_init_);
    slot.view->Initialize(world_->db());
    out_->view_init_ms.push_back(t.End().total_ns * 1e-6);
  }
  initialized_ = true;
}

uint64_t Replay::RunQuantum(uint64_t max_samples) {
  if (!initialized_) Initialize();
  uint64_t drawn = 0;
  while (drawn < max_samples) {
    if (all_converged()) break;
    DrawSample();
    ++drawn;
  }
  return drawn;
}

void Replay::DrawSample() {
  Tracer& t = *tracer_;
  t.Begin(sample_);

  const uint64_t k = config_.evaluator.steps_per_sample;
  t.Begin(step_);
  if (runner_ != nullptr) {
    runner_->Step(k, [this](const std::vector<factor::AppliedAssignment>&
                                applied) { Mirror(applied); });
  } else {
    sampler_->Run(k);
  }
  out_->step_ns.push_back(static_cast<double>(t.End().self_ns) /
                          static_cast<double>(k));

  t.Begin(drain_);
  world_->TakeDeltas(&delta_buf_);
  out_->drain_us.push_back(t.End().total_ns * 1e-3);
  out_->delta_rows.push_back(static_cast<double>(delta_buf_.TotalMagnitude()));

  // Route like SharedChainEvaluator::ViewTouched: a view is applied only
  // when one of its subscribed tables has a non-empty delta.
  t.Begin(route_);
  int64_t apply_ns = 0;
  for (Slot& slot : slots_) {
    if (slot.converged) continue;
    ++out_->views_considered;
    bool touched = false;
    delta_buf_.ForEachTable(
        [&](const std::string& table, const view::DeltaMultiset& delta) {
          if (touched || delta.empty()) return;
          if (slot.view->subscriptions().count(table) > 0) touched = true;
        });
    if (!touched) {
      ++out_->views_skipped;
      continue;
    }
    t.Begin(apply_[slot.pool_index]);
    slot.view->Apply(delta_buf_);
    const int64_t ns = t.End().total_ns;
    apply_ns += ns;
    out_->apply_us_by_query[slot.pool_index].push_back(ns * 1e-3);
  }
  out_->route_us.push_back(t.End().self_ns * 1e-3);
  out_->apply_us.push_back(apply_ns * 1e-3);

  // Fold every live query's answer set (its batched-means stats too), then
  // apply the freeze rule. The answer-set vector dies inside the observe
  // span, as it does inside SharedChainEvaluator::ObserveSample.
  int64_t observe_ns = 0;
  int64_t convergence_ns = 0;
  double tuples = 0.0;
  for (Slot& slot : slots_) {
    if (slot.converged) continue;
    t.Begin(observe_);
    {
      std::vector<Tuple> distinct;
      distinct.reserve(slot.view->contents().distinct_size());
      slot.view->contents().ForEach(
          [&](const Tuple& tuple, int64_t) { distinct.push_back(tuple); });
      slot.answer.ObserveSampleContaining(distinct);
      tuples += static_cast<double>(distinct.size());
      if (tracking_) {
        t.Begin(convergence_);
        slot.stats->ObserveSample(distinct);
        convergence_ns += t.End().total_ns;
      }
    }
    observe_ns += t.End().self_ns;
    if (!tracking_) continue;
    t.Begin(convergence_);
    if (slot.answer.num_samples() >= min_samples_ &&
        slot.stats->MaxHalfWidth(z_) <= kEps) {
      slot.converged = true;
      ++num_converged_;
      slot.view->set_paused(true);
    }
    convergence_ns += t.End().total_ns;
  }
  out_->observe_us.push_back(observe_ns * 1e-3);
  out_->answer_tuples.push_back(tuples);
  if (tracking_) out_->convergence_us.push_back(convergence_ns * 1e-3);
  ++out_->samples;
  t.End();
}

void ReportLayers(const LayerSamples& s, const Tracer& tracer, int64_t wall_ns,
                  Report* report) {
  report->Add("storage", "storage.snapshot_ms", "ms", s.snapshot_ms);
  if (!s.store_world_ms.empty()) {
    report->Add("storage", "storage.store_world_ms", "ms", s.store_world_ms);
  }
  report->Add("api", "api.prepare_us", "us", s.prepare_us);
  report->Add("view", "view.compile_us", "us", s.compile_us);
  report->Add("infer", "infer.burn_in_s", "s", s.burn_in_s);
  report->Add("infer", "infer.step_ns", "ns", s.step_ns);
  report->AddValue("infer", "infer.accept_rate", "ratio",
                   s.proposed == 0 ? 0.0
                                   : static_cast<double>(s.accepted) /
                                         static_cast<double>(s.proposed),
                   s.arena_tuples.size());
  if (!s.convergence_us.empty()) {
    report->Add("infer", "infer.convergence_us", "us", s.convergence_us);
  }
  report->AddValue("pdb", "pdb.mirror_ns", "ns",
                   s.mirrored == 0 ? 0.0
                                   : static_cast<double>(s.mirror_ns) /
                                         static_cast<double>(s.mirrored),
                   s.mirrored);
  report->Add("pdb", "pdb.delta_drain_us", "us", s.drain_us);
  report->Add("pdb", "pdb.delta_rows", "count", s.delta_rows, Stat::kMean);
  report->Add("pdb", "pdb.route_us", "us", s.route_us);
  report->Add("pdb", "pdb.observe_us", "us", s.observe_us);
  report->Add("pdb", "pdb.answer_tuples", "count", s.answer_tuples);
  report->Add("view", "view.initialize_ms", "ms", s.view_init_ms);
  report->Add("view", "view.apply_us", "us", s.apply_us, Stat::kMean);
  for (size_t q = 0; q < 4; ++q) {
    if (s.apply_us_by_query[q].empty()) continue;
    report->Add("view", "view.apply_us.q" + std::to_string(q + 1), "us",
                s.apply_us_by_query[q]);
  }
  const double samples = std::max<double>(1.0, static_cast<double>(s.samples));
  report->AddValue("view", "view.ops_visited", "count",
                   static_cast<double>(s.ops_visited) / samples, s.samples);
  report->AddValue("view", "view.ops_skipped", "count",
                   static_cast<double>(s.ops_skipped) / samples, s.samples);
  report->AddValue("view", "view.views_skipped_frac", "ratio",
                   s.views_considered == 0
                       ? 0.0
                       : static_cast<double>(s.views_skipped) /
                             static_cast<double>(s.views_considered),
                   s.views_considered);
  report->Add("view", "view.arena_tuples", "count", s.arena_tuples);

  // Attribution: layer spans are "<layer>.<op>"; "bench.*" spans are the
  // harness's own glue, so their self time is the unattributed share.
  int64_t glue_ns = 0;
  int64_t layer_ns = 0;
  for (size_t i = 0; i < tracer.names().size(); ++i) {
    const std::string& name = tracer.names()[i];
    const int64_t self = tracer.self_ns()[i];
    if (name.rfind("bench.", 0) == 0) {
      glue_ns += self;
    } else if (name.rfind("serve.", 0) != 0) {
      layer_ns += self;
    }
  }
  const double wall = std::max<double>(1.0, static_cast<double>(wall_ns));
  report->AddValue("trace", "trace.unattributed_frac", "ratio",
                   static_cast<double>(glue_ns) / wall);
  report->AddValue("trace", "trace.layer_sum_frac", "ratio",
                   static_cast<double>(layer_ns) / wall);
  // Tracing overhead: every span costs two clock reads and its
  // bookkeeping, calibrated where the run executes, as a share of the
  // traced wall.
  const double spans = static_cast<double>(tracer.stored() + tracer.dropped());
  const double span_ns = Tracer::CalibrateSpanNs();
  report->AddValue("trace", "trace.spans", "count", spans);
  report->AddValue("trace", "trace.span_ns", "ns", span_ns);
  report->AddValue("trace", "trace.overhead_frac", "ratio",
                   spans * span_ns / wall);
}

}  // namespace e2e
}  // namespace fgpdb
