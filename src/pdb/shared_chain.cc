#include "pdb/shared_chain.h"

#include <algorithm>
#include <unordered_set>

#include "ra/executor.h"
#include "util/logging.h"

namespace fgpdb {
namespace pdb {

namespace {

std::vector<Tuple> DistinctTuples(const std::vector<Tuple>& bag) {
  std::unordered_set<Tuple, TupleHasher> seen;
  std::vector<Tuple> out;
  for (const Tuple& t : bag) {
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

}  // namespace

SharedChainEvaluator::SharedChainEvaluator(ProbabilisticDatabase* pdb,
                                           infer::Proposal* proposal,
                                           EvaluatorOptions options,
                                           bool materialized)
    : pdb_(pdb),
      options_(options),
      materialized_(materialized) {
  FGPDB_CHECK(pdb_ != nullptr);
  // A null proposal defers chain construction to EnableSharding (which
  // builds per-shard proposals from the plan's factory).
  if (proposal != nullptr) sampler_ = pdb_->MakeSampler(proposal, options_.seed);
}

void SharedChainEvaluator::EnableSharding(const ShardPlan& plan,
                                          ShardedExecution exec) {
  FGPDB_CHECK(!initialized_) << "EnableSharding must precede Initialize()";
  FGPDB_CHECK(sampler_ == nullptr)
      << "construct with a nullptr proposal to enable sharding";
  FGPDB_CHECK(runner_ == nullptr);
  FGPDB_CHECK(plan.has_plan()) << "ShardPlan has no proposal factory";
  FGPDB_CHECK_GT(plan.num_shards, 0u);
  std::vector<std::unique_ptr<infer::Proposal>> proposals;
  proposals.reserve(plan.num_shards);
  for (size_t s = 0; s < plan.num_shards; ++s) {
    proposals.push_back(plan.make_proposal(*pdb_, s));
  }
  runner_ = std::make_unique<infer::ShardRunner>(
      pdb_->model(), &pdb_->world(), std::move(proposals), plan.partition,
      infer::ShardRunnerOptions{options_.seed, exec.use_threads,
                                exec.max_threads});
}

void SharedChainEvaluator::StepChain(size_t n) {
  if (runner_ != nullptr) {
    // Shard chains advance the world privately, then their buffered
    // accepted-jump streams drain in shard order into the same mirror +
    // accumulator path the serial sampler's listener feeds.
    runner_->Step(n, [this](const std::vector<factor::AppliedAssignment>&
                                applied) { pdb_->MirrorApplied(applied); });
  } else {
    sampler_->Run(n);
  }
}

size_t SharedChainEvaluator::AddQuery(const ra::PlanNode* plan) {
  FGPDB_CHECK(plan != nullptr);
  Slot slot;
  slot.plan = plan;
  if (tracking_) slot.stats = std::make_unique<MarginalErrorStats>();
  if (materialized_) {
    slot.view = std::make_unique<view::MaterializedView>(*plan);
    for (const auto& [table, scans] : slot.view->subscriptions()) {
      subscriptions_[table] += scans;
    }
    if (initialized_) {
      // Bring the chain's existing views current (the accumulator may hold
      // deltas from steps taken since the last drain), then evaluate the
      // new view against the same world. No sample is observed here —
      // registration never advances any query's marginals.
      pdb_->TakeDeltas(&delta_buf_);
      for (Slot& existing : slots_) existing.view->Apply(delta_buf_);
      slot.view->Initialize(pdb_->db());
    }
  }
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void SharedChainEvaluator::Initialize() {
  FGPDB_CHECK(!initialized_);
  FGPDB_CHECK(sampler_ != nullptr || runner_ != nullptr)
      << "construct with a proposal or call EnableSharding first";
  if (runner_ != nullptr) {
    // Detached burn-in: the world advances without buffering its ~40·n
    // accepted jumps, then one full StoreWorld resynchronizes the tables.
    // End state is identical to a mirrored burn-in + DiscardDeltas (the
    // discarded deltas were never observable).
    runner_->RunBurnIn(options_.burn_in);
    pdb_->binding().StoreWorld(pdb_->world(), &pdb_->db());
  } else {
    sampler_->Run(options_.burn_in);
  }
  pdb_->DiscardDeltas();
  if (materialized_) {
    // The one exhaustive query per view over the initial world (Alg. 1
    // line 2) — K queries share the burn-in above.
    for (Slot& slot : slots_) slot.view->Initialize(pdb_->db());
  }
  initialized_ = true;
}

bool SharedChainEvaluator::ViewTouched(const view::MaterializedView& view,
                                       const view::DeltaSet& deltas) {
  bool touched = false;
  deltas.ForEachTable([&](const std::string& table,
                          const view::DeltaMultiset& delta) {
    if (touched || delta.empty()) return;
    if (view.subscriptions().count(table) > 0) touched = true;
  });
  return touched;
}

void SharedChainEvaluator::ObserveSample(Slot* slot) {
  std::vector<Tuple> distinct;
  if (materialized_) {
    distinct.reserve(slot->view->contents().distinct_size());
    slot->view->contents().ForEach(
        [&](const Tuple& t, int64_t) { distinct.push_back(t); });
  } else {
    distinct = DistinctTuples(ra::Execute(*slot->plan, pdb_->db()));
  }
  slot->answer.ObserveSampleContaining(distinct);
  if (slot->stats != nullptr) slot->stats->ObserveSample(distinct);
}

void SharedChainEvaluator::MaybeFreeze(Slot* slot) {
  if (!tracking_ || slot->converged) return;
  if (slot->answer.num_samples() < convergence_.min_samples) return;
  if (slot->stats->MaxHalfWidth(z_) > convergence_.eps) return;
  // The bound holds: freeze the slot. Its view is paused (Apply becomes a
  // short-circuit) and its tables leave the chain-level union map, so the
  // routed fan-out stops paying for this query entirely.
  slot->converged = true;
  ++num_converged_;
  if (slot->view != nullptr) {
    slot->view->set_paused(true);
    for (const auto& [table, scans] : slot->view->subscriptions()) {
      const auto it = subscriptions_.find(table);
      if (it == subscriptions_.end()) continue;
      it->second -= std::min(it->second, scans);
      if (it->second == 0) subscriptions_.erase(it);
    }
  }
}

void SharedChainEvaluator::EnableConvergenceTracking(
    const ConvergenceOptions& options) {
  FGPDB_CHECK(!initialized_)
      << "EnableConvergenceTracking must precede Initialize()";
  FGPDB_CHECK_GT(options.eps, 0.0);
  tracking_ = true;
  convergence_ = options;
  z_ = infer::ZForConfidence(options.confidence);
  for (Slot& slot : slots_) {
    if (slot.stats == nullptr) {
      slot.stats = std::make_unique<MarginalErrorStats>();
    }
  }
}

double SharedChainEvaluator::MaxHalfWidth(size_t slot) const {
  FGPDB_CHECK(tracking_);
  return slots_.at(slot).stats->MaxHalfWidth(z_);
}

uint64_t SharedChainEvaluator::RunQuantum(uint64_t max_samples) {
  if (!initialized_) Initialize();
  uint64_t drawn = 0;
  while (drawn < max_samples) {
    if (tracking_ && all_converged()) break;
    DrawSample();
    ++drawn;
  }
  return drawn;
}

void SharedChainEvaluator::DrawSample() {
  FGPDB_CHECK(initialized_);
  StepChain(options_.steps_per_sample);

  if (!materialized_) {
    pdb_->DiscardDeltas();
    for (Slot& slot : slots_) {
      if (slot.converged) continue;  // frozen: answer already within ±eps
      ObserveSample(&slot);
      MaybeFreeze(&slot);
    }
    return;
  }

  // One drain, K views: the accumulator expands to per-table Δ−/Δ+ once
  // and the same DeltaSet is routed through every registered view. A view
  // none of whose subscribed tables were touched is skipped without being
  // entered at all.
  pdb_->TakeDeltas(&delta_buf_);
  for (Slot& slot : slots_) {
    if (slot.converged) continue;  // drained: paused view, no apply cost
    if (ViewTouched(*slot.view, delta_buf_)) {
      slot.view->Apply(delta_buf_);
    } else {
      ++views_skipped_;
    }
  }
  for (Slot& slot : slots_) {
    if (slot.converged) continue;
    ObserveSample(&slot);
    MaybeFreeze(&slot);
  }
}

std::vector<Tuple> SharedChainEvaluator::CurrentAnswerSet(size_t slot) const {
  const Slot& s = slots_.at(slot);
  if (materialized_) {
    std::vector<Tuple> distinct;
    s.view->contents().ForEach(
        [&](const Tuple& t, int64_t) { distinct.push_back(t); });
    return distinct;
  }
  return DistinctTuples(ra::Execute(*s.plan, pdb_->db()));
}

const view::MaterializedView& SharedChainEvaluator::materialized_view(
    size_t slot) const {
  FGPDB_CHECK(materialized_);
  return *slots_.at(slot).view;
}

}  // namespace pdb
}  // namespace fgpdb
