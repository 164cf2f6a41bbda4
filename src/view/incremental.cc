#include "view/incremental.h"

#include <map>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace fgpdb {
namespace view {

uint64_t ViewRuntime::RegisterTable(const std::string& table) {
  const auto it = table_masks.find(table);
  if (it != table_masks.end()) return it->second;
  // Tables beyond 63 share the top bit: routing over-approximates ("maybe
  // touched") instead of widening the mask — never misses a delta.
  const size_t id = table_masks.size();
  const uint64_t mask = uint64_t{1} << (id < 64 ? id : 63);
  table_masks.emplace(table, mask);
  return mask;
}

uint64_t ViewRuntime::SubscribeScan(const std::string& table) {
  const uint64_t mask = RegisterTable(table);
  ++subscriptions[table];
  return mask;
}

uint64_t ViewRuntime::MaskOf(const std::string& table) const {
  const auto it = table_masks.find(table);
  return it == table_masks.end() ? 0 : it->second;
}

const DeltaMultiset* IncrementalOperator::ApplyDelta(const DeltaSet& deltas) {
  if ((reads_mask_ & runtime_->touched_mask) == 0) {
    // No table this subtree reads was touched this round: its input delta
    // is empty, so its output delta is empty and its state cannot change.
    runtime_->stats.operators_skipped += subtree_size_;
    return &DeltaMultiset::Empty();
  }
  ++runtime_->stats.operators_visited;
  return ApplyDeltaImpl(deltas);
}

namespace {

using ra::AggregateSpec;

// ---------------------------------------------------------------------------
// Scan: deltas for the base table pass straight through — by pointer, not by
// copy: the parent reads the DeltaSet's own multiset. Initialization hands
// each live row to the parent by reference.
// ---------------------------------------------------------------------------
class IncScan final : public IncrementalOperator {
 public:
  IncScan(ViewRuntime* runtime, std::string table)
      : IncrementalOperator(runtime), table_(std::move(table)) {
    reads_mask_ = runtime_->SubscribeScan(table_);
  }

  void Initialize(const Database& db, const TupleSink& emit) override {
    db.RequireTable(table_)->Scan([&](RowId, const Tuple& t) { emit(t, 1); });
  }

 protected:
  const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) override {
    return &deltas.Get(table_);
  }

 private:
  std::string table_;
};

// ---------------------------------------------------------------------------
// Select: σ distributes over deltas — σ(w') = σ(w) − σ(Δ−) ∪ σ(Δ+).
// ---------------------------------------------------------------------------
class IncSelect final : public IncrementalOperator {
 public:
  IncSelect(ViewRuntime* runtime, IncrementalOperatorPtr child,
            ra::ExprPtr predicate)
      : IncrementalOperator(runtime),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {
    AbsorbChild(*child_);
  }

  void Initialize(const Database& db, const TupleSink& emit) override {
    child_->Initialize(db, [&](const Tuple& t, int64_t c) {
      if (predicate_->EvalBool(t)) emit(t, c);
    });
  }

 protected:
  const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) override {
    const DeltaMultiset* in = child_->ApplyDelta(deltas);
    out_.Clear();
    in->ForEach([&](const Tuple& t, int64_t c) {
      if (predicate_->EvalBool(t)) out_.Add(t, c);
    });
    return &out_;
  }

 private:
  IncrementalOperatorPtr child_;
  ra::ExprPtr predicate_;
  DeltaMultiset out_;
};

// ---------------------------------------------------------------------------
// Project: π over signed multisets implements the paper's Remark — counters
// track how many input tuples map to each output tuple, so set-difference /
// union under projection stay correct.
// ---------------------------------------------------------------------------
class IncProject final : public IncrementalOperator {
 public:
  IncProject(ViewRuntime* runtime, IncrementalOperatorPtr child,
             std::vector<ra::ExprPtr> outputs)
      : IncrementalOperator(runtime),
        child_(std::move(child)),
        outputs_(std::move(outputs)),
        scratch_(std::vector<Value>(outputs_.size())) {
    AbsorbChild(*child_);
  }

  void Initialize(const Database& db, const TupleSink& emit) override {
    child_->Initialize(db,
                       [&](const Tuple& t, int64_t c) { emit(Map(t), c); });
  }

 protected:
  const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) override {
    const DeltaMultiset* in = child_->ApplyDelta(deltas);
    out_.Clear();
    in->ForEach([&](const Tuple& t, int64_t c) { out_.Add(Map(t), c); });
    return &out_;
  }

 private:
  /// Evaluates the outputs over `t` into the reused scratch tuple; the
  /// result is valid until the next call.
  const Tuple& Map(const Tuple& t) {
    for (size_t i = 0; i < outputs_.size(); ++i) {
      scratch_.at(i) = outputs_[i]->Eval(t);
    }
    return scratch_;
  }

  IncrementalOperatorPtr child_;
  std::vector<ra::ExprPtr> outputs_;
  DeltaMultiset out_;
  Tuple scratch_;
};

// Signed counts keyed by interned tuple pointer. Join-key buckets are
// usually tiny (a handful of rows share a key), so entries live in an
// inline vector scanned by pointer equality — no hashing, no node
// allocations — spilling to a hash map only for hot keys.
class PtrBag {
 public:
  static constexpr size_t kInlineCapacity = 8;

  void Add(const Tuple* tuple, int64_t count) {
    if (!spilled_) {
      for (auto& entry : inline_) {
        if (entry.first == tuple) {
          entry.second += count;
          if (entry.second == 0) {
            entry = inline_.back();
            inline_.pop_back();
          }
          return;
        }
      }
      if (inline_.size() < kInlineCapacity) {
        inline_.emplace_back(tuple, count);
        return;
      }
      counts_.reserve(4 * kInlineCapacity);
      for (const auto& entry : inline_) {
        counts_.emplace(entry.first, entry.second);
      }
      inline_.clear();
      spilled_ = true;
    }
    const auto [it, inserted] = counts_.try_emplace(tuple, count);
    if (!inserted) {
      it->second += count;
      if (it->second == 0) counts_.erase(it);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!spilled_) {
      for (const auto& [tuple, count] : inline_) fn(tuple, count);
      return;
    }
    for (const auto& [tuple, count] : counts_) fn(tuple, count);
  }

 private:
  std::vector<std::pair<const Tuple*, int64_t>> inline_;
  std::unordered_map<const Tuple*, int64_t> counts_;
  bool spilled_ = false;
};

// ---------------------------------------------------------------------------
// Join: ⋈ is bilinear, so (L+ΔL)⋈(R+ΔR) = L⋈R + ΔL⋈R_old + (L+ΔL)⋈ΔR.
// Folding ΔL into the materialized left state *before* probing with ΔR
// makes the second term cover both L_old⋈ΔR and the ΔL⋈ΔR cross term, so
// every delta term is hash-grouped probing — there is no nested loop over
// ΔL×ΔR. State buckets hold pointers into the view's TupleArena, so a tuple
// materialized by both sides of a self-join is stored once. Empty key lists
// degrade to a Cartesian product (single bucket).
//
// Initialization is the same rule with L and R starting empty: the right
// child streams into the right state, then each streamed left tuple probes
// the complete right state and is folded into the left state.
//
// The join condition is a list of key alternatives (plain equi-joins are a
// single alternative): each side keeps one keyed state per alternative, and
// a probe tuple matches the union of its per-alternative buckets. A state
// tuple reachable through several alternatives pairs with the probe once —
// matches are deduped by interned pointer, which is exact because every
// alternative's bucket holds the same (pointer, count) entry for it.
// ---------------------------------------------------------------------------
class IncJoin final : public IncrementalOperator {
 public:
  IncJoin(ViewRuntime* runtime, IncrementalOperatorPtr left,
          IncrementalOperatorPtr right,
          std::vector<ra::JoinKeyAlternative> alternatives,
          ra::ExprPtr residual)
      : IncrementalOperator(runtime),
        left_(std::move(left)),
        right_(std::move(right)),
        alternatives_(std::move(alternatives)),
        residual_(std::move(residual)) {
    FGPDB_CHECK(!alternatives_.empty());
    left_states_.resize(alternatives_.size());
    right_states_.resize(alternatives_.size());
    AbsorbChild(*left_);
    AbsorbChild(*right_);
  }

  void Initialize(const Database& db, const TupleSink& emit) override {
    for (auto& state : left_states_) state.clear();
    for (auto& state : right_states_) state.clear();
    right_->Initialize(db, [&](const Tuple& t, int64_t c) {
      FoldTuple(t, c, /*fold_left=*/false);
    });
    left_->Initialize(db, [&](const Tuple& t, int64_t c) {
      Probe(t, c, /*probe_left=*/true, emit);
      FoldTuple(t, c, /*fold_left=*/true);
    });
  }

 protected:
  const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) override {
    out_.Clear();
    // ΔL ⋈ R_old, then fold ΔL so the ΔR probe below sees L_new = L + ΔL.
    const DeltaMultiset* dl = left_->ApplyDelta(deltas);
    if (!dl->empty()) {
      JoinAgainst(*dl, /*probe_left=*/true, &out_);
      Fold(*dl, /*fold_left=*/true);
    }
    // ΔR ⋈ L_new — absorbs the ΔL⋈ΔR cross term into the hash probes.
    const DeltaMultiset* dr = right_->ApplyDelta(deltas);
    if (!dr->empty()) {
      JoinAgainst(*dr, /*probe_left=*/false, &out_);
      Fold(*dr, /*fold_left=*/false);
    }
    return &out_;
  }

 private:
  // key tuple -> bucket of matching interned tuples.
  using KeyedState = std::unordered_map<Tuple, PtrBag, TupleHasher>;

  /// Interns `t` and adds `c` to its bucket in every alternative's state.
  void FoldTuple(const Tuple& t, int64_t c, bool fold_left) {
    auto& states = fold_left ? left_states_ : right_states_;
    const Tuple* interned = runtime_->arena.Intern(t);
    for (size_t a = 0; a < alternatives_.size(); ++a) {
      const auto& keys = fold_left ? alternatives_[a].left_keys
                                   : alternatives_[a].right_keys;
      t.ProjectInto(keys, &key_scratch_);
      // Leaves empty buckets in place; they are rare and harmless.
      states[a][key_scratch_].Add(interned, c);
    }
  }

  void Fold(const DeltaMultiset& delta, bool fold_left) {
    delta.ForEach(
        [&](const Tuple& t, int64_t c) { FoldTuple(t, c, fold_left); });
  }

  /// Sends probe tuple × state tuple, in left-right order, to `sink` when
  /// the residual holds.
  template <typename Sink>
  void Emit(const Tuple& pt, const Tuple& st, int64_t count, bool probe_left,
            const Sink& sink) const {
    const Tuple joined =
        probe_left ? Tuple::Concat(pt, st) : Tuple::Concat(st, pt);
    if (residual_ == nullptr || residual_->EvalBool(joined)) {
      sink(joined, count);
    }
  }

  /// Joins one probe tuple against the opposite side's materialized state.
  template <typename Sink>
  void Probe(const Tuple& pt, int64_t pc, bool probe_left, const Sink& sink) {
    if (alternatives_.size() == 1) {
      ProbeSingle(pt, pc, probe_left, sink);
    } else {
      ProbeAlternatives(pt, pc, probe_left, sink);
    }
  }

  /// Single alternative (every plain equi-/cross join): one state lookup
  /// per probe tuple, no cross-alternative dedup.
  template <typename Sink>
  void ProbeSingle(const Tuple& pt, int64_t pc, bool probe_left,
                   const Sink& sink) {
    const auto& state = probe_left ? right_states_[0] : left_states_[0];
    pt.ProjectInto(probe_left ? alternatives_[0].left_keys
                              : alternatives_[0].right_keys,
                   &key_scratch_);
    const auto it = state.find(key_scratch_);
    if (it == state.end()) return;
    it->second.ForEach([&](const Tuple* st, int64_t sc) {
      Emit(pt, *st, pc * sc, probe_left, sink);
    });
  }

  template <typename Sink>
  void ProbeAlternatives(const Tuple& pt, int64_t pc, bool probe_left,
                         const Sink& sink) {
    const auto& states = probe_left ? right_states_ : left_states_;
    matches_.clear();
    for (size_t a = 0; a < alternatives_.size(); ++a) {
      pt.ProjectInto(probe_left ? alternatives_[a].left_keys
                                : alternatives_[a].right_keys,
                     &key_scratch_);
      const auto it = states[a].find(key_scratch_);
      if (it == states[a].end()) continue;
      it->second.ForEach([&](const Tuple* st, int64_t sc) {
        for (const auto& [seen, count] : matches_) {
          (void)count;
          if (seen == st) return;
        }
        matches_.emplace_back(st, sc);
      });
    }
    for (const auto& [st, sc] : matches_) {
      Emit(pt, *st, pc * sc, probe_left, sink);
    }
  }

  /// Joins `probe` against the opposite side's materialized state.
  void JoinAgainst(const DeltaMultiset& probe, bool probe_left,
                   DeltaMultiset* out) {
    const auto add = [out](const Tuple& t, int64_t c) { out->Add(t, c); };
    probe.ForEach([&](const Tuple& pt, int64_t pc) {
      Probe(pt, pc, probe_left, add);
    });
  }

  IncrementalOperatorPtr left_;
  IncrementalOperatorPtr right_;
  std::vector<ra::JoinKeyAlternative> alternatives_;
  ra::ExprPtr residual_;
  std::vector<KeyedState> left_states_;
  std::vector<KeyedState> right_states_;
  DeltaMultiset out_;
  // Reused key-projection and match scratch (a view is single-threaded).
  Tuple key_scratch_;
  std::vector<std::pair<const Tuple*, int64_t>> matches_;
};

// ---------------------------------------------------------------------------
// Aggregate: per-group running states folded with signed deltas. COUNT /
// COUNT_IF / SUM / AVG reverse exactly under deletion; MIN/MAX keep an
// ordered value multiset so deleted extrema can be recovered. Group keys are
// interned: the groups map and the per-round snapshot maps hash pointers.
// ---------------------------------------------------------------------------
class IncAggregate final : public IncrementalOperator {
 public:
  IncAggregate(ViewRuntime* runtime, IncrementalOperatorPtr child,
               std::vector<size_t> group_by,
               std::vector<AggregateSpec> aggregates)
      : IncrementalOperator(runtime),
        child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {
    AbsorbChild(*child_);
  }

  void Initialize(const Database& db, const TupleSink& emit) override {
    groups_.clear();
    child_->Initialize(db, [&](const Tuple& t, int64_t c) {
      FGPDB_CHECK_GT(c, 0);
      FoldTuple(t, c);
    });
    for (const auto& [key, state] : groups_) {
      emit(OutputRow(*key, state), 1);
    }
    if (group_by_.empty() && groups_.empty()) {
      emit(OutputRow(Tuple(), GroupState(aggregates_.size())), 1);
    }
  }

 protected:
  const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) override {
    const DeltaMultiset* din = child_->ApplyDelta(deltas);
    out_.Clear();
    if (din->empty()) return &out_;
    // Snapshot the old output row of every group the delta touches.
    old_rows_.clear();
    old_existed_.clear();
    din->ForEach([&](const Tuple& t, int64_t) {
      t.ProjectInto(group_by_, &key_scratch_);
      const Tuple* key = runtime_->arena.Intern(key_scratch_);
      if (old_existed_.count(key) > 0) return;
      const auto it = groups_.find(key);
      const bool existed = it != groups_.end() || group_by_.empty();
      old_existed_[key] = existed;
      if (it != groups_.end()) {
        old_rows_.emplace(key, OutputRow(*key, it->second));
      } else if (group_by_.empty()) {
        old_rows_.emplace(key, OutputRow(*key, GroupState(aggregates_.size())));
      }
    });
    din->ForEach([&](const Tuple& t, int64_t c) { FoldTuple(t, c); });
    for (const auto& [key, existed] : old_existed_) {
      if (existed) out_.Add(old_rows_.at(key), -1);
      const auto it = groups_.find(key);
      if (it != groups_.end()) {
        out_.Add(OutputRow(*key, it->second), 1);
      } else if (group_by_.empty()) {
        out_.Add(OutputRow(*key, GroupState(aggregates_.size())), 1);
      }
    }
    return &out_;
  }

 private:
  struct AggIncState {
    int64_t count = 0;  // Counted rows (COUNT/COUNT_IF) or non-null inputs.
    double sum = 0.0;
    bool sum_integral = true;
    std::map<Value, int64_t> values;  // MIN/MAX support multiset.
  };

  struct GroupState {
    explicit GroupState(size_t n) : support(0), aggs(n) {}
    int64_t support;
    std::vector<AggIncState> aggs;
  };

  void FoldTuple(const Tuple& t, int64_t c) {
    t.ProjectInto(group_by_, &key_scratch_);
    const Tuple* key = runtime_->arena.Intern(key_scratch_);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(key, GroupState(aggregates_.size())).first;
    }
    GroupState& group = it->second;
    group.support += c;
    FGPDB_CHECK_GE(group.support, 0)
        << "negative group support — deltas out of order?";
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      FoldAggregate(aggregates_[a], t, c, group.aggs[a]);
    }
    if (group.support == 0) groups_.erase(it);
  }

  static void FoldAggregate(const AggregateSpec& spec, const Tuple& t,
                            int64_t c, AggIncState& state) {
    switch (spec.kind) {
      case AggregateSpec::Kind::kCount:
        if (spec.argument == nullptr || !spec.argument->Eval(t).is_null()) {
          state.count += c;
        }
        return;
      case AggregateSpec::Kind::kCountIf:
        if (spec.argument->EvalBool(t)) state.count += c;
        return;
      case AggregateSpec::Kind::kCountDistinct: {
        // Support multiset: distinct count = number of values with
        // positive support (exactly reversible under deletion).
        const Value v = spec.argument->Eval(t);
        if (v.is_null()) return;
        auto [it, inserted] = state.values.try_emplace(v, c);
        if (!inserted) {
          it->second += c;
          if (it->second == 0) state.values.erase(it);
        }
        return;
      }
      case AggregateSpec::Kind::kSum:
      case AggregateSpec::Kind::kAvg: {
        const Value v = spec.argument->Eval(t);
        if (v.is_null()) return;
        state.count += c;
        state.sum += static_cast<double>(c) * v.AsNumeric();
        if (v.type() != ValueType::kInt64) state.sum_integral = false;
        return;
      }
      case AggregateSpec::Kind::kMin:
      case AggregateSpec::Kind::kMax: {
        const Value v = spec.argument->Eval(t);
        if (v.is_null()) return;
        auto [it, inserted] = state.values.try_emplace(v, c);
        if (!inserted) {
          it->second += c;
          if (it->second == 0) state.values.erase(it);
        }
        return;
      }
    }
  }

  static Value FinalizeAggregate(const AggregateSpec& spec,
                                 const AggIncState& state) {
    switch (spec.kind) {
      case AggregateSpec::Kind::kCount:
      case AggregateSpec::Kind::kCountIf:
        return Value::Int(state.count);
      case AggregateSpec::Kind::kCountDistinct:
        return Value::Int(static_cast<int64_t>(state.values.size()));
      case AggregateSpec::Kind::kSum:
        if (state.count == 0) return Value::Null();
        return state.sum_integral
                   ? Value::Int(static_cast<int64_t>(state.sum))
                   : Value::Double(state.sum);
      case AggregateSpec::Kind::kAvg:
        if (state.count == 0) return Value::Null();
        return Value::Double(state.sum / static_cast<double>(state.count));
      case AggregateSpec::Kind::kMin:
        return state.values.empty() ? Value::Null()
                                    : state.values.begin()->first;
      case AggregateSpec::Kind::kMax:
        return state.values.empty() ? Value::Null()
                                    : state.values.rbegin()->first;
    }
    return Value::Null();
  }

  Tuple OutputRow(const Tuple& key, const GroupState& state) const {
    std::vector<Value> values;
    values.reserve(group_by_.size() + aggregates_.size());
    for (const Value& v : key.values()) values.push_back(v);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      values.push_back(FinalizeAggregate(aggregates_[a], state.aggs[a]));
    }
    return Tuple(std::move(values));
  }

  IncrementalOperatorPtr child_;
  std::vector<size_t> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::unordered_map<const Tuple*, GroupState> groups_;
  // Per-round scratch (reused so spilled hash storage survives rounds).
  std::unordered_map<const Tuple*, Tuple> old_rows_;
  std::unordered_map<const Tuple*, bool> old_existed_;
  DeltaMultiset out_;
  Tuple key_scratch_;
};

// ---------------------------------------------------------------------------
// Distinct: support counts over interned tuples; an output row appears on a
// 0→positive transition and disappears on positive→0.
// ---------------------------------------------------------------------------
class IncDistinct final : public IncrementalOperator {
 public:
  IncDistinct(ViewRuntime* runtime, IncrementalOperatorPtr child)
      : IncrementalOperator(runtime), child_(std::move(child)) {
    AbsorbChild(*child_);
  }

  void Initialize(const Database& db, const TupleSink& emit) override {
    support_.clear();
    child_->Initialize(db, [&](const Tuple& t, int64_t c) {
      int64_t& count = support_[runtime_->arena.Intern(t)];
      if (count == 0) emit(t, 1);
      count += c;
    });
  }

 protected:
  const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) override {
    const DeltaMultiset* din = child_->ApplyDelta(deltas);
    out_.Clear();
    din->ForEach([&](const Tuple& t, int64_t c) {
      const Tuple* key = runtime_->arena.Intern(t);
      const auto it = support_.try_emplace(key, 0).first;
      const int64_t before = it->second;
      const int64_t after = before + c;
      FGPDB_CHECK_GE(after, 0) << "negative distinct support";
      if (before == 0 && after > 0) out_.Add(t, 1);
      if (before > 0 && after == 0) out_.Add(t, -1);
      if (after == 0) {
        support_.erase(it);
      } else {
        it->second = after;
      }
    });
    return &out_;
  }

 private:
  IncrementalOperatorPtr child_;
  std::unordered_map<const Tuple*, int64_t> support_;
  DeltaMultiset out_;
};

IncrementalOperatorPtr CompileNode(const ra::PlanNode& plan,
                                   ViewRuntime* runtime) {
  switch (plan.kind()) {
    case ra::PlanKind::kScan:
      return std::make_unique<IncScan>(
          runtime, static_cast<const ra::ScanNode&>(plan).table_name());
    case ra::PlanKind::kSelect: {
      const auto& node = static_cast<const ra::SelectNode&>(plan);
      return std::make_unique<IncSelect>(runtime,
                                         CompileNode(plan.child(0), runtime),
                                         node.predicate().Clone());
    }
    case ra::PlanKind::kProject: {
      const auto& node = static_cast<const ra::ProjectNode&>(plan);
      std::vector<ra::ExprPtr> outputs;
      for (const auto& e : node.outputs()) outputs.push_back(e->Clone());
      return std::make_unique<IncProject>(
          runtime, CompileNode(plan.child(0), runtime), std::move(outputs));
    }
    case ra::PlanKind::kJoin: {
      const auto& node = static_cast<const ra::JoinNode&>(plan);
      std::vector<ra::JoinKeyAlternative> alternatives = node.alternatives();
      if (alternatives.empty()) {
        alternatives.push_back({node.left_keys(), node.right_keys()});
      }
      return std::make_unique<IncJoin>(
          runtime, CompileNode(plan.child(0), runtime),
          CompileNode(plan.child(1), runtime), std::move(alternatives),
          node.residual() != nullptr ? node.residual()->Clone() : nullptr);
    }
    case ra::PlanKind::kAggregate: {
      const auto& node = static_cast<const ra::AggregateNode&>(plan);
      std::vector<AggregateSpec> specs;
      for (const auto& spec : node.aggregates()) specs.push_back(spec.Clone());
      return std::make_unique<IncAggregate>(
          runtime, CompileNode(plan.child(0), runtime), node.group_by(),
          std::move(specs));
    }
    case ra::PlanKind::kDistinct:
      return std::make_unique<IncDistinct>(
          runtime, CompileNode(plan.child(0), runtime));
    case ra::PlanKind::kOrderBy:
      // View contents are multisets; ordering is presentation-only.
      return CompileNode(plan.child(0), runtime);
    case ra::PlanKind::kLimit:
      FGPDB_FATAL() << "LIMIT is not incrementally maintainable";
  }
  FGPDB_FATAL() << "unknown plan kind";
  return nullptr;
}

}  // namespace

CompiledView::CompiledView(const ra::PlanNode& plan)
    : runtime_(std::make_unique<ViewRuntime>()) {
  // Register tables from the plan's scanned-table metadata first so routing
  // ids follow plan pre-order regardless of operator construction order.
  for (const std::string& table : plan.ScannedTables()) {
    runtime_->RegisterTable(table);
  }
  root_ = CompileNode(plan, runtime_.get());
}

CompiledView Compile(const ra::PlanNode& plan) { return CompiledView(plan); }

MaterializedView::MaterializedView(const ra::PlanNode& plan)
    : compiled_(plan) {}

void MaterializedView::Initialize(const Database& db) {
  contents_.Clear();
  compiled_.root().Initialize(
      db, [this](const Tuple& t, int64_t c) { contents_.Add(t, c); });
  FGPDB_CHECK(contents_.IsNonNegative());
  initialized_ = true;
}

const DeltaMultiset& MaterializedView::Apply(const DeltaSet& deltas) {
  FGPDB_CHECK(initialized_) << "MaterializedView::Initialize not called";
  ViewRuntime& rt = compiled_.runtime();
  if (paused_) {
    // Convergence short-circuit: a drained view stops paying apply cost.
    // The tree is not entered and the contents freeze at their last state
    // (stale with respect to the chain until the view is resumed).
    ++rt.stats.rounds_short_circuited;
    paused_out_.Clear();
    return paused_out_;
  }
  ++rt.stats.rounds;
  // Route: mark the subscribed tables this round actually touched. Deltas
  // for unsubscribed tables never enter the tree. One pass over the
  // DeltaSet, O(|touched tables|), not over everything ever registered.
  rt.touched_mask = 0;
  deltas.ForEachTable([&](const std::string& table, const DeltaMultiset& d) {
    if (d.empty()) return;
    const uint64_t mask = rt.MaskOf(table);
    if (mask == 0) {
      ++rt.stats.tables_ignored;
    } else {
      rt.touched_mask |= mask;
      ++rt.stats.tables_routed;
    }
  });
  const DeltaMultiset* out = compiled_.root().ApplyDelta(deltas);
  contents_.Merge(*out);
  // Only entries the output delta touched can have gone negative, so the
  // Eq. 6 bookkeeping assertion costs O(|Δout|), not O(|view|).
  out->ForEach([&](const Tuple& t, int64_t) {
    FGPDB_CHECK_GE(contents_.Count(t), 0)
        << "view contents went negative — Eq. 6 bookkeeping violated";
  });
  return *out;
}

}  // namespace view
}  // namespace fgpdb
