// Incremental (delta-maintained) query operators — the paper's §4.2.
//
// An IncrementalOperator tree is compiled from the same ra:: plan the full
// executor runs. Initialize() performs the one exhaustive evaluation of the
// initial world (the base case of Eq. 6); ApplyDelta() then consumes base-
// table deltas produced by MCMC and emits the view's output delta:
//
//   Q(w') = Q(w) − Q'(w, Δ−) ∪ Q'(w, Δ+)            (paper Eq. 6)
//
// realized operator-by-operator:
//   σ:  Δout = σ(Δin)                                (linear)
//   π:  Δout = π(Δin)  with signed multiset counts   (paper's Remark)
//   ⋈:  Δout = ΔL⋈R_old + ΔR⋈L_new                   (bilinear; folding ΔL
//        into the materialized left state before probing ΔR absorbs the
//        ΔL⋈ΔR cross term into hash lookups — no nested loop)
//   γ:  per-group running states updated by Δin; emits −old_row/+new_row
//   δ:  distinct via support counts (emit on 0→positive transitions)
//
// The PR-3 routed pipeline wraps the tree in three mechanisms:
//
//   * Subscriptions — compilation records which base tables each subtree
//     scans (bitmask per operator, built from the plan's scanned-table
//     metadata). Apply() routes a round's deltas by computing the set of
//     touched tables once; a subtree whose mask misses every touched table
//     is skipped outright and contributes an empty delta without being
//     visited.
//   * Reusable buffers — ApplyDelta returns a pointer to the operator's
//     internal output buffer (or to the DeltaSet's own per-table multiset
//     for scans, or the shared empty delta when skipped) instead of a
//     freshly allocated DeltaMultiset per call. Buffers retain their hash
//     storage across rounds.
//   * Tuple interning — all stateful operators of one view (join sides,
//     aggregate groups, distinct support) reference tuples interned in a
//     per-view TupleArena instead of holding private deep copies; a tuple
//     materialized by both sides of a self-join is stored once.
//
// Initialization streams. Each operator pushes its rows to its parent one at
// a time: a scan hands every live row to its parent by reference, σ filters
// and π maps in the same pass, and ⋈ (both sides), γ (groups) and DISTINCT
// (support counts) build the state they keep for maintenance from that
// stream. Only that state and the view's contents hold tuples; no operator
// materializes its child's whole output.
//
// Operators never re-read the Database after Initialize(); all state needed
// for maintenance is carried internally, so the stored world may drift ahead
// as long as deltas arrive in order. A view (and its arena) belongs to one
// thread; parallel chains each compile their own view.
#ifndef FGPDB_VIEW_INCREMENTAL_H_
#define FGPDB_VIEW_INCREMENTAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ra/plan.h"
#include "storage/database.h"
#include "view/delta.h"

namespace fgpdb {
namespace view {

/// Append-only interning pool for the tuples a view's operators keep alive.
/// Interned pointers are stable for the arena's lifetime (node-based set),
/// so operator state can hold `const Tuple*` instead of tuple copies.
/// Entries are never evicted: the pool grows with the number of distinct
/// tuples ever materialized, which MCMC workloads bound by (rows × domain).
class TupleArena {
 public:
  const Tuple* Intern(const Tuple& tuple) {
    return &*pool_.insert(tuple).first;
  }
  const Tuple* Intern(Tuple&& tuple) {
    return &*pool_.insert(std::move(tuple)).first;
  }

  /// Distinct tuples interned so far.
  size_t size() const { return pool_.size(); }

 private:
  std::unordered_set<Tuple, TupleHasher> pool_;
};

/// Counters describing how Apply() rounds were routed (diagnostics and
/// benches).
struct ApplyStats {
  uint64_t rounds = 0;
  /// Apply() rounds short-circuited because the view was paused (its answer
  /// converged, so the caller drained it from the fan-out).
  uint64_t rounds_short_circuited = 0;
  /// Operators actually entered across all rounds.
  uint64_t operators_visited = 0;
  /// Operators skipped because no table of their subtree was touched
  /// (counted per skipped node, so visited + skipped = rounds × tree size).
  uint64_t operators_skipped = 0;
  /// Non-empty per-table deltas routed into the tree.
  uint64_t tables_routed = 0;
  /// Non-empty per-table deltas for tables no scan subscribes to.
  uint64_t tables_ignored = 0;
};

/// Per-view shared state: the interning arena, the subscription map built at
/// compile time, the routing mask for the round in flight, and counters.
struct ViewRuntime {
  TupleArena arena;
  ApplyStats stats;

  /// Bit i set ⇔ table with id i has a non-empty delta this round. Set by
  /// MaterializedView::Apply before walking the tree.
  uint64_t touched_mask = 0;

  /// Table name → routing bit, assigned in first-registration (plan
  /// pre-order) order. Tables past 63 share the last bit — routing
  /// degrades to "maybe touched" there, never to a missed delta.
  std::unordered_map<std::string, uint64_t> table_masks;
  /// Subscription map: table name → number of scan operators reading it.
  std::unordered_map<std::string, size_t> subscriptions;

  /// Assigns (or looks up) the routing bit for `table`.
  uint64_t RegisterTable(const std::string& table);
  /// RegisterTable plus a subscription count — called by each compiled scan.
  uint64_t SubscribeScan(const std::string& table);
  /// Routing bit for `table`; 0 if no scan subscribes to it.
  uint64_t MaskOf(const std::string& table) const;
};

/// Receives one row of an operator's initial output and its count.
using TupleSink = std::function<void(const Tuple&, int64_t)>;

class IncrementalOperator {
 public:
  explicit IncrementalOperator(ViewRuntime* runtime) : runtime_(runtime) {}
  virtual ~IncrementalOperator() = default;

  /// Full evaluation against the current world; (re)sets internal state.
  /// Pushes this operator's output bag to `emit`, one row at a time, every
  /// count >= 1 (a row may arrive more than once; the counts add up). The
  /// row reference is valid only during the call. Only stateful operators
  /// (⋈, γ, DISTINCT) keep tuples; σ, π and scans forward as they go.
  virtual void Initialize(const Database& db, const TupleSink& emit) = 0;

  /// Consumes base-table deltas and returns this operator's output delta.
  /// The result points at a reusable internal buffer (or the DeltaSet's own
  /// per-table delta for scans, or the shared empty delta when the routing
  /// mask proves this subtree untouched) and is valid until the next
  /// ApplyDelta call on this operator.
  const DeltaMultiset* ApplyDelta(const DeltaSet& deltas);

  /// Base tables read by this subtree, as a routing bitmask.
  uint64_t reads_mask() const { return reads_mask_; }
  /// Number of operators in this subtree (including this one).
  size_t subtree_size() const { return subtree_size_; }

 protected:
  /// The operator body; only called when the routing mask says some table
  /// of this subtree was touched this round.
  virtual const DeltaMultiset* ApplyDeltaImpl(const DeltaSet& deltas) = 0;

  /// Folds a child's routing metadata into this operator's (call once per
  /// child in the derived constructor).
  void AbsorbChild(const IncrementalOperator& child) {
    reads_mask_ |= child.reads_mask();
    subtree_size_ += child.subtree_size();
  }

  ViewRuntime* runtime_;
  uint64_t reads_mask_ = 0;
  size_t subtree_size_ = 1;
};

using IncrementalOperatorPtr = std::unique_ptr<IncrementalOperator>;

/// A compiled operator tree plus the runtime (arena, subscriptions, stats)
/// its operators reference. Movable; the runtime address is stable.
class CompiledView {
 public:
  explicit CompiledView(const ra::PlanNode& plan);

  IncrementalOperator& root() { return *root_; }
  ViewRuntime& runtime() { return *runtime_; }
  const ViewRuntime& runtime() const { return *runtime_; }

 private:
  std::unique_ptr<ViewRuntime> runtime_;
  IncrementalOperatorPtr root_;
};

/// Compiles a plan into an incremental operator tree with its subscription
/// map. OrderBy nodes are skipped (view contents are multisets);
/// Limit/Distinct-with-Limit are rejected as non-incremental. Fatal on
/// unsupported shapes.
CompiledView Compile(const ra::PlanNode& plan);

/// A maintained view: operator tree + its current materialized contents.
class MaterializedView {
 public:
  /// Compiles `plan`; call Initialize before reading contents.
  explicit MaterializedView(const ra::PlanNode& plan);

  /// Runs the one full evaluation of the initial world: the root's rows
  /// stream into the (cleared) contents. Calling it again rebuilds the view
  /// from `db`.
  void Initialize(const Database& db);

  /// Folds a round of base-table deltas into the view; returns the output
  /// delta (what changed in the answer). Each table's delta is routed only
  /// to the subtrees subscribed to it; untouched subtrees are skipped. The
  /// returned reference is valid until the next Apply.
  const DeltaMultiset& Apply(const DeltaSet& deltas);

  /// Current contents (bag: counts >= 1).
  const DeltaMultiset& contents() const { return contents_; }

  bool initialized() const { return initialized_; }

  /// Convergence short-circuit: while paused, Apply() returns an empty
  /// delta without entering the operator tree and the contents freeze.
  /// Deltas skipped while paused are NOT replayed on resume — a resumed
  /// view is stale and must be re-Initialized to catch up. Intended for
  /// views whose marginal estimates have converged (run-until-error-bound):
  /// they stop paying apply cost while the chain keeps serving other views.
  void set_paused(bool paused) { paused_ = paused; }
  bool paused() const { return paused_; }

  /// Subscription map: base table → number of scan operators reading it.
  const std::unordered_map<std::string, size_t>& subscriptions() const {
    return compiled_.runtime().subscriptions;
  }

  /// Routing/visit counters accumulated over all Apply rounds.
  const ApplyStats& stats() const { return compiled_.runtime().stats; }

  /// Distinct tuples interned by this view's operators (diagnostics).
  size_t arena_size() const { return compiled_.runtime().arena.size(); }

 private:
  CompiledView compiled_;
  DeltaMultiset contents_;
  // Reused empty output for short-circuited rounds (keeps the "valid until
  // the next Apply" contract without touching operator buffers).
  DeltaMultiset paused_out_;
  bool initialized_ = false;
  bool paused_ = false;
};

}  // namespace view
}  // namespace fgpdb

#endif  // FGPDB_VIEW_INCREMENTAL_H_
