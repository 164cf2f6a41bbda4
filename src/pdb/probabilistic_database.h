// ProbabilisticDatabase: the paper's representation (§3) assembled.
//
//   * a Database holding the single current possible world,
//   * a World of hidden-variable assignments mirrored into it,
//   * a TupleBinding connecting the two,
//   * an external factor-graph Model scoring worlds, and
//   * a delta accumulator recording Δ−/Δ+ between query evaluations.
//
// MirrorApplied() carries accepted jumps into the tables and the delta
// buffer — inference runs in memory, the DBMS stays a blackbox, exactly the
// architecture of §5. Every chain is a SharedChainEvaluator, which calls it
// once per interval with its shards' accepted-jump streams in fixed shard
// order; Snapshot() gives each replica chain its own copy-on-write world.
#ifndef FGPDB_PDB_PROBABILISTIC_DATABASE_H_
#define FGPDB_PDB_PROBABILISTIC_DATABASE_H_

#include <memory>
#include <vector>

#include "factor/model.h"
#include "pdb/binding.h"
#include "storage/database.h"
#include "util/logging.h"
#include "view/delta.h"

namespace fgpdb {
namespace pdb {

class ProbabilisticDatabase {
 public:
  ProbabilisticDatabase() : db_(std::make_unique<Database>()) {}

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }

  TupleBinding& binding() { return binding_; }
  const TupleBinding& binding() const { return binding_; }

  factor::World& world() { return world_; }
  const factor::World& world() const { return world_; }

  /// The factor-graph model over this database's hidden variables. Not
  /// owned; must outlive the ProbabilisticDatabase.
  void set_model(const factor::Model* model) { model_ = model; }
  const factor::Model& model() const {
    FGPDB_CHECK(model_ != nullptr) << "model not set";
    return *model_;
  }

  /// Loads the world from the stored field values (call after populating
  /// tables and bindings). A label shadow, if attached, is re-enabled on
  /// the freshly loaded world so the narrow lane survives re-syncs.
  void SyncWorldFromDatabase() {
    const bool shadowed = world_.has_label_shadow();
    world_ = binding_.LoadWorld(*db_);
    if (shadowed) world_.EnableLabelShadow();
  }

  /// Mirrors an already-applied assignment stream into the tables and
  /// coalesces it into the row-granular delta accumulator (one pre-image
  /// per touched row, however often it flips). Every evaluation chain uses
  /// this as its merge sink: shard-local chains advance the world
  /// privately, then their buffered streams drain through here in fixed
  /// shard order. Mirroring depends only on the stream's content and order,
  /// so deferred (per-interval) mirroring is bitwise-identical to mirroring
  /// after every sampler flush.
  void MirrorApplied(const std::vector<factor::AppliedAssignment>& applied) {
    binding_.ApplyToDatabase(applied, db_.get(), &pending_rows_);
  }

  /// Drains the deltas accumulated since the last TakeDeltas (the paper's
  /// auxiliary tables, consumed at each query evaluation) into `out` as
  /// per-base-table Δ−/Δ+ multisets. `out` is cleared first; its table
  /// buckets are reused, so a caller passing the same DeltaSet every
  /// interval recycles all hash storage. Oscillating rows coalesce to at
  /// most one −/+ pair; reverted rows vanish.
  void TakeDeltas(view::DeltaSet* out) {
    out->Clear();
    pending_rows_.Flush(*db_, out);
  }

  /// Convenience overload returning a fresh DeltaSet.
  view::DeltaSet TakeDeltas() {
    view::DeltaSet out;
    pending_rows_.Flush(*db_, &out);
    return out;
  }

  /// Discards pending deltas (e.g. after a full re-evaluation).
  void DiscardDeltas() { pending_rows_.Clear(); }

  /// Distinct rows touched since the last TakeDeltas (diagnostics).
  size_t pending_rows_touched() const { return pending_rows_.rows_touched(); }

  /// Copy-on-write copy of the database, world, and binding for an
  /// independent chain (paper §5.4): table pages, indexes, and the field
  /// binding are shared until written (see Database::Snapshot), so spawning
  /// chain B+1 is O(#pages) rather than O(|DB|). The model pointer is
  /// shared — models are read-only during inference. Safe to call
  /// concurrently as long as this database is not being mutated.
  std::unique_ptr<ProbabilisticDatabase> Snapshot() const;

 private:
  std::unique_ptr<Database> db_;
  TupleBinding binding_;
  factor::World world_;
  const factor::Model* model_ = nullptr;
  view::DeltaAccumulator pending_rows_;
};

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_PROBABILISTIC_DATABASE_H_
