// TupleBinding: the bridge between random variables and database fields
// (paper §3.2: "each field in the database is a random variable").
//
// Every hidden variable is bound to one (table, row, column) slot; observed
// fields simply stay constant. The binding translates in both directions:
// loading a World from the stored world, and mirroring accepted MCMC
// changes back into tables while accumulating the Δ−/Δ+ auxiliary sets the
// materialized evaluator consumes (paper §4.2's "added"/"deleted" tables).
//
// The field list sits behind a shared pointer with copy-on-write on Bind():
// copying a TupleBinding is O(1), so spawning a per-chain world (paper
// §5.4) does not re-copy one FieldRef per variable. Bindings are append-
// only during setup and read-only during inference, so chains can share
// one field list safely across threads.
#ifndef FGPDB_PDB_BINDING_H_
#define FGPDB_PDB_BINDING_H_

#include <memory>
#include <string>
#include <vector>

#include "factor/domain.h"
#include "factor/world.h"
#include "storage/database.h"
#include "view/delta.h"

namespace fgpdb {
namespace pdb {

class TupleBinding {
 public:
  struct FieldRef {
    std::string table;
    RowId row = kInvalidRowId;
    size_t column = 0;
    std::shared_ptr<const factor::Domain> domain;
  };

  TupleBinding() : fields_(std::make_shared<std::vector<FieldRef>>()) {}

  /// Binds the next variable id (they must be registered in order 0,1,2,…)
  /// to a field slot. Returns the variable id. Copies the field list
  /// privately first if it is shared with another binding.
  factor::VarId Bind(std::string table, RowId row, size_t column,
                     std::shared_ptr<const factor::Domain> domain);

  size_t num_variables() const { return fields_->size(); }
  const FieldRef& field(factor::VarId var) const { return fields_->at(var); }

  /// Builds a world whose variable values are the domain indexes of the
  /// currently stored field values.
  factor::World LoadWorld(const Database& db) const;

  /// Writes the world's values into the database (full synchronization; no
  /// delta tracking). A chain calls it once after its detached burn-in.
  void StoreWorld(const factor::World& world, Database* db) const;

  /// Mirrors accepted MCMC assignments into the database and records each
  /// touched row's pre-image in `accumulator` (first touch copies the
  /// tuple; repeat flips are one hash probe). The −/+ multisets are
  /// produced later by DeltaAccumulator::Flush, so a row's intermediate
  /// states coalesce at insert time and a reverted row contributes
  /// nothing.
  void ApplyToDatabase(const std::vector<factor::AppliedAssignment>& applied,
                       Database* db,
                       view::DeltaAccumulator* accumulator) const;

  /// Domain sizes per variable (for samplers/estimators).
  std::vector<size_t> DomainSizes() const;

 private:
  // Shared across copies (per-chain worlds); copied privately on Bind().
  std::shared_ptr<std::vector<FieldRef>> fields_;
};

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_BINDING_H_
