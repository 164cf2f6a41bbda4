#include "pdb/binding.h"

#include "util/logging.h"

namespace fgpdb {
namespace pdb {

factor::VarId TupleBinding::Bind(std::string table, RowId row, size_t column,
                                 std::shared_ptr<const factor::Domain> domain) {
  FGPDB_CHECK(domain != nullptr);
  if (fields_.use_count() > 1) {
    fields_ = std::make_shared<std::vector<FieldRef>>(*fields_);
  }
  fields_->push_back(
      FieldRef{std::move(table), row, column, std::move(domain)});
  return static_cast<factor::VarId>(fields_->size() - 1);
}

factor::World TupleBinding::LoadWorld(const Database& db) const {
  const std::vector<FieldRef>& fields = *fields_;
  factor::World world(fields.size());
  for (size_t v = 0; v < fields.size(); ++v) {
    const FieldRef& ref = fields[v];
    const Table* table = db.RequireTable(ref.table);
    const Value& value = table->Get(ref.row).at(ref.column);
    world.Set(static_cast<factor::VarId>(v),
              static_cast<uint32_t>(ref.domain->RequireIndexOf(value)));
  }
  return world;
}

void TupleBinding::StoreWorld(const factor::World& world, Database* db) const {
  const std::vector<FieldRef>& fields = *fields_;
  FGPDB_CHECK_EQ(world.size(), fields.size());
  for (size_t v = 0; v < fields.size(); ++v) {
    const FieldRef& ref = fields[v];
    Table* table = db->RequireTable(ref.table);
    table->UpdateField(ref.row, ref.column,
                       ref.domain->value(world.Get(static_cast<factor::VarId>(v))));
  }
}

void TupleBinding::ApplyToDatabase(
    const std::vector<factor::AppliedAssignment>& applied, Database* db,
    view::DeltaAccumulator* accumulator) const {
  for (const auto& a : applied) {
    const FieldRef& ref = fields_->at(a.var);
    Table* table = db->RequireTable(ref.table);
    if (accumulator != nullptr) {
      accumulator->RecordPreImage(ref.table, ref.row, table->Get(ref.row));
    }
    table->UpdateField(ref.row, ref.column, ref.domain->value(a.new_value));
  }
}

std::vector<size_t> TupleBinding::DomainSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(fields_->size());
  for (const auto& ref : *fields_) sizes.push_back(ref.domain->size());
  return sizes;
}

}  // namespace pdb
}  // namespace fgpdb
