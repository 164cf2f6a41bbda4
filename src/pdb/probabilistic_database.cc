#include "pdb/probabilistic_database.h"

namespace fgpdb {
namespace pdb {

std::unique_ptr<ProbabilisticDatabase> ProbabilisticDatabase::Snapshot() const {
  auto copy = std::make_unique<ProbabilisticDatabase>();
  copy->db_ = db_->Snapshot();
  copy->binding_ = binding_;  // O(1): the field list is shared (COW).
  copy->world_ = world_;      // Dense POD vector; each chain mutates it all.
  copy->model_ = model_;
  return copy;
}

}  // namespace pdb
}  // namespace fgpdb
