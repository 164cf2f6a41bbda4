// Bag executor for relational plans.
//
// This is the "full query" path that the naive evaluator (paper Alg. 3)
// runs over every sampled world; tests also use it as the reference for
// maintained views. Views initialize through their own operator tree
// (view/incremental.h), not through this executor. Execution is pipelined:
// Scan → Select → Project run as one pass over the table, and only the
// pipeline breakers (a join's build side, OrderBy, Limit) hold rows.
#ifndef FGPDB_RA_EXECUTOR_H_
#define FGPDB_RA_EXECUTOR_H_

#include <vector>

#include "ra/plan.h"
#include "storage/database.h"

namespace fgpdb {
namespace ra {

/// Evaluates `plan` against the single world stored in `db`, returning a bag
/// of tuples (duplicates preserved; order unspecified except under OrderBy).
std::vector<Tuple> Execute(const PlanNode& plan, const Database& db);

}  // namespace ra
}  // namespace fgpdb

#endif  // FGPDB_RA_EXECUTOR_H_
