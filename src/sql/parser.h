// Recursive-descent parser for the supported SQL subset:
//
//   SELECT [DISTINCT] item, ...      (expr [AS alias] | aggregate calls | *)
//   FROM table [alias] [, table [alias]]
//   [WHERE expr]  [GROUP BY col, ...]  [HAVING expr]
//   [ORDER BY col, ... [ASC|DESC]]  [LIMIT n]
//
// COUNT_IF(pred) is a convenience aggregate used to express the paper's
// Query 3 (per-document equality of two filtered counts) without correlated
// subqueries; see docs/ARCHITECTURE.md §9.
#ifndef FGPDB_SQL_PARSER_H_
#define FGPDB_SQL_PARSER_H_

#include <string>

#include "sql/ast.h"

namespace fgpdb {
namespace sql {

/// Parses one SELECT statement. Fatal (with offending token) on syntax
/// errors — queries in fgpdb are developer-authored, not end-user input.
SelectStatement Parse(const std::string& query);

}  // namespace sql
}  // namespace fgpdb

#endif  // FGPDB_SQL_PARSER_H_
