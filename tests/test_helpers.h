// Shared helpers for the fgpdb test suite.
#ifndef FGPDB_TESTS_TEST_HELPERS_H_
#define FGPDB_TESTS_TEST_HELPERS_H_

#include <ostream>
#include <string>
#include <vector>

#include "storage/database.h"
#include "util/rng.h"
#include "view/delta.h"

namespace fgpdb {
namespace view {

/// GoogleTest printer (found by ADL): a failed comparison of multisets
/// shows their tuples and counts, not the object's bytes.
inline void PrintTo(const DeltaMultiset& multiset, std::ostream* os) {
  *os << multiset.ToString();
}

}  // namespace view

namespace testing {

/// Builds a small EMP(ID pk, DEPT, NAME, SALARY) table.
inline Table* MakeEmpTable(Database* db) {
  Schema schema(
      {
          Attribute{"ID", ValueType::kInt64},
          Attribute{"DEPT", ValueType::kString},
          Attribute{"NAME", ValueType::kString},
          Attribute{"SALARY", ValueType::kInt64},
      },
      /*primary_key=*/0);
  Table* t = db->CreateTable("EMP", std::move(schema));
  t->Insert(Tuple{Value::Int(1), Value::String("eng"), Value::String("ann"),
                  Value::Int(100)});
  t->Insert(Tuple{Value::Int(2), Value::String("eng"), Value::String("bob"),
                  Value::Int(90)});
  t->Insert(Tuple{Value::Int(3), Value::String("ops"), Value::String("cat"),
                  Value::Int(80)});
  t->Insert(Tuple{Value::Int(4), Value::String("ops"), Value::String("dan"),
                  Value::Int(80)});
  t->Insert(Tuple{Value::Int(5), Value::String("hr"), Value::String("eve"),
                  Value::Int(70)});
  return t;
}

/// Converts a bag of tuples into a count multiset for order-insensitive
/// comparison.
inline view::DeltaMultiset ToMultiset(const std::vector<Tuple>& bag) {
  view::DeltaMultiset out;
  for (const Tuple& t : bag) out.Add(t, 1);
  return out;
}

}  // namespace testing
}  // namespace fgpdb

#endif  // FGPDB_TESTS_TEST_HELPERS_H_
