#include "ra/executor.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace fgpdb {
namespace ra {
namespace {

// Execution is push-based: Stream() hands each output row of a plan to a
// sink, so Scan → Select → Project run as one loop over the table and copy
// only the rows they keep. A join probes with its left child's stream and
// materializes only its build side (the right child's qualifying rows);
// OrderBy and Limit materialize their input. Rows arrive in the order
// Execute() returns them.
using RowSink = std::function<void(const Tuple&)>;

void Stream(const PlanNode& plan, const Database& db, const RowSink& sink);

void StreamScan(const ScanNode& node, const Database& db, const RowSink& sink) {
  db.RequireTable(node.table_name())
      ->Scan([&](RowId, const Tuple& t) { sink(t); });
}

void StreamSelect(const SelectNode& node, const Database& db,
                  const RowSink& sink) {
  Stream(node.child(0), db, [&](const Tuple& t) {
    if (node.predicate().EvalBool(t)) sink(t);
  });
}

void StreamProject(const ProjectNode& node, const Database& db,
                   const RowSink& sink) {
  Tuple scratch(std::vector<Value>(node.outputs().size()));
  Stream(node.child(0), db, [&](const Tuple& t) {
    for (size_t i = 0; i < node.outputs().size(); ++i) {
      scratch.at(i) = node.outputs()[i]->Eval(t);
    }
    sink(scratch);
  });
}

void StreamJoin(const JoinNode& node, const Database& db, const RowSink& sink) {
  // Build side: the right child's rows, in stream order.
  const std::vector<Tuple> right = Execute(node.child(1), db);
  auto emit = [&](const Tuple& l, const Tuple& r) {
    const Tuple joined = Tuple::Concat(l, r);
    if (node.residual() == nullptr || node.residual()->EvalBool(joined)) {
      sink(joined);
    }
  };
  if (!node.alternatives().empty()) {
    // Disjunctive equi-join: one hash index per alternative, probed in turn.
    // A right tuple matching through several alternatives pairs with the
    // probe once, so matches are deduped by bag element (address) per probe.
    std::vector<std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHasher>>
        builds(node.alternatives().size());
    for (size_t a = 0; a < node.alternatives().size(); ++a) {
      builds[a].reserve(right.size());
      for (const auto& r : right) {
        builds[a][r.Project(node.alternatives()[a].right_keys)].push_back(&r);
      }
    }
    std::vector<const Tuple*> matches;
    Stream(node.child(0), db, [&](const Tuple& l) {
      matches.clear();
      for (size_t a = 0; a < node.alternatives().size(); ++a) {
        const auto it =
            builds[a].find(l.Project(node.alternatives()[a].left_keys));
        if (it == builds[a].end()) continue;
        for (const Tuple* r : it->second) {
          if (std::find(matches.begin(), matches.end(), r) == matches.end()) {
            matches.push_back(r);
          }
        }
      }
      for (const Tuple* r : matches) emit(l, *r);
    });
    return;
  }
  if (node.left_keys().empty()) {
    // Cartesian product with optional residual filter.
    Stream(node.child(0), db, [&](const Tuple& l) {
      for (const auto& r : right) emit(l, r);
    });
    return;
  }
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHasher> build;
  build.reserve(right.size());
  for (const auto& r : right) {
    build[r.Project(node.right_keys())].push_back(&r);
  }
  Stream(node.child(0), db, [&](const Tuple& l) {
    const auto it = build.find(l.Project(node.left_keys()));
    if (it == build.end()) return;
    for (const Tuple* r : it->second) emit(l, *r);
  });
}

struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool sum_is_integral = true;
  bool has_extreme = false;
  Value extreme;
  std::unordered_set<Value, ValueHasher> distinct;
};

Value FinalizeAggregate(const AggregateSpec& spec, const AggState& state) {
  switch (spec.kind) {
    case AggregateSpec::Kind::kCount:
    case AggregateSpec::Kind::kCountIf:
      return Value::Int(state.count);
    case AggregateSpec::Kind::kCountDistinct:
      return Value::Int(static_cast<int64_t>(state.distinct.size()));
    case AggregateSpec::Kind::kSum:
      if (state.count == 0) return Value::Null();
      return state.sum_is_integral ? Value::Int(static_cast<int64_t>(state.sum))
                                   : Value::Double(state.sum);
    case AggregateSpec::Kind::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum / static_cast<double>(state.count));
    case AggregateSpec::Kind::kMin:
    case AggregateSpec::Kind::kMax:
      return state.has_extreme ? state.extreme : Value::Null();
  }
  return Value::Null();
}

void AccumulateAggregate(const AggregateSpec& spec, const Tuple& tuple,
                         AggState& state) {
  switch (spec.kind) {
    case AggregateSpec::Kind::kCount:
      if (spec.argument == nullptr || !spec.argument->Eval(tuple).is_null()) {
        ++state.count;
      }
      return;
    case AggregateSpec::Kind::kCountIf:
      FGPDB_CHECK(spec.argument != nullptr);
      if (spec.argument->EvalBool(tuple)) ++state.count;
      return;
    case AggregateSpec::Kind::kCountDistinct: {
      FGPDB_CHECK(spec.argument != nullptr);
      const Value v = spec.argument->Eval(tuple);
      if (!v.is_null()) state.distinct.insert(v);
      return;
    }
    case AggregateSpec::Kind::kSum:
    case AggregateSpec::Kind::kAvg: {
      FGPDB_CHECK(spec.argument != nullptr);
      const Value v = spec.argument->Eval(tuple);
      if (v.is_null()) return;
      ++state.count;
      state.sum += v.AsNumeric();
      if (v.type() != ValueType::kInt64) state.sum_is_integral = false;
      return;
    }
    case AggregateSpec::Kind::kMin:
    case AggregateSpec::Kind::kMax: {
      FGPDB_CHECK(spec.argument != nullptr);
      const Value v = spec.argument->Eval(tuple);
      if (v.is_null()) return;
      const bool replace =
          !state.has_extreme ||
          (spec.kind == AggregateSpec::Kind::kMin ? v < state.extreme
                                                  : v > state.extreme);
      if (replace) {
        state.extreme = v;
        state.has_extreme = true;
      }
      return;
    }
  }
}

void StreamAggregate(const AggregateNode& node, const Database& db,
                     const RowSink& sink) {
  // Group key -> per-aggregate states. Insertion order retained for
  // deterministic output given deterministic input order.
  std::unordered_map<Tuple, size_t, TupleHasher> group_index;
  std::vector<Tuple> group_keys;
  std::vector<std::vector<AggState>> states;
  Tuple key;
  Stream(node.child(0), db, [&](const Tuple& t) {
    t.ProjectInto(node.group_by(), &key);
    auto [it, inserted] = group_index.try_emplace(key, group_keys.size());
    if (inserted) {
      group_keys.push_back(it->first);
      states.emplace_back(node.aggregates().size());
    }
    auto& group_states = states[it->second];
    for (size_t a = 0; a < node.aggregates().size(); ++a) {
      AccumulateAggregate(node.aggregates()[a], t, group_states[a]);
    }
  });
  // Global aggregate over an empty input still yields one row (SQL
  // semantics for aggregates without GROUP BY).
  if (group_keys.empty() && node.group_by().empty()) {
    group_keys.emplace_back();
    states.emplace_back(node.aggregates().size());
  }
  for (size_t g = 0; g < group_keys.size(); ++g) {
    std::vector<Value> values;
    values.reserve(node.group_by().size() + node.aggregates().size());
    for (const Value& v : group_keys[g].values()) values.push_back(v);
    for (size_t a = 0; a < node.aggregates().size(); ++a) {
      values.push_back(FinalizeAggregate(node.aggregates()[a], states[g][a]));
    }
    sink(Tuple(std::move(values)));
  }
}

void StreamDistinct(const DistinctNode& node, const Database& db,
                    const RowSink& sink) {
  std::unordered_set<Tuple, TupleHasher> seen;
  Stream(node.child(0), db, [&](const Tuple& t) {
    if (seen.insert(t).second) sink(t);
  });
}

std::vector<Tuple> ExecuteOrderBy(const OrderByNode& node, const Database& db) {
  std::vector<Tuple> in = Execute(node.child(0), db);
  std::stable_sort(in.begin(), in.end(), [&](const Tuple& a, const Tuple& b) {
    for (size_t k : node.keys()) {
      const int c = a.at(k).Compare(b.at(k));
      if (c != 0) return node.ascending() ? c < 0 : c > 0;
    }
    return false;
  });
  return in;
}

std::vector<Tuple> ExecuteLimit(const LimitNode& node, const Database& db) {
  std::vector<Tuple> in = Execute(node.child(0), db);
  if (in.size() > node.limit()) in.resize(node.limit());
  return in;
}

void Stream(const PlanNode& plan, const Database& db, const RowSink& sink) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return StreamScan(static_cast<const ScanNode&>(plan), db, sink);
    case PlanKind::kSelect:
      return StreamSelect(static_cast<const SelectNode&>(plan), db, sink);
    case PlanKind::kProject:
      return StreamProject(static_cast<const ProjectNode&>(plan), db, sink);
    case PlanKind::kJoin:
      return StreamJoin(static_cast<const JoinNode&>(plan), db, sink);
    case PlanKind::kAggregate:
      return StreamAggregate(static_cast<const AggregateNode&>(plan), db,
                             sink);
    case PlanKind::kDistinct:
      return StreamDistinct(static_cast<const DistinctNode&>(plan), db, sink);
    case PlanKind::kOrderBy:
    case PlanKind::kLimit:
      for (const Tuple& t : Execute(plan, db)) sink(t);
      return;
  }
  FGPDB_FATAL() << "unknown plan kind";
}

}  // namespace

std::vector<Tuple> Execute(const PlanNode& plan, const Database& db) {
  switch (plan.kind()) {
    case PlanKind::kOrderBy:
      return ExecuteOrderBy(static_cast<const OrderByNode&>(plan), db);
    case PlanKind::kLimit:
      return ExecuteLimit(static_cast<const LimitNode&>(plan), db);
    default: {
      std::vector<Tuple> out;
      Stream(plan, db, [&](const Tuple& t) { out.push_back(t); });
      return out;
    }
  }
}

}  // namespace ra
}  // namespace fgpdb
