// Randomized differential test for the routed delta pipeline: drive
// MaterializedViews with ~1k-batch random insert/delete/update delta
// streams over a two-table schema and assert, after every batch, that the
// maintained contents equal a full ra::Executor re-run. Batches randomly
// touch one table, both tables, or neither, so routing (skipping subtrees
// whose base tables saw no delta) and coalescing are exercised by
// construction — any routing bug that drops or double-applies a delta
// diverges from the oracle within a few rounds. Every 100 rounds a fresh
// view is initialized on the current tables and must equal the maintained
// one, and the maintained view is re-initialized at the end, so the
// streamed initialization path is checked on many worlds, not just one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ra/executor.h"
#include "sql/binder.h"
#include "test_helpers.h"
#include "view/incremental.h"

namespace fgpdb {
namespace {

using testing::ToMultiset;

// R(ID pk, K, A) and S(ID pk, K, C): joinable on K, with numeric payloads
// for aggregates and low-cardinality values for distinct/grouping.
struct TwoTableDb {
  Database db;
  Table* r = nullptr;
  Table* s = nullptr;

  TwoTableDb() {
    Schema r_schema(
        {
            Attribute{"ID", ValueType::kInt64},
            Attribute{"K", ValueType::kInt64},
            Attribute{"A", ValueType::kInt64},
        },
        /*primary_key=*/0);
    Schema s_schema(
        {
            Attribute{"ID", ValueType::kInt64},
            Attribute{"K", ValueType::kInt64},
            Attribute{"C", ValueType::kInt64},
        },
        /*primary_key=*/0);
    r = db.CreateTable("R", std::move(r_schema));
    s = db.CreateTable("S", std::move(s_schema));
  }
};

// Random DML driver for one table, recording every change as a −/+ delta.
// Keys are drawn from a small domain so joins and groups collide often.
class TableDriver {
 public:
  TableDriver(Table* table, const std::string& name, int64_t id_base)
      : table_(table), name_(name), next_id_(id_base) {}

  void Step(Rng& rng, view::DeltaSet* deltas) {
    const double r = rng.Uniform();
    if (r < 0.45 || live_.empty()) {
      Insert(rng, deltas);
    } else if (r < 0.8) {
      Update(rng, deltas);
    } else {
      Delete(rng, deltas);
    }
  }

 private:
  Value RandomKey(Rng& rng) {
    return Value::Int(static_cast<int64_t>(rng.UniformInt(5u)));
  }
  Value RandomPayload(Rng& rng) {
    return Value::Int(static_cast<int64_t>(rng.UniformInt(4u)));
  }

  void Insert(Rng& rng, view::DeltaSet* deltas) {
    Tuple t{Value::Int(next_id_++), RandomKey(rng), RandomPayload(rng)};
    live_.push_back(table_->Insert(t));
    deltas->ForTable(name_).Add(t, 1);
  }

  void Update(Rng& rng, view::DeltaSet* deltas) {
    const size_t pick = rng.UniformInt(live_.size());
    const RowId row = live_[pick];
    const Tuple old_tuple = table_->Get(row);
    // Mutate K or the payload (never the primary key).
    table_->UpdateField(row, rng.Bernoulli(0.5) ? 1 : 2, RandomPayload(rng));
    deltas->ForTable(name_).Add(old_tuple, -1);
    deltas->ForTable(name_).Add(table_->Get(row), 1);
  }

  void Delete(Rng& rng, view::DeltaSet* deltas) {
    const size_t pick = rng.UniformInt(live_.size());
    const RowId row = live_[pick];
    deltas->ForTable(name_).Add(table_->Get(row), -1);
    table_->Delete(row);
    live_[pick] = live_.back();
    live_.pop_back();
  }

  Table* table_;
  std::string name_;
  std::vector<RowId> live_;
  int64_t next_id_;
};

class DifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DifferentialTest, RoutedPipelineMatchesExecutorOnRandomStreams) {
  TwoTableDb fixture;
  TableDriver dr(fixture.r, "R", 0);
  TableDriver ds(fixture.s, "S", 10000);
  Rng rng(20260728);

  // Seed both tables before compiling the view.
  {
    view::DeltaSet ignored;
    for (int i = 0; i < 25; ++i) {
      dr.Step(rng, &ignored);
      ds.Step(rng, &ignored);
    }
  }
  ra::PlanPtr plan = sql::PlanQuery(GetParam(), fixture.db);
  view::MaterializedView view(*plan);
  view.Initialize(fixture.db);
  ASSERT_EQ(view.contents(), ToMultiset(ra::Execute(*plan, fixture.db)));

  constexpr int kRounds = 1000;
  for (int round = 0; round < kRounds; ++round) {
    view::DeltaSet deltas;
    // Touch R only / S only / both / neither, with a bias toward single-
    // table rounds (the routing case) and occasional empty rounds.
    const double which = rng.Uniform();
    const int ops = 1 + static_cast<int>(rng.UniformInt(3u));
    if (which < 0.4) {
      for (int i = 0; i < ops; ++i) dr.Step(rng, &deltas);
    } else if (which < 0.8) {
      for (int i = 0; i < ops; ++i) ds.Step(rng, &deltas);
    } else if (which < 0.95) {
      for (int i = 0; i < ops; ++i) {
        dr.Step(rng, &deltas);
        ds.Step(rng, &deltas);
      }
    }  // else: empty round.
    view.Apply(deltas);
    const view::DeltaMultiset expected =
        ToMultiset(ra::Execute(*plan, fixture.db));
    ASSERT_EQ(view.contents(), expected)
        << "divergence at round " << round << " for query: " << GetParam();
    if (round % 100 == 99) {
      view::MaterializedView fresh(*plan);
      fresh.Initialize(fixture.db);
      ASSERT_EQ(fresh.contents(), expected)
          << "fresh view diverges at round " << round
          << " for query: " << GetParam();
    }
  }
  // Re-initializing the maintained view rebuilds it from the tables; it
  // must not keep (or double) what it held before.
  view.Initialize(fixture.db);
  ASSERT_EQ(view.contents(), ToMultiset(ra::Execute(*plan, fixture.db)))
      << "re-initialized view diverges for query: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorShapes, DifferentialTest,
    ::testing::Values(
        // Selection + projection over one table (S deltas must be ignored).
        "SELECT A FROM R WHERE K >= 2",
        // Join on K — deltas on either side, plus both-sides rounds that
        // exercise the ΔL⋈ΔR cross term.
        "SELECT R.A, S.C FROM R, S WHERE R.K = S.K",
        // Join with a residual predicate.
        "SELECT R.ID FROM R, S WHERE R.K = S.K AND R.A < S.C",
        // Aggregate over a join.
        "SELECT R.K, COUNT(*), SUM(S.C) FROM R, S WHERE R.K = S.K "
        "GROUP BY R.K",
        // Grouped aggregates over one table.
        "SELECT K, COUNT(*), SUM(A), MIN(A), MAX(A) FROM R GROUP BY K",
        // Distinct over a projection.
        "SELECT DISTINCT K, A FROM R",
        // Self-join: one table's delta feeds both scan subtrees.
        "SELECT T1.A, T2.A FROM R T1, R T2 WHERE T1.K = T2.K",
        // OR-of-keys join: one keyed state per alternative, matches deduped.
        // (In this and the next shape the K filters only keep the executor
        // oracle's per-round output small.)
        "SELECT R.ID, S.ID FROM R, S WHERE (R.K = S.K OR R.A = S.C) "
        "AND R.K = 0",
        // Keyless join: a Cartesian product filtered by a residual.
        "SELECT R.ID, S.ID FROM R, S WHERE R.A < S.C AND R.K = 0 AND S.K < 2",
        // Global COUNT(*) over a selection that is always empty (A < 4): the
        // view holds the one empty-input row.
        "SELECT COUNT(*) FROM R WHERE A > 3"));

TEST(DifferentialAccumulatorTest, AccumulatorDrivenStreamMatchesExecutor) {
  // Same oracle, but deltas are produced by the insert-time coalescing
  // DeltaAccumulator over in-place updates — including rows flipped many
  // times and rows reverted within one interval, which must net out.
  TwoTableDb fixture;
  Rng rng(42);
  for (int64_t i = 0; i < 30; ++i) {
    fixture.r->Insert(Tuple{Value::Int(i),
                            Value::Int(static_cast<int64_t>(rng.UniformInt(5u))),
                            Value::Int(static_cast<int64_t>(rng.UniformInt(4u)))});
  }
  ra::PlanPtr plan = sql::PlanQuery(
      "SELECT K, COUNT(*), SUM(A) FROM R GROUP BY K", fixture.db);
  view::MaterializedView view(*plan);
  view.Initialize(fixture.db);

  view::DeltaAccumulator acc;
  view::DeltaSet deltas;
  for (int round = 0; round < 1000; ++round) {
    // Several in-place updates per round, deliberately hammering few rows.
    const int updates = 1 + static_cast<int>(rng.UniformInt(6u));
    for (int u = 0; u < updates; ++u) {
      const RowId row = rng.UniformInt(30u);
      acc.RecordPreImage("R", row, fixture.r->Get(row));
      fixture.r->UpdateField(
          row, rng.Bernoulli(0.5) ? 1 : 2,
          Value::Int(static_cast<int64_t>(rng.UniformInt(4u))));
    }
    acc.Flush(fixture.db, &deltas);
    EXPECT_TRUE(acc.empty());
    view.Apply(deltas);
    deltas.Clear();
    ASSERT_EQ(view.contents(), ToMultiset(ra::Execute(*plan, fixture.db)))
        << "divergence at round " << round;
  }
}

TEST(DeltaAccumulatorTest, OscillationCoalescesAtInsertTime) {
  TwoTableDb fixture;
  const RowId row =
      fixture.r->Insert(Tuple{Value::Int(1), Value::Int(2), Value::Int(3)});
  view::DeltaAccumulator acc;
  // Flip A through several values and back to the original.
  for (int64_t v : {7, 9, 11, 3}) {
    acc.RecordPreImage("R", row, fixture.r->Get(row));
    fixture.r->UpdateField(row, 2, Value::Int(v));
  }
  EXPECT_EQ(acc.rows_touched(), 1u);  // One pre-image despite four flips.
  view::DeltaSet deltas;
  acc.Flush(fixture.db, &deltas);
  // Net change is zero: the flush emits nothing.
  EXPECT_TRUE(deltas.empty());
  EXPECT_TRUE(acc.empty());

  // A non-reverting run emits exactly one −pre-image/+current pair.
  for (int64_t v : {5, 8}) {
    acc.RecordPreImage("R", row, fixture.r->Get(row));
    fixture.r->UpdateField(row, 2, Value::Int(v));
  }
  acc.Flush(fixture.db, &deltas);
  const view::DeltaMultiset& d = deltas.Get("R");
  EXPECT_EQ(d.distinct_size(), 2u);
  EXPECT_EQ(d.Count(Tuple{Value::Int(1), Value::Int(2), Value::Int(3)}), -1);
  EXPECT_EQ(d.Count(Tuple{Value::Int(1), Value::Int(2), Value::Int(8)}), 1);
}

TEST(RoutingTest, SubscriptionsExposeScannedTables) {
  TwoTableDb fixture;
  ra::PlanPtr plan = sql::PlanQuery(
      "SELECT T1.A, T2.A FROM R T1, R T2 WHERE T1.K = T2.K", fixture.db);
  // Plan metadata: the self-join scans R twice.
  const std::vector<std::string> scanned = plan->ScannedTables();
  EXPECT_EQ(scanned, (std::vector<std::string>{"R", "R"}));

  view::MaterializedView view(*plan);
  const auto& subs = view.subscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs.at("R"), 2u);
}

TEST(RoutingTest, UntouchedSubtreesAreSkippedWithoutVisits) {
  TwoTableDb fixture;
  for (int64_t i = 0; i < 5; ++i) {
    fixture.r->Insert(Tuple{Value::Int(i), Value::Int(i % 2), Value::Int(i)});
    fixture.s->Insert(
        Tuple{Value::Int(100 + i), Value::Int(i % 2), Value::Int(i)});
  }
  ra::PlanPtr plan =
      sql::PlanQuery("SELECT R.A, S.C FROM R, S WHERE R.K = S.K", fixture.db);
  view::MaterializedView view(*plan);
  view.Initialize(fixture.db);
  const auto before = view.contents();

  // A delta for an unsubscribed table is ignored without entering the tree.
  view::DeltaSet unrelated;
  unrelated.ForTable("ZZZ").Add(Tuple{Value::Int(1)}, 1);
  view.Apply(unrelated);
  EXPECT_EQ(view.contents(), before);
  const view::ApplyStats& s1 = view.stats();
  EXPECT_EQ(s1.rounds, 1u);
  EXPECT_EQ(s1.operators_visited, 0u);
  EXPECT_EQ(s1.tables_routed, 0u);
  EXPECT_EQ(s1.tables_ignored, 1u);

  // A delta touching only R must skip S's scan subtree entirely.
  view::DeltaSet r_only;
  const Tuple fresh{Value::Int(50), Value::Int(0), Value::Int(9)};
  fixture.r->Insert(fresh);
  r_only.ForTable("R").Add(fresh, 1);
  view.Apply(r_only);
  EXPECT_EQ(view.contents(), ToMultiset(ra::Execute(*plan, fixture.db)));
  const view::ApplyStats& s2 = view.stats();
  EXPECT_EQ(s2.rounds, 2u);
  EXPECT_EQ(s2.tables_routed, 1u);
  // At least S's scan was skipped this round.
  EXPECT_GE(s2.operators_skipped, 1u);
  EXPECT_GT(s2.operators_visited, 0u);
}

TEST(JoinCrossTermTest, BothSidesLargeSameKeyDeltasStayConsistent) {
  // The ΔL⋈ΔR term with every delta tuple sharing one join key — the shape
  // that was quadratic under the nested-loop cross term. Correctness here
  // guards the fold-before-probe rewrite (ΔL⋈R_old then ΔR⋈L_new).
  TwoTableDb fixture;
  ra::PlanPtr plan =
      sql::PlanQuery("SELECT R.A, S.C FROM R, S WHERE R.K = S.K", fixture.db);
  view::MaterializedView view(*plan);
  view.Initialize(fixture.db);

  view::DeltaSet deltas;
  for (int64_t i = 0; i < 100; ++i) {
    const Tuple rt{Value::Int(i), Value::Int(7), Value::Int(i)};
    const Tuple st{Value::Int(1000 + i), Value::Int(7), Value::Int(-i)};
    fixture.r->Insert(rt);
    fixture.s->Insert(st);
    deltas.ForTable("R").Add(rt, 1);
    deltas.ForTable("S").Add(st, 1);
  }
  view.Apply(deltas);  // One round: 100×100 same-key pairs cross sides.
  EXPECT_EQ(view.contents(), ToMultiset(ra::Execute(*plan, fixture.db)));

  // Now delete half of each side in one round.
  view::DeltaSet removal;
  for (int64_t i = 0; i < 50; ++i) {
    removal.ForTable("R").Add(Tuple{Value::Int(i), Value::Int(7), Value::Int(i)},
                              -1);
    removal.ForTable("S").Add(
        Tuple{Value::Int(1000 + i), Value::Int(7), Value::Int(-i)}, -1);
  }
  for (RowId row = 0; row < 50; ++row) {
    fixture.r->Delete(row);
    fixture.s->Delete(row);
  }
  view.Apply(removal);
  EXPECT_EQ(view.contents(), ToMultiset(ra::Execute(*plan, fixture.db)));
}

}  // namespace
}  // namespace fgpdb
