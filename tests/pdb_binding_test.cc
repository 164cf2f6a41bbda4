// TupleBinding and ProbabilisticDatabase plumbing tests: world <-> table
// synchronization, Δ−/Δ+ accumulation and coalescing, snapshots.
#include <gtest/gtest.h>

#include "ie/labels.h"
#include "pdb/probabilistic_database.h"

namespace fgpdb {
namespace pdb {
namespace {

struct BindingFixture {
  ProbabilisticDatabase pdb;
  Table* table = nullptr;

  BindingFixture() {
    Schema schema(
        {
            Attribute{"ID", ValueType::kInt64},
            Attribute{"LABEL", ValueType::kString},
        },
        0);
    table = pdb.db().CreateTable("T", std::move(schema));
    const auto domain = ie::LabelDomain();
    for (int64_t i = 0; i < 4; ++i) {
      const RowId row =
          table->Insert(Tuple{Value::Int(i), Value::String("O")});
      pdb.binding().Bind("T", row, 1, domain);
    }
    pdb.SyncWorldFromDatabase();
  }
};

TEST(TupleBindingTest, LoadWorldReadsStoredValues) {
  BindingFixture f;
  EXPECT_EQ(f.pdb.world().size(), 4u);
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_EQ(f.pdb.world().Get(static_cast<factor::VarId>(v)), ie::kLabelO);
  }
  // Change a field on disk, re-sync, world follows.
  f.table->UpdateField(2, 1, Value::String("B-PER"));
  f.pdb.SyncWorldFromDatabase();
  EXPECT_EQ(f.pdb.world().Get(2), ie::LabelIndex("B-PER"));
}

TEST(TupleBindingTest, StoreWorldWritesFields) {
  BindingFixture f;
  f.pdb.world().Set(1, ie::LabelIndex("B-ORG"));
  f.pdb.binding().StoreWorld(f.pdb.world(), &f.pdb.db());
  EXPECT_EQ(f.table->Get(1).at(1), Value::String("B-ORG"));
}

TEST(TupleBindingTest, ApplyToDatabaseRecordsDeltas) {
  BindingFixture f;
  f.pdb.MirrorApplied({{1, ie::kLabelO, ie::LabelIndex("B-PER")}});
  EXPECT_EQ(f.table->Get(1).at(1), Value::String("B-PER"));
  const view::DeltaSet deltas = f.pdb.TakeDeltas();
  const auto& delta = deltas.Get("T");
  EXPECT_EQ(delta.Count(Tuple{Value::Int(1), Value::String("O")}), -1);
  EXPECT_EQ(delta.Count(Tuple{Value::Int(1), Value::String("B-PER")}), 1);
}

TEST(TupleBindingTest, RoundTripUpdatesCancelInDelta) {
  // A row changed A -> B -> A between query evaluations must contribute
  // nothing to Δ (the paper's coalescing of the auxiliary tables).
  BindingFixture f;
  const uint32_t b_per = ie::LabelIndex("B-PER");
  f.pdb.MirrorApplied({{1, ie::kLabelO, b_per}});
  f.pdb.MirrorApplied({{1, b_per, ie::kLabelO}});
  EXPECT_TRUE(f.pdb.TakeDeltas().Get("T").empty());
}

TEST(TupleBindingTest, IntermediateStatesCancelAcrossMultipleHops) {
  // A -> B -> C leaves exactly {-A, +C}.
  BindingFixture f;
  const uint32_t b_per = ie::LabelIndex("B-PER");
  const uint32_t b_org = ie::LabelIndex("B-ORG");
  f.pdb.MirrorApplied({{0, ie::kLabelO, b_per}});
  f.pdb.MirrorApplied({{0, b_per, b_org}});
  const view::DeltaSet deltas = f.pdb.TakeDeltas();
  const auto& delta = deltas.Get("T");
  EXPECT_EQ(delta.distinct_size(), 2u);
  EXPECT_EQ(delta.Count(Tuple{Value::Int(0), Value::String("O")}), -1);
  EXPECT_EQ(delta.Count(Tuple{Value::Int(0), Value::String("B-ORG")}), 1);
}

TEST(TupleBindingTest, DomainSizes) {
  BindingFixture f;
  const auto sizes = f.pdb.binding().DomainSizes();
  ASSERT_EQ(sizes.size(), 4u);
  for (size_t s : sizes) EXPECT_EQ(s, ie::kNumLabels);
}

TEST(ProbabilisticDatabaseTest, TakeDeltasDrainsBuffer) {
  BindingFixture f;
  f.pdb.MirrorApplied({{0, ie::kLabelO, ie::LabelIndex("B-PER")}});
  view::DeltaSet deltas;
  f.pdb.TakeDeltas(&deltas);
  const auto& delta = deltas.Get("T");
  EXPECT_EQ(delta.distinct_size(), 2u);
  EXPECT_EQ(delta.Count(Tuple{Value::Int(0), Value::String("O")}), -1);
  EXPECT_EQ(delta.Count(Tuple{Value::Int(0), Value::String("B-PER")}), 1);
  // Nothing was mirrored since the first drain, so the second is empty.
  f.pdb.TakeDeltas(&deltas);
  EXPECT_TRUE(deltas.empty());
}

TEST(ProbabilisticDatabaseTest, SnapshotKeepsWorldAndBindingIndependent) {
  BindingFixture f;
  auto snap = f.pdb.Snapshot();
  f.table->UpdateField(0, 1, Value::String("B-LOC"));
  f.pdb.world().Set(0, ie::LabelIndex("B-LOC"));
  EXPECT_EQ(snap->db().RequireTable("T")->Get(0).at(1), Value::String("O"));
  EXPECT_EQ(snap->world().Get(0), ie::kLabelO);
  EXPECT_EQ(snap->binding().num_variables(), 4u);
}

TEST(ProbabilisticDatabaseTest, SnapshotIsIndependentAndCheap) {
  BindingFixture f;
  auto snap = f.pdb.Snapshot();
  // Mutations flow in neither direction.
  snap->db().RequireTable("T")->UpdateField(1, 1, Value::String("B-PER"));
  f.table->UpdateField(0, 1, Value::String("B-LOC"));
  EXPECT_EQ(f.table->Get(1).at(1), Value::String("O"));
  EXPECT_EQ(snap->db().RequireTable("T")->Get(0).at(1), Value::String("O"));
  // The snapshot starts with every page shared (no tuples copied yet).
  auto fresh = f.pdb.Snapshot();
  EXPECT_EQ(fresh->db().RequireTable("T")->SharedPageCount(),
            fresh->db().RequireTable("T")->PageCount());
}

TEST(TupleBindingTest, BindAfterCopyKeepsCopiesIsolated) {
  // The field list is shared copy-on-write between binding copies; binding
  // a new variable on either side must not grow the other.
  BindingFixture f;
  TupleBinding copy = f.pdb.binding();
  EXPECT_EQ(copy.num_variables(), 4u);
  const RowId row = f.table->Insert(Tuple{Value::Int(99), Value::String("O")});
  f.pdb.binding().Bind("T", row, 1, ie::LabelDomain());
  EXPECT_EQ(f.pdb.binding().num_variables(), 5u);
  EXPECT_EQ(copy.num_variables(), 4u);
  copy.Bind("T", row, 1, ie::LabelDomain());
  EXPECT_EQ(copy.num_variables(), 5u);
  EXPECT_EQ(f.pdb.binding().num_variables(), 5u);
  EXPECT_EQ(copy.field(4).row, row);
}

TEST(ProbabilisticDatabaseTest, ModelRequiredForSampler) {
  BindingFixture f;
  EXPECT_DEATH(f.pdb.model(), "model not set");
}

}  // namespace
}  // namespace pdb
}  // namespace fgpdb
