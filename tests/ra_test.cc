// Unit tests for expressions, plan construction, and the bag executor.
#include <gtest/gtest.h>

#include "ra/executor.h"
#include "test_helpers.h"

namespace fgpdb {
namespace ra {
namespace {

using fgpdb::testing::MakeEmpTable;
using fgpdb::testing::ToMultiset;

TEST(ExprTest, ComparisonOperators) {
  const Tuple t{Value::Int(5), Value::String("abc")};
  EXPECT_TRUE(Cmp(CompareOp::kEq, Col(0), Lit(Value::Int(5)))->EvalBool(t));
  EXPECT_TRUE(Cmp(CompareOp::kNe, Col(0), Lit(Value::Int(4)))->EvalBool(t));
  EXPECT_TRUE(Cmp(CompareOp::kLt, Col(0), Lit(Value::Int(6)))->EvalBool(t));
  EXPECT_TRUE(Cmp(CompareOp::kLe, Col(0), Lit(Value::Int(5)))->EvalBool(t));
  EXPECT_FALSE(Cmp(CompareOp::kGt, Col(0), Lit(Value::Int(5)))->EvalBool(t));
  EXPECT_TRUE(Cmp(CompareOp::kGe, Col(0), Lit(Value::Int(5)))->EvalBool(t));
  EXPECT_TRUE(
      Cmp(CompareOp::kEq, Col(1), Lit(Value::String("abc")))->EvalBool(t));
}

TEST(ExprTest, NullComparisonsAreFalse) {
  const Tuple t{Value::Null()};
  EXPECT_FALSE(Cmp(CompareOp::kEq, Col(0), Lit(Value::Null()))->EvalBool(t));
  EXPECT_FALSE(Cmp(CompareOp::kNe, Col(0), Lit(Value::Int(1)))->EvalBool(t));
}

TEST(ExprTest, LogicalOperators) {
  const Tuple t{Value::Int(1)};
  auto yes = [] { return Lit(Value::Int(1)); };
  auto no = [] { return Lit(Value::Int(0)); };
  EXPECT_TRUE(And(yes(), yes())->EvalBool(t));
  EXPECT_FALSE(And(yes(), no())->EvalBool(t));
  EXPECT_TRUE(Or(no(), yes())->EvalBool(t));
  EXPECT_FALSE(Or(no(), no())->EvalBool(t));
  EXPECT_TRUE(Not(no())->EvalBool(t));
  EXPECT_FALSE(Not(yes())->EvalBool(t));
}

TEST(ExprTest, ArithmeticIntegerAndDouble) {
  const Tuple t;
  auto arith = [&](ArithmeticOp op, Value a, Value b) {
    return Arithmetic(op, Lit(std::move(a)), Lit(std::move(b))).Eval(t);
  };
  EXPECT_EQ(arith(ArithmeticOp::kAdd, Value::Int(2), Value::Int(3)),
            Value::Int(5));
  EXPECT_EQ(arith(ArithmeticOp::kMul, Value::Int(4), Value::Int(5)),
            Value::Int(20));
  EXPECT_EQ(arith(ArithmeticOp::kSub, Value::Double(1.5), Value::Int(1)),
            Value::Double(0.5));
  EXPECT_EQ(arith(ArithmeticOp::kDiv, Value::Int(7), Value::Int(2)),
            Value::Double(3.5));
  EXPECT_TRUE(
      arith(ArithmeticOp::kDiv, Value::Int(1), Value::Int(0)).is_null());
}

TEST(ExprTest, CloneIsDeep) {
  ExprPtr e = And(Cmp(CompareOp::kGt, Col(0, "X"), Lit(Value::Int(3))),
                  Not(Cmp(CompareOp::kEq, Col(1, "Y"), Lit(Value::Int(0)))));
  ExprPtr c = e->Clone();
  EXPECT_EQ(e->ToString(), c->ToString());
  const Tuple t{Value::Int(4), Value::Int(1)};
  EXPECT_EQ(e->EvalBool(t), c->EvalBool(t));
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { MakeEmpTable(&db_); }

  Schema emp_schema() { return db_.RequireTable("EMP")->schema(); }

  Database db_;
};

TEST_F(ExecutorTest, ScanReturnsAllRows) {
  ScanNode scan("EMP", emp_schema());
  EXPECT_EQ(Execute(scan, db_).size(), 5u);
}

TEST_F(ExecutorTest, SelectFilters) {
  auto plan = std::make_unique<SelectNode>(
      std::make_unique<ScanNode>("EMP", emp_schema()),
      Cmp(CompareOp::kEq, Col(1), Lit(Value::String("eng"))));
  EXPECT_EQ(Execute(*plan, db_).size(), 2u);
}

TEST_F(ExecutorTest, ProjectKeepsDuplicates) {
  std::vector<ExprPtr> outputs;
  outputs.push_back(Col(1));
  auto plan = std::make_unique<ProjectNode>(
      std::make_unique<ScanNode>("EMP", emp_schema()), std::move(outputs),
      std::vector<std::string>{"DEPT"});
  const auto rows = Execute(*plan, db_);
  EXPECT_EQ(rows.size(), 5u);  // Bag semantics: two eng, two ops, one hr.
  EXPECT_EQ(ToMultiset(rows).Count(Tuple{Value::String("eng")}), 2);
}

TEST_F(ExecutorTest, HashJoinMatchesNestedSemantics) {
  auto left = std::make_unique<ScanNode>("EMP", emp_schema());
  auto right = std::make_unique<ScanNode>("EMP", emp_schema());
  JoinNode join(std::move(left), std::move(right), {1}, {1}, nullptr);
  // eng:2, ops:2, hr:1 -> 4 + 4 + 1 = 9 joined rows.
  EXPECT_EQ(Execute(join, db_).size(), 9u);
  EXPECT_EQ(join.output_schema().arity(), 8u);
}

TEST_F(ExecutorTest, CrossProductWithResidual) {
  auto left = std::make_unique<ScanNode>("EMP", emp_schema());
  auto right = std::make_unique<ScanNode>("EMP", emp_schema());
  JoinNode cross(std::move(left), std::move(right), {}, {},
                 Cmp(CompareOp::kLt, Col(0), Col(4)));
  EXPECT_EQ(Execute(cross, db_).size(), 10u);  // C(5,2) ordered pairs.
}

TEST_F(ExecutorTest, AggregateGlobalOnEmptyInputYieldsOneRow) {
  auto scan = std::make_unique<ScanNode>("EMP", emp_schema());
  auto filtered = std::make_unique<SelectNode>(
      std::move(scan), Cmp(CompareOp::kEq, Col(1), Lit(Value::String("nope"))));
  std::vector<AggregateSpec> specs;
  specs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "n"});
  AggregateNode agg(std::move(filtered), {}, std::move(specs));
  const auto rows = Execute(agg, db_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0), Value::Int(0));
}

TEST_F(ExecutorTest, GroupedAggregates) {
  auto scan = std::make_unique<ScanNode>("EMP", emp_schema());
  std::vector<AggregateSpec> specs;
  specs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "n"});
  specs.push_back(AggregateSpec{AggregateSpec::Kind::kSum, Col(3), "s"});
  specs.push_back(AggregateSpec{AggregateSpec::Kind::kMin, Col(3), "lo"});
  specs.push_back(AggregateSpec{AggregateSpec::Kind::kMax, Col(3), "hi"});
  specs.push_back(AggregateSpec{AggregateSpec::Kind::kAvg, Col(3), "avg"});
  AggregateNode agg(std::move(scan), {1}, std::move(specs));
  const auto rows = Execute(agg, db_);
  ASSERT_EQ(rows.size(), 3u);
  const auto bag = ToMultiset(rows);
  EXPECT_EQ(bag.Count(Tuple{Value::String("eng"), Value::Int(2),
                            Value::Int(190), Value::Int(90), Value::Int(100),
                            Value::Double(95.0)}),
            1);
  EXPECT_EQ(bag.Count(Tuple{Value::String("hr"), Value::Int(1), Value::Int(70),
                            Value::Int(70), Value::Int(70),
                            Value::Double(70.0)}),
            1);
}

TEST_F(ExecutorTest, DistinctRemovesDuplicates) {
  std::vector<ExprPtr> outputs;
  outputs.push_back(Col(1));
  auto project = std::make_unique<ProjectNode>(
      std::make_unique<ScanNode>("EMP", emp_schema()), std::move(outputs),
      std::vector<std::string>{"DEPT"});
  DistinctNode distinct(std::move(project));
  EXPECT_EQ(Execute(distinct, db_).size(), 3u);
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  auto scan = std::make_unique<ScanNode>("EMP", emp_schema());
  auto ordered =
      std::make_unique<OrderByNode>(std::move(scan), std::vector<size_t>{3},
                                    /*ascending=*/false);
  LimitNode limited(std::move(ordered), 2);
  const auto rows = Execute(limited, db_);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at(3), Value::Int(100));
  EXPECT_EQ(rows[1].at(3), Value::Int(90));
}

// Execute streams Scan → Select → Project; the rows must still come out in
// scan order, exactly as the materializing executor returned them.
TEST_F(ExecutorTest, ProjectOfSelectKeepsScanOrder) {
  std::vector<ExprPtr> outputs;
  outputs.push_back(Col(2));
  outputs.push_back(Col(3));
  auto plan = std::make_unique<ProjectNode>(
      std::make_unique<SelectNode>(
          std::make_unique<ScanNode>("EMP", emp_schema()),
          Cmp(CompareOp::kLt, Col(3), Lit(Value::Int(95)))),
      std::move(outputs), std::vector<std::string>{"NAME", "SALARY"});
  EXPECT_EQ(Execute(*plan, db_),
            (std::vector<Tuple>{
                Tuple{Value::String("bob"), Value::Int(90)},
                Tuple{Value::String("cat"), Value::Int(80)},
                Tuple{Value::String("dan"), Value::Int(80)},
                Tuple{Value::String("eve"), Value::Int(70)},
            }));
}

TEST_F(ExecutorTest, LimitOverSelectKeepsFirstQualifyingRows) {
  LimitNode limited(
      std::make_unique<SelectNode>(
          std::make_unique<ScanNode>("EMP", emp_schema()),
          Cmp(CompareOp::kNe, Col(1), Lit(Value::String("eng")))),
      2);
  EXPECT_EQ(Execute(limited, db_),
            (std::vector<Tuple>{
                Tuple{Value::Int(3), Value::String("ops"),
                      Value::String("cat"), Value::Int(80)},
                Tuple{Value::Int(4), Value::String("ops"),
                      Value::String("dan"), Value::Int(80)},
            }));
}

TEST_F(ExecutorTest, JoinEmitsLeftMajorInScanOrder) {
  // The probe side streams while the build side is materialized first; the
  // output is still left rows in scan order, each with its matches in scan
  // order.
  std::vector<ExprPtr> outputs;
  outputs.push_back(Col(0));
  outputs.push_back(Col(4));
  auto plan = std::make_unique<ProjectNode>(
      std::make_unique<JoinNode>(
          std::make_unique<ScanNode>("EMP", emp_schema()),
          std::make_unique<ScanNode>("EMP", emp_schema()),
          std::vector<size_t>{1}, std::vector<size_t>{1}, nullptr),
      std::move(outputs), std::vector<std::string>{"L", "R"});
  std::vector<Tuple> expected;
  for (const auto& [l, r] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3}, {3, 4}, {4, 3}, {4, 4},
           {5, 5}}) {
    expected.push_back(Tuple{Value::Int(l), Value::Int(r)});
  }
  EXPECT_EQ(Execute(*plan, db_), expected);
}

TEST_F(ExecutorTest, PlanToStringShowsTree) {
  auto plan = std::make_unique<SelectNode>(
      std::make_unique<ScanNode>("EMP", emp_schema()),
      Cmp(CompareOp::kEq, Col(1, "DEPT"), Lit(Value::String("eng"))));
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("Select"), std::string::npos);
  EXPECT_NE(s.find("Scan(EMP)"), std::string::npos);
}

}  // namespace
}  // namespace ra
}  // namespace fgpdb
