// Tests for the extension components: aggregate answer distributions,
// MCMC diagnostics, BIO-constrained proposals, CSV persistence, and top-k
// answer ranking.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "ie/bio_proposal.h"
#include "ie/ner_proposal.h"
#include "ie/corpus.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/diagnostics.h"
#include "infer/metropolis_hastings.h"
#include "pdb/aggregate_distribution.h"
#include "pdb/query_evaluator.h"
#include "storage/csv_io.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace fgpdb {
namespace {

// --- AggregateDistribution ---------------------------------------------------

pdb::QueryAnswer MakeCountAnswer(const std::vector<int64_t>& counts) {
  pdb::QueryAnswer answer;
  for (int64_t c : counts) {
    answer.ObserveSampleContaining({Tuple{Value::Int(c)}});
  }
  return answer;
}

TEST(AggregateDistributionTest, MomentsAndMode) {
  // Samples: 10 x3, 20 x1 -> mean 12.5, mode 10.
  const pdb::QueryAnswer answer = MakeCountAnswer({10, 10, 10, 20});
  pdb::AggregateDistribution dist(answer);
  EXPECT_DOUBLE_EQ(dist.Mean(), 12.5);
  EXPECT_DOUBLE_EQ(dist.Mode(), 10.0);
  EXPECT_DOUBLE_EQ(dist.Variance(), (3 * 6.25 + 56.25) / 4.0);
  EXPECT_EQ(dist.support_size(), 2u);
}

TEST(AggregateDistributionTest, QuantilesAndMass) {
  const pdb::QueryAnswer answer = MakeCountAnswer({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  pdb::AggregateDistribution dist(answer);
  EXPECT_DOUBLE_EQ(dist.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(dist.Quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(dist.Mean(), 5.5);
  // Values 4,5,6,7 lie within 1.6 of the mean 5.5 -> mass 0.4.
  EXPECT_NEAR(dist.MassWithin(1.6), 0.4, 1e-12);
}

TEST(AggregateDistributionTest, HistogramCoversSupport) {
  const pdb::QueryAnswer answer = MakeCountAnswer({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  pdb::AggregateDistribution dist(answer);
  const auto bins = dist.Histogram(5);
  ASSERT_EQ(bins.size(), 5u);
  double mass = 0.0;
  for (const auto& bin : bins) mass += bin.mass;
  EXPECT_NEAR(mass, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(bins.front().lo, 0.0);
  EXPECT_DOUBLE_EQ(bins.back().hi, 9.0);
}

// --- Diagnostics --------------------------------------------------------------

TEST(DiagnosticsTest, EssOfWhiteNoiseIsNearN) {
  Rng rng(3);
  std::vector<double> series(4000);
  for (auto& x : series) x = rng.Gaussian();
  const double ess = infer::EffectiveSampleSize(series);
  EXPECT_GT(ess, 3000.0);
  EXPECT_LE(ess, 4000.0);
}

TEST(DiagnosticsTest, EssOfCorrelatedChainIsSmall) {
  // AR(1) with strong persistence: ESS ≈ n(1-ρ)/(1+ρ).
  Rng rng(5);
  const double rho = 0.95;
  std::vector<double> series(4000);
  series[0] = rng.Gaussian();
  for (size_t i = 1; i < series.size(); ++i) {
    series[i] = rho * series[i - 1] + std::sqrt(1 - rho * rho) * rng.Gaussian();
  }
  const double ess = infer::EffectiveSampleSize(series);
  const double expected = 4000.0 * (1 - rho) / (1 + rho);  // ~103
  EXPECT_LT(ess, 3 * expected);
  EXPECT_GT(ess, expected / 3);
}

TEST(DiagnosticsTest, EssEdgeCases) {
  EXPECT_DOUBLE_EQ(infer::EffectiveSampleSize({}), 0.0);
  EXPECT_DOUBLE_EQ(infer::EffectiveSampleSize({1.0}), 1.0);
  // Constant series: degenerate, clamped to >= 1.
  EXPECT_GE(infer::EffectiveSampleSize({2.0, 2.0, 2.0, 2.0}), 1.0);
}

TEST(DiagnosticsTest, GelmanRubinNearOneForMixedChains) {
  Rng rng(7);
  std::vector<std::vector<double>> chains(4, std::vector<double>(2000));
  for (auto& chain : chains) {
    for (auto& x : chain) x = rng.Gaussian();
  }
  EXPECT_NEAR(infer::GelmanRubin(chains), 1.0, 0.02);
}

TEST(DiagnosticsTest, GelmanRubinLargeForSeparatedChains) {
  Rng rng(9);
  std::vector<std::vector<double>> chains(2, std::vector<double>(500));
  for (size_t c = 0; c < 2; ++c) {
    for (auto& x : chains[c]) {
      x = rng.Gaussian() + (c == 0 ? -5.0 : 5.0);  // Disjoint modes.
    }
  }
  EXPECT_GT(infer::GelmanRubin(chains), 2.0);
}

TEST(DiagnosticsTest, AutocorrelationBasics) {
  const std::vector<double> series = {1, -1, 1, -1, 1, -1, 1, -1};
  EXPECT_NEAR(infer::Autocorrelation(series, 1), -0.875, 0.01);
  EXPECT_DOUBLE_EQ(infer::Autocorrelation(series, 100), 0.0);
}

// --- BIO-constrained proposal --------------------------------------------------

struct BioFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  BioFixture() {
    const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = 600, .tokens_per_doc = 80, .seed = 91});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }
};

bool IsValidBio(const ie::TokenPdb& tokens, const factor::World& world) {
  for (const auto& doc : tokens.docs) {
    uint32_t prev = ie::kLabelO;
    for (factor::VarId v : doc) {
      if (!ie::ValidTransition(prev, world.Get(v))) return false;
      prev = world.Get(v);
    }
  }
  return true;
}

TEST(BioProposalTest, ValidLabelSetsRespectNeighbors) {
  BioFixture f;
  ie::BioConstrainedProposal proposal(&f.tokens.docs);
  factor::World world(f.tokens.num_tokens());  // All O.
  // With all-O neighbors, I-* labels are invalid, B-*/O are valid.
  const auto& doc = f.tokens.docs[0];
  const auto valid = proposal.ValidLabels(world, doc[1]);
  EXPECT_EQ(valid.size(), 5u);  // O + four B-<T>.
  for (uint32_t y : valid) EXPECT_FALSE(ie::IsInside(y));
  // After B-PER at position 1, position 2 may continue with I-PER.
  world.Set(doc[1], ie::LabelIndex("B-PER"));
  const auto after = proposal.ValidLabels(world, doc[2]);
  EXPECT_NE(std::find(after.begin(), after.end(), ie::LabelIndex("I-PER")),
            after.end());
  EXPECT_EQ(std::find(after.begin(), after.end(), ie::LabelIndex("I-ORG")),
            after.end());
}

TEST(BioProposalTest, ChainStaysInValidBioSpace) {
  BioFixture f;
  ie::BioConstrainedProposal proposal(&f.tokens.docs,
                                      /*proposals_per_batch=*/500);
  auto sampler = f.tokens.pdb->MakeSampler(&proposal, /*seed=*/13);
  for (int round = 0; round < 20; ++round) {
    sampler->Run(2000);
    ASSERT_TRUE(IsValidBio(f.tokens, f.tokens.pdb->world()))
        << "invalid BIO after round " << round;
  }
  f.tokens.pdb->DiscardDeltas();
  // The chain must actually move.
  EXPECT_GT(sampler->num_accepted(), 1000u);
}

TEST(BioProposalTest, FreezingNeighborsPinsInsideLabels) {
  // A variable between B-PER and I-PER can only take PER-compatible labels
  // that keep the next I-PER licensed.
  BioFixture f;
  ie::BioConstrainedProposal proposal(&f.tokens.docs);
  const auto& doc = f.tokens.docs[0];
  factor::World world(f.tokens.num_tokens());
  world.Set(doc[0], ie::LabelIndex("B-PER"));
  world.Set(doc[1], ie::LabelIndex("I-PER"));
  world.Set(doc[2], ie::LabelIndex("I-PER"));
  const auto valid = proposal.ValidLabels(world, doc[1]);
  // y must follow B-PER and license I-PER: only B-PER / I-PER qualify.
  EXPECT_EQ(valid.size(), 2u);
  for (uint32_t y : valid) EXPECT_EQ(ie::LabelType(y), ie::EntityType::kPer);
}

// --- CSV persistence ------------------------------------------------------------

TEST(CsvIoTest, TableRoundTrip) {
  Database db;
  Table* table = testing::MakeEmpTable(&db);
  table->UpdateField(0, 2, Value::String("ann \"the boss\", esq."));
  std::stringstream buffer;
  WriteTableCsv(*table, buffer);
  auto restored = ReadTableCsv("EMP", buffer);
  EXPECT_EQ(restored->schema(), table->schema());
  EXPECT_EQ(restored->size(), table->size());
  EXPECT_EQ(restored->Rows(), table->Rows());
  EXPECT_EQ(restored->LookupByKey(Value::Int(3)), table->LookupByKey(Value::Int(3)));
}

TEST(CsvIoTest, NullAndDoubleFieldsSurvive) {
  Database db;
  Schema schema({Attribute{"A", ValueType::kInt64},
                 Attribute{"B", ValueType::kDouble},
                 Attribute{"C", ValueType::kString}});
  Table* table = db.CreateTable("T", std::move(schema));
  table->Insert(Tuple{Value::Int(1), Value::Double(2.5), Value::Null()});
  table->Insert(Tuple{Value::Null(), Value::Double(-0.125), Value::String("")});
  std::stringstream buffer;
  WriteTableCsv(*table, buffer);
  auto restored = ReadTableCsv("T", buffer);
  EXPECT_EQ(restored->Rows(), table->Rows());
}

TEST(CsvIoTest, DatabaseDirectoryRoundTrip) {
  Database db;
  testing::MakeEmpTable(&db);
  Schema extra({Attribute{"X", ValueType::kString}});
  Table* t2 = db.CreateTable("NOTES", std::move(extra));
  t2->Insert(Tuple{Value::String("hello, world")});

  const std::string dir = ::testing::TempDir() + "/fgpdb_csv_roundtrip";
  std::filesystem::remove_all(dir);
  SaveDatabaseCsv(db, dir);
  auto restored = LoadDatabaseCsv(dir);
  ASSERT_NE(restored->GetTable("EMP"), nullptr);
  ASSERT_NE(restored->GetTable("NOTES"), nullptr);
  EXPECT_EQ(restored->RequireTable("EMP")->Rows(),
            db.RequireTable("EMP")->Rows());
  EXPECT_EQ(restored->RequireTable("NOTES")->Rows(),
            db.RequireTable("NOTES")->Rows());
  std::filesystem::remove_all(dir);
}

// --- Top-k ----------------------------------------------------------------------

TEST(TopKTest, RanksByProbability) {
  pdb::QueryAnswer answer;
  const Tuple a{Value::String("a")};
  const Tuple b{Value::String("b")};
  const Tuple c{Value::String("c")};
  answer.ObserveSampleContaining({a, b, c});
  answer.ObserveSampleContaining({a, b});
  answer.ObserveSampleContaining({a});
  answer.ObserveSampleContaining({a});
  const auto top2 = answer.TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].first, a);
  EXPECT_DOUBLE_EQ(top2[0].second, 1.0);
  EXPECT_EQ(top2[1].first, b);
  EXPECT_DOUBLE_EQ(top2[1].second, 0.5);
  EXPECT_EQ(answer.TopK(10).size(), 3u);
}

}  // namespace
}  // namespace fgpdb
