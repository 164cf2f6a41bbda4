// Property tests pinning the until(confidence, eps) estimators against
// closed-form ground truth: Welford moments vs two-pass computation,
// batched-means coverage on i.i.d. AND correlated Bernoulli streams,
// cross-chain standard errors vs the hand-computed formula, and confidence
// intervals around MCMC marginals of a small factor graph whose exact
// marginals are enumerable. The statistical claims are calibration claims —
// "a nominal 95% interval covers the truth ~95% of the time" — checked over
// hundreds of seeded trials, not single runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "factor/factor_graph.h"
#include "infer/convergence.h"
#include "infer/metropolis_hastings.h"
#include "infer/proposal.h"
#include "oracles/exact.h"
#include "pdb/convergence_stats.h"
#include "pdb/query_evaluator.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace fgpdb {
namespace {

using infer::BatchedMeansAccumulator;
using infer::WelfordAccumulator;
using infer::ZForConfidence;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- ZForConfidence ---------------------------------------------------------

TEST(ZForConfidenceTest, MatchesKnownCriticalValues) {
  EXPECT_NEAR(ZForConfidence(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(ZForConfidence(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(ZForConfidence(0.90), 1.644854, 1e-4);
  EXPECT_NEAR(ZForConfidence(0.6827), 1.0, 1e-3);
}

TEST(ZForConfidenceTest, InvertsTheNormalCdf) {
  // P(|Z| <= z) = erf(z/sqrt(2)) must reproduce the confidence.
  for (double c : {0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999}) {
    const double z = ZForConfidence(c);
    EXPECT_NEAR(std::erf(z / std::sqrt(2.0)), c, 1e-6) << "confidence " << c;
  }
  EXPECT_LT(ZForConfidence(0.90), ZForConfidence(0.95));
  EXPECT_LT(ZForConfidence(0.95), ZForConfidence(0.99));
}

// --- Welford ----------------------------------------------------------------

TEST(WelfordTest, MatchesTwoPassMomentsOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.UniformInt(200u);
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.Gaussian(rng.Uniform(-5, 5), rng.Uniform(0.1, 3));
    WelfordAccumulator acc;
    for (double x : xs) acc.Add(x);

    double mean = 0.0;
    for (double x : xs) mean += x;
    mean /= static_cast<double>(n);
    double ss = 0.0;
    for (double x : xs) ss += (x - mean) * (x - mean);
    const double var = ss / static_cast<double>(n - 1);

    EXPECT_EQ(acc.count(), n);
    EXPECT_NEAR(acc.mean(), mean, 1e-9 * (1.0 + std::abs(mean)));
    EXPECT_NEAR(acc.variance(), var, 1e-9 * (1.0 + var));
    EXPECT_NEAR(acc.StandardError(),
                std::sqrt(var / static_cast<double>(n)), 1e-9);
  }
}

TEST(WelfordTest, AddZerosMatchesExplicitZeroObservations) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    WelfordAccumulator bulk, loop;
    const size_t lead = rng.UniformInt(30u);
    bulk.AddZeros(lead);
    for (size_t i = 0; i < lead; ++i) loop.Add(0.0);
    for (size_t i = 0; i < 40; ++i) {
      const double x = rng.Uniform();
      bulk.Add(x);
      loop.Add(x);
      const size_t gap = rng.UniformInt(5u);
      bulk.AddZeros(gap);
      for (size_t j = 0; j < gap; ++j) loop.Add(0.0);
    }
    EXPECT_EQ(bulk.count(), loop.count());
    EXPECT_NEAR(bulk.mean(), loop.mean(), 1e-12);
    EXPECT_NEAR(bulk.variance(), loop.variance(), 1e-10);
  }
}

TEST(WelfordTest, NoEstimateBeforeTwoObservations) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.StandardError(), kInf);
  acc.Add(1.0);
  EXPECT_EQ(acc.StandardError(), kInf);
  acc.Add(0.0);
  EXPECT_LT(acc.StandardError(), kInf);
}

// --- Batched means ----------------------------------------------------------

TEST(BatchedMeansTest, MeanIsExactAndCollapsePreservesTotals) {
  Rng rng(7);
  BatchedMeansAccumulator acc;
  double sum = 0.0;
  // Push through several collapses (64 → 32 batches, size doubling).
  const size_t n = 1000;
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform();
    acc.Add(x);
    sum += x;
  }
  EXPECT_EQ(acc.count(), n);
  EXPECT_NEAR(acc.mean(), sum / static_cast<double>(n), 1e-12);
  EXPECT_GE(acc.batch_size(), 8u);  // 1000 observations forced collapses
  EXPECT_LE(acc.num_complete_batches(), BatchedMeansAccumulator::kMaxBatches);
}

TEST(BatchedMeansTest, AddZerosMatchesExplicitZeroObservations) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 11);
    BatchedMeansAccumulator bulk, loop;
    const size_t lead = rng.UniformInt(300u);
    bulk.AddZeros(lead);
    for (size_t i = 0; i < lead; ++i) loop.Add(0.0);
    for (size_t i = 0; i < 200; ++i) {
      const double x = rng.Bernoulli(0.3) ? 1.0 : 0.0;
      bulk.Add(x);
      loop.Add(x);
      const size_t gap = rng.UniformInt(4u);
      bulk.AddZeros(gap);
      for (size_t j = 0; j < gap; ++j) loop.Add(0.0);
    }
    EXPECT_EQ(bulk.count(), loop.count());
    EXPECT_EQ(bulk.batch_size(), loop.batch_size());
    EXPECT_EQ(bulk.num_complete_batches(), loop.num_complete_batches());
    EXPECT_NEAR(bulk.mean(), loop.mean(), 1e-12);
    if (loop.StandardError() < kInf) {
      EXPECT_NEAR(bulk.StandardError(), loop.StandardError(), 1e-12);
    } else {
      EXPECT_EQ(bulk.StandardError(), kInf);
    }
  }
}

TEST(BatchedMeansTest, NoEstimateBeforeMinimumBatches) {
  BatchedMeansAccumulator acc;
  for (size_t i = 0; i + 1 < BatchedMeansAccumulator::kMinBatchesForEstimate;
       ++i) {
    EXPECT_EQ(acc.StandardError(), kInf) << "after " << i << " batches";
    acc.Add(static_cast<double>(i % 2));
  }
  acc.Add(1.0);
  EXPECT_LT(acc.StandardError(), kInf);
}

// Coverage harness: fraction of `trials` seeded streams whose nominal
// 95% interval mean ± z·SE covers `truth`.
template <typename MakeStream>
double CoverageRate(size_t trials, double truth, const MakeStream& make) {
  const double z = ZForConfidence(0.95);
  size_t covered = 0;
  for (size_t trial = 0; trial < trials; ++trial) {
    BatchedMeansAccumulator acc;
    make(trial + 1, &acc);
    const double se = acc.StandardError();
    EXPECT_LT(se, kInf);
    if (std::abs(acc.mean() - truth) <= z * se) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(trials);
}

TEST(BatchedMeansTest, CoverageHitsNominalRateOnIidBernoulli) {
  // 500 seeded trials of 1024 i.i.d. Bernoulli(0.3) draws: the 95% interval
  // must cover p ≈ 95% of the time. Finite-sample tolerance: sd of the
  // coverage estimate is sqrt(.95*.05/500) ≈ 1%; allow ±3.5%.
  const double p = 0.3;
  const double rate =
      CoverageRate(500, p, [&](uint64_t seed, BatchedMeansAccumulator* acc) {
        Rng rng(seed * 2654435761u);
        for (size_t i = 0; i < 1024; ++i) acc->Add(rng.Bernoulli(p) ? 1 : 0);
      });
  EXPECT_GT(rate, 0.915);
  EXPECT_LT(rate, 0.985);
}

TEST(BatchedMeansTest, CoverageSurvivesMarkovCorrelation) {
  // A sticky two-state Markov chain (stay probability 0.9, symmetric) has
  // stationary mean 0.5 but strong positive autocorrelation: the naive
  // sqrt(p(1-p)/n) error would undercover badly. Batched means must stay
  // near nominal once batches outgrow the correlation length. 500 trials,
  // 4096 draws each (batch size reaches 64 ≈ 6.5 correlation times).
  const double stay = 0.9;
  const double z = ZForConfidence(0.95);
  size_t covered = 0, naive_covered = 0;
  const size_t trials = 500;
  for (uint64_t trial = 1; trial <= trials; ++trial) {
    Rng rng(trial * 0x9e3779b97f4a7c15ULL);
    BatchedMeansAccumulator acc;
    int state = rng.Bernoulli(0.5) ? 1 : 0;
    const size_t n = 4096;
    for (size_t i = 0; i < n; ++i) {
      if (!rng.Bernoulli(stay)) state = 1 - state;
      acc.Add(static_cast<double>(state));
    }
    const double mean = acc.mean();
    if (std::abs(mean - 0.5) <= z * acc.StandardError()) ++covered;
    const double naive_se =
        std::sqrt(std::max(mean * (1.0 - mean), 1e-12) / static_cast<double>(n));
    if (std::abs(mean - 0.5) <= z * naive_se) ++naive_covered;
  }
  const double rate = static_cast<double>(covered) / trials;
  const double naive_rate = static_cast<double>(naive_covered) / trials;
  // Batched means: near nominal (batch length finite, so allow slack down
  // to 88%). The naive i.i.d. interval must undercover by a wide margin —
  // that gap is the reason the serial path needs batching at all.
  EXPECT_GT(rate, 0.88);
  EXPECT_LT(rate, 0.99);
  EXPECT_LT(naive_rate, rate - 0.15);
}

// --- MarginalErrorStats -----------------------------------------------------

Tuple T(int64_t v) { return Tuple{Value::Int(v)}; }

TEST(MarginalErrorStatsTest, TracksIndicatorStreamsWithBackfill) {
  pdb::MarginalErrorStats stats;
  BatchedMeansAccumulator direct_a, direct_b;
  Rng rng(99);
  // Tuple 1 appears from the start; tuple 2 first appears at sample 51 and
  // must backfill 50 zeros so its window matches the answer's.
  for (size_t i = 0; i < 200; ++i) {
    std::vector<Tuple> present;
    const bool a = rng.Bernoulli(0.6);
    const bool b = i >= 50 && rng.Bernoulli(0.4);
    if (a) present.push_back(T(1));
    if (b) present.push_back(T(2));
    stats.ObserveSample(present);
    direct_a.Add(a ? 1.0 : 0.0);
    if (i == 50) direct_b.AddZeros(50);
    if (i >= 50) direct_b.Add(b ? 1.0 : 0.0);
  }
  EXPECT_EQ(stats.num_samples(), 200u);
  EXPECT_EQ(stats.num_tracked(), 2u);
  EXPECT_NEAR(stats.Mean(T(1)), direct_a.mean(), 1e-12);
  EXPECT_NEAR(stats.StandardError(T(1)), direct_a.StandardError(), 1e-12);
  EXPECT_NEAR(stats.Mean(T(2)), direct_b.mean(), 1e-12);
  EXPECT_NEAR(stats.StandardError(T(2)), direct_b.StandardError(), 1e-12);
  EXPECT_EQ(stats.Mean(T(3)), 0.0);
  EXPECT_EQ(stats.StandardError(T(3)), 0.0);
  const double z = ZForConfidence(0.95);
  EXPECT_NEAR(stats.MaxHalfWidth(z),
              z * std::max(direct_a.StandardError(), direct_b.StandardError()),
              1e-12);
}

// --- CrossChainStats --------------------------------------------------------

pdb::QueryAnswer MakeChainAnswer(uint64_t samples,
                                 const std::vector<std::pair<int64_t, uint64_t>>&
                                     tuple_counts) {
  // Build an answer with exact per-tuple counts by replaying membership.
  pdb::QueryAnswer answer;
  for (uint64_t s = 0; s < samples; ++s) {
    std::vector<Tuple> present;
    for (const auto& [v, c] : tuple_counts) {
      if (s < c) present.push_back(T(v));
    }
    answer.ObserveSampleContaining(present);
  }
  return answer;
}

TEST(CrossChainStatsTest, MatchesHandComputedStandardError) {
  // Three chains of 10 samples; tuple 1 counts {2, 5, 8} → means .2/.5/.8.
  pdb::CrossChainStats stats;
  stats.ObserveChain(MakeChainAnswer(10, {{1, 2}}));
  stats.ObserveChain(MakeChainAnswer(10, {{1, 5}}));
  stats.ObserveChain(MakeChainAnswer(10, {{1, 8}}));
  ASSERT_EQ(stats.num_chains(), 3u);
  EXPECT_NEAR(stats.Mean(T(1)), 0.5, 1e-12);
  // sd({.2,.5,.8}) = .3, SE = .3/sqrt(3).
  EXPECT_NEAR(stats.StandardError(T(1)), 0.3 / std::sqrt(3.0), 1e-12);
}

TEST(CrossChainStatsTest, AbsentChainsCountAsZero) {
  // Tuple present in one of two chains with count 6/10: chain means {.6, 0},
  // mean .3, sd = .3/sqrt(2)... sd({.6,0}) = .4243; SE = .3.
  pdb::CrossChainStats stats;
  stats.ObserveChain(MakeChainAnswer(10, {{1, 6}}));
  stats.ObserveChain(MakeChainAnswer(10, {}));
  EXPECT_NEAR(stats.Mean(T(1)), 0.3, 1e-12);
  const double sd = std::sqrt((0.09 + 0.09) / 1.0);  // Σ(m-.3)² / (B-1)
  EXPECT_NEAR(stats.StandardError(T(1)), sd / std::sqrt(2.0), 1e-12);
}

TEST(CrossChainStatsTest, FoldOrderCannotChangeASingleBit) {
  // The streaming merge folds chains in completion order; the estimator
  // must be exactly order-independent or stopping decisions would be racy.
  std::vector<pdb::QueryAnswer> chains;
  Rng rng(5);
  for (int b = 0; b < 8; ++b) {
    chains.push_back(MakeChainAnswer(
        20, {{1, rng.UniformInt(21u)}, {2, rng.UniformInt(21u)},
             {3, rng.UniformInt(21u)}}));
  }
  pdb::CrossChainStats forward, reverse, shuffled;
  for (const auto& c : chains) forward.ObserveChain(c);
  for (auto it = chains.rbegin(); it != chains.rend(); ++it) {
    reverse.ObserveChain(*it);
  }
  std::vector<size_t> order = {3, 0, 7, 5, 1, 6, 2, 4};
  for (size_t i : order) shuffled.ObserveChain(chains[i]);
  for (int64_t v : {1, 2, 3}) {
    EXPECT_EQ(forward.StandardError(T(v)), reverse.StandardError(T(v)));
    EXPECT_EQ(forward.StandardError(T(v)), shuffled.StandardError(T(v)));
    EXPECT_EQ(forward.Mean(T(v)), reverse.Mean(T(v)));
    EXPECT_EQ(forward.Mean(T(v)), shuffled.Mean(T(v)));
  }
}

TEST(CrossChainStatsTest, MergePoolsRoundsLikeOneBigBatch) {
  std::vector<pdb::QueryAnswer> chains;
  Rng rng(17);
  for (int b = 0; b < 6; ++b) {
    chains.push_back(MakeChainAnswer(15, {{1, rng.UniformInt(16u)}}));
  }
  pdb::CrossChainStats all;
  for (const auto& c : chains) all.ObserveChain(c);
  pdb::CrossChainStats first, second;
  for (int b = 0; b < 2; ++b) first.ObserveChain(chains[b]);
  for (int b = 2; b < 6; ++b) second.ObserveChain(chains[b]);
  first.Merge(second);
  EXPECT_EQ(first.num_chains(), all.num_chains());
  EXPECT_EQ(first.Mean(T(1)), all.Mean(T(1)));
  EXPECT_EQ(first.StandardError(T(1)), all.StandardError(T(1)));
}

TEST(CrossChainStatsTest, NoEstimateWithOneChain) {
  pdb::CrossChainStats stats;
  stats.ObserveChain(MakeChainAnswer(10, {{1, 5}}));
  EXPECT_EQ(stats.StandardError(T(1)), kInf);
  EXPECT_EQ(stats.MaxHalfWidth(2.0), kInf);
}

TEST(CrossChainStatsTest, CoverageHitsNominalRateOnIidBernoulli) {
  // 500 trials × 8 chains × 64 i.i.d. Bernoulli(0.42) samples: the pooled
  // 95% interval covers p near-nominally. (t-vs-z with 7 dof costs some
  // coverage: true rate ≈ 92%; assert a band around that.)
  const double p = 0.42;
  const double z = ZForConfidence(0.95);
  size_t covered = 0;
  const size_t trials = 500;
  for (uint64_t trial = 1; trial <= trials; ++trial) {
    Rng rng(trial * 0x2545f4914f6cdd1dULL);
    pdb::CrossChainStats stats;
    for (int b = 0; b < 8; ++b) {
      uint64_t count = 0;
      for (int i = 0; i < 64; ++i) count += rng.Bernoulli(p) ? 1 : 0;
      stats.ObserveChain(MakeChainAnswer(64, {{1, count}}));
    }
    if (std::abs(stats.Mean(T(1)) - p) <= z * stats.StandardError(T(1))) {
      ++covered;
    }
  }
  const double rate = static_cast<double>(covered) / trials;
  EXPECT_GT(rate, 0.87);
  EXPECT_LT(rate, 0.97);
}

// --- Cross-chain coverage against an exactly enumerable factor graph -------

TEST(CrossChainStatsTest, CoversExactMarginalOfSmallFactorGraph) {
  // A 4-variable, 2-label loopy graph small enough to enumerate exactly.
  // Run B independent MH chains per trial, estimate P(Y0 = 1) with its
  // cross-chain SE, and check the 95% interval covers the exact marginal
  // at a near-nominal rate over 120 trials. This is the end-to-end claim
  // the until() policy rests on: chain means behave like i.i.d. draws
  // around the true marginal.
  using factor::Domain;
  using factor::FactorGraph;
  using factor::TableFactor;
  using factor::VarId;

  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(2));
  for (int i = 0; i < 4; ++i) graph.AddVariable(domain);
  Rng weights_rng(4242);
  for (VarId v = 0; v < 4; ++v) {
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{v}, std::vector<size_t>{2},
        std::vector<double>{weights_rng.Gaussian(), weights_rng.Gaussian()}));
  }
  const std::vector<std::pair<VarId, VarId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}};
  for (const auto& [a, b] : edges) {
    std::vector<double> scores(4);
    for (auto& s : scores) s = weights_rng.Gaussian();
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{a, b}, std::vector<size_t>{2, 2},
        std::move(scores)));
  }
  const double exact = infer::ExactInference(graph).marginals[0][1];

  const double z = ZForConfidence(0.95);
  const size_t trials = 120;
  size_t covered = 0;
  for (uint64_t trial = 1; trial <= trials; ++trial) {
    pdb::CrossChainStats stats;
    const int chains = 6;
    const uint64_t samples = 150;
    for (int b = 0; b < chains; ++b) {
      factor::World world = graph.MakeWorld();
      infer::UniformSingleVariableProposal proposal(graph);
      infer::MetropolisHastings sampler(graph, &world, &proposal,
                                        trial * 1000 + b * 7 + 1);
      sampler.Run(500);  // burn-in
      uint64_t count = 0;
      for (uint64_t s = 0; s < samples; ++s) {
        sampler.Run(20);  // thinning
        count += world.Get(0) == 1 ? 1 : 0;
      }
      stats.ObserveChain(MakeChainAnswer(samples, {{1, count}}));
    }
    if (std::abs(stats.Mean(T(1)) - exact) <= z * stats.StandardError(T(1))) {
      ++covered;
    }
  }
  // Thinned-but-correlated within-chain samples make chain means slightly
  // heavy-tailed; accept 82–100% over 120 trials (sd of estimate ≈ 2%).
  const double rate = static_cast<double>(covered) / trials;
  EXPECT_GT(rate, 0.82);
}

}  // namespace
}  // namespace fgpdb
