// Inference tests: exact enumeration, forward-backward, and the MCMC
// convergence guarantees the paper's query evaluation rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "factor/factor_graph.h"
#include "infer/metropolis_hastings.h"
#include "infer/proposal.h"
#include "oracles/exact.h"
#include "oracles/forward_backward.h"
#include "oracles/marginal_estimator.h"

namespace fgpdb {
namespace infer {
namespace {

using factor::Domain;
using factor::FactorGraph;
using factor::TableFactor;
using factor::VarId;
using factor::World;

FactorGraph MakeTwoVarGraph() {
  // p(y0,y1) ∝ exp(u0[y0] + u1[y1] + pair[y0][y1]), 2x2.
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(2));
  graph.AddVariable(domain, "y0");
  graph.AddVariable(domain, "y1");
  graph.AddFactor(std::make_unique<TableFactor>(
      std::vector<VarId>{0}, std::vector<size_t>{2},
      std::vector<double>{0.0, 1.0}));
  graph.AddFactor(std::make_unique<TableFactor>(
      std::vector<VarId>{1}, std::vector<size_t>{2},
      std::vector<double>{0.5, 0.0}));
  graph.AddFactor(std::make_unique<TableFactor>(
      std::vector<VarId>{0, 1}, std::vector<size_t>{2, 2},
      std::vector<double>{1.0, 0.0, 0.0, 1.0}));  // Attractive coupling.
  return graph;
}

TEST(ExactInferenceTest, MatchesHandComputation) {
  FactorGraph graph = MakeTwoVarGraph();
  const ExactResult result = ExactInference(graph);
  // Unnormalized scores: (0,0)=e^{1.5}, (0,1)=e^{0}, (1,0)=e^{1.5}, (1,1)=e^{2}.
  const double z = std::exp(1.5) + std::exp(0.0) + std::exp(1.5) + std::exp(2.0);
  EXPECT_NEAR(result.log_partition, std::log(z), 1e-12);
  EXPECT_NEAR(result.marginals[0][1], (std::exp(1.5) + std::exp(2.0)) / z,
              1e-12);
  EXPECT_NEAR(result.marginals[1][0], (std::exp(1.5) + std::exp(1.5)) / z,
              1e-12);
  // Marginals sum to one.
  EXPECT_NEAR(result.marginals[0][0] + result.marginals[0][1], 1.0, 1e-12);
  // World probabilities enumerate in mixed-radix order.
  ASSERT_EQ(result.world_probabilities.size(), 4u);
  EXPECT_NEAR(result.world_probabilities[3], std::exp(2.0) / z, 1e-12);
}

TEST(ExactInferenceTest, WorldProbability) {
  FactorGraph graph = MakeTwoVarGraph();
  World w = graph.MakeWorld();
  w.Set(0, 1);
  w.Set(1, 1);
  const double z = std::exp(1.5) + 1.0 + std::exp(1.5) + std::exp(2.0);
  EXPECT_NEAR(ExactWorldProbability(graph, w), std::exp(2.0) / z, 1e-12);
}

TEST(ExactInferenceTest, TooManyWorldsIsFatal) {
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(10));
  for (int i = 0; i < 10; ++i) graph.AddVariable(domain);
  EXPECT_DEATH(ExactInference(graph, /*max_worlds=*/1000), "too large");
}

TEST(ForwardBackwardTest, MatchesBruteForceOnChain) {
  // 4-position chain, 3 labels, random potentials.
  const size_t n = 4, labels = 3;
  Rng rng(99);
  ChainPotentials potentials;
  potentials.node.assign(n, std::vector<double>(labels));
  potentials.edge.assign(labels, std::vector<double>(labels));
  for (auto& row : potentials.node) {
    for (auto& x : row) x = rng.Gaussian();
  }
  for (auto& row : potentials.edge) {
    for (auto& x : row) x = rng.Gaussian();
  }

  // Equivalent explicit factor graph.
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(labels));
  for (size_t i = 0; i < n; ++i) graph.AddVariable(domain);
  for (size_t i = 0; i < n; ++i) {
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{static_cast<VarId>(i)}, std::vector<size_t>{labels},
        potentials.node[i]));
  }
  std::vector<double> edge_flat;
  for (const auto& row : potentials.edge) {
    edge_flat.insert(edge_flat.end(), row.begin(), row.end());
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{static_cast<VarId>(i), static_cast<VarId>(i + 1)},
        std::vector<size_t>{labels, labels}, edge_flat));
  }

  const ChainResult fb = ForwardBackward(potentials);
  const ExactResult exact = ExactInference(graph);
  EXPECT_NEAR(fb.log_partition, exact.log_partition, 1e-9);
  for (size_t t = 0; t < n; ++t) {
    for (size_t y = 0; y < labels; ++y) {
      EXPECT_NEAR(fb.marginals[t][y], exact.marginals[t][y], 1e-9)
          << "position " << t << " label " << y;
    }
  }
}

TEST(ForwardBackwardTest, ViterbiFindsArgmaxWorld) {
  ChainPotentials potentials;
  potentials.node = {{0.0, 2.0}, {1.0, 0.0}, {0.0, 1.0}};
  potentials.edge = {{0.5, 0.0}, {0.0, 0.5}};  // Prefer staying.
  const auto path = ViterbiDecode(potentials);
  ASSERT_EQ(path.size(), 3u);
  // Enumerate all 8 paths and verify Viterbi's is maximal.
  double best = -1e300;
  std::vector<size_t> best_path;
  for (size_t a = 0; a < 2; ++a) {
    for (size_t b = 0; b < 2; ++b) {
      for (size_t c = 0; c < 2; ++c) {
        const double score = potentials.node[0][a] + potentials.node[1][b] +
                             potentials.node[2][c] + potentials.edge[a][b] +
                             potentials.edge[b][c];
        if (score > best) {
          best = score;
          best_path = {a, b, c};
        }
      }
    }
  }
  EXPECT_EQ(path, best_path);
}

TEST(MetropolisHastingsTest, ConvergesToExactMarginals) {
  FactorGraph graph = MakeTwoVarGraph();
  World world = graph.MakeWorld();
  UniformSingleVariableProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, /*seed=*/5);
  MarginalEstimator estimator({2, 2});
  sampler.Run(2000);  // Burn-in.
  for (int i = 0; i < 40000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }
  const ExactResult exact = ExactInference(graph);
  for (size_t v = 0; v < 2; ++v) {
    for (uint32_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(estimator.Estimate(static_cast<VarId>(v), k),
                  exact.marginals[v][k], 0.02)
          << "var " << v << " value " << k;
    }
  }
}

TEST(MetropolisHastingsTest, GibbsProposalNeverRejects) {
  FactorGraph graph = MakeTwoVarGraph();
  World world = graph.MakeWorld();
  GibbsProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, /*seed=*/6);
  sampler.Run(5000);
  EXPECT_DOUBLE_EQ(sampler.acceptance_rate(), 1.0);
}

TEST(MetropolisHastingsTest, GibbsConvergesToExactMarginals) {
  FactorGraph graph = MakeTwoVarGraph();
  World world = graph.MakeWorld();
  GibbsProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, /*seed=*/7);
  MarginalEstimator estimator({2, 2});
  sampler.Run(1000);
  for (int i = 0; i < 30000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }
  const ExactResult exact = ExactInference(graph);
  EXPECT_NEAR(estimator.Estimate(0, 1), exact.marginals[0][1], 0.02);
  EXPECT_NEAR(estimator.Estimate(1, 1), exact.marginals[1][1], 0.02);
}

TEST(MetropolisHastingsTest, ListenersSeeOnlyRealChanges) {
  FactorGraph graph = MakeTwoVarGraph();
  World world = graph.MakeWorld();
  UniformSingleVariableProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, /*seed=*/8);
  size_t notified = 0;
  sampler.AddListener([&](const std::vector<factor::AppliedAssignment>& a) {
    for (const auto& x : a) {
      EXPECT_NE(x.old_value, x.new_value);
      ++notified;
    }
  });
  sampler.Run(2000);
  EXPECT_GT(notified, 0u);
  EXPECT_LE(notified, sampler.num_accepted());
}

// The reference every Step(n) loop's acceptance must equal: a draw u
// accepts iff u < exp(log_alpha).
bool ExpAccepts(double u, double log_alpha) { return u < std::exp(log_alpha); }

// 1/P(x) for x = −log_alpha, P(x) = 1 + x + x²/2 + x³/6: the draw above
// which UniformBelowExp rejects without an exp.
double CubicBound(double log_alpha) {
  const double x = -log_alpha;
  return 1.0 / (1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0))));
}

// Draws u and one ulp either side of it, kept to [0, 1).
void AddNeighborhood(double u, std::vector<double>* out) {
  for (const double v : {std::nextafter(u, -1.0), u, std::nextafter(u, 2.0)}) {
    if (v >= 0.0 && v < 1.0) out->push_back(v);
  }
}

TEST(MetropolisAcceptsTest, BoundDecidesLikeExpAtEdges) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double log_alpha : {kNaN, -kInf, 0.0, -0.0, -1e-300, -36.7,
                                 -745.2, -746.0, -1e308}) {
    std::vector<double> draws = {0.0, 0x1p-53, 0.5, 1.0 - 0x1p-53};
    AddNeighborhood(std::exp(log_alpha), &draws);
    AddNeighborhood(CubicBound(log_alpha), &draws);
    for (const double u : draws) {
      EXPECT_EQ(UniformBelowExp(u, log_alpha), ExpAccepts(u, log_alpha))
          << "u=" << u << " log_alpha=" << log_alpha;
    }
  }
}

TEST(MetropolisAcceptsTest, BoundDecidesLikeExpOnSeededPairs) {
  // A third of the draws are uniform (the bound decides most rejections),
  // a third sit within a few ulps of exp(log_alpha) and a third within a
  // few ulps of 1/P, where only the exact test can decide.
  Rng rng(20261019);
  size_t accepted = 0;
  const size_t kPairs = 1200000;
  for (size_t i = 0; i < kPairs; ++i) {
    const double log_alpha = -50.0 * rng.Uniform();
    double u = rng.Uniform();
    if (i % 3 != 0) {
      u = i % 3 == 1 ? std::exp(log_alpha) : CubicBound(log_alpha);
      for (uint64_t k = rng.UniformInt(7); k > 0; --k) {
        u = std::nextafter(u, i % 2 == 0 ? -1.0 : 2.0);
      }
      if (u < 0.0 || u >= 1.0) continue;
    }
    const bool want = ExpAccepts(u, log_alpha);
    ASSERT_EQ(UniformBelowExp(u, log_alpha), want)
        << "u=" << u << " log_alpha=" << log_alpha;
    if (want) ++accepted;
  }
  EXPECT_GT(accepted, kPairs / 10);  // Both outcomes well exercised.
}

TEST(MetropolisAcceptsTest, DrawsOnlyBelowZero) {
  Rng rng(5);
  Rng twin(5);
  EXPECT_TRUE(MetropolisAccepts(0.0, rng));
  EXPECT_TRUE(MetropolisAccepts(3.5, rng));
  EXPECT_EQ(rng.Next(), twin.Next());  // No draw consumed.
  const double u = twin.Uniform();
  EXPECT_EQ(MetropolisAccepts(-0.25, rng), u < std::exp(-0.25));
  EXPECT_EQ(rng.Next(), twin.Next());  // Exactly one draw consumed.
  EXPECT_FALSE(MetropolisAccepts(std::numeric_limits<double>::quiet_NaN(),
                                 rng));
}

TEST(MarginalEstimatorTest, CountsAndMerge) {
  MarginalEstimator a({2});
  MarginalEstimator b({2});
  World w(1);
  w.Set(0, 1);
  a.Observe(w);
  w.Set(0, 0);
  a.Observe(w);
  b.Observe(w);
  EXPECT_DOUBLE_EQ(a.Estimate(0, 1), 0.5);
  a.Merge(b);
  EXPECT_EQ(a.num_samples(), 3u);
  EXPECT_NEAR(a.Estimate(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.SquaredErrorAgainst({{2.0 / 3.0, 1.0 / 3.0}}), 0.0);
}

}  // namespace
}  // namespace infer
}  // namespace fgpdb
