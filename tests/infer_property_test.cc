// Property sweeps for the inference stack: forward-backward vs brute force
// on random chains, MH/Gibbs convergence on random graphs, and detailed-
// balance sanity of the proposal corrections.
#include <gtest/gtest.h>

#include <cmath>

#include "factor/factor_graph.h"
#include "infer/metropolis_hastings.h"
#include "infer/proposal.h"
#include "infer/subset_proposal.h"
#include "oracles/exact.h"
#include "oracles/forward_backward.h"
#include "oracles/marginal_estimator.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {
namespace {

using factor::Domain;
using factor::FactorGraph;
using factor::TableFactor;
using factor::VarId;
using factor::World;

FactorGraph RandomGraph(size_t vars, size_t labels, double edge_prob,
                        uint64_t seed) {
  FactorGraph graph;
  auto domain =
      std::make_shared<Domain>(Domain::OfRange(static_cast<int64_t>(labels)));
  Rng rng(seed);
  for (size_t i = 0; i < vars; ++i) graph.AddVariable(domain);
  for (size_t i = 0; i < vars; ++i) {
    std::vector<double> scores(labels);
    for (auto& s : scores) s = rng.Gaussian();
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{static_cast<VarId>(i)}, std::vector<size_t>{labels},
        std::move(scores)));
  }
  for (size_t i = 0; i < vars; ++i) {
    for (size_t j = i + 1; j < vars; ++j) {
      if (!rng.Bernoulli(edge_prob)) continue;
      std::vector<double> scores(labels * labels);
      for (auto& s : scores) s = rng.Gaussian();
      graph.AddFactor(std::make_unique<TableFactor>(
          std::vector<VarId>{static_cast<VarId>(i), static_cast<VarId>(j)},
          std::vector<size_t>{labels, labels}, std::move(scores)));
    }
  }
  return graph;
}

class ChainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainPropertyTest, ForwardBackwardMatchesBruteForce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const size_t n = 2 + rng.UniformInt(4u);      // 2-5 positions
  const size_t labels = 2 + rng.UniformInt(3u); // 2-4 labels
  ChainPotentials potentials;
  potentials.node.assign(n, std::vector<double>(labels));
  potentials.edge.assign(labels, std::vector<double>(labels));
  for (auto& row : potentials.node) {
    for (auto& x : row) x = 2.0 * rng.Gaussian();
  }
  for (auto& row : potentials.edge) {
    for (auto& x : row) x = 2.0 * rng.Gaussian();
  }

  FactorGraph graph;
  auto domain =
      std::make_shared<Domain>(Domain::OfRange(static_cast<int64_t>(labels)));
  for (size_t i = 0; i < n; ++i) graph.AddVariable(domain);
  for (size_t i = 0; i < n; ++i) {
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{static_cast<VarId>(i)}, std::vector<size_t>{labels},
        potentials.node[i]));
  }
  std::vector<double> flat;
  for (const auto& row : potentials.edge) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    graph.AddFactor(std::make_unique<TableFactor>(
        std::vector<VarId>{static_cast<VarId>(i), static_cast<VarId>(i + 1)},
        std::vector<size_t>{labels, labels}, flat));
  }

  const ChainResult fb = ForwardBackward(potentials);
  const ExactResult exact = ExactInference(graph);
  ASSERT_NEAR(fb.log_partition, exact.log_partition, 1e-8);
  for (size_t t = 0; t < n; ++t) {
    for (size_t y = 0; y < labels; ++y) {
      ASSERT_NEAR(fb.marginals[t][y], exact.marginals[t][y], 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainPropertyTest, ::testing::Range(1, 13));

class McmcPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(McmcPropertyTest, UniformKernelConvergesOnRandomLoopyGraphs) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  FactorGraph graph = RandomGraph(4, 3, 0.6, seed);
  World world = graph.MakeWorld();
  UniformSingleVariableProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, seed * 13 + 1);
  MarginalEstimator estimator({3, 3, 3, 3});
  sampler.Run(3000);
  for (int i = 0; i < 60000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }
  const ExactResult exact = ExactInference(graph);
  EXPECT_LT(estimator.SquaredErrorAgainst(exact.marginals), 0.01)
      << "seed " << seed;
}

TEST_P(McmcPropertyTest, GibbsKernelConvergesOnRandomLoopyGraphs) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  FactorGraph graph = RandomGraph(4, 3, 0.6, seed + 100);
  World world = graph.MakeWorld();
  GibbsProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, seed * 17 + 5);
  MarginalEstimator estimator({3, 3, 3, 3});
  sampler.Run(1000);
  for (int i = 0; i < 40000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }
  const ExactResult exact = ExactInference(graph);
  EXPECT_LT(estimator.SquaredErrorAgainst(exact.marginals), 0.01)
      << "seed " << seed;
  EXPECT_DOUBLE_EQ(sampler.acceptance_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McmcPropertyTest, ::testing::Range(1, 7));

TEST(SubsetProposalTest, SamplesConditionalOfSubset) {
  // Freeze variable 2 and sample {0,1} | y2: the subset chain must match
  // the conditional distribution computed by brute force.
  FactorGraph graph = RandomGraph(3, 2, 1.0, 77);
  World world = graph.MakeWorld();
  world.Set(2, 1);  // Condition on y2 = 1.
  SubsetUniformProposal proposal(graph, {0, 1});
  MetropolisHastings sampler(graph, &world, &proposal, 31);
  MarginalEstimator estimator({2, 2, 2});
  sampler.Run(2000);
  for (int i = 0; i < 60000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }
  EXPECT_EQ(world.Get(2), 1u) << "frozen variable must not move";

  // Brute-force conditional P(y0 | y2 = 1).
  double num = 0.0, den = 0.0;
  for (uint32_t y0 = 0; y0 < 2; ++y0) {
    for (uint32_t y1 = 0; y1 < 2; ++y1) {
      World w(3);
      w.Set(0, y0);
      w.Set(1, y1);
      w.Set(2, 1);
      const double p = std::exp(graph.LogScore(w));
      den += p;
      if (y0 == 1) num += p;
    }
  }
  EXPECT_NEAR(estimator.Estimate(0, 1), num / den, 0.02);
}

TEST(ProposalRatioTest, AsymmetricRatioPreservesStationaryDistribution) {
  // A deliberately biased kernel with the correct q-ratio correction must
  // still converge to the model distribution (Eq. 3's second factor).
  class BiasedProposal final : public Proposal {
   public:
    explicit BiasedProposal(const factor::Model& model) : model_(model) {}
    using Proposal::Propose;
    void Propose(const World& world, Rng& rng, factor::Change* change,
                 double* log_ratio) override {
      // Proposes value 1 with probability 0.8, value 0 with 0.2.
      const auto var =
          static_cast<VarId>(rng.UniformInt(model_.num_variables()));
      const uint32_t value = rng.Bernoulli(0.8) ? 1 : 0;
      const uint32_t old_value = world.Get(var);
      const auto q = [](uint32_t v) { return v == 1 ? 0.8 : 0.2; };
      *log_ratio = std::log(q(old_value)) - std::log(q(value));
      change->Clear();
      change->Set(var, value);
    }
   private:
    const factor::Model& model_;
  };

  FactorGraph graph = RandomGraph(3, 2, 1.0, 99);
  World world = graph.MakeWorld();
  BiasedProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, 71);
  MarginalEstimator estimator({2, 2, 2});
  sampler.Run(3000);
  for (int i = 0; i < 80000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }
  const ExactResult exact = ExactInference(graph);
  EXPECT_LT(estimator.SquaredErrorAgainst(exact.marginals), 0.01);
}

}  // namespace
}  // namespace infer
}  // namespace fgpdb
