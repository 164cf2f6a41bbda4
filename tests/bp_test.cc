// Belief propagation tests, reproducing the paper's §5.3 framing: exact on
// trees, approximate-or-worse on the loopy graphs skip chains induce, where
// MCMC keeps working.
#include <gtest/gtest.h>

#include <cmath>

#include "factor/factor_graph.h"
#include "infer/metropolis_hastings.h"
#include "infer/proposal.h"
#include "oracles/belief_propagation.h"
#include "oracles/exact.h"
#include "oracles/marginal_estimator.h"
#include "util/rng.h"

namespace fgpdb {
namespace infer {
namespace {

using factor::Domain;
using factor::FactorGraph;
using factor::TableFactor;
using factor::VarId;

void AddUnary(FactorGraph& graph, VarId v, std::vector<double> scores) {
  const size_t k = scores.size();
  graph.AddFactor(std::make_unique<TableFactor>(
      std::vector<VarId>{v}, std::vector<size_t>{k}, std::move(scores)));
}

void AddPairwise(FactorGraph& graph, VarId a, VarId b, size_t k,
                 std::vector<double> scores) {
  graph.AddFactor(std::make_unique<TableFactor>(
      std::vector<VarId>{a, b}, std::vector<size_t>{k, k}, std::move(scores)));
}

TEST(BeliefPropagationTest, ExactOnSingleVariable) {
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(3));
  graph.AddVariable(domain);
  AddUnary(graph, 0, {0.0, 1.0, 2.0});
  const LoopyBpResult bp = LoopyBeliefPropagation(graph);
  const ExactResult exact = ExactInference(graph);
  EXPECT_TRUE(bp.converged);
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(bp.marginals[0][x], exact.marginals[0][x], 1e-9);
  }
}

TEST(BeliefPropagationTest, ExactOnChains) {
  // BP on a tree (here a chain) is exact.
  Rng rng(31);
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(3));
  for (int i = 0; i < 5; ++i) graph.AddVariable(domain);
  for (VarId v = 0; v < 5; ++v) {
    AddUnary(graph, v, {rng.Gaussian(), rng.Gaussian(), rng.Gaussian()});
  }
  for (VarId v = 0; v + 1 < 5; ++v) {
    std::vector<double> scores(9);
    for (auto& s : scores) s = rng.Gaussian();
    AddPairwise(graph, v, v + 1, 3, std::move(scores));
  }
  const LoopyBpResult bp = LoopyBeliefPropagation(graph);
  const ExactResult exact = ExactInference(graph);
  ASSERT_TRUE(bp.converged);
  for (size_t v = 0; v < 5; ++v) {
    for (size_t x = 0; x < 3; ++x) {
      EXPECT_NEAR(bp.marginals[v][x], exact.marginals[v][x], 1e-6)
          << "var " << v << " value " << x;
    }
  }
}

TEST(BeliefPropagationTest, ExactOnStarTrees) {
  Rng rng(37);
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(2));
  for (int i = 0; i < 6; ++i) graph.AddVariable(domain);
  for (VarId v = 0; v < 6; ++v) AddUnary(graph, v, {0.0, rng.Gaussian()});
  for (VarId leaf = 1; leaf < 6; ++leaf) {
    std::vector<double> scores(4);
    for (auto& s : scores) s = rng.Gaussian();
    AddPairwise(graph, 0, leaf, 2, std::move(scores));
  }
  const LoopyBpResult bp = LoopyBeliefPropagation(graph);
  const ExactResult exact = ExactInference(graph);
  ASSERT_TRUE(bp.converged);
  for (size_t v = 0; v < 6; ++v) {
    EXPECT_NEAR(bp.marginals[v][1], exact.marginals[v][1], 1e-6);
  }
}

// Frustrated loop: strong antiferromagnetic couplings around an odd cycle,
// with asymmetric fields so the marginals are informative. The classic BP
// failure mode (§5.3's "fail to converge for these types of graphs"):
// messages circulate the cycle and double-count evidence — and the MCMC
// sampler handles the same graph fine.
FactorGraph FrustratedTriangle(double coupling) {
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(2));
  for (int i = 0; i < 3; ++i) graph.AddVariable(domain);
  AddUnary(graph, 0, {0.0, 0.8});
  AddUnary(graph, 1, {0.0, -0.3});
  AddUnary(graph, 2, {0.0, 0.2});
  const std::vector<double> disagree = {-coupling, coupling, coupling,
                                        -coupling};
  AddPairwise(graph, 0, 1, 2, disagree);
  AddPairwise(graph, 1, 2, 2, disagree);
  AddPairwise(graph, 2, 0, 2, disagree);
  return graph;
}

TEST(BeliefPropagationTest, McmcBeatsBpOnFrustratedLoops) {
  FactorGraph graph = FrustratedTriangle(3.0);
  const ExactResult exact = ExactInference(graph);

  LoopyBpOptions options;
  options.max_iterations = 300;
  const LoopyBpResult bp = LoopyBeliefPropagation(graph, options);

  factor::World world = graph.MakeWorld();
  UniformSingleVariableProposal proposal(graph);
  MetropolisHastings sampler(graph, &world, &proposal, 7);
  MarginalEstimator estimator({2, 2, 2});
  sampler.Run(3000);
  for (int i = 0; i < 60000; ++i) {
    sampler.Step();
    estimator.Observe(world);
  }

  auto total_error = [&](const std::vector<std::vector<double>>& marginals) {
    double err = 0.0;
    for (size_t v = 0; v < 3; ++v) {
      for (size_t x = 0; x < 2; ++x) {
        const double d = marginals[v][x] - exact.marginals[v][x];
        err += d * d;
      }
    }
    return err;
  };
  std::vector<std::vector<double>> mcmc_marginals(3);
  for (size_t v = 0; v < 3; ++v) {
    mcmc_marginals[v] = estimator.Marginal(static_cast<VarId>(v));
  }
  const double mcmc_error = total_error(mcmc_marginals);
  EXPECT_LT(mcmc_error, 1e-3);
  // BP either fails to converge or (converged or not) is no better than
  // MCMC on this graph; on frustrated loops its messages oscillate.
  if (!bp.converged) {
    SUCCEED() << "BP failed to converge (the paper's observation)";
  } else {
    EXPECT_GE(total_error(bp.marginals) + 1e-9, mcmc_error)
        << "BP should not beat MCMC on a frustrated loop";
  }
}

TEST(BeliefPropagationTest, DampingHelpsConvergenceOnLoops) {
  FactorGraph graph = FrustratedTriangle(1.2);
  LoopyBpOptions raw;
  raw.max_iterations = 60;
  LoopyBpOptions damped = raw;
  damped.damping = 0.6;
  const LoopyBpResult undamped_result = LoopyBeliefPropagation(graph, raw);
  const LoopyBpResult damped_result = LoopyBeliefPropagation(graph, damped);
  // Damped BP should do at least as well at converging.
  EXPECT_GE(static_cast<int>(damped_result.converged),
            static_cast<int>(undamped_result.converged));
}

TEST(BeliefPropagationTest, ApproximateButReasonableOnWeakLoops) {
  // Weakly coupled loops: BP converges and is close (not exact).
  Rng rng(41);
  FactorGraph graph;
  auto domain = std::make_shared<Domain>(Domain::OfRange(2));
  for (int i = 0; i < 4; ++i) graph.AddVariable(domain);
  for (VarId v = 0; v < 4; ++v) {
    AddUnary(graph, v, {0.0, 0.5 * rng.Gaussian()});
  }
  for (VarId v = 0; v < 4; ++v) {
    std::vector<double> scores(4);
    for (auto& s : scores) s = 0.3 * rng.Gaussian();
    AddPairwise(graph, v, static_cast<VarId>((v + 1) % 4), 2,
                std::move(scores));
  }
  LoopyBpOptions options;
  options.damping = 0.3;
  const LoopyBpResult bp = LoopyBeliefPropagation(graph, options);
  const ExactResult exact = ExactInference(graph);
  ASSERT_TRUE(bp.converged);
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_NEAR(bp.marginals[v][1], exact.marginals[v][1], 0.05);
  }
}

}  // namespace
}  // namespace infer
}  // namespace fgpdb
