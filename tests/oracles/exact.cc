#include "oracles/exact.h"

#include <cmath>

#include "util/logging.h"
#include "util/math_util.h"

namespace fgpdb {
namespace infer {
namespace {

// Invokes fn(world) for every joint assignment (last variable fastest).
template <typename Fn>
void EnumerateWorlds(const factor::FactorGraph& graph, Fn&& fn) {
  const size_t n = graph.num_variables();
  factor::World world = graph.MakeWorld();
  while (true) {
    fn(world);
    // Mixed-radix increment.
    size_t i = n;
    while (i > 0) {
      --i;
      const auto var = static_cast<factor::VarId>(i);
      if (world.Get(var) + 1 < graph.domain_size(var)) {
        world.Set(var, world.Get(var) + 1);
        break;
      }
      world.Set(var, 0);
      if (i == 0) return;
    }
    if (n == 0) return;
  }
}

size_t CountWorlds(const factor::FactorGraph& graph, size_t max_worlds) {
  size_t total = 1;
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    total *= graph.domain_size(static_cast<factor::VarId>(v));
    FGPDB_CHECK_LE(total, max_worlds)
        << "graph too large for exact inference";
  }
  return total;
}

}  // namespace

ExactResult ExactInference(const factor::FactorGraph& graph,
                           size_t max_worlds) {
  const size_t num_worlds = CountWorlds(graph, max_worlds);
  std::vector<double> log_scores;
  log_scores.reserve(num_worlds);
  EnumerateWorlds(graph,
                  [&](const factor::World& w) { log_scores.push_back(graph.LogScore(w)); });

  ExactResult result;
  result.log_partition = LogSumExp(log_scores);
  result.marginals.resize(graph.num_variables());
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    result.marginals[v].assign(graph.domain_size(static_cast<factor::VarId>(v)),
                               0.0);
  }
  result.world_probabilities.reserve(num_worlds);
  size_t index = 0;
  EnumerateWorlds(graph, [&](const factor::World& w) {
    const double p = std::exp(log_scores[index++] - result.log_partition);
    result.world_probabilities.push_back(p);
    for (size_t v = 0; v < graph.num_variables(); ++v) {
      result.marginals[v][w.Get(static_cast<factor::VarId>(v))] += p;
    }
  });
  return result;
}

double ExactWorldProbability(const factor::FactorGraph& graph,
                             const factor::World& world, size_t max_worlds) {
  CountWorlds(graph, max_worlds);
  std::vector<double> log_scores;
  EnumerateWorlds(graph, [&](const factor::World& w) {
    log_scores.push_back(graph.LogScore(w));
  });
  return std::exp(graph.LogScore(world) - LogSumExp(log_scores));
}

}  // namespace infer
}  // namespace fgpdb
