#include "oracles/belief_propagation.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math_util.h"

namespace fgpdb {
namespace infer {
namespace {

using factor::FactorGraph;
using factor::VarId;

// Normalizes a log-message so its log-sum-exp is 0 (keeps values bounded).
void NormalizeLog(std::vector<double>& message) {
  const double lse = LogSumExp(message);
  for (double& x : message) x -= lse;
}

double MaxAbsDifference(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double out = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    out = std::max(out, std::abs(a[i] - b[i]));
  }
  return out;
}

}  // namespace

LoopyBpResult LoopyBeliefPropagation(const FactorGraph& graph,
                                     const LoopyBpOptions& options) {
  const size_t num_vars = graph.num_variables();
  const size_t num_factors = graph.num_factors();

  // Edge (factor f, slot i) where slot i is the position of the variable in
  // f's argument list. Messages live per edge, both directions.
  struct Edge {
    size_t factor;
    size_t slot;
    VarId var;
  };
  std::vector<Edge> edges;
  // Per-variable and per-factor edge indexes.
  std::vector<std::vector<size_t>> var_edges(num_vars);
  std::vector<std::vector<size_t>> factor_edges(num_factors);
  for (size_t f = 0; f < num_factors; ++f) {
    const auto& vars = graph.factor(f).variables();
    for (size_t slot = 0; slot < vars.size(); ++slot) {
      var_edges[vars[slot]].push_back(edges.size());
      factor_edges[f].push_back(edges.size());
      edges.push_back(Edge{f, slot, vars[slot]});
    }
  }

  // Messages in log space, initialized uniform (zeros).
  std::vector<std::vector<double>> var_to_factor(edges.size());
  std::vector<std::vector<double>> factor_to_var(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    const size_t domain = graph.domain_size(edges[e].var);
    var_to_factor[e].assign(domain, 0.0);
    factor_to_var[e].assign(domain, 0.0);
  }

  LoopyBpResult result;
  std::vector<double> scratch;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    double max_change = 0.0;

    // Variable -> factor messages.
    for (size_t e = 0; e < edges.size(); ++e) {
      const Edge& edge = edges[e];
      const size_t domain = graph.domain_size(edge.var);
      std::vector<double> message(domain, 0.0);
      for (size_t other : var_edges[edge.var]) {
        if (other == e) continue;
        for (size_t x = 0; x < domain; ++x) {
          message[x] += factor_to_var[other][x];
        }
      }
      NormalizeLog(message);
      if (options.damping > 0.0) {
        for (size_t x = 0; x < domain; ++x) {
          message[x] = options.damping * var_to_factor[e][x] +
                       (1.0 - options.damping) * message[x];
        }
      }
      max_change =
          std::max(max_change, MaxAbsDifference(message, var_to_factor[e]));
      var_to_factor[e] = std::move(message);
    }

    // Factor -> variable messages: marginalize the factor over every other
    // argument, weighting by their incoming messages.
    for (size_t f = 0; f < num_factors; ++f) {
      const auto& fac = graph.factor(f);
      const auto& vars = fac.variables();
      const size_t arity = vars.size();
      // Enumerate joint assignments (mixed radix, last slot fastest).
      std::vector<uint32_t> assignment(arity, 0);
      std::vector<std::vector<std::vector<double>>> accum(arity);
      for (size_t slot = 0; slot < arity; ++slot) {
        accum[slot].assign(graph.domain_size(vars[slot]), {});
      }
      while (true) {
        double weight = fac.LogScore(assignment);
        for (size_t slot = 0; slot < arity; ++slot) {
          weight += var_to_factor[factor_edges[f][slot]][assignment[slot]];
        }
        // Credit this joint weight to each slot's output bucket, excluding
        // that slot's own incoming message.
        for (size_t slot = 0; slot < arity; ++slot) {
          const double without_self =
              weight -
              var_to_factor[factor_edges[f][slot]][assignment[slot]];
          accum[slot][assignment[slot]].push_back(without_self);
        }
        // Increment.
        size_t i = arity;
        bool done = true;
        while (i > 0) {
          --i;
          if (assignment[i] + 1 < graph.domain_size(vars[i])) {
            ++assignment[i];
            done = false;
            break;
          }
          assignment[i] = 0;
        }
        if (done) break;
      }
      for (size_t slot = 0; slot < arity; ++slot) {
        const size_t e = factor_edges[f][slot];
        const size_t domain = graph.domain_size(vars[slot]);
        std::vector<double> message(domain);
        for (size_t x = 0; x < domain; ++x) {
          message[x] = LogSumExp(accum[slot][x]);
        }
        NormalizeLog(message);
        if (options.damping > 0.0) {
          for (size_t x = 0; x < domain; ++x) {
            message[x] = options.damping * factor_to_var[e][x] +
                         (1.0 - options.damping) * message[x];
          }
        }
        max_change =
            std::max(max_change, MaxAbsDifference(message, factor_to_var[e]));
        factor_to_var[e] = std::move(message);
      }
    }

    result.iterations = iter + 1;
    if (max_change < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Beliefs.
  result.marginals.resize(num_vars);
  for (size_t v = 0; v < num_vars; ++v) {
    const size_t domain = graph.domain_size(static_cast<VarId>(v));
    std::vector<double> belief(domain, 0.0);
    for (size_t e : var_edges[v]) {
      for (size_t x = 0; x < domain; ++x) belief[x] += factor_to_var[e][x];
    }
    const double lse = LogSumExp(belief);
    result.marginals[v].resize(domain);
    for (size_t x = 0; x < domain; ++x) {
      result.marginals[v][x] = std::exp(belief[x] - lse);
    }
  }
  return result;
}

}  // namespace infer
}  // namespace fgpdb
