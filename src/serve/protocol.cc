#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "util/logging.h"

namespace fgpdb {
namespace serve {
namespace {

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::string UpperCopy(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

/// Accepts only [0-9]+ within range: strtoull alone would take a sign
/// ("-1" wraps to 2^64-1) and saturate on overflow.
bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || !std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

std::string Err(StatusCode code, const std::string& message) {
  return std::string("ERR ") + StatusCodeName(code) + " " + message + "\n";
}

std::string Err(const Status& status) {
  return Err(status.code, status.message);
}

/// The SQL payload of a QUERY line: everything after the tenant-id token.
std::string RestOfLine(const std::string& line, size_t num_lead_tokens) {
  size_t pos = 0;
  for (size_t t = 0; t < num_lead_tokens; ++t) {
    while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
    while (pos < line.size() && !std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
  }
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
  return line.substr(pos);
}

}  // namespace

LineProtocol::LineProtocol(Server* server) : server_(server) {
  FGPDB_CHECK(server != nullptr);
}

LineProtocol::Result LineProtocol::HandleLine(const std::string& line) {
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0][0] == '#') return {"", false};
  const std::string cmd = UpperCopy(tokens[0]);

  if (cmd == "QUIT") return {"OK bye\n", true};

  if (cmd == "DRAIN") {
    server_->Drain();
    return {"OK drained\n", false};
  }

  if (cmd == "TENANT") {
    if (tokens.size() < 2) {
      return {Err(StatusCode::kInvalidArgument, "TENANT NEW|CLOSE ..."), false};
    }
    const std::string sub = UpperCopy(tokens[1]);
    if (sub == "NEW") {
      TenantOptions opts;
      size_t t = 2;
      while (t < tokens.size()) {
        const std::string word = UpperCopy(tokens[t]);
        if (word == "SERIAL") {
          opts.policy = api::ExecutionPolicy::Serial();
          ++t;
        } else if (word == "NAIVE") {
          opts.policy = api::ExecutionPolicy::Naive();
          ++t;
        } else if (word == "UNTIL" && t + 2 < tokens.size()) {
          double confidence = 0.0, eps = 0.0;
          if (!ParseDouble(tokens[t + 1], &confidence) ||
              !ParseDouble(tokens[t + 2], &eps) || eps <= 0.0) {
            return {Err(StatusCode::kInvalidArgument,
                        "UNTIL needs <confidence> <eps>"),
                    false};
          }
          // The resident-chain variant (one chain, batched-means errors):
          // the scheduler-friendly spelling — converged tenants yield.
          opts.policy = api::ExecutionPolicy::Until(confidence, eps,
                                                    /*num_chains=*/1);
          t += 3;
        } else if (word == "SEED" && t + 1 < tokens.size()) {
          uint64_t seed = 0;
          if (!ParseU64(tokens[t + 1], &seed)) {
            return {Err(StatusCode::kInvalidArgument, "SEED needs an integer"),
                    false};
          }
          opts.evaluator = server_->options().evaluator;
          opts.evaluator.seed = seed;
          opts.has_evaluator = true;
          t += 2;
        } else {
          return {Err(StatusCode::kInvalidArgument,
                      "unknown TENANT NEW argument '" + tokens[t] + "'"),
                  false};
        }
      }
      TenantId id = 0;
      const Status status = server_->CreateTenant(&id, std::move(opts));
      if (!status.ok()) return {Err(status), false};
      return {"OK tenant=" + std::to_string(id) + "\n", false};
    }
    if (sub == "CLOSE") {
      uint64_t id = 0;
      if (tokens.size() != 3 || !ParseU64(tokens[2], &id)) {
        return {Err(StatusCode::kInvalidArgument, "TENANT CLOSE <id>"), false};
      }
      const Status status = server_->CloseTenant(id);
      if (!status.ok()) return {Err(status), false};
      return {"OK\n", false};
    }
    return {Err(StatusCode::kInvalidArgument, "TENANT NEW|CLOSE ..."), false};
  }

  if (cmd == "QUERY") {
    uint64_t id = 0;
    if (tokens.size() < 3 || !ParseU64(tokens[1], &id)) {
      return {Err(StatusCode::kInvalidArgument, "QUERY <tenant> <sql...>"),
              false};
    }
    const std::string sql = RestOfLine(line, 2);
    QueryId query = 0;
    const Status status = server_->RegisterQuery(id, sql, &query);
    if (!status.ok()) return {Err(status), false};
    return {"OK query=" + std::to_string(query) + "\n", false};
  }

  if (cmd == "RUN") {
    uint64_t id = 0, samples = 0;
    if (tokens.size() != 3 || !ParseU64(tokens[1], &id) ||
        !ParseU64(tokens[2], &samples)) {
      return {Err(StatusCode::kInvalidArgument, "RUN <tenant> <samples>"),
              false};
    }
    const Status status = server_->Submit(id, samples);
    if (!status.ok()) return {Err(status), false};
    return {"OK admitted=" + std::to_string(samples) + "\n", false};
  }

  if (cmd == "SNAPSHOT") {
    uint64_t id = 0, query = 0;
    uint64_t top = 0;  // 0 = all rows
    const bool has_top = tokens.size() == 5 && UpperCopy(tokens[3]) == "TOP";
    if (!(tokens.size() == 3 || has_top) || !ParseU64(tokens[1], &id) ||
        !ParseU64(tokens[2], &query) ||
        (has_top && !ParseU64(tokens[4], &top))) {
      return {Err(StatusCode::kInvalidArgument,
                  "SNAPSHOT <tenant> <query> [TOP <k>]"),
              false};
    }
    api::QueryProgress progress;
    const Status status = server_->Snapshot(id, query, &progress);
    if (!status.ok()) return {Err(status), false};
    auto rows = progress.answer.Sorted();
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    if (top > 0 && rows.size() > top) rows.resize(top);
    std::ostringstream out;
    out << "SNAPSHOT samples=" << progress.samples
        << " converged=" << (progress.converged ? 1 : 0)
        << " half_width=" << progress.max_half_width
        << " rows=" << rows.size() << "\n";
    for (const auto& [tuple, probability] : rows) {
      out << probability << " " << tuple.ToString() << "\n";
    }
    out << "END\n";
    return {out.str(), false};
  }

  if (cmd == "STATS") {
    const SchedulerMetrics metrics = server_->metrics();
    const api::PlanCache::Stats cache = server_->plan_cache_stats();
    std::ostringstream out;
    out << "STATS\n"
        << "tenants=" << server_->num_tenants() << "\n"
        << "quanta=" << metrics.quanta_executed << "\n"
        << "samples_drawn=" << metrics.samples_drawn << "\n"
        << "admitted=" << metrics.submissions_admitted << "\n"
        << "rejected=" << metrics.submissions_rejected << "\n"
        << "converged_yields=" << metrics.converged_yields << "\n"
        << "snapshots=" << metrics.snapshots_served << "\n"
        << "snapshot_p50_ns=" << metrics.snapshot_latency.P50Nanos() << "\n"
        << "snapshot_p95_ns=" << metrics.snapshot_latency.P95Nanos() << "\n"
        << "snapshot_p99_ns=" << metrics.snapshot_latency.P99Nanos() << "\n"
        << "plan_cache_hits=" << cache.hits << "\n"
        << "plan_cache_misses=" << cache.misses << "\n"
        << "plan_cache_evictions=" << cache.evictions << "\n"
        << "plan_cache_hit_rate=" << cache.HitRate() << "\n"
        << "END\n";
    return {out.str(), false};
  }

  return {Err(StatusCode::kInvalidArgument, "unknown command '" + tokens[0] + "'"),
          false};
}

}  // namespace serve
}  // namespace fgpdb
