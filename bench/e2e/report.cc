#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "e2e.h"

namespace fgpdb {
namespace e2e {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Shortest text that reads back as the same double ("all its digits").
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string Provenance(const Args& args) {
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  std::ostringstream out;
  out << "{\"nproc\": " << AffinityCpus()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"l2\": " << JsonString(ReadFirstLine(cache + "index2/size"))
      << ", \"l3\": " << JsonString(ReadFirstLine(cache + "index3/size"))
      << ", \"compiler\": " << JsonString(E2E_COMPILER)
      << ", \"flags\": " << JsonString(E2E_CXX_FLAGS)
      << ", \"build_type\": " << JsonString(E2E_BUILD_TYPE)
      << ", \"commit\": " << JsonString(args.commit) << "}";
  return out.str();
}

}  // namespace

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(values, n=4), method="exclusive".
  const auto quartile = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

Report::Report(std::string workload, const Args& args)
    : workload_(std::move(workload)), args_(args) {}

void Report::Add(const std::string& layer, const std::string& name,
                 const std::string& unit, const std::vector<double>& values,
                 Stat stat) {
  const Summary s = Summarize(values);
  double value = s.median;
  switch (stat) {
    case Stat::kMedian:
      break;
    case Stat::kMean:
      value = values.empty() ? 0.0
                             : std::accumulate(values.begin(), values.end(),
                                               0.0) /
                                   static_cast<double>(values.size());
      break;
    case Stat::kLowQuartile:
      value = s.q1;
      break;
    case Stat::kHighQuartile:
      value = s.q3;
      break;
  }
  records_.push_back(Record{layer, name, unit, s, value});
}

void Report::AddValue(const std::string& layer, const std::string& name,
                      const std::string& unit, double value,
                      size_t repetitions) {
  Summary s;
  s.median = s.q1 = s.q3 = value;
  s.n = repetitions;
  records_.push_back(Record{layer, name, unit, s, value});
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  for (CheckResult& c : checks_) {
    if (c.name != name) continue;
    ++c.count;
    if (!ok && c.ok) {
      c.ok = false;
      c.detail = detail;
    }
    return;
  }
  checks_.push_back(CheckResult{name, ok, ok ? "" : detail, 1});
}

void Report::Digest(uint64_t request, uint64_t digest) {
  digests_.emplace_back(request, digest);
}

bool Report::correct() const {
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return !records_.empty();
}

bool Report::Write() const {
  const size_t nproc = AffinityCpus();
  for (const Record& r : records_) {
    std::printf(
        "metric %-28s %14.6g %-6s  (median %.6g, q1 %.6g, q3 %.6g, n=%zu) "
        "[%s]\n",
        r.name.c_str(), r.value, r.unit.c_str(), r.summary.median, r.summary.q1,
        r.summary.q3, r.summary.n, r.layer.c_str());
  }
  for (const CheckResult& c : checks_) {
    std::printf("check  %-28s %s x%llu%s%s\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(c.count),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
  }
  for (const auto& [request, digest] : digests_) {
    std::printf("digest request %llu %016llx\n",
                static_cast<unsigned long long>(request),
                static_cast<unsigned long long>(digest));
  }

  std::ostringstream out;
  out << "{\n  \"schema\": \"fgpdb-bench-e2e/1\",\n"
      << "  \"workload\": " << JsonString(workload_) << ",\n"
      << "  \"seed\": " << args_.seed << ",\n"
      << "  \"seconds\": " << JsonNumber(args_.seconds) << ",\n"
      << "  \"traced\": " << (args_.traced ? "true" : "false") << ",\n"
      << "  \"tiny\": " << (args_.tiny ? "true" : "false") << ",\n"
      << "  \"provenance\": " << Provenance(args_) << ",\n"
      << "  \"correct\": " << (correct() ? "true" : "false") << ",\n"
      << "  \"attempted\": " << attempted_ << ",\n"
      << "  \"failed\": " << failed_ << ",\n  \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& c = checks_[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": " << JsonString(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"count\": " << c.count
        << ", \"detail\": " << JsonString(c.detail) << "}";
  }
  out << "],\n  \"digests\": {";
  for (size_t i = 0; i < digests_.size(); ++i) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digests_[i].second));
    out << (i ? ", " : "") << "\"" << digests_[i].first << "\": \"" << hex
        << "\"";
  }
  out << "},\n  \"records\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": " << JsonString(r.name)
        << ", \"workload\": " << JsonString(workload_)
        << ", \"layer\": " << JsonString(r.layer)
        << ", \"value\": " << JsonNumber(r.value)
        << ", \"median\": " << JsonNumber(r.summary.median)
        << ", \"q1\": " << JsonNumber(r.summary.q1)
        << ", \"q3\": " << JsonNumber(r.summary.q3)
        << ", \"repetitions\": " << r.summary.n
        << ", \"unit\": " << JsonString(r.unit) << ", \"nproc\": " << nproc
        << ", \"seed\": " << args_.seed
        << ", \"traced\": " << (args_.traced ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";

  if (args_.out.empty()) return true;
  std::ofstream file(args_.out);
  file << out.str();
  file.close();
  if (!file) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args_.out.c_str());
    return false;
  }
  return true;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t AnswerDigest(const pdb::QueryAnswer& answer, uint64_t hash) {
  const uint64_t samples = answer.num_samples();
  hash = Fnv1a(&samples, sizeof(samples), hash);
  for (const auto& [tuple, probability] : answer.Sorted()) {
    const std::string text = tuple.ToString();
    hash = Fnv1a(text.data(), text.size(), hash);
    hash = Fnv1a(&probability, sizeof(probability), hash);
  }
  return hash;
}

double MarginalSum(const pdb::QueryAnswer& answer) {
  double sum = 0.0;
  for (const auto& entry : answer.Sorted()) sum += entry.second;
  return sum;
}

bool CheckRequest(uint64_t request, const std::vector<FinalQuery>& queries,
                  double eps, uint64_t budget, Report* report) {
  const std::string who = "request " + std::to_string(request);
  bool ok = true;
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const FinalQuery& q : queries) {
    if (q.converged) {
      const bool within = q.half_width <= eps;
      report->Check("certified_within_eps", within,
                    who + " half-width " + std::to_string(q.half_width));
      ok &= within;
    } else {
      // A fixed budget, or an until query the budget ran out on.
      const uint64_t samples = q.answer->num_samples();
      const bool exact = samples == budget;
      report->Check("budget_drawn_exactly", exact,
                    who + " drew " + std::to_string(samples));
      ok &= exact;
    }
    if (q.pool_index == 1) {
      const double sum = MarginalSum(*q.answer);
      const bool one = std::fabs(sum - 1.0) <= 1e-9;
      report->Check("q2_distribution_sums_to_1", one,
                    who + " sums to " + std::to_string(sum));
      ok &= one;
    }
    digest = AnswerDigest(*q.answer, digest);
    const unsigned char frozen = q.converged ? 1 : 0;
    digest = Fnv1a(&frozen, 1, digest);
  }
  report->Digest(request, digest);
  return ok;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

bool SameAnswer(const pdb::QueryAnswer& a, const pdb::QueryAnswer& b) {
  if (a.num_samples() != b.num_samples()) return false;
  const auto sa = a.Sorted();
  const auto sb = b.Sorted();
  if (sa.size() != sb.size()) return false;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!(sa[i].first == sb[i].first)) return false;
    if (std::memcmp(&sa[i].second, &sb[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace e2e
}  // namespace fgpdb
