// bench_e2e: one workload of the end-to-end benchmark per process.
//
//   bench_e2e --workload certify_20k [--seed N] [--seconds S] [--traced]
//             [--tiny] [--out result.json] [--spans spans.csv]
//             [--commit SHA]
//
// Prints every metric by name with its unit, the answer checks and the
// per-request answer digests, and writes the result file. Exits 1 when any
// answer check failed, 2 on a usage error. run.py is the usual front end.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2e.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] "
               "[--seconds S] [--traced] [--tiny] [--out FILE] "
               "[--spans FILE] [--commit SHA]\nworkloads:",
               message);
  for (const std::string& name : fgpdb::e2e::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgpdb::e2e;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (!has_value) {
      return Usage(("missing value or unknown flag " + flag).c_str());
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0' || argv[i][0] == '-') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 3600.0) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--out") {
      args.out = argv[++i];
    } else if (flag == "--spans") {
      args.spans = argv[++i];
    } else if (flag == "--commit") {
      args.commit = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::unique_ptr<Workload> workload =
      FindWorkload(args.workload, args.tiny);
  if (workload == nullptr) return Usage("unknown or missing --workload");

  Report report(workload->name, args);
  if (workload->serve) {
    RunServeWorkload(*workload, args, &report);
  } else {
    RunSessionWorkload(*workload, args, &report);
  }
  if (!report.Write()) return 2;
  return report.correct() ? 0 : 1;
}
