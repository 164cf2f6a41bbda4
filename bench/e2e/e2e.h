// Shared declarations of the end-to-end benchmark harness (bench_e2e).
//
// One process runs one workload for a fixed measurement window and writes
// one result file. The untraced run drives the public front doors
// (api::Session, serve::Server) exactly as an application would and yields
// the end-to-end metrics; the traced run rebuilds the same requests from the
// public calls of each module (replay.h) and attributes wall time to layers.
#ifndef FGPDB_BENCH_E2E_E2E_H_
#define FGPDB_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/parallel_evaluator.h"
#include "pdb/query_evaluator.h"
#include "pdb/shard_plan.h"

namespace fgpdb {
namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct Args {
  std::string workload;
  uint64_t seed = 2004;
  double seconds = 15.0;
  bool traced = false;
  /// Smoke-test sizes: every workload shrinks to run in about a second.
  bool tiny = false;
  std::string out;    // result JSON path
  std::string spans;  // traced runs: span dump path (optional)
  std::string commit = "unknown";
};

// --- report.cc --------------------------------------------------------------

/// Median and quartiles as Python's statistics.quantiles(n=4) computes them
/// (the "exclusive" method), so numbers here and in run.py/compare.py agree.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};
Summary Summarize(std::vector<double> values);

/// Which statistic of a metric's repetitions is its reported value.
///
/// The gated times and rates report their best quartile: kLowQuartile for a
/// time, kHighQuartile for a rate. Interference from other tenants of a
/// shared host only ever slows a run, in episodes of seconds; the best
/// quartile reads the undisturbed part of the run as long as a quarter of it
/// is undisturbed, where the median needs half. kMean suits per-sample
/// costs that are mostly zero (a view applied on one sample in ten).
enum class Stat { kMedian, kMean, kLowQuartile, kHighQuartile };

/// Everything one run reports: named metric records (layer "e2e" for the
/// end-to-end metrics), answer checks, per-request answer digests, and the
/// request counts of the summary line.
class Report {
 public:
  Report(std::string workload, const Args& args);

  /// A metric summarized over its repetitions within this run; `stat`
  /// picks the reported value.
  void Add(const std::string& layer, const std::string& name,
           const std::string& unit, const std::vector<double>& values,
           Stat stat = Stat::kMedian);
  /// A metric measured once per run (or an aggregate ratio).
  void AddValue(const std::string& layer, const std::string& name,
                const std::string& unit, double value,
                size_t repetitions = 1);

  /// An answer check; any failed check makes the run exit non-zero.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Digest(uint64_t request, uint64_t digest);

  void set_attempted(uint64_t n) { attempted_ = n; }
  void set_failed(uint64_t n) { failed_ = n; }
  bool correct() const;

  /// Prints every metric by name with its unit, then writes the result file.
  bool Write() const;

 private:
  struct Record {
    std::string layer, name, unit;
    Summary summary;
    /// What the summary line reports (see Stat).
    double value = 0.0;
  };
  struct CheckResult {
    std::string name;
    bool ok = true;
    std::string detail;
    uint64_t count = 0;
  };

  std::string workload_;
  Args args_;
  std::vector<Record> records_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<uint64_t, uint64_t>> digests_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// FNV-1a over bytes; the digest primitive for answers.
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash);
/// Order-independent-input, order-fixed digest of a query answer: sample
/// count plus every (tuple, marginal) pair in tuple order, bit-exact.
uint64_t AnswerDigest(const pdb::QueryAnswer& answer, uint64_t hash);
/// Sum of the marginals of an answer (1 for a scalar aggregate's
/// distribution over values).
double MarginalSum(const pdb::QueryAnswer& answer);
/// Bitwise equality of two answers (sample counts, tuples, marginals).
bool SameAnswer(const pdb::QueryAnswer& a, const pdb::QueryAnswer& b);

/// One query's state at the end of a completed request.
struct FinalQuery {
  const pdb::QueryAnswer* answer = nullptr;
  bool converged = false;
  double half_width = 0.0;
  /// Position in the paper's query pool (0..3 for Query 1..4).
  size_t pool_index = 0;
};

/// The answer checks of one completed request: a certified query's
/// half-width is within eps, any other query drew exactly `budget` samples,
/// and Query 2's distribution over counts sums to 1. Records the request's
/// answer digest; returns false if any check failed.
bool CheckRequest(uint64_t request, const std::vector<FinalQuery>& queries,
                  double eps, uint64_t budget, Report* report);

/// Percentile by nearest rank (q in (0, 1]); 0 for no values.
double Percentile(std::vector<double> values, double q);

// --- workloads.cc ----------------------------------------------------------

/// A ready database: TOKEN relation, skip-chain model with corpus-statistics
/// weights, and (for sharded workloads) the document shard plan.
struct Fixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;
  pdb::ShardPlan shard_plan;
};

/// Builds a fixture from an already generated corpus.
std::unique_ptr<Fixture> BuildFixture(const ie::SyntheticCorpus& corpus,
                                      size_t num_shards);

/// The one proposal kernel every workload samples with (paper §5.1).
pdb::ProposalFactory MakeProposalFactory(const Fixture& fixture);

/// The until bound of every certifying request: ±kEps at kConfidence.
inline constexpr double kConfidence = 0.95;
inline constexpr double kEps = 0.10;
/// Burn-in before a chain's first sample, in proposals per token.
inline constexpr uint64_t kBurnInPerToken = 40;
/// A client polls its answer this often.
inline constexpr int64_t kPollNs = 10'000'000;

/// One request's chain: what Session::Open is handed.
struct ChainConfig {
  const Fixture* fixture = nullptr;
  std::vector<const char*> queries;
  pdb::EvaluatorOptions evaluator;
  /// until(kConfidence, kEps) on one chain; otherwise serial.
  bool until = false;
  size_t num_shards = 1;
};

/// The execution policy Session::Open gets for `config`.
api::ExecutionPolicy PolicyFor(const ChainConfig& config);

/// Opens the Session a request runs on (the untraced path).
std::unique_ptr<api::Session> OpenSession(const ChainConfig& config);

/// Position of `sql` in the paper's query pool: 0..3 for Query 1..4.
size_t QueryIndex(const char* sql);

struct SessionSpec {
  size_t tokens = 0;
  std::vector<const char*> queries;
  /// Thinning: MH steps between samples, either per token of the corpus
  /// (when nonzero) or a fixed count.
  uint64_t steps_per_token = 0;
  uint64_t steps_per_sample = 0;
  bool until = false;
  size_t num_shards = 1;
  /// Samples per request: a hard budget (until) or the fixed count.
  uint64_t budget = 0;
  /// Samples per RunQuantum call between client polls.
  uint64_t quantum = 1;
  /// Traced run: samples of request 0 replayed against a Session.
  uint64_t check_samples = 0;
};

struct ServeSpec {
  size_t tokens = 0;
  size_t clients = 16;
  size_t threads = 3;
  /// Mean sample budget per request (each draws one in [budget/2,
  /// 3*budget/2]).
  uint64_t budget = 512;
  /// Completed requests re-run standalone and compared bitwise.
  size_t parity_tenants = 8;
};

struct Workload {
  std::string name;
  bool serve = false;
  SessionSpec session;
  ServeSpec serve_spec;
  /// Set-ups per run; setup_s is their median.
  size_t setup_reps = 3;
};

/// The named workload at full or tiny size; null when unknown.
std::unique_ptr<Workload> FindWorkload(const std::string& name, bool tiny);
std::vector<std::string> WorkloadNames();

/// Times the set-ups of a Session workload's database (setup_s and
/// storage.build_s). The repetitions are spread over the run: the first
/// before the window, then one between requests whenever another
/// window/reps seconds have passed, and the rest after the window. Other
/// tenants of a shared host slow it in episodes of seconds, and set-ups
/// timed back to back would all land inside or all outside one.
class SetUpTimer {
 public:
  SetUpTimer(const ie::SyntheticCorpus& corpus, size_t num_shards,
             size_t reps, double window_s);

  /// Builds the first fixture and starts the schedule.
  std::unique_ptr<Fixture> Start();
  /// Between requests: rebuilds `*fixture` if a repetition is due. The old
  /// fixture is released first (one live database at a time).
  void MaybeRebuild(std::unique_ptr<Fixture>* fixture);
  /// After the window: runs the repetitions still owed and reports them.
  void Finish(std::unique_ptr<Fixture>* fixture, Report* report);

 private:
  void Rebuild(std::unique_ptr<Fixture>* fixture);

  const ie::SyntheticCorpus& corpus_;
  size_t num_shards_;
  size_t reps_;
  int64_t interval_ns_;
  int64_t next_ns_ = 0;
  std::vector<double> setup_s_;
};

// --- session_workloads.cc / serve_workload.cc ------------------------------

void RunSessionWorkload(const Workload& workload, const Args& args,
                        Report* report);
void RunServeWorkload(const Workload& workload, const Args& args,
                      Report* report);

}  // namespace e2e
}  // namespace fgpdb

#endif  // FGPDB_BENCH_E2E_E2E_H_
