// The three Session workloads: certify_20k, views_100k, sharded_500k.
//
// A request is what one application call does: open a Session on the shared
// base database, register the workload's queries by SQL text, and draw
// samples in quanta until every query holds the until bound or the budget
// is drawn, polling a snapshot of every query every 10 ms of wall time.
// Requests run back to back until the window closes; the request in flight
// at that moment is abandoned (its samples still count toward throughput,
// its answer is not checked). Request r samples under DeriveSeed(master,
// 1 + r), so a completed request's answers are a pure function of the seed.
// Between requests the database is now and then rebuilt from the corpus:
// those rebuilds are the set-up repetitions (SetUpTimer).
#include <algorithm>
#include <cstdio>

#include "api/session.h"
#include "e2e.h"
#include "replay.h"
#include "trace.h"
#include "util/rng.h"

namespace fgpdb {
namespace e2e {

namespace {

ChainConfig RequestConfig(const SessionSpec& spec, const Fixture& fixture,
                          uint64_t master, uint64_t request) {
  ChainConfig config;
  config.fixture = &fixture;
  config.queries = spec.queries;
  const uint64_t tokens = fixture.tokens.num_tokens();
  config.evaluator.steps_per_sample = spec.steps_per_token > 0
                                          ? spec.steps_per_token * tokens
                                          : spec.steps_per_sample;
  config.evaluator.burn_in = kBurnInPerToken * tokens;
  config.evaluator.seed = DeriveSeed(master, 1 + request);
  config.until = spec.until;
  config.num_shards = spec.num_shards;
  return config;
}

struct Outcome {
  double first_answer_s = 0.0;
  double wall_s = 0.0;
  uint64_t drawn = 0;
  bool completed = false;
  bool certified = false;
};

/// Times one quantum; the sampling rate is reported from the quanta.
template <typename Chain>
uint64_t TimedQuantum(Chain& chain, uint64_t samples,
                      std::vector<double>* rates) {
  const int64_t start = NowNs();
  const uint64_t n = chain.RunQuantum(samples);
  const int64_t ns = NowNs() - start;
  if (n > 0 && ns > 0) rates->push_back(static_cast<double>(n) * 1e9 / ns);
  return n;
}

/// `layer` is "e2e" for the untraced run; traced runs file the same
/// numbers under "request", since tracing may inflate them.
void ReportOutcomes(const SessionSpec& spec,
                    const std::vector<Outcome>& outcomes,
                    const std::vector<double>& rates, const char* layer,
                    Report* report) {
  std::vector<double> first, answer;
  uint64_t completed = 0, certified = 0;
  for (const Outcome& o : outcomes) {
    first.push_back(o.first_answer_s);
    if (!o.completed) continue;
    ++completed;
    certified += o.certified ? 1 : 0;
    answer.push_back(o.wall_s);
  }
  report->Add(layer, "first_answer_s", "s", first, Stat::kLowQuartile);
  report->Add(layer, "samples_per_s", "1/s", rates, Stat::kHighQuartile);
  report->Add("request", "answer_s", "s", answer);
  report->AddValue("request", "requests_completed", "count",
                   static_cast<double>(completed));
  if (spec.until) {
    report->AddValue("request", "certified_frac", "ratio",
                     completed == 0 ? 0.0
                                    : static_cast<double>(certified) /
                                          static_cast<double>(completed),
                     completed);
  }
}

/// Session-side reference for the traced run's bitwise check: the first
/// `samples` samples of a request.
struct Reference {
  std::vector<pdb::QueryAnswer> answers;
  std::vector<bool> converged;
};

Reference RunReference(const SessionSpec& spec, const ChainConfig& config,
                       uint64_t samples) {
  Reference ref;
  std::unique_ptr<api::Session> session = OpenSession(config);
  std::vector<api::ResultHandle> handles;
  for (const char* sql : config.queries) {
    handles.push_back(session->Register(sql));
  }
  uint64_t drawn = session->RunQuantum(1);
  while (drawn < samples) {
    const uint64_t n =
        session->RunQuantum(std::min(spec.quantum, samples - drawn));
    if (n == 0) break;
    drawn += n;
  }
  for (const api::ResultHandle& h : handles) {
    const api::QueryProgress progress = h.Snapshot();
    ref.answers.push_back(progress.answer);
    ref.converged.push_back(progress.converged);
  }
  return ref;
}

void RunUntraced(const SessionSpec& spec, SetUpTimer* setup,
                 std::unique_ptr<Fixture>* fixture, const Args& args,
                 Report* report) {
  std::vector<Outcome> outcomes;
  std::vector<double> snapshot_us, rates;
  uint64_t polled_samples = 0;
  uint64_t failed = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t r = 0; NowNs() < deadline; ++r) {
    if (r > 0) setup->MaybeRebuild(fixture);
    Outcome o;
    const int64_t start = NowNs();
    std::unique_ptr<api::Session> session =
        OpenSession(RequestConfig(spec, **fixture, args.seed, r));
    std::vector<api::ResultHandle> handles;
    for (const char* sql : spec.queries) {
      handles.push_back(session->Register(sql));
    }
    uint64_t drawn = session->RunQuantum(1);
    o.first_answer_s = SecondsSince(start);
    const int64_t first_ns = NowNs();
    // The client reads the first answer at once, then every 10 ms.
    int64_t last_poll = first_ns - kPollNs;
    bool cut = false;
    while (true) {
      if (NowNs() - last_poll >= kPollNs) {
        const int64_t poll = NowNs();
        for (const api::ResultHandle& h : handles) {
          polled_samples += h.Snapshot().samples;
        }
        last_poll = NowNs();
        snapshot_us.push_back(static_cast<double>(last_poll - poll) * 1e-3);
      }
      if (drawn >= spec.budget) break;
      if (NowNs() >= deadline) {
        cut = true;
        break;
      }
      const uint64_t n = TimedQuantum(
          *session, std::min(spec.quantum, spec.budget - drawn), &rates);
      if (n == 0) break;  // until: every query holds the bound
      drawn += n;
    }
    o.wall_s = SecondsSince(start);
    o.drawn = drawn;
    o.completed = !cut;
    o.certified = spec.until && session->converged();
    if (o.completed) {
      std::vector<api::QueryProgress> progress;
      for (const api::ResultHandle& h : handles) {
        progress.push_back(h.Snapshot());
      }
      std::vector<FinalQuery> final_queries;
      for (size_t q = 0; q < progress.size(); ++q) {
        final_queries.push_back(FinalQuery{&progress[q].answer,
                                           progress[q].converged,
                                           progress[q].max_half_width,
                                           QueryIndex(spec.queries[q])});
      }
      if (!CheckRequest(r, final_queries, kEps, spec.budget, report)) {
        ++failed;
      }
    }
    outcomes.push_back(o);
    std::printf("request %llu: %s, %llu samples, first answer %.3fs, %.3fs\n",
                static_cast<unsigned long long>(r),
                !o.completed ? "abandoned at window end"
                : o.certified ? "certified"
                              : "budget drawn",
                static_cast<unsigned long long>(o.drawn), o.first_answer_s,
                o.wall_s);
  }
  ReportOutcomes(spec, outcomes, rates, "e2e", report);
  report->Add("request", "snapshot_p50_us", "us", snapshot_us);
  report->AddValue("request", "snapshot_p90_us", "us",
                   Percentile(snapshot_us, 0.90), snapshot_us.size());
  report->AddValue("request", "snapshot_p99_us", "us",
                   Percentile(snapshot_us, 0.99), snapshot_us.size());
  report->AddValue("e2e", "peak_rss_mb", "MiB", PeakRssMb());
  report->set_attempted(outcomes.size());
  report->set_failed(failed);
  std::printf("polls read %llu samples\n",
              static_cast<unsigned long long>(polled_samples));
}

void RunTraced(const SessionSpec& spec, SetUpTimer* setup,
               std::unique_ptr<Fixture>* fixture, const Args& args,
               Report* report) {
  Tracer tracer;
  LayerSamples layers;
  const uint16_t request_span = tracer.Intern("bench.request");

  const uint64_t check = std::min(spec.check_samples, spec.budget);
  const ChainConfig config0 = RequestConfig(spec, **fixture, args.seed, 0);
  // The Session reference for request 0's first `check` samples, run
  // before any traced work.
  const Reference reference = RunReference(spec, config0, check);

  std::vector<Outcome> outcomes;
  std::vector<double> rates;
  int64_t wall_ns = 0;
  uint64_t failed = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t r = 0; NowNs() < deadline; ++r) {
    // config0 points at the first fixture: no rebuild before request 0.
    if (r > 0) setup->MaybeRebuild(fixture);
    Outcome o;
    tracer.Begin(request_span);
    const int64_t start = NowNs();
    bool cut = false;
    {
      Replay replay(r == 0 ? config0
                           : RequestConfig(spec, **fixture, args.seed, r),
                    &tracer, &layers);
      uint64_t drawn = replay.RunQuantum(1);
      o.first_answer_s = SecondsSince(start);
      bool checked = r != 0;
      while (true) {
        if (!checked && (drawn == check || replay.all_converged())) {
          bool same = true;
          for (size_t q = 0; q < replay.num_queries(); ++q) {
            same &= SameAnswer(replay.answer(q), reference.answers[q]);
            same &= replay.converged(q) == reference.converged[q];
          }
          report->Check("replay_matches_session", same,
                        "request 0 after " + std::to_string(drawn) +
                            " samples");
          checked = true;
        }
        if (drawn >= spec.budget) break;
        if (checked && NowNs() >= deadline) {
          cut = true;
          break;
        }
        uint64_t n = std::min(spec.quantum, spec.budget - drawn);
        if (!checked) n = std::min(n, check - drawn);
        n = TimedQuantum(replay, n, &rates);
        if (n == 0) break;
        drawn += n;
      }
      o.drawn = drawn;
      o.completed = !cut;
      o.certified = replay.all_converged();
      if (o.completed) {
        std::vector<FinalQuery> final_queries;
        for (size_t q = 0; q < replay.num_queries(); ++q) {
          final_queries.push_back(FinalQuery{
              &replay.answer(q), replay.converged(q),
              spec.until ? replay.MaxHalfWidth(q) : 0.0,
              QueryIndex(spec.queries[q])});
        }
        if (!CheckRequest(r, final_queries, kEps, spec.budget, report)) {
          ++failed;
        }
      }
    }
    o.wall_s = SecondsSince(start);
    wall_ns += tracer.End().total_ns;
    outcomes.push_back(o);
    std::printf("replayed request %llu: %s, %llu samples, %.3fs\n",
                static_cast<unsigned long long>(r),
                !o.completed ? "abandoned at window end"
                : o.certified ? "certified"
                              : "budget drawn",
                static_cast<unsigned long long>(o.drawn), o.wall_s);
  }
  ReportLayers(layers, tracer, wall_ns, report);
  ReportOutcomes(spec, outcomes, rates, "request", report);
  report->set_attempted(outcomes.size());
  report->set_failed(failed);
  if (!args.spans.empty() && !tracer.WriteCsv(args.spans)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.spans.c_str());
  }
}

}  // namespace

void RunSessionWorkload(const Workload& workload, const Args& args,
                        Report* report) {
  const SessionSpec& spec = workload.session;
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = spec.tokens, .tokens_per_doc = 250,
       .seed = DeriveSeed(args.seed, 0)});
  SetUpTimer setup(corpus, spec.num_shards, workload.setup_reps,
                   args.seconds);
  std::unique_ptr<Fixture> fixture = setup.Start();
  std::printf("# %s: %zu tokens, %zu queries, k=%llu, budget %llu samples, "
              "%s, %zu shard(s), master seed %llu, %s\n",
              workload.name.c_str(), fixture->tokens.num_tokens(),
              spec.queries.size(),
              static_cast<unsigned long long>(
                  RequestConfig(spec, *fixture, args.seed, 0)
                      .evaluator.steps_per_sample),
              static_cast<unsigned long long>(spec.budget),
              spec.until ? "until(0.95, eps)" : "fixed budget",
              spec.num_shards, static_cast<unsigned long long>(args.seed),
              args.traced ? "traced replay" : "untraced Session");
  if (args.traced) {
    RunTraced(spec, &setup, &fixture, args, report);
  } else {
    RunUntraced(spec, &setup, &fixture, args, report);
  }
  setup.Finish(&fixture, report);
}

}  // namespace e2e
}  // namespace fgpdb
