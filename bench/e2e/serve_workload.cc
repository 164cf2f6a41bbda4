// serve_16c: 16 closed-loop clients against one serve::Server.
//
// One generator thread plays every client (the server's 3 scheduler threads
// plus this one stay within 4 cores). A client repeats one request: create
// a tenant, register Queries 1-4 by SQL text, submit the request's budget,
// poll a snapshot of every query every 10 ms (the first poll at a seeded
// random offset within the first 10 ms, so polling does not quantize the
// latencies), and once the budget is drawn, wait for the tenant to go idle,
// check its sample accounting and close it. Request r samples under
// DeriveSeed(master, 1 + r). Every tenant after the first finds all four
// plans in the server's plan cache.
//
// Requests carry a fixed budget rather than an until bound on purpose: how
// long a bound takes to certify depends on the corpus, so under until the
// request mix, queue depth and every latency would change with the seed.
// Budgets are drawn uniformly from [budget/2, 3*budget/2] per request; equal
// budgets lock the 16 clients into waves that start and finish together.
// After the window, the first completed requests are re-run standalone and
// must match what the server answered bitwise.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "e2e.h"
#include "ie/queries.h"
#include "replay.h"
#include "serve/server.h"
#include "trace.h"
#include "util/latency_histogram.h"
#include "util/rng.h"

namespace fgpdb {
namespace e2e {

namespace {

// DeriveSeed stream of the per-request budgets, clear of the request chain
// streams 1 + r.
constexpr uint64_t kBudgetStream = uint64_t{1} << 40;
// Thinning of every served chain, in proposals per token.
constexpr uint64_t kServeStepsPerToken = 2;

struct Client {
  enum class State { kStart, kPolling, kWaitIdle, kDone };
  State state = State::kStart;
  int64_t due_ns = 0;
  uint64_t request = 0;
  uint64_t budget = 0;
  serve::TenantId tenant = 0;
  int64_t start_ns = 0;
  bool first_seen = false;
  bool abandoned = false;
  bool failed = false;
  std::vector<api::QueryProgress> final_progress;
};

struct ServedRequest {
  uint64_t request = 0;
  uint64_t budget = 0;
  double answer_s = 0.0;
  std::vector<api::QueryProgress> progress;
};

/// Client-side latencies of each server call, in seconds.
struct CallTimes {
  std::vector<double> create, register_query, submit, stats, close;
};

/// Request r's sample budget, a pure function of the master seed.
uint64_t RequestBudget(const ServeSpec& spec, uint64_t master,
                       uint64_t request) {
  return spec.budget / 2 +
         DeriveSeed(master, kBudgetStream + request) % (spec.budget + 1);
}

ChainConfig RequestConfig(const Fixture& fixture, uint64_t master,
                          uint64_t request) {
  ChainConfig config;
  config.fixture = &fixture;
  config.queries = {ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4};
  const uint64_t tokens = fixture.tokens.num_tokens();
  config.evaluator.steps_per_sample = kServeStepsPerToken * tokens;
  config.evaluator.burn_in = kBurnInPerToken * tokens;
  config.evaluator.seed = DeriveSeed(master, 1 + request);
  return config;
}

serve::ServerOptions MakeServerOptions(const ServeSpec& spec,
                                       const Fixture& fixture) {
  serve::ServerOptions options;
  options.database = fixture.tokens.pdb.get();
  options.proposal_factory = MakeProposalFactory(fixture);
  options.max_outstanding_samples = 2 * spec.budget;
  options.num_threads = spec.threads;
  return options;
}

void AddLatency(Report* report, const std::string& name,
                const std::string& unit, double scale,
                const std::vector<double>& seconds) {
  report->AddValue("serve", name + "_p50", unit,
                   Percentile(seconds, 0.50) * scale, seconds.size());
  report->AddValue("serve", name + "_p99", unit,
                   Percentile(seconds, 0.99) * scale, seconds.size());
}

void AddHistogram(Report* report, const std::string& name,
                  const std::string& unit, double scale,
                  const LatencyHistogram& histogram) {
  report->AddValue("serve", name + "_p50", unit,
                   histogram.P50Nanos() * 1e-9 * scale, histogram.count());
  report->AddValue("serve", name + "_p99", unit,
                   histogram.P99Nanos() * 1e-9 * scale, histogram.count());
}

template <typename Fn>
serve::Status Timed(std::vector<double>* times, Fn&& call) {
  const int64_t start = NowNs();
  serve::Status status = call();
  times->push_back(SecondsSince(start));
  return status;
}

}  // namespace

void RunServeWorkload(const Workload& workload, const Args& args,
                      Report* report) {
  const ServeSpec& spec = workload.serve_spec;
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = spec.tokens, .tokens_per_doc = 250,
       .seed = DeriveSeed(args.seed, 0)});

  // Set-up: database, model and a running server, built setup_reps times,
  // half before the window and half after it (the server cannot be rebuilt
  // under its clients; see SetUpTimer for why set-ups are spread out).
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<serve::Server> server;
  const auto set_up = [&](size_t reps) {
    for (size_t rep = 0; rep < reps; ++rep) {
      server.reset();
      fixture.reset();
      const int64_t start = NowNs();
      fixture = BuildFixture(corpus, 1);
      build_s.push_back(SecondsSince(start));
      server =
          std::make_unique<serve::Server>(MakeServerOptions(spec, *fixture));
      setup_s.push_back(SecondsSince(start));
    }
  };
  set_up((workload.setup_reps + 1) / 2);
  std::printf("# %s: %zu tokens, %zu clients, %zu scheduler threads, k=%llu, "
              "budgets %llu-%llu samples, master seed %llu, %s\n",
              workload.name.c_str(), fixture->tokens.num_tokens(), spec.clients,
              spec.threads,
              static_cast<unsigned long long>(kServeStepsPerToken *
                                              fixture->tokens.num_tokens()),
              static_cast<unsigned long long>(spec.budget / 2),
              static_cast<unsigned long long>(spec.budget / 2 + spec.budget),
              static_cast<unsigned long long>(args.seed),
              args.traced ? "traced" : "untraced");

  // --- The closed loop ------------------------------------------------------
  Rng dither(DeriveSeed(args.seed, kBudgetStream - 1));
  std::vector<Client> clients(spec.clients);
  std::vector<ServedRequest> served;
  std::vector<double> first_answer_s, snapshot_us, rates;
  CallTimes calls;
  uint64_t next_request = 0, failed = 0, overloaded = 0;
  uint64_t submitted = 0, drawn = 0, yielded = 0;
  const int64_t window_start = NowNs();
  const int64_t deadline =
      window_start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t next_tick = window_start + 1'000'000'000;
  int64_t tick_ns = window_start;
  uint64_t tick_samples = 0;
  for (Client& c : clients) c.due_ns = window_start;

  while (true) {
    Client* next = nullptr;
    for (Client& c : clients) {
      if (c.state == Client::State::kDone) continue;
      if (next == nullptr || c.due_ns < next->due_ns) next = &c;
    }
    if (next == nullptr) break;
    const int64_t now = NowNs();
    const bool ticking = next_tick <= deadline;
    if (ticking && now >= next_tick) {
      // Throughput, one reading per second of the window.
      const uint64_t samples = server->metrics().samples_drawn;
      rates.push_back(static_cast<double>(samples - tick_samples) /
                      (static_cast<double>(now - tick_ns) * 1e-9));
      tick_samples = samples;
      tick_ns = now;
      next_tick += 1'000'000'000;
      continue;
    }
    const int64_t wake =
        ticking ? std::min(next->due_ns, next_tick) : next->due_ns;
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
      continue;
    }
    Client& c = *next;
    const bool closed = now >= deadline;
    switch (c.state) {
      case Client::State::kStart: {
        if (closed) {
          c.state = Client::State::kDone;
          break;
        }
        c = Client{};
        c.request = next_request++;
        c.budget = RequestBudget(spec, args.seed, c.request);
        c.start_ns = now;
        const ChainConfig config =
            RequestConfig(*fixture, args.seed, c.request);
        serve::TenantOptions tenant;
        tenant.has_evaluator = true;
        tenant.evaluator = config.evaluator;
        serve::Status status = Timed(&calls.create, [&] {
          return server->CreateTenant(&c.tenant, tenant);
        });
        for (const char* sql : config.queries) {
          if (!status.ok()) break;
          serve::QueryId query = 0;
          status = Timed(&calls.register_query, [&] {
            return server->RegisterQuery(c.tenant, sql, &query);
          });
        }
        while (status.ok()) {
          status = Timed(&calls.submit,
                         [&] { return server->Submit(c.tenant, c.budget); });
          if (status.code != serve::StatusCode::kOverloaded) break;
          ++overloaded;  // retriable: admitted work is never dropped
          status = serve::Status::Ok();
          std::this_thread::yield();
        }
        if (!status.ok()) {
          std::printf("request %llu: %s %s\n",
                      static_cast<unsigned long long>(c.request),
                      serve::StatusCodeName(status.code),
                      status.message.c_str());
          c.failed = true;
          c.state = Client::State::kWaitIdle;
          c.due_ns = now;
          break;
        }
        c.state = Client::State::kPolling;
        c.due_ns = NowNs() + static_cast<int64_t>(dither.Uniform() *
                                                  static_cast<double>(kPollNs));
        break;
      }
      case Client::State::kPolling: {
        std::vector<api::QueryProgress> progress(4);
        const int64_t start = NowNs();
        serve::Status status;
        for (serve::QueryId q = 0; q < 4 && status.ok(); ++q) {
          status = server->Snapshot(c.tenant, q, &progress[q]);
        }
        const int64_t end = NowNs();
        if (!closed) {
          snapshot_us.push_back(static_cast<double>(end - start) * 1e-3);
        }
        if (!status.ok()) {
          c.failed = true;
          c.state = Client::State::kWaitIdle;
          c.due_ns = end;
          break;
        }
        // One chain feeds every query, so all four count the same samples.
        if (!closed && !c.first_seen && progress[0].samples > 0) {
          c.first_seen = true;
          first_answer_s.push_back(static_cast<double>(end - c.start_ns) *
                                   1e-9);
        }
        if (progress[0].samples >= c.budget) {
          c.final_progress = std::move(progress);
          c.state = Client::State::kWaitIdle;
          c.due_ns = end;
        } else {
          // Past the window the answer no longer counts: stop polling and
          // let the tenant drain its admitted work.
          if (closed) {
            c.abandoned = true;
            c.state = Client::State::kWaitIdle;
          }
          c.due_ns += kPollNs;
        }
        break;
      }
      case Client::State::kWaitIdle: {
        serve::TenantStats stats;
        if (c.tenant != 0) {
          const serve::Status status = Timed(&calls.stats, [&] {
            return server->GetTenantStats(c.tenant, &stats);
          });
          if (status.ok() && stats.pending > 0) {
            c.due_ns = NowNs() + kPollNs / 10;
            break;
          }
          const bool accounted =
              status.ok() &&
              stats.submitted == stats.samples_drawn + stats.yielded;
          report->Check("served_samples_accounted", accounted,
                        "request " + std::to_string(c.request));
          submitted += stats.submitted;
          drawn += stats.samples_drawn;
          yielded += stats.yielded;
          const serve::Status closed_status = Timed(
              &calls.close, [&] { return server->CloseTenant(c.tenant); });
          if (!closed_status.ok()) c.failed = true;
        }
        if (c.failed) {
          ++failed;
        } else if (!c.abandoned) {
          served.push_back(ServedRequest{
              c.request, c.budget,
              static_cast<double>(NowNs() - c.start_ns) * 1e-9,
              std::move(c.final_progress)});
        }
        c.state = closed ? Client::State::kDone : Client::State::kStart;
        c.due_ns = NowNs();
        break;
      }
      case Client::State::kDone:
        break;
    }
  }
  const serve::SchedulerMetrics metrics = server->metrics();
  const api::PlanCache::Stats cache = server->plan_cache_stats();
  report->Check("nothing_lost",
                metrics.samples_drawn == drawn && submitted == drawn + yielded,
                "server drew " + std::to_string(metrics.samples_drawn) +
                    ", tenants drew " + std::to_string(drawn) + " of " +
                    std::to_string(submitted) + " admitted");

  // --- Answers: checks, digests, standalone parity ------------------------
  std::sort(served.begin(), served.end(),
            [](const ServedRequest& a, const ServedRequest& b) {
              return a.request < b.request;
            });
  std::vector<double> answer_s;
  for (const ServedRequest& s : served) {
    answer_s.push_back(s.answer_s);
    std::vector<FinalQuery> queries;
    for (size_t q = 0; q < s.progress.size(); ++q) {
      queries.push_back(FinalQuery{&s.progress[q].answer,
                                   /*converged=*/false, 0.0, q});
    }
    if (!CheckRequest(s.request, queries, /*eps=*/0.0, s.budget, report)) {
      ++failed;
    }
  }

  Tracer tracer;
  LayerSamples layers;
  const uint16_t request_span = tracer.Intern("bench.request");
  int64_t replay_ns = 0;
  const uint64_t quantum = server->options().quantum_samples;
  const size_t parity = std::min(spec.parity_tenants, served.size());
  for (size_t i = 0; i < parity; ++i) {
    const ServedRequest& s = served[i];
    const ChainConfig config =
        RequestConfig(*fixture, args.seed, s.request);
    std::unique_ptr<api::Session> session = OpenSession(config);
    std::vector<api::ResultHandle> handles;
    for (const char* sql : config.queries) {
      handles.push_back(session->Register(sql));
    }
    for (uint64_t n = 0; n < s.budget;) {
      const uint64_t step = session->RunQuantum(
          std::min(quantum, s.budget - n));
      if (step == 0) break;
      n += step;
    }
    bool same = true;
    for (size_t q = 0; q < handles.size(); ++q) {
      same &= SameAnswer(handles[q].Snapshot().answer, s.progress[q].answer);
    }
    report->Check("served_matches_standalone", same,
                  "request " + std::to_string(s.request));
    if (!args.traced) continue;
    tracer.Begin(request_span);
    {
      Replay replay(config, &tracer, &layers);
      for (uint64_t n = 0; n < s.budget;) {
        const uint64_t step = replay.RunQuantum(
            std::min(quantum, s.budget - n));
        if (step == 0) break;
        n += step;
      }
      bool replayed_same = true;
      for (size_t q = 0; q < replay.num_queries(); ++q) {
        replayed_same &= SameAnswer(replay.answer(q), s.progress[q].answer);
      }
      report->Check("replay_matches_session", replayed_same,
                    "request " + std::to_string(s.request));
    }
    replay_ns += tracer.End().total_ns;
  }
  report->Check("parity_requests_available", parity == spec.parity_tenants,
                std::to_string(parity) + " completed requests");
  set_up(workload.setup_reps - setup_s.size());

  // --- Metrics -------------------------------------------------------------
  report->Add("e2e", "setup_s", "s", setup_s);
  report->Add("storage", "storage.build_s", "s", build_s);
  report->Add("e2e", "first_answer_s", "s", first_answer_s,
              Stat::kLowQuartile);
  report->Add("e2e", "samples_per_s", "1/s", rates, Stat::kHighQuartile);
  report->Add("request", "snapshot_p50_us", "us", snapshot_us);
  report->AddValue("request", "snapshot_p90_us", "us",
                   Percentile(snapshot_us, 0.90), snapshot_us.size());
  report->AddValue("request", "snapshot_p99_us", "us",
                   Percentile(snapshot_us, 0.99), snapshot_us.size());
  report->AddValue("e2e", "peak_rss_mb", "MiB", PeakRssMb());
  report->Add("request", "answer_s", "s", answer_s);
  report->AddValue("request", "answer_p90_s", "s", Percentile(answer_s, 0.90),
                   answer_s.size());
  report->AddValue("request", "requests_completed", "count",
                   static_cast<double>(served.size()));

  AddLatency(report, "serve.create_ms", "ms", 1e3, calls.create);
  AddLatency(report, "serve.register_ms", "ms", 1e3, calls.register_query);
  AddLatency(report, "serve.submit_us", "us", 1e6, calls.submit);
  AddLatency(report, "serve.stats_us", "us", 1e6, calls.stats);
  AddLatency(report, "serve.close_ms", "ms", 1e3, calls.close);
  AddHistogram(report, "serve.quantum_ms", "ms", 1e3, metrics.quantum_latency);
  AddHistogram(report, "serve.snapshot_service_us", "us", 1e6,
               metrics.snapshot_latency);
  const uint64_t submissions =
      metrics.submissions_admitted + metrics.submissions_rejected;
  report->AddValue("serve", "serve.overloaded_frac", "ratio",
                   submissions == 0
                       ? 0.0
                       : static_cast<double>(metrics.submissions_rejected) /
                             static_cast<double>(submissions),
                   submissions);
  report->AddValue("serve", "serve.quanta", "count",
                   static_cast<double>(metrics.quanta_executed));
  report->AddValue("api", "api.plan_cache_hit_rate", "ratio", cache.HitRate(),
                   cache.hits + cache.misses);
  if (args.traced && parity > 0) {
    ReportLayers(layers, tracer, replay_ns, report);
    if (!args.spans.empty() && !tracer.WriteCsv(args.spans)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.spans.c_str());
    }
  }
  report->set_attempted(next_request);
  report->set_failed(failed);
  std::printf("served %zu requests, %llu overloaded retries\n", served.size(),
              static_cast<unsigned long long>(overloaded));
}

}  // namespace e2e
}  // namespace fgpdb
