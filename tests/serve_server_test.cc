// serve::Server — the multi-tenant loop's acceptance suite: open-loop
// completion without losing admitted work, cross-session plan-cache
// economics, bitwise scheduler/standalone parity, streaming snapshots
// against a live scheduler (run under TSan in CI), admission control, and
// the wire protocol's response shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace fgpdb {
namespace {

struct NerFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  explicit NerFixture(size_t num_tokens, uint64_t seed = 31) {
    ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 60, .seed = seed});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }

  pdb::ProposalFactory MakeFactory() {
    return [this](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
      return std::make_unique<ie::DocumentBatchProposal>(
          &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 300});
    };
  }

  serve::ServerOptions MakeServerOptions() {
    serve::ServerOptions options;
    options.database = tokens.pdb.get();
    options.proposal_factory = MakeFactory();
    options.evaluator = {};
    options.evaluator.steps_per_sample = 50;
    options.evaluator.seed = 7;
    return options;
  }
};

const char* QueryPool(size_t i) {
  static const char* kPool[] = {ie::kQuery1, ie::kQuery2, ie::kQuery3,
                                ie::kQuery4};
  return kPool[i % 4];
}

bool SameAnswer(const pdb::QueryAnswer& a, const pdb::QueryAnswer& b) {
  const auto sa = a.Sorted();
  const auto sb = b.Sorted();
  if (sa.size() != sb.size()) return false;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!(sa[i].first == sb[i].first) || sa[i].second != sb[i].second) {
      return false;
    }
  }
  return true;
}

// The ISSUE's acceptance pin: a 16-tenant open-loop run completes with zero
// rejected-then-lost queries — every submission eventually admitted (via
// retry), every admitted sample drawn or convergence-yielded, no pending
// residue after Drain.
TEST(ServeServerTest, SixteenTenantOpenLoopZeroLost) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.quantum_samples = 4;
  // Tight cap so the open-loop schedule actually triggers Overloaded.
  options.max_outstanding_samples = 16;
  serve::Server server(options);

  constexpr size_t kTenants = 16;
  constexpr uint64_t kRounds = 4;
  constexpr uint64_t kSamplesPerSubmit = 8;
  std::vector<serve::TenantId> tenants(kTenants, 0);
  for (size_t t = 0; t < kTenants; ++t) {
    serve::TenantOptions tenant_options;
    tenant_options.has_evaluator = true;
    tenant_options.evaluator = options.evaluator;
    tenant_options.evaluator.seed = 1000 + t;
    ASSERT_TRUE(server.CreateTenant(&tenants[t], tenant_options).ok());
    serve::QueryId query = 0;
    ASSERT_TRUE(server.RegisterQuery(tenants[t], QueryPool(t), &query).ok());
  }

  uint64_t retries = 0;
  for (uint64_t round = 0; round < kRounds; ++round) {
    for (size_t t = 0; t < kTenants; ++t) {
      serve::Status status = server.Submit(tenants[t], kSamplesPerSubmit);
      while (status.code == serve::StatusCode::kOverloaded) {
        ++retries;
        std::this_thread::yield();
        status = server.Submit(tenants[t], kSamplesPerSubmit);
      }
      ASSERT_TRUE(status.ok()) << status.message;
      api::QueryProgress progress;
      ASSERT_TRUE(server.Snapshot(tenants[t], 0, &progress).ok());
    }
  }
  server.Drain();

  for (size_t t = 0; t < kTenants; ++t) {
    serve::TenantStats stats;
    ASSERT_TRUE(server.GetTenantStats(tenants[t], &stats).ok());
    EXPECT_EQ(stats.submitted, kRounds * kSamplesPerSubmit);
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_EQ(stats.samples_drawn + stats.yielded, stats.submitted)
        << "tenant " << t << " lost admitted work";
  }
  const serve::SchedulerMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.submissions_admitted, kTenants * kRounds);
  EXPECT_EQ(metrics.submissions_rejected, retries);
  EXPECT_EQ(metrics.snapshots_served, kTenants * kRounds);
  EXPECT_GT(metrics.quanta_executed, 0u);
}

// The ISSUE's plan-cache pin: a repeated-query workload (16 tenants x the
// paper's four queries) binds each distinct text once — 60 of 64
// registrations hit the cross-session cache (93.75% > the 80% bar).
TEST(ServeServerTest, PlanCacheHitRateAboveEightyPercent) {
  NerFixture fixture(300);
  serve::Server server(fixture.MakeServerOptions());
  constexpr size_t kTenants = 16;
  for (size_t t = 0; t < kTenants; ++t) {
    serve::TenantId id = 0;
    ASSERT_TRUE(server.CreateTenant(&id).ok());
    for (size_t q = 0; q < 4; ++q) {
      serve::QueryId query = 0;
      ASSERT_TRUE(server.RegisterQuery(id, QueryPool(q), &query).ok());
      EXPECT_EQ(query, q);
    }
  }
  const api::PlanCache::Stats stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, kTenants * 4 - 4);
  EXPECT_GT(stats.HitRate(), 0.8);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 4u);
}

// Spelling variants (whitespace, case, comments) share one cache entry.
TEST(ServeServerTest, PlanCacheKeysOnNormalizedText) {
  NerFixture fixture(300);
  serve::Server server(fixture.MakeServerOptions());
  serve::TenantId a = 0, b = 0;
  ASSERT_TRUE(server.CreateTenant(&a).ok());
  ASSERT_TRUE(server.CreateTenant(&b).ok());
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(a, ie::kQuery1, &query).ok());
  ASSERT_TRUE(
      server
          .RegisterQuery(b,
                         "select STRING from TOKEN -- spelled differently\n"
                         "where /* block */ LABEL = 'B-PER'",
                         &query)
          .ok());
  const api::PlanCache::Stats stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// The ISSUE's determinism pin: one tenant driven by the scheduler in
// bounded quanta answers bitwise-identically to the same Session run
// standalone at the same seed — slicing never perturbs a chain.
TEST(ServeServerTest, SchedulerBitwiseEqualsStandaloneSession) {
  constexpr uint64_t kSamples = 60;
  NerFixture fixture(300);

  auto standalone = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = {.steps_per_sample = 50, .seed = 7}});
  api::ResultHandle reference = standalone->Register(ie::kQuery1);
  standalone->Run(kSamples);

  serve::ServerOptions options = fixture.MakeServerOptions();
  options.quantum_samples = 7;  // deliberately not a divisor of kSamples
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(id, ie::kQuery1, &query).ok());
  ASSERT_TRUE(server.Submit(id, kSamples).ok());
  server.Drain();

  api::QueryProgress scheduled;
  ASSERT_TRUE(server.Snapshot(id, query, &scheduled).ok());
  const api::QueryProgress direct = reference.Snapshot();
  EXPECT_EQ(scheduled.samples, direct.samples);
  EXPECT_TRUE(SameAnswer(scheduled.answer, direct.answer))
      << "scheduler quanta perturbed the chain";
}

// Streaming reads: concurrent Snapshot() callers race the scheduler's
// quanta on a live chain. Sample counts must be monotone per reader and
// the whole interleaving data-race-free (this test is in CI's TSan leg).
TEST(ServeServerTest, ConcurrentSnapshotsDuringScheduledRun) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.quantum_samples = 4;
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(id, ie::kQuery1, &query).ok());
  ASSERT_TRUE(server.Submit(id, 120).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        api::QueryProgress progress;
        if (!server.Snapshot(id, 0, &progress).ok() ||
            progress.samples < last) {
          failures.fetch_add(1);
          return;
        }
        last = progress.samples;
      }
    });
  }
  server.Drain();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  api::QueryProgress final_progress;
  ASSERT_TRUE(server.Snapshot(id, query, &final_progress).ok());
  EXPECT_EQ(final_progress.samples, 120u);
  EXPECT_GT(server.metrics().snapshots_served, 0u);
}

// Admission control: the outstanding cap rejects with a typed Overloaded,
// and the same submission is admitted after the backlog drains.
TEST(ServeServerTest, OverloadedRejectionThenRetryAfterDrainSucceeds) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.max_outstanding_samples = 32;
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(id, ie::kQuery1, &query).ok());

  ASSERT_TRUE(server.Submit(id, 32).ok());
  const serve::Status rejected = server.Submit(id, 32);
  // The first budget may already have partially drained; only a rejection
  // that names the cap is acceptable as the alternative to admission.
  if (!rejected.ok()) {
    EXPECT_EQ(rejected.code, serve::StatusCode::kOverloaded);
    EXPECT_NE(rejected.message.find("cap"), std::string::npos);
  }
  server.Drain();
  EXPECT_TRUE(server.Submit(id, 32).ok()) << "post-drain retry must admit";
  server.Drain();

  serve::TenantStats stats;
  ASSERT_TRUE(server.GetTenantStats(id, &stats).ok());
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.samples_drawn + stats.yielded, stats.submitted);
}

TEST(ServeServerTest, SubmitValidation) {
  NerFixture fixture(300);
  serve::Server server(fixture.MakeServerOptions());
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());

  EXPECT_EQ(server.Submit(id + 99, 8).code, serve::StatusCode::kNotFound);
  EXPECT_EQ(server.Submit(id, 0).code, serve::StatusCode::kInvalidArgument);
  // No registered queries yet: sampling would be unobservable work.
  EXPECT_EQ(server.Submit(id, 8).code, serve::StatusCode::kInvalidArgument);
  api::QueryProgress progress;
  EXPECT_EQ(server.Snapshot(id, 0, &progress).code,
            serve::StatusCode::kNotFound);

  // A request past the cap is Overloaded even when pending + samples would
  // wrap around 2^64.
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(id, ie::kQuery1, &query).ok());
  ASSERT_TRUE(server.Submit(id, 100).ok());
  EXPECT_EQ(server.Submit(id, std::numeric_limits<uint64_t>::max()).code,
            serve::StatusCode::kOverloaded);
  server.Drain();
  EXPECT_EQ(server.metrics().samples_drawn, 100u);

  // Policies the session would abort on are refused before a tenant id is
  // spent: Until outside confidence in (0, 1) or finite eps > 0, no chains
  // under Until or Parallel, and shards (a server holds no shard plan).
  const api::ExecutionPolicy bad_policies[] = {
      api::ExecutionPolicy::Until(2.0, 0.1, 1),
      api::ExecutionPolicy::Until(0.95, std::nan(""), 1),
      api::ExecutionPolicy::Until(0.95, 0.1, 0),
      api::ExecutionPolicy::Parallel(0),
      api::ExecutionPolicy::Sharded(4),
  };
  serve::TenantId other = 0;
  for (const api::ExecutionPolicy& policy : bad_policies) {
    serve::TenantOptions bad;
    bad.policy = policy;
    EXPECT_EQ(server.CreateTenant(&other, bad).code,
              serve::StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(server.CreateTenant(&other).ok());
  EXPECT_EQ(other, id + 1);
}

// Submit's has-queries check and RegisterQuery's append race from two
// threads (this test is in CI's TSan leg): every Submit either admits, is
// refused for having no query yet, or is Overloaded, and nothing is lost.
TEST(ServeServerTest, SubmitRacesRegisterQuery) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.quantum_samples = 4;
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());

  std::atomic<int> unexpected{0};
  std::thread registrar([&] {
    for (size_t q = 0; q < 4; ++q) {
      serve::QueryId query = 0;
      if (!server.RegisterQuery(id, QueryPool(q), &query).ok()) {
        unexpected.fetch_add(1);
      }
    }
  });
  std::thread submitter([&] {
    for (int i = 0; i < 64; ++i) {
      const serve::Status status = server.Submit(id, 4);
      if (!status.ok() && status.code != serve::StatusCode::kInvalidArgument &&
          status.code != serve::StatusCode::kOverloaded) {
        unexpected.fetch_add(1);
      }
    }
  });
  registrar.join();
  submitter.join();
  server.Drain();
  EXPECT_EQ(unexpected.load(), 0);

  serve::TenantStats stats;
  ASSERT_TRUE(server.GetTenantStats(id, &stats).ok());
  EXPECT_EQ(stats.num_queries, 4u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.samples_drawn + stats.yielded, stats.submitted);
}

// A converged until-policy tenant yields its remaining budget: the
// scheduler retires it as served (PR 6's convergence state as the
// preemption signal) instead of burning quanta on a bounded answer.
TEST(ServeServerTest, ConvergedTenantYieldsRemainingBudget) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.quantum_samples = 32;
  serve::Server server(options);
  serve::TenantOptions tenant_options;
  // A loose bound over one resident chain converges within ~min_samples.
  tenant_options.policy = api::ExecutionPolicy::Until(0.9, 0.45,
                                                      /*num_chains=*/1);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id, tenant_options).ok());
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(id, ie::kQuery1, &query).ok());
  ASSERT_TRUE(server.Submit(id, 4096).ok());
  server.Drain();

  serve::TenantStats stats;
  ASSERT_TRUE(server.GetTenantStats(id, &stats).ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.yielded, 0u) << "converged tenant kept its slot";
  EXPECT_LT(stats.samples_drawn, 4096u);
  EXPECT_EQ(stats.samples_drawn + stats.yielded, 4096u);
  EXPECT_GE(server.metrics().converged_yields, 1u);

  api::QueryProgress progress;
  ASSERT_TRUE(server.Snapshot(id, query, &progress).ok());
  EXPECT_TRUE(progress.converged);
}

TEST(ServeServerTest, PlanCacheEvictsLruPastCapacity) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.plan_cache_capacity = 2;
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  serve::QueryId query = 0;
  for (size_t q = 0; q < 3; ++q) {
    ASSERT_TRUE(server.RegisterQuery(id, QueryPool(q), &query).ok());
  }
  const api::PlanCache::Stats stats = server.plan_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(ServeServerTest, CloseTenantDrainsItsBacklogFirst) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.quantum_samples = 4;
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  serve::QueryId query = 0;
  ASSERT_TRUE(server.RegisterQuery(id, ie::kQuery1, &query).ok());
  ASSERT_TRUE(server.Submit(id, 64).ok());
  ASSERT_TRUE(server.CloseTenant(id).ok());
  EXPECT_EQ(server.num_tenants(), 0u);
  EXPECT_EQ(server.Submit(id, 8).code, serve::StatusCode::kNotFound);
  EXPECT_EQ(server.CloseTenant(id).code, serve::StatusCode::kNotFound);
  // The backlog was drained, not dropped: 64/4 = 16 quanta ran.
  EXPECT_EQ(server.metrics().samples_drawn, 64u);
}

TEST(ServeServerTest, TenantLimitRejectsWithUnavailable) {
  NerFixture fixture(300);
  serve::ServerOptions options = fixture.MakeServerOptions();
  options.max_tenants = 2;
  serve::Server server(options);
  serve::TenantId id = 0;
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  ASSERT_TRUE(server.CreateTenant(&id).ok());
  EXPECT_EQ(server.CreateTenant(&id).code, serve::StatusCode::kUnavailable);
}

// --- Wire protocol -----------------------------------------------------------

struct ProtocolFixture : NerFixture {
  ProtocolFixture() : NerFixture(300), server(MakeServerOptions()),
                      protocol(&server) {}
  serve::Server server;
  serve::LineProtocol protocol;

  std::string Send(const std::string& line) {
    return protocol.HandleLine(line).response;
  }
};

TEST(ServeProtocolTest, HappyPathResponses) {
  ProtocolFixture fx;
  EXPECT_EQ(fx.Send("TENANT NEW SERIAL SEED 42"), "OK tenant=1\n");
  EXPECT_EQ(fx.Send(std::string("QUERY 1 ") + ie::kQuery1), "OK query=0\n");
  EXPECT_EQ(fx.Send("RUN 1 20"), "OK admitted=20\n");
  EXPECT_EQ(fx.Send("DRAIN"), "OK drained\n");

  const std::string snapshot = fx.Send("SNAPSHOT 1 0 TOP 2");
  EXPECT_EQ(snapshot.rfind("SNAPSHOT samples=20 ", 0), 0u) << snapshot;
  EXPECT_NE(snapshot.find("rows="), std::string::npos);
  EXPECT_EQ(snapshot.substr(snapshot.size() - 4), "END\n");

  const std::string stats = fx.Send("STATS");
  EXPECT_EQ(stats.rfind("STATS\n", 0), 0u);
  EXPECT_NE(stats.find("tenants=1\n"), std::string::npos);
  EXPECT_NE(stats.find("samples_drawn=20\n"), std::string::npos);
  EXPECT_NE(stats.find("plan_cache_hit_rate="), std::string::npos);

  EXPECT_EQ(fx.Send("TENANT CLOSE 1"), "OK\n");
  const serve::LineProtocol::Result quit = fx.protocol.HandleLine("QUIT");
  EXPECT_EQ(quit.response, "OK bye\n");
  EXPECT_TRUE(quit.quit);
}

TEST(ServeProtocolTest, ErrorsAndBlankLines) {
  ProtocolFixture fx;
  EXPECT_EQ(fx.Send(""), "");
  EXPECT_EQ(fx.Send("# a comment line"), "");
  EXPECT_EQ(fx.Send("FROB 1"),
            "ERR INVALID_ARGUMENT unknown command 'FROB'\n");
  EXPECT_EQ(fx.Send("RUN 9 10"), "ERR NOT_FOUND no tenant 9\n");
  EXPECT_EQ(fx.Send("RUN 1"), "ERR INVALID_ARGUMENT RUN <tenant> <samples>\n");
  EXPECT_EQ(fx.Send("TENANT NEW WARP"),
            "ERR INVALID_ARGUMENT unknown TENANT NEW argument 'WARP'\n");
  EXPECT_EQ(fx.Send("SNAPSHOT 1 0").rfind("ERR NOT_FOUND", 0), 0u);

  // Numerals are [0-9]+ within uint64: no sign, no saturation.
  for (const char* line :
       {"RUN 1 -1", "RUN 1 +5", "RUN 1 18446744073709551616", "RUN 1 0x10"}) {
    EXPECT_EQ(fx.Send(line), "ERR INVALID_ARGUMENT RUN <tenant> <samples>\n")
        << line;
  }
  EXPECT_EQ(fx.Send("TENANT NEW UNTIL 2 0.1"),
            "ERR INVALID_ARGUMENT UNTIL confidence must be in (0, 1)\n");
  EXPECT_EQ(fx.Send("TENANT NEW UNTIL 0.95 nan"),
            "ERR INVALID_ARGUMENT UNTIL eps must be finite and > 0\n");
  // The server is still up, and the refused tenants spent no id.
  EXPECT_EQ(fx.Send("TENANT NEW SERIAL"), "OK tenant=1\n");
  EXPECT_EQ(fx.Send(std::string("QUERY 1 ") + ie::kQuery1), "OK query=0\n");
  EXPECT_EQ(fx.Send("RUN 1 100"), "OK admitted=100\n");
  const std::string wrapped = fx.Send("RUN 1 18446744073709551615");
  EXPECT_EQ(wrapped.rfind("ERR OVERLOADED ", 0), 0u) << wrapped;
  EXPECT_EQ(fx.Send("DRAIN"), "OK drained\n");
  EXPECT_NE(fx.Send("STATS").find("samples_drawn=100\n"), std::string::npos);
}

TEST(ServeProtocolTest, UntilTenantSpeaksConvergence) {
  ProtocolFixture fx;
  EXPECT_EQ(fx.Send("TENANT NEW UNTIL 0.9 0.45"), "OK tenant=1\n");
  EXPECT_EQ(fx.Send(std::string("QUERY 1 ") + ie::kQuery1), "OK query=0\n");
  EXPECT_EQ(fx.Send("RUN 1 4096"), "OK admitted=4096\n");
  EXPECT_EQ(fx.Send("DRAIN"), "OK drained\n");
  const std::string snapshot = fx.Send("SNAPSHOT 1 0 TOP 1");
  EXPECT_NE(snapshot.find(" converged=1 "), std::string::npos) << snapshot;
}

}  // namespace
}  // namespace fgpdb
