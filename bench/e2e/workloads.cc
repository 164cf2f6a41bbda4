// The four workloads. Why each exists (README.md has the long form):
//
//   certify_20k   Session, until(0.95, 0.10) on one chain, Queries 1-4,
//                 k = 2 proposals/token: the step kernel dominates (views
//                 are under a tenth of the wall) and the until bookkeeping
//                 and per-view freezing run on every sample.
//   views_100k    Session, fixed budget, Queries 1-4, k = 200 steps: the
//                 delta drain, view apply and answer folding dominate.
//   sharded_500k  Sharded(4), Queries 1+2, k = 1 proposal/token: the shard
//                 runner on four threads, the coordinator-serial merge, a
//                 working set far past the private caches, heavy set-up.
//   serve_16c     serve::Server on 3 scheduler threads, 16 closed-loop
//                 clients with fixed budgets: plan cache, scheduler and
//                 snapshot reads beside sampling.

#include "e2e.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/shard_plan.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fgpdb {
namespace e2e {

std::unique_ptr<Fixture> BuildFixture(const ie::SyntheticCorpus& corpus,
                                      size_t num_shards) {
  auto fixture = std::make_unique<Fixture>();
  fixture->tokens = ie::BuildTokenPdb(corpus);
  fixture->model = std::make_unique<ie::SkipChainNerModel>(fixture->tokens);
  fixture->model->InitializeFromCorpusStatistics(fixture->tokens);
  fixture->tokens.pdb->set_model(fixture->model.get());
  if (num_shards > 1) {
    fixture->shard_plan = ie::BuildDocumentShardPlan(
        fixture->tokens, *fixture->model, {.num_shards = num_shards});
    FGPDB_CHECK_EQ(fixture->shard_plan.num_shards, num_shards)
        << "the skip-chain model must certify the document partition";
  }
  return fixture;
}

pdb::ProposalFactory MakeProposalFactory(const Fixture& fixture) {
  const auto* docs = &fixture.tokens.docs;
  return [docs](pdb::ProbabilisticDatabase&)
             -> std::unique_ptr<infer::Proposal> {
    return std::make_unique<ie::DocumentBatchProposal>(docs);
  };
}

api::ExecutionPolicy PolicyFor(const ChainConfig& config) {
  const api::ExecutionPolicy policy =
      config.until ? api::ExecutionPolicy::Until(kConfidence, kEps,
                                                 /*num_chains=*/1)
                   : api::ExecutionPolicy::Serial();
  return policy.WithShards(config.num_shards);
}

std::unique_ptr<api::Session> OpenSession(const ChainConfig& config) {
  api::SessionOptions options;
  options.database = config.fixture->tokens.pdb.get();
  options.proposal_factory = MakeProposalFactory(*config.fixture);
  if (config.num_shards > 1) options.shard_plan = config.fixture->shard_plan;
  options.evaluator = config.evaluator;
  options.policy = PolicyFor(config);
  return api::Session::Open(std::move(options));
}

size_t QueryIndex(const char* sql) {
  const char* pool[] = {ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4};
  for (size_t i = 0; i < 4; ++i) {
    if (std::string(sql) == pool[i]) return i;
  }
  FGPDB_CHECK(false) << "query outside the paper's pool: " << sql;
  return 0;
}

SetUpTimer::SetUpTimer(const ie::SyntheticCorpus& corpus, size_t num_shards,
                       size_t reps, double window_s)
    : corpus_(corpus),
      num_shards_(num_shards),
      reps_(reps),
      interval_ns_(static_cast<int64_t>(window_s * 1e9) /
                   static_cast<int64_t>(reps)) {}

void SetUpTimer::Rebuild(std::unique_ptr<Fixture>* fixture) {
  fixture->reset();
  const int64_t start = NowNs();
  *fixture = BuildFixture(corpus_, num_shards_);
  setup_s_.push_back(SecondsSince(start));
}

std::unique_ptr<Fixture> SetUpTimer::Start() {
  std::unique_ptr<Fixture> fixture;
  Rebuild(&fixture);
  next_ns_ = NowNs() + interval_ns_;
  return fixture;
}

void SetUpTimer::MaybeRebuild(std::unique_ptr<Fixture>* fixture) {
  if (setup_s_.size() >= reps_ || NowNs() < next_ns_) return;
  Rebuild(fixture);
  next_ns_ = NowNs() + interval_ns_;
}

void SetUpTimer::Finish(std::unique_ptr<Fixture>* fixture, Report* report) {
  while (setup_s_.size() < reps_) Rebuild(fixture);
  report->Add("e2e", "setup_s", "s", setup_s_);
  report->Add("storage", "storage.build_s", "s", setup_s_);
}

std::vector<std::string> WorkloadNames() {
  return {"certify_20k", "views_100k", "sharded_500k", "serve_16c"};
}

std::unique_ptr<Workload> FindWorkload(const std::string& name, bool tiny) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  const std::vector<const char*> all = {ie::kQuery1, ie::kQuery2, ie::kQuery3,
                                        ie::kQuery4};
  SessionSpec& s = w->session;
  if (name == "certify_20k") {
    s.tokens = tiny ? 2000 : 20000;
    s.queries = all;
    s.steps_per_token = 2;
    s.until = true;
    s.budget = tiny ? 256 : 4096;
    s.quantum = 1;
    s.check_samples = tiny ? 96 : 512;
    w->setup_reps = 25;
  } else if (name == "views_100k") {
    s.tokens = tiny ? 5000 : 100000;
    s.queries = all;
    s.steps_per_sample = 200;
    s.budget = tiny ? 2000 : 25000;
    s.quantum = 16;
    s.check_samples = tiny ? 500 : 8192;
    w->setup_reps = 9;
  } else if (name == "sharded_500k") {
    s.tokens = tiny ? 20000 : 500000;
    s.queries = {ie::kQuery1, ie::kQuery2};
    s.steps_per_token = 1;
    s.num_shards = 4;
    s.budget = tiny ? 16 : 100;
    s.quantum = 1;
    s.check_samples = tiny ? 8 : 32;
    w->setup_reps = 5;
  } else if (name == "serve_16c") {
    w->serve = true;
    ServeSpec& v = w->serve_spec;
    v.tokens = tiny ? 1000 : 4000;
    v.clients = tiny ? 4 : 16;
    v.threads = tiny ? 2 : 3;
    v.budget = tiny ? 128 : 512;
    v.parity_tenants = tiny ? 4 : 8;
    w->setup_reps = 25;
  } else {
    return nullptr;
  }
  return w;
}

}  // namespace e2e
}  // namespace fgpdb
