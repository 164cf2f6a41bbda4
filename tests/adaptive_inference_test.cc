// End-to-end tests of ExecutionPolicy::Until(confidence, eps) — the
// run-until-error-bound policy — against three oracles:
//
//   correctness   — the adaptive answer must land within the advertised ±eps
//                   of an exhaustive fixed-count run (Queries 1–4);
//   determinism   — stopping decisions are functions of the sample stream
//                   alone, so repeated runs at one seed (threaded included)
//                   are bitwise-identical, and enabling tracking with an
//                   unreachable eps cannot perturb the chain trajectory;
//   progress      — the escalation ladder doubles the chain count while the
//                   bound is unmet, and Snapshot() stays safe to call from
//                   another thread mid-run (TSan leg covers the
//                   ConcurrentSnapshot test).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/query_evaluator.h"
#include "storage/tuple.h"

namespace fgpdb {
namespace {

struct NerFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  explicit NerFixture(size_t num_tokens, uint64_t seed = 21) {
    ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 60, .seed = seed});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }

  pdb::ProposalFactory MakeFactory() {
    return [this](pdb::ProbabilisticDatabase&)
               -> std::unique_ptr<infer::Proposal> {
      return std::make_unique<ie::DocumentBatchProposal>(
          &tokens.docs, ie::NerProposalOptions{.proposals_per_batch = 300});
    };
  }
};

const std::vector<const char*>& PaperQueries() {
  static const std::vector<const char*> kQueries = {
      ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4};
  return kQueries;
}

void ExpectBitwiseEqual(const pdb::QueryAnswer& got,
                        const pdb::QueryAnswer& want, const char* what) {
  EXPECT_EQ(got.num_samples(), want.num_samples()) << what;
  const auto got_sorted = got.Sorted();
  const auto want_sorted = want.Sorted();
  ASSERT_EQ(got_sorted.size(), want_sorted.size()) << what;
  for (size_t i = 0; i < got_sorted.size(); ++i) {
    EXPECT_EQ(got_sorted[i].first, want_sorted[i].first) << what;
    EXPECT_EQ(got_sorted[i].second, want_sorted[i].second)
        << what << " tuple " << got_sorted[i].first.ToString();
  }
}

// Largest |p_a - p_b| over the union of both answers' tuples.
double MaxMarginalGap(const pdb::QueryAnswer& a, const pdb::QueryAnswer& b) {
  double gap = 0.0;
  for (const auto& [tuple, p] : a.Sorted()) {
    gap = std::max(gap, std::abs(p - b.Probability(tuple)));
  }
  for (const auto& [tuple, p] : b.Sorted()) {
    gap = std::max(gap, std::abs(p - a.Probability(tuple)));
  }
  return gap;
}

// --- Differential oracle ----------------------------------------------------

TEST(AdaptiveInferenceTest, UntilMatchesExhaustiveRunWithinEps) {
  // until(0.95, 0.08) on the Query 1–4 bundle must reach the same marginals
  // an exhaustive fixed-count run reaches, within the advertised tolerance
  // (both sides carry Monte-Carlo error, so the gap budget is eps for the
  // adaptive side plus slack for the oracle's own noise).
  //
  // Burn-in is deliberately generous (the bench uses 40·tokens): every COW
  // chain starts from the same initial world, and bias shared by all chains
  // is exactly what a cross-chain standard error cannot see. The bound is a
  // sampling-noise bound, it only becomes an accuracy bound once the chains
  // actually reach stationarity.
  NerFixture fixture(250);
  const double eps = 0.08;
  const pdb::EvaluatorOptions chain_options{
      .steps_per_sample = 500, .burn_in = 10000, .seed = 1234};

  auto adaptive = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = chain_options,
       .policy = api::ExecutionPolicy::Until(0.95, eps, /*num_chains=*/4)});
  std::vector<api::ResultHandle> handles;
  for (const char* query : PaperQueries()) {
    handles.push_back(adaptive->Register(query));
  }
  adaptive->Run(/*budget=*/4000);
  EXPECT_TRUE(adaptive->converged());

  // Exhaustive oracle: one long serial chain over the same bundle.
  auto exhaustive = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = {.steps_per_sample = 500, .burn_in = 10000, .seed = 777}});
  std::vector<api::ResultHandle> oracle_handles;
  for (const char* query : PaperQueries()) {
    oracle_handles.push_back(exhaustive->Register(query));
  }
  exhaustive->Run(800);

  for (size_t q = 0; q < PaperQueries().size(); ++q) {
    const api::QueryProgress progress = handles[q].Snapshot();
    EXPECT_TRUE(progress.converged) << PaperQueries()[q];
    EXPECT_LE(progress.max_half_width, eps) << PaperQueries()[q];
    EXPECT_GE(progress.chains, 4u);
    // Every reported estimate carries a finite standard error and the
    // probability matches the merged answer's.
    for (const api::TupleEstimate& est : progress.estimates) {
      EXPECT_LT(est.standard_error, std::numeric_limits<double>::infinity());
      EXPECT_NEAR(est.probability, progress.answer.Probability(est.tuple),
                  1e-12);
    }
    const double gap =
        MaxMarginalGap(progress.answer, oracle_handles[q].Snapshot().answer);
    // eps covers the adaptive side at 95%; the 800-sample oracle's own
    // standard error adds the rest of the budget.
    EXPECT_LE(gap, eps + 0.07) << PaperQueries()[q] << " gap " << gap;
  }
}

// --- Determinism ------------------------------------------------------------

TEST(AdaptiveInferenceTest, ThreadedUntilRunsAreBitwiseReproducible) {
  // Two sessions, identical options, threaded multi-chain until policy:
  // answers, error estimates, stopping decisions, and the escalation-ladder
  // position must all agree bitwise. This is the property the integer-sum
  // cross-chain statistics exist for — completion order varies between the
  // two runs, the results may not.
  NerFixture fixture(300);
  const pdb::EvaluatorOptions chain_options{
      .steps_per_sample = 250, .burn_in = 500, .seed = 4321};

  auto run_once = [&](std::vector<api::QueryProgress>* out, bool* converged) {
    auto session = api::Session::Open(
        {.database = fixture.tokens.pdb.get(),
         .proposal_factory = fixture.MakeFactory(),
         .evaluator = chain_options,
         .policy = api::ExecutionPolicy::Until(0.95, 0.1, /*num_chains=*/3)});
    std::vector<api::ResultHandle> handles;
    for (const char* query : PaperQueries()) {
      handles.push_back(session->Register(query));
    }
    session->Run(1500);
    *converged = session->converged();
    for (const api::ResultHandle& h : handles) out->push_back(h.Snapshot());
  };

  std::vector<api::QueryProgress> first, second;
  bool first_converged = false, second_converged = false;
  run_once(&first, &first_converged);
  run_once(&second, &second_converged);

  EXPECT_EQ(first_converged, second_converged);
  ASSERT_EQ(first.size(), second.size());
  for (size_t q = 0; q < first.size(); ++q) {
    ExpectBitwiseEqual(first[q].answer, second[q].answer, PaperQueries()[q]);
    EXPECT_EQ(first[q].converged, second[q].converged);
    EXPECT_EQ(first[q].max_half_width, second[q].max_half_width);
    EXPECT_EQ(first[q].rounds, second[q].rounds);
    EXPECT_EQ(first[q].chains, second[q].chains);
    ASSERT_EQ(first[q].estimates.size(), second[q].estimates.size());
    for (size_t i = 0; i < first[q].estimates.size(); ++i) {
      EXPECT_EQ(first[q].estimates[i].tuple, second[q].estimates[i].tuple);
      EXPECT_EQ(first[q].estimates[i].probability,
                second[q].estimates[i].probability);
      EXPECT_EQ(first[q].estimates[i].standard_error,
                second[q].estimates[i].standard_error);
    }
  }
}

TEST(AdaptiveInferenceTest, SerialTrackingNeverPerturbsTheTrajectory) {
  // Convergence tracking observes the chain, it must not steer it: a serial
  // until session with an unreachable eps draws bitwise the same answers as
  // a plain serial session at the same seed.
  NerFixture fixture(300);
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 250, .burn_in = 500, .seed = 99};

  auto tracked = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = options,
       .policy = api::ExecutionPolicy::Until(0.95, /*eps=*/1e-12,
                                             /*num_chains=*/1)});
  auto plain = api::Session::Open({.database = fixture.tokens.pdb.get(),
                                   .proposal_factory = fixture.MakeFactory(),
                                   .evaluator = options});
  std::vector<api::ResultHandle> tracked_handles, plain_handles;
  for (const char* query : PaperQueries()) {
    tracked_handles.push_back(tracked->Register(query));
    plain_handles.push_back(plain->Register(query));
  }
  tracked->Run(40);  // eps unreachable → runs the full budget
  plain->Run(40);
  EXPECT_FALSE(tracked->converged());
  for (size_t q = 0; q < PaperQueries().size(); ++q) {
    const api::QueryProgress progress = tracked_handles[q].Snapshot();
    EXPECT_EQ(progress.samples, 40u);
    EXPECT_FALSE(progress.converged);
    ExpectBitwiseEqual(progress.answer, plain_handles[q].Snapshot().answer,
                       PaperQueries()[q]);
  }
}

// --- Serial freezing --------------------------------------------------------

TEST(AdaptiveInferenceTest, SerialUntilFreezesConvergedViews) {
  // Single-chain variant: a query whose answer meets the bound freezes —
  // it stops observing samples (and leaves the delta fan-out) while looser
  // queries keep running. With a generous eps everything converges well
  // inside the budget; the frozen sample counts stay put.
  NerFixture fixture(300);
  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = {.steps_per_sample = 250, .burn_in = 500, .seed = 11},
       .policy = api::ExecutionPolicy::Until(0.90, /*eps=*/0.2,
                                             /*num_chains=*/1)});
  std::vector<api::ResultHandle> handles;
  for (const char* query : PaperQueries()) {
    handles.push_back(session->Register(query));
  }
  const uint64_t budget = 3000;
  session->Run(budget);
  ASSERT_TRUE(session->converged());
  std::vector<uint64_t> frozen_samples;
  for (size_t q = 0; q < handles.size(); ++q) {
    const api::QueryProgress progress = handles[q].Snapshot();
    EXPECT_TRUE(progress.converged) << PaperQueries()[q];
    EXPECT_LE(progress.max_half_width, 0.2) << PaperQueries()[q];
    EXPECT_LT(progress.samples, budget) << PaperQueries()[q];
    EXPECT_EQ(progress.chains, 1u);
    frozen_samples.push_back(progress.samples);
  }
  // Frozen is frozen: further Run() calls cannot move a converged answer.
  session->Run(50);
  for (size_t q = 0; q < handles.size(); ++q) {
    EXPECT_EQ(handles[q].Snapshot().samples, frozen_samples[q]);
  }
}

// --- Escalation ladder ------------------------------------------------------

TEST(AdaptiveInferenceTest, EscalationDoublesChainsWhileBoundUnmet) {
  // eps = 1e-7 is unreachable, so every round ends unconverged and the
  // ladder climbs: 2 chains → 4 → 8, then the budget check stops the loop.
  // Round r adds chains·samples_per_round samples: 64, +128, +256 = 448
  // total ≥ the 300 budget after round 3. All deterministic, so the
  // assertions are exact.
  NerFixture fixture(300);
  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = {.steps_per_sample = 200, .burn_in = 400, .seed = 6},
       .policy = api::ExecutionPolicy::Until(0.95, /*eps=*/1e-7,
                                             /*num_chains=*/2)});
  api::ResultHandle handle = session->Register(ie::kQuery1);
  session->Run(/*budget=*/300);
  EXPECT_FALSE(session->converged());
  const api::QueryProgress progress = handle.Snapshot();
  EXPECT_FALSE(progress.converged);
  EXPECT_EQ(progress.rounds, 3u);
  EXPECT_EQ(progress.chains, 8u);
  EXPECT_EQ(progress.samples, 448u);
  EXPECT_GT(progress.max_half_width, 1e-7);
  // Cross-chain errors are estimable (≥2 chains) even though unconverged.
  ASSERT_FALSE(progress.estimates.empty());
  for (const api::TupleEstimate& est : progress.estimates) {
    EXPECT_LT(est.standard_error, std::numeric_limits<double>::infinity());
  }
  // The ladder persists across Run() calls: the next round starts at 8
  // chains and keeps climbing only if escalations remain (max was 3,
  // already spent at 2→4→8... one rung left from the default 3).
  session->Run(/*budget=*/1);
  EXPECT_EQ(handle.Snapshot().rounds, 4u);
  EXPECT_EQ(handle.Snapshot().samples, 448u + 8u * 32u);
  // The budget counts the samples THIS call draws, not the session's
  // lifetime total (704 here, already past 300): one 8-chain round adds
  // 256 < 300, so the ladder climbs to 16 chains and a second round runs.
  const uint64_t before = handle.Snapshot().samples;
  session->Run(/*budget=*/300);
  EXPECT_FALSE(session->converged());
  EXPECT_GE(handle.Snapshot().samples - before, 300u);
  EXPECT_EQ(handle.Snapshot().samples, before + 8u * 32u + 16u * 32u);
  EXPECT_EQ(handle.Snapshot().chains, 16u);
}

TEST(AdaptiveInferenceTest, SingleChainBudgetCountsThisCall) {
  // The single-chain twin of the budget check above: eps = 1e-7 freezes
  // nothing, so each Run(n) draws exactly n new samples however many the
  // session already holds, and RunQuantum(m) draws m.
  NerFixture fixture(300);
  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = {.steps_per_sample = 100, .burn_in = 200, .seed = 4},
       .policy = api::ExecutionPolicy::Until(0.95, /*eps=*/1e-7,
                                             /*num_chains=*/1)});
  api::ResultHandle handle = session->Register(ie::kQuery1);
  session->Run(/*budget=*/300);
  EXPECT_FALSE(session->converged());
  EXPECT_EQ(handle.Snapshot().samples, 300u);
  session->Run(/*budget=*/300);
  EXPECT_FALSE(session->converged());
  EXPECT_EQ(handle.Snapshot().samples, 600u);
  EXPECT_EQ(session->RunQuantum(50), 50u);
  EXPECT_EQ(handle.Snapshot().samples, 650u);
  EXPECT_EQ(handle.Snapshot().chains, 1u);
}

// --- Concurrent snapshot reader ---------------------------------------------

TEST(AdaptiveInferenceTest, ConcurrentSnapshotReaderSeesConsistentProgress) {
  // Snapshot() is documented safe to call from another thread while a
  // multi-chain until Run() executes (round-granular consistency under
  // results_mu_). The TSan CI leg runs this test; the in-test assertions
  // check monotone sample counts and internally consistent snapshots.
  NerFixture fixture(300);
  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .proposal_factory = fixture.MakeFactory(),
       .evaluator = {.steps_per_sample = 200, .burn_in = 400, .seed = 77},
       .policy = api::ExecutionPolicy::Until(0.95, /*eps=*/0.1,
                                             /*num_chains=*/3)});
  api::ResultHandle q1 = session->Register(ie::kQuery1);
  api::ResultHandle q3 = session->Register(ie::kQuery3);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    uint64_t last_samples = 0;
    uint64_t last_rounds = 0;
    while (!done.load(std::memory_order_acquire)) {
      const api::QueryProgress progress = q1.Snapshot();
      // Rounds fold atomically: samples and rounds only move forward.
      EXPECT_GE(progress.samples, last_samples);
      EXPECT_GE(progress.rounds, last_rounds);
      last_samples = progress.samples;
      last_rounds = progress.rounds;
      for (const api::TupleEstimate& est : progress.estimates) {
        EXPECT_GE(est.probability, 0.0);
        EXPECT_LE(est.probability, 1.0);
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  session->Run(2000);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  // Post-run snapshots from the main thread are complete and consistent.
  for (const api::ResultHandle& h : {q1, q3}) {
    const api::QueryProgress progress = h.Snapshot();
    EXPECT_GT(progress.samples, 0u);
    EXPECT_EQ(progress.samples, progress.answer.num_samples());
  }
}

}  // namespace
}  // namespace fgpdb
