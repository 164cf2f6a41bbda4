// Full NER pipeline (paper §5): generate a corpus, load the TOKEN relation,
// train the skip-chain CRF with SampleRank, then answer Queries 1 and 4
// with MCMC + view maintenance, reporting NER quality and probabilistic
// answers. Also runs the linear-chain ablation (skip edges off).
//
//   ./examples/ner_pipeline [num_tokens] [train_steps]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/metrics.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "learn/samplerank.h"
#include "util/stopwatch.h"

using namespace fgpdb;

namespace {

// Trains a model with SampleRank and reports the walk's final accuracy and
// mention-level F1 (the paper trains "in a matter of minutes"; this corpus
// takes seconds).
void TrainAndReport(ie::SkipChainNerModel& model, const ie::TokenPdb& tokens,
                    uint64_t steps, const char* name) {
  learn::LabelAccuracyObjective objective(tokens.truth);
  ie::DocumentBatchProposal proposal(&tokens.docs);
  learn::SampleRank trainer(&model, &proposal, &objective,
                            {.learning_rate = 1.0, .seed = 99});
  factor::World world(tokens.num_tokens());  // All 'O'.
  Stopwatch timer;
  const learn::SampleRankStats stats = trainer.Train(&world, steps);
  std::vector<uint32_t> predicted(tokens.num_tokens());
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    predicted[v] = world.Get(static_cast<factor::VarId>(v));
  }
  std::vector<size_t> doc_starts;
  for (const auto& doc : tokens.docs) doc_starts.push_back(doc.front());
  const ie::NerScores scores = ie::ScoreBio(predicted, tokens.truth, doc_starts);
  std::cout << "[" << name << "] trained " << steps << " steps in "
            << timer.ElapsedSeconds() << "s (" << stats.updates
            << " perceptron updates)\n"
            << "[" << name << "] token accuracy "
            << scores.token_accuracy << ", mention F1 " << scores.f1 << " (P "
            << scores.precision << " / R " << scores.recall << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  // 50k default: large enough that the ambiguous "Boston" appears in both
  // its ORG and LOC senses, so Query 4 has a non-empty probabilistic answer.
  const size_t num_tokens =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  const uint64_t train_steps =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400000;

  std::cout << "== Corpus ==\n";
  ie::SyntheticCorpus corpus = ie::GenerateCorpus({.num_tokens = num_tokens});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  std::cout << tokens.num_tokens() << " tokens, " << corpus.num_docs
            << " docs, vocab " << tokens.vocab.size() << "\n\n";

  std::cout << "== Training (SampleRank, paper §5.2) ==\n";
  ie::SkipChainNerModel skip_model(tokens);
  TrainAndReport(skip_model, tokens, train_steps, "skip-chain");
  // Ablation: the tractable linear-chain model the paper improves upon.
  ie::SkipChainNerModel linear_model(tokens, {.use_skip_edges = false});
  TrainAndReport(linear_model, tokens, train_steps, "linear-chain");
  std::cout << "skip edges in model: " << skip_model.num_skip_edges() << "\n\n";

  std::cout << "== Query evaluation (Session, shared chain, Alg. 1) ==\n";
  tokens.pdb->set_model(&skip_model);
  // Queries 1 and 4 ride ONE chain: each sampling interval's deltas are
  // drained once and fanned out to both maintained views.
  auto session = api::Session::Open(
      {.database = tokens.pdb.get(),
       .proposal_factory =
           [&tokens](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
             return std::make_unique<ie::DocumentBatchProposal>(&tokens.docs);
           },
       .evaluator = {.steps_per_sample = 2000,
                     .burn_in = 40 * static_cast<uint64_t>(tokens.num_tokens()),
                     .seed = 5}});
  std::vector<api::ResultHandle> handles;
  for (const char* query : {ie::kQuery1, ie::kQuery4}) {
    handles.push_back(session->Register(query));
  }
  Stopwatch timer;
  session->Run(300);
  const double elapsed = timer.ElapsedSeconds();
  for (const api::ResultHandle& handle : handles) {
    auto sorted = handle.Snapshot().answer.Sorted();
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::cout << "\n" << handle.query()->sql() << "\n  -> " << sorted.size()
              << " tuples; top answers:\n";
    for (size_t i = 0; i < sorted.size() && i < 5; ++i) {
      std::cout << "     " << sorted[i].first.ToString() << "  Pr="
                << sorted[i].second << "\n";
    }
  }
  std::cout << "\nBoth queries answered by one shared chain in " << elapsed
            << "s.\n";
  return 0;
}
