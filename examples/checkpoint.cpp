// Checkpoint / restore: because the database always stores a single
// deterministic possible world (paper §3), persisting the PDB is just
// persisting ordinary relations. This example samples for a while, saves
// the TOKEN relation to CSV, restores it into a fresh probabilistic
// database, and resumes inference from exactly where it left off.
//
//   ./examples/checkpoint [dir]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "pdb/shard_plan.h"
#include "pdb/shared_chain.h"
#include "storage/csv_io.h"

using namespace fgpdb;

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : std::string("/tmp/fgpdb_checkpoint");

  // Build and sample a world.
  ie::SyntheticCorpus corpus = ie::GenerateCorpus({.num_tokens = 8000});
  ie::TokenPdb tokens = ie::BuildTokenPdb(corpus);
  ie::SkipChainNerModel model(tokens);
  model.InitializeFromCorpusStatistics(tokens);
  tokens.pdb->set_model(&model);
  const pdb::ProposalFactory document_batches =
      [&tokens](pdb::ProbabilisticDatabase&)
      -> std::unique_ptr<infer::Proposal> {
    return std::make_unique<ie::DocumentBatchProposal>(&tokens.docs);
  };
  // The serial chain walks the stored world in place; after its burn-in the
  // TOKEN relation holds the sampled world.
  pdb::SharedChainEvaluator chain(tokens.pdb.get(),
                                  pdb::SerialPlan(document_batches),
                                  {.burn_in = 200000, .seed = 7});
  chain.Initialize();
  std::cout << "Sampled 200k steps; acceptance rate "
            << chain.acceptance_rate() << "\n";

  // Checkpoint the world (plain CSV — the world is just a relation).
  std::filesystem::remove_all(dir);
  SaveDatabaseCsv(tokens.pdb->db(), dir);
  std::cout << "Checkpointed TOKEN relation to " << dir << "\n";

  // Restore into a fresh PDB: rebind LABEL fields, reload the world vector
  // from the stored values, reuse the same model (weights are state-free).
  auto restored_db = LoadDatabaseCsv(dir);
  pdb::ProbabilisticDatabase restored;
  {
    const Table* token_table = restored_db->RequireTable(ie::kTokenTable);
    Table* dest = restored.db().CreateTable(ie::kTokenTable,
                                            token_table->schema());
    token_table->Scan([&](RowId, const Tuple& t) { dest->Insert(t); });
    const auto domain = ie::LabelDomain();
    for (RowId row = 0; row < dest->row_capacity(); ++row) {
      restored.binding().Bind(ie::kTokenTable, row, ie::kColLabel, domain);
    }
    restored.SyncWorldFromDatabase();
  }
  restored.set_model(&model);

  // The restored world must be bit-identical to the checkpointed one.
  size_t mismatches = 0;
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    if (restored.world().Get(static_cast<factor::VarId>(v)) !=
        tokens.pdb->world().Get(static_cast<factor::VarId>(v))) {
      ++mismatches;
    }
  }
  std::cout << "Restored world: " << mismatches << " label mismatches (want 0)\n";

  // Resume: answer Query 1 from the restored state through the Session
  // front door (the session samples its own snapshot of `restored`).
  auto session = api::Session::Open(
      {.database = &restored,
       .proposal_factory = document_batches,
       .evaluator = {.steps_per_sample = 1000, .seed = 9}});
  api::ResultHandle query = session->Register(ie::kQuery1);
  session->Run(200);
  const api::QueryProgress progress = query.Snapshot();
  std::cout << "Resumed inference: " << progress.answer.Sorted().size()
            << " tuples in the Query 1 answer after " << progress.samples
            << " samples.\n";
  for (const auto& [tuple, p] : progress.answer.TopK(3)) {
    std::cout << "  " << tuple.ToString() << "  Pr=" << p << "\n";
  }
  std::filesystem::remove_all(dir);
  return 0;
}
