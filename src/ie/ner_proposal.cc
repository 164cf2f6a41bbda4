#include "ie/ner_proposal.h"

#include "ie/labels.h"
#include "util/logging.h"

namespace fgpdb {
namespace ie {

DocumentBatchProposal::DocumentBatchProposal(
    const std::vector<std::vector<factor::VarId>>* docs,
    NerProposalOptions options)
    : UniformRelabelProposal(kNumLabels), docs_(docs), options_(options) {
  FGPDB_CHECK(docs_ != nullptr);
  FGPDB_CHECK(!docs_->empty());
  FGPDB_CHECK_GT(options_.proposals_per_batch, 0u);
  FGPDB_CHECK_GT(options_.docs_per_batch, 0u);
}

size_t DocumentBatchProposal::ReloadSites(Rng& rng,
                                          std::vector<factor::VarId>* sites) {
  // The batch IS the dense variable addressing: sites resolve by one index
  // into the preloaded VarId array, no hashing — proposing allocates only
  // on this (rare) reload.
  sites->clear();
  for (size_t i = 0; i < options_.docs_per_batch; ++i) {
    const auto& doc = (*docs_)[rng.UniformInt(docs_->size())];
    sites->insert(sites->end(), doc.begin(), doc.end());
  }
  return options_.proposals_per_batch;
}

}  // namespace ie
}  // namespace fgpdb
