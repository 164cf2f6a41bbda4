// The paper's §5.1 proposal distribution:
//
//   "first a label variable is selected uniformly at random from L, then
//    the label is randomly changed to one of the nine CoNLL labels. This
//    process is repeated for 2000 proposals before L is changed by loading
//    a new batch of variables from the database: up to five documents worth
//    of variables may be selected (uniformly at random)."
//
// The batch models the paper's disk-locality optimization (variables of a
// few documents are resident in memory at a time). The kernel is symmetric
// within a batch, so the proposal ratio is 1. It is the uniform-relabel
// kernel infer::UniformRelabelProposal declares, so MetropolisHastings runs
// it through the fused relabel loop of Step(n).
#ifndef FGPDB_IE_NER_PROPOSAL_H_
#define FGPDB_IE_NER_PROPOSAL_H_

#include <vector>

#include "ie/token_pdb.h"
#include "infer/proposal.h"

namespace fgpdb {
namespace ie {

struct NerProposalOptions {
  size_t proposals_per_batch = 2000;
  size_t docs_per_batch = 5;
};

class DocumentBatchProposal final : public infer::UniformRelabelProposal {
 public:
  /// `docs` is the document→variables structure of the TokenPdb; it must
  /// outlive the proposal.
  DocumentBatchProposal(const std::vector<std::vector<factor::VarId>>* docs,
                        NerProposalOptions options = {});

 private:
  /// Loads `docs_per_batch` uniformly drawn documents' variables; the batch
  /// serves `proposals_per_batch` proposals.
  size_t ReloadSites(Rng& rng, std::vector<factor::VarId>* sites) override;

  const std::vector<std::vector<factor::VarId>>* docs_;
  NerProposalOptions options_;
};

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_NER_PROPOSAL_H_
