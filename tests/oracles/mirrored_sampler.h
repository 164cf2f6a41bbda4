// The serial chain written out by hand, as the paper describes it (§3.4,
// §5): a bare Metropolis–Hastings walk over a ProbabilisticDatabase's world
// whose listener mirrors every flush into the tables and the delta
// accumulator through ProbabilisticDatabase::MirrorApplied. The engine's
// chains (SharedChainEvaluator over a one-shard plan) mirror once per
// interval instead; tests use this per-flush chain as the reference they
// must replay bitwise.
#ifndef FGPDB_TESTS_ORACLES_MIRRORED_SAMPLER_H_
#define FGPDB_TESTS_ORACLES_MIRRORED_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "infer/metropolis_hastings.h"
#include "pdb/probabilistic_database.h"

namespace fgpdb {
namespace testing {

/// A sampler over `pdb`'s world scoring with `pdb`'s model. `pdb` and
/// `proposal` must outlive it.
inline std::unique_ptr<infer::MetropolisHastings> MakeMirroredSampler(
    pdb::ProbabilisticDatabase* pdb, infer::Proposal* proposal,
    uint64_t seed) {
  auto sampler = std::make_unique<infer::MetropolisHastings>(
      pdb->model(), &pdb->world(), proposal, seed);
  sampler->AddListener(
      [pdb](const std::vector<factor::AppliedAssignment>& applied) {
        pdb->MirrorApplied(applied);
      });
  return sampler;
}

}  // namespace testing
}  // namespace fgpdb

#endif  // FGPDB_TESTS_ORACLES_MIRRORED_SAMPLER_H_
