// The lane scorer of MetropolisHastings::Step(n)'s relabel loop.
//
// Step(n) runs the §5.1 uniform-relabel kernel (proposal.h) through a fused
// loop only when the model can score a one-label change straight from a
// world's byte label lane (factor::World::label_shadow). Such a model
// implements RelabelLaneModel: the sampler finds the interface once, at
// construction, and on a world with a label lane hands the model the whole
// Step(n) call. The model refreshes what its scorer caches once per call
// and instantiates the loop (RunRelabelLoop) with its scorer inlined, so
// the loop body exists once in source and the model layer (src/factor)
// names nothing from infer. Any other model, or a world without a lane,
// runs the kernel through the generic loop.
//
// The contract is bitwise: delta(var, value) must return exactly what the
// model's LogScoreDelta returns for the one-assignment change {var → value}
// on the world whose lane is `lane`. The relabel loop then walks the same
// chain as the generic loop — same draws, accepted counts, applied stream,
// world and next RNG draw — which
// CompiledScoringTest.RelabelLoopMatchesGenericLoopBitwise holds it to.
#ifndef FGPDB_INFER_RELABEL_LANE_H_
#define FGPDB_INFER_RELABEL_LANE_H_

#include <cstddef>
#include <cstdint>

#include "infer/metropolis_hastings.h"

namespace fgpdb {
namespace infer {

class RelabelLaneModel {
 public:
  /// Runs `n` transitions of `chain`'s relabel loop on a world whose label
  /// lane is `lane`, scoring with this model's lane scorer: refreshes the
  /// scorer's cached state once, then returns RunRelabelLoop(chain, n,
  /// lane, delta). Called once per Step(n); safe to call concurrently for
  /// distinct chains whenever concurrent LogScoreDelta calls are.
  virtual size_t StepRelabelLane(MetropolisHastings* chain, size_t n,
                                 const uint8_t* lane) const = 0;

 protected:
  ~RelabelLaneModel() = default;

  /// chain->RelabelLoop(n, lane, delta): the relabel loop instantiated
  /// with the implementation's scorer.
  template <typename Delta>
  static size_t RunRelabelLoop(MetropolisHastings* chain, size_t n,
                               const uint8_t* lane, Delta delta) {
    return chain->RelabelLoop(n, lane, delta);
  }
};

}  // namespace infer
}  // namespace fgpdb

#endif  // FGPDB_INFER_RELABEL_LANE_H_
