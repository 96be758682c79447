#include "src/core/checkpoint.h"

#include <limits>

#include "src/util/fault.h"

namespace cloudgen {

Status TrainCheckpoint::Write(const std::string& path, uint32_t stage_tag,
                              uint64_t next_epoch, const std::string& payload) {
  return WriteSealedFile(path, stage_tag, next_epoch, payload);
}

Status TrainCheckpoint::Read(const std::string& path, uint32_t stage_tag,
                             uint64_t* next_epoch, std::string* payload) {
  return ReadSealedFile(path, stage_tag, next_epoch, payload);
}

bool MaybeInjectGradientFault(SequenceNetwork* network) {
  if (!FaultInjector::Global().ShouldInject(FaultKind::kNanGrad)) {
    return false;
  }
  std::vector<Matrix*> grads = network->Grads();
  if (!grads.empty() && grads[0]->Size() > 0) {
    grads[0]->Data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  return true;
}

}  // namespace cloudgen
