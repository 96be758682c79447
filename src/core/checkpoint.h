// Training resilience: per-epoch checkpointing and the divergence watchdog.
//
// The training driver (TrainSequenceNetwork, src/core/trainer.h) runs the
// epoch loop of every sequence-network trainer — flavor, lifetime and the
// single-LSTM ablation — and owns three concerns configured here:
//
//  1. Checkpointing. After every completed epoch the full training state —
//     current learning rate, cumulative rollback count, network weights,
//     Adam moments + step count, and RNG stream — is serialized. With a
//     checkpoint path configured it is also written to disk (atomic
//     temp+rename, CRC-validated header), so a SIGKILL at any instant leaves
//     either the previous or the new checkpoint intact, never a torn file.
//     Resuming restores the exact state, making an interrupted-then-resumed
//     run bitwise identical to an uninterrupted one. A checkpoint written for
//     another network shape (widths, layer count, dense vs factored head) is
//     refused with FAILED_PRECONDITION before anything is loaded.
//
//  2. Divergence watchdog. An epoch that produces a NaN/Inf loss, a
//     non-finite gradient norm, or an exploding loss is rolled back: the last
//     good state is restored, the learning rate is multiplied by
//     `lr_backoff`, and the epoch is rerun. After `max_rollbacks` failed
//     attempts the trainer gives up with an ABORTED status.
//
//  3. Fault hooks. MaybeInjectGradientFault plants a NaN in the gradients
//     when CLOUDGEN_FAULT arms nan_grad, exercising path 2 deterministically.
//
// Checkpoints are sealed files (src/util/sealed_file.h): a CRC-validated
// header whose `extra` word stores the next epoch to run.
#ifndef SRC_CORE_CHECKPOINT_H_
#define SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/nn/sequence_network.h"
#include "src/util/sealed_file.h"
#include "src/util/status.h"

namespace cloudgen {

// Stage tags keep one trainer's checkpoint from being resumed into another.
inline constexpr uint32_t kCheckpointStageFlavor = kSealFlavorCheckpoint;
inline constexpr uint32_t kCheckpointStageLifetime = kSealLifetimeCheckpoint;
inline constexpr uint32_t kCheckpointStageSingleLstm = kSealSingleLstmCheckpoint;
inline constexpr uint32_t kCheckpointStageResource = kSealResourceCheckpoint;

struct TrainRecoveryConfig {
  // Checkpoint file path; empty keeps snapshots in memory only (the watchdog
  // still works, but a crash loses progress).
  std::string checkpoint_path;
  // Resume from `checkpoint_path` if it holds a valid checkpoint; a missing
  // file starts from scratch, a corrupt one is reported and ignored, and one
  // written for another network shape fails training untouched.
  bool resume = false;
  // Learning-rate multiplier applied on every watchdog rollback.
  float lr_backoff = 0.5f;
  // An epoch whose loss exceeds divergence_factor * (best loss + 1) is
  // treated as diverged even if finite.
  double divergence_factor = 100.0;
  // Rollbacks tolerated across the whole run before giving up.
  int max_rollbacks = 8;
  // Testing/crash-simulation hook: stop (successfully) after this many
  // completed epochs, as if the process had been killed right after the
  // checkpoint write. 0 disables.
  size_t stop_after_epoch = 0;
};

// Raw checkpoint container I/O (exposed for tests and tooling).
struct TrainCheckpoint {
  static Status Write(const std::string& path, uint32_t stage_tag, uint64_t next_epoch,
                      const std::string& payload);
  static Status Read(const std::string& path, uint32_t stage_tag, uint64_t* next_epoch,
                     std::string* payload);
};

// Plants a NaN in the first gradient when the nan_grad fault fires. Call
// after backward, before the optimizer step. Returns true when injected.
bool MaybeInjectGradientFault(SequenceNetwork* network);

}  // namespace cloudgen

#endif  // SRC_CORE_CHECKPOINT_H_
