// Generation checkpoints: the durable cursor that makes long generation
// runs resumable with bitwise-identical output.
//
// The orchestrator (WorkloadModel::GenerateMany / GenerateStreaming) writes
// a checkpoint after every sealed trace segment. Two modes share the format:
//
//   kGenModeManyTraces  Parallel multi-trace sampling. Trace i is a pure
//                       function of (base, i) via Rng::Stream, so the cursor
//                       is just `base` plus the first not-yet-durable trace
//                       index — resume re-derives every remaining stream
//                       without any saved RNG state.
//   kGenModeStreaming   One month-scale trace streamed period by period. A
//                       trace's periods share evolving LSTM/RNG state, so
//                       the cursor carries an exact state blob: both
//                       generators' hidden states, the previous-token /
//                       previous-lifetime feedback, the user counter, and
//                       Rng::SaveState bytes (including the cached Box-
//                       Muller variate) captured at a period boundary.
//
// A fingerprint of the generation options, count, mode, and caller context
// (CLI seed) is stored and verified on load, so resuming with different
// flags/seed is rejected (gen.resume.rejected) instead of silently
// producing a franken-trace. Checkpoints are sealed files (CRC'd, atomic,
// fsync'd): a torn checkpoint reads as DATA_LOSS, never as a wrong cursor.
#ifndef SRC_CORE_GEN_CHECKPOINT_H_
#define SRC_CORE_GEN_CHECKPOINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/nn/lstm.h"
#include "src/util/status.h"

namespace cloudgen {

inline constexpr uint32_t kGenModeManyTraces = 0;
inline constexpr uint32_t kGenModeStreaming = 1;

struct GenCursor {
  static constexpr uint32_t kVersion = 1;

  uint32_t mode = kGenModeManyTraces;
  uint64_t fingerprint = 0;      // Options/count/mode/caller digest.
  uint64_t base = 0;             // Rng::Stream anchor (many-traces mode).
  uint64_t count = 0;            // Total traces requested.
  uint64_t next_trace = 0;       // First trace index not yet durable.
  int64_t next_period = 0;       // Streaming mode: first period not yet durable.
  uint64_t segments_sealed = 0;  // Manifest length this cursor covers.
  std::string state_blob;        // Streaming mode: exact generator/RNG state.
};

Status SaveGenCheckpoint(const std::string& path, const GenCursor& cursor);
Status LoadGenCheckpoint(const std::string& path, GenCursor* cursor);

// splitmix64-style mixing used to build option fingerprints.
uint64_t HashMix(uint64_t h, uint64_t v);

// Exact binary (de)serialization of an LSTM hidden state, shared by the
// generator SaveState/LoadState implementations. ReadLstmState reads into a
// state already shaped for the model (SequenceNetwork::MakeState): DATA_LOSS
// on a truncated stream, FAILED_PRECONDITION when the layer count or any
// matrix shape differs, checked before the payload is read.
void WriteLstmState(std::ostream& out, const LstmState& state);
Status ReadLstmState(std::istream& in, LstmState* state);

}  // namespace cloudgen

#endif  // SRC_CORE_GEN_CHECKPOINT_H_
