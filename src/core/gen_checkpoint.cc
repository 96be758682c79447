#include "src/core/gen_checkpoint.h"

#include <ostream>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/tensor/matrix.h"
#include "src/util/check.h"
#include "src/util/sealed_file.h"
#include "src/util/strings.h"

namespace cloudgen {
namespace {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

uint64_t HashMix(uint64_t h, uint64_t v) {
  // splitmix64 finalizer over h ^ v: cheap, well-diffused, and stable across
  // builds (no std::hash, whose value is implementation-defined).
  uint64_t z = (h ^ v) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void WriteLstmState(std::ostream& out, const LstmState& state) {
  CG_CHECK(state.h.size() == state.c.size());
  WritePod(out, static_cast<uint64_t>(state.h.size()));
  for (size_t layer = 0; layer < state.h.size(); ++layer) {
    WriteMatrix(out, state.h[layer]);
    WriteMatrix(out, state.c[layer]);
  }
}

Status ReadLstmState(std::istream& in, LstmState* state) {
  uint64_t layers = 0;
  if (!ReadPod(in, &layers)) {
    return DataLossError("truncated LSTM state");
  }
  if (layers != state->h.size()) {
    return FailedPreconditionError(
        StrFormat("LSTM state has %llu layers; the model has %zu",
                  static_cast<unsigned long long>(layers), state->h.size()));
  }
  for (size_t layer = 0; layer < state->h.size(); ++layer) {
    for (Matrix* m : {&state->h[layer], &state->c[layer]}) {
      // The header must match the model's shape before any payload is read,
      // so a mismatched or corrupt blob never sizes an allocation.
      uint64_t rows = 0;
      uint64_t cols = 0;
      if (!ReadPod(in, &rows) || !ReadPod(in, &cols)) {
        return DataLossError("truncated LSTM state");
      }
      if (rows != m->Rows() || cols != m->Cols()) {
        return FailedPreconditionError(StrFormat(
            "LSTM state layer %zu is %llux%llu; the model's is %zux%zu", layer,
            static_cast<unsigned long long>(rows), static_cast<unsigned long long>(cols),
            m->Rows(), m->Cols()));
      }
      in.read(reinterpret_cast<char*>(m->Data()),
              static_cast<std::streamsize>(sizeof(float) * m->Size()));
      if (!in) {
        return DataLossError("truncated LSTM state");
      }
    }
  }
  return OkStatus();
}

Status SaveGenCheckpoint(const std::string& path, const GenCursor& cursor) {
  std::ostringstream payload;
  WritePod(payload, GenCursor::kVersion);
  WritePod(payload, cursor.mode);
  WritePod(payload, cursor.fingerprint);
  WritePod(payload, cursor.base);
  WritePod(payload, cursor.count);
  WritePod(payload, cursor.next_trace);
  WritePod(payload, cursor.next_period);
  WritePod(payload, cursor.segments_sealed);
  WritePod(payload, static_cast<uint64_t>(cursor.state_blob.size()));
  payload.write(cursor.state_blob.data(),
                static_cast<std::streamsize>(cursor.state_blob.size()));
  const Status written = WriteSealedFile(path, kSealGenCheckpoint, cursor.next_trace,
                                         payload.str());
  if (written.ok()) {
    obs::Registry::Global().GetCounter("gen.checkpoint.writes").Add(1);
  }
  return written.WithContext("writing generation checkpoint " + path);
}

Status LoadGenCheckpoint(const std::string& path, GenCursor* cursor) {
  std::string payload;
  uint64_t extra = 0;
  CG_RETURN_IF_ERROR(ReadSealedFile(path, kSealGenCheckpoint, &extra, &payload)
                         .WithContext("reading generation checkpoint " + path));
  std::istringstream in(payload);
  uint32_t version = 0;
  uint64_t blob_size = 0;
  if (!ReadPod(in, &version) || version != GenCursor::kVersion) {
    return DataLossError("unsupported generation checkpoint version in " + path);
  }
  if (!ReadPod(in, &cursor->mode) || !ReadPod(in, &cursor->fingerprint) ||
      !ReadPod(in, &cursor->base) || !ReadPod(in, &cursor->count) ||
      !ReadPod(in, &cursor->next_trace) || !ReadPod(in, &cursor->next_period) ||
      !ReadPod(in, &cursor->segments_sealed) || !ReadPod(in, &blob_size)) {
    return DataLossError("truncated generation checkpoint " + path);
  }
  cursor->state_blob.resize(blob_size);
  in.read(cursor->state_blob.data(), static_cast<std::streamsize>(blob_size));
  if (!in) {
    return DataLossError("truncated generation checkpoint state in " + path);
  }
  return OkStatus();
}

}  // namespace cloudgen
