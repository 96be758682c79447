// A sealed binary artifact container used for model files and training
// checkpoints:
//
//   magic "CGSEAL01" | u32 version | u32 type tag | u64 extra |
//   u64 payload size | u32 payload CRC-32 | payload bytes
//
// Writes are atomic (temp + rename). Reads verify magic, version, tag, and
// CRC before returning the payload, so downstream parsers (network weight
// loaders) only ever see integrity-checked bytes — a torn or corrupt file
// surfaces as DATA_LOSS instead of an abort or silent garbage. `extra` is
// a caller-defined word (checkpoints store the next epoch there).
//
// ReadSealedFile is the read_truncate fault-injection point.
#ifndef SRC_UTIL_SEALED_FILE_H_
#define SRC_UTIL_SEALED_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace cloudgen {

// Type tags for every sealed artifact in the repository (one namespace so a
// mixed-up file path is always diagnosed as a tag mismatch, not data loss).
inline constexpr uint32_t kSealFlavorCheckpoint = 1;
inline constexpr uint32_t kSealLifetimeCheckpoint = 2;
inline constexpr uint32_t kSealSingleLstmCheckpoint = 3;
inline constexpr uint32_t kSealResourceCheckpoint = 4;
inline constexpr uint32_t kSealFlavorModel = 100;
inline constexpr uint32_t kSealLifetimeModel = 101;
// Generation pipeline artifacts (src/trace/trace_sink.h,
// src/core/gen_checkpoint.h). A segment's `extra` word is its index in the
// manifest; a generation checkpoint's is its next-trace cursor.
inline constexpr uint32_t kSealTraceSegment = 102;
inline constexpr uint32_t kSealGenCheckpoint = 103;

Status WriteSealedFile(const std::string& path, uint32_t tag, uint64_t extra,
                       std::string_view payload);

// `extra` may be nullptr when the caller does not use it.
Status ReadSealedFile(const std::string& path, uint32_t tag, uint64_t* extra,
                      std::string* payload);

}  // namespace cloudgen

#endif  // SRC_UTIL_SEALED_FILE_H_
