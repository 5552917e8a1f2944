#ifndef GRALMATCH_SERVE_FRAMING_H_
#define GRALMATCH_SERVE_FRAMING_H_

/// \file framing.h
/// Shared framing primitives: the pipeline checkpoint (checkpoint.h) and
/// the RPC wire format (net/wire.h) frame their bytes the same way (8-byte
/// magic, u32 version, length-prefixed body, trailing whole-image FNV-1a 64
/// checksum), and checkpoints persist through the atomic temp-file + rename
/// discipline below. One implementation here keeps the byte disciplines
/// from drifting.

#include <cstdint>
#include <string>

#include "common/status.h"

namespace gralmatch {

class BinaryReader;

/// Write `image` to `path` atomically and durably: a uniquely named temp
/// file next to `path` (pid + per-process counter, so concurrent savers to
/// the same path never share a temp file) is fsynced and then renamed over
/// it, and the parent directory is fsynced after the rename — a crash or
/// power loss at any point leaves the final name holding either the
/// previous complete image or the new complete image, never torn bytes.
Status WriteFileAtomically(const std::string& path, const std::string& image);

/// Read the complete file into one buffer (checkpoints scale with the full
/// pipeline state, so the restore path avoids stream-copy detours).
Result<std::string> ReadWholeFile(const std::string& path);

/// Consume and verify an 8-byte magic; `what` names the format in the
/// error ("not a gralmatch <what> (bad magic bytes)").
Status CheckMagicBytes(BinaryReader* reader, const char (&magic)[8],
                       const std::string& what);

/// Consume and verify a u32 format version: versions newer than
/// `current_version` are rejected, not misread, and version 0 is invalid.
/// The accepted version is returned through `parsed_version` (optional) —
/// multi-version readers branch their body layout on it.
Status CheckFormatVersion(BinaryReader* reader, uint32_t current_version,
                          const std::string& what,
                          uint32_t* parsed_version = nullptr);

/// Verify the trailing whole-image checksum (the last 8 bytes against the
/// FNV-1a 64 of everything before them), returning its value.
Result<uint64_t> CheckTrailingChecksum(const std::string& image,
                                       const std::string& what);

}  // namespace gralmatch

#endif  // GRALMATCH_SERVE_FRAMING_H_
