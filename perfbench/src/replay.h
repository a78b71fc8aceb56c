#pragma once

// The traced layer replay: each layer's operations for one workload,
// replayed through the program's public functions from fixed inputs and a
// reset state, timed by benchmark-side spans.

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Replay every layer at the workload's shapes. Returns one JSON line:
/// "m:<metric>" keys hold per-layer metrics, "c:<op>" keys hold the
/// process CPU seconds per call the reconciliation multiplies by the
/// registry's call counts. Spans are written to `spans_path` at the end.
std::string run_replay(Workload workload, std::uint64_t seed,
                       const std::string& spans_path, bool& correct);

}  // namespace perfbench
