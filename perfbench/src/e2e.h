#pragma once

// End-to-end runs: one workload, a fixed amount of work, one process.

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct E2eOptions {
  Workload workload = Workload::kPpoPaperNic;
  std::uint64_t seed = 1;
  /// PPO: learner iterations. Channel: messages per sender.
  std::uint64_t work = 1;
  /// Turn on the program's own lifecycle tracing (the traced run).
  bool tracing = false;
};

/// Run the workload once and return the result as one JSON object line
/// (see run.py for the keys). `correct` is false when an output check
/// failed; the reasons are in the line's "errors".
std::string run_e2e(const E2eOptions& options, bool& correct);

/// Set the workload up `reps` times (construction to the first learner
/// update, or to the first delivered channel message), tearing down in
/// between. Returns a JSON line with every set-up time.
std::string run_setups(Workload workload, std::uint64_t seed, int reps,
                       bool& correct);

}  // namespace perfbench
