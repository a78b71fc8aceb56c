// perfbench_xt: the measuring half of the XingTian benchmark. run.py
// builds it and runs each mode in a fresh process:
//
//   perfbench_xt e2e    <workload> <seed> <work> <tracing 0|1>
//   perfbench_xt setup  <workload> <seed> <reps>
//   perfbench_xt replay <workload> <seed> <spans.json>
//
// Each mode prints one JSON object as its last stdout line and exits 1 when
// an output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2e.h"
#include "replay.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_xt e2e <workload> <seed> <work> <tracing>\n"
               "       perfbench_xt setup <workload> <seed> <reps>\n"
               "       perfbench_xt replay <workload> <seed> <spans.json>\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string mode = argv[1];
  const auto workload = perfbench::parse_workload(argv[2]);
  std::uint64_t seed = 0, arg = 0;
  if (!workload || !parse_u64(argv[3], seed)) return usage();

  bool correct = false;
  std::string line;
  if (mode == "e2e" && argc == 6) {
    std::uint64_t tracing = 0;
    if (!parse_u64(argv[4], arg) || arg == 0 || !parse_u64(argv[5], tracing)) {
      return usage();
    }
    line = perfbench::run_e2e({*workload, seed, arg, tracing != 0}, correct);
  } else if (mode == "setup" && argc == 5) {
    if (!parse_u64(argv[4], arg) || arg == 0) return usage();
    line = perfbench::run_setups(*workload, seed, static_cast<int>(arg), correct);
  } else if (mode == "replay" && argc == 5) {
    line = perfbench::run_replay(*workload, seed, argv[4], correct);
  } else {
    return usage();
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
