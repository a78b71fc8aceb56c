#pragma once

// Helpers shared by the end-to-end runs and the layer replay: clocks,
// process CPU and RSS, order statistics, registry family sums, the
// benchmark's own span recorder, and a flat JSON object writer.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_s();
/// User + system CPU of the whole process (all threads), seconds.
double process_cpu_s();
/// CPU of the calling thread only, seconds.
double thread_cpu_s();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// Restart the peak-RSS high-water mark at the current RSS (Linux
/// /proc/self/clear_refs), so peak_rss_mb() covers only what follows.
/// False when the kernel refuses; the peak then includes set-up.
bool reset_peak_rss();

/// Exact order statistic by linear interpolation between closest ranks
/// (the same rule as numpy's default). `q` in [0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Sum of every counter / histogram sum / histogram count whose name is
/// `family` or `family{...}` (all label sets of one metric family).
std::uint64_t family_counter(const xt::MetricsRegistry& registry,
                             const std::string& family);
double family_hist_sum(const xt::MetricsRegistry& registry,
                       const std::string& family);
std::uint64_t family_hist_count(const xt::MetricsRegistry& registry,
                                const std::string& family);
/// Exact mean over a histogram family (sum of sums / sum of counts).
double family_hist_mean(const xt::MetricsRegistry& registry,
                        const std::string& family);

/// One benchmark-side span: a timed call into a layer of the program.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
};

/// Spans kept in memory for the whole run and written out once at the end
/// (Chrome trace_event JSON), so recording never does I/O.
class SpanLog {
 public:
  /// Open a span and return its id; `parent` links it to its cause.
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0);
  /// Close span `id`; returns its duration in seconds.
  double end(std::uint64_t id);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Write every span as Chrome trace JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Time `fn` inside a span named `name`; returns the span's seconds.
template <typename Fn>
double timed(SpanLog& log, const std::string& name, Fn&& fn,
             std::uint64_t parent = 0) {
  const std::uint64_t id = log.begin(name, parent);
  fn();
  return log.end(id);
}

/// Flat JSON object builder: numbers, booleans and strings by key, printed
/// in insertion order on one line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value);
  JsonLine& integer(const std::string& key, std::int64_t value);
  JsonLine& boolean(const std::string& key, bool value);
  JsonLine& str(const std::string& key, const std::string& value);
  JsonLine& list(const std::string& key, const std::vector<double>& values);
  [[nodiscard]] std::string text() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Deterministic 64-bit generator for benchmark inputs (splitmix64).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// The benchmark's own payload checksum (FNV-1a over 64-bit words), kept
/// independent of the program's crc32 so the output check does not trust
/// the code it measures.
std::uint64_t checksum64(const std::uint8_t* data, std::size_t size);

}  // namespace perfbench
