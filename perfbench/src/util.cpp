#include "util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

#include "common/clock.h"

namespace perfbench {
namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

bool in_family(const std::string& name, const std::string& family) {
  if (name.compare(0, family.size(), family) != 0) return false;
  return name.size() == family.size() || name[family.size()] == '{';
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double wall_s() { return static_cast<double>(xt::now_ns()) * 1e-9; }

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand back what set-up freed but the allocator kept
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t family_counter(const xt::MetricsRegistry& registry,
                             const std::string& family) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (in_family(name, family)) total += value;
  }
  return total;
}

double family_hist_sum(const xt::MetricsRegistry& registry,
                       const std::string& family) {
  double total = 0.0;
  for (const auto& [name, hist] : registry.histograms()) {
    if (in_family(name, family)) total += hist->sum();
  }
  return total;
}

std::uint64_t family_hist_count(const xt::MetricsRegistry& registry,
                                const std::string& family) {
  std::uint64_t total = 0;
  for (const auto& [name, hist] : registry.histograms()) {
    if (in_family(name, family)) total += hist->count();
  }
  return total;
}

double family_hist_mean(const xt::MetricsRegistry& registry,
                        const std::string& family) {
  const std::uint64_t count = family_hist_count(registry, family);
  return count == 0 ? 0.0
                    : family_hist_sum(registry, family) / static_cast<double>(count);
}

std::uint64_t SpanLog::begin(const std::string& name, std::uint64_t parent) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.start_ns = xt::now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanLog::end(std::uint64_t id) {
  Span& span = spans_[id - 1];
  span.end_ns = xt::now_ns();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_ns == 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << json_string(span.name)
        << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << json_number(static_cast<double>(span.start_ns) / 1e3)
        << ",\"dur\":"
        << json_number(static_cast<double>(span.end_ns - span.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

JsonLine& JsonLine::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonLine& JsonLine::integer(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonLine& JsonLine::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonLine& JsonLine::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
  return *this;
}

JsonLine& JsonLine::list(const std::string& key, const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ",";
    text += json_number(values[i]);
  }
  fields_.emplace_back(key, text + "]");
  return *this;
}

std::string JsonLine::text() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t checksum64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 0x100000001B3ULL;
  }
  for (; i < size; ++i) h = (h ^ data[i]) * 0x100000001B3ULL;
  return h;
}

}  // namespace perfbench
