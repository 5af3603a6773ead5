// Shared plumbing of the repository benchmark: run configuration and
// result record, clocks, order statistics, hashing, a small JSON
// reader for server responses, and the peak-RSS probe.

#ifndef ROXBENCH_UTIL_H_
#define ROXBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>


namespace roxbench {

// What one invocation runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Online processors; sizes the engine pool and the client count.
  size_t nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one invocation reports. `failed` counts operations that
// returned an error (or a truncated response); `correct` is false when
// any operation that did not fail returned a result that differs from
// the independent oracle.
struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  // Human-readable diagnostics (printed to stderr, kept in the record).
  std::vector<std::string> notes;
  // The traced run's per-layer self-time table, rendered.
  std::string layer_table;
  // Every untraced latency and publish-round time (mean ms per cycle),
  // in ms: a run split over several processes pools them for its
  // quantiles.
  std::vector<double> latency_samples, publish_samples;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a wrong result (keeps the first few messages).
  void Mismatch(const std::string& what);
};

// Monotonic time in nanoseconds / milliseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// Linear-interpolated quantile (q in [0,1]) of unsorted values; 0 when
// empty. Sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// FNV-1a over bytes, and an order-sensitive combination of hashes.
uint64_t Fnv1a(std::string_view bytes);
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
}

// Minimal JSON value + reader (the server's response bodies). Numbers
// are doubles; objects keep member order.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* Find(std::string_view key) const;
};
bool ParseJson(std::string_view text, Json* out, std::string* error);

// Appends `s` as a JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);
// Shortest round-tripping rendering of a finite double.
std::string JsonNumber(double v);

}  // namespace roxbench

#endif  // ROXBENCH_UTIL_H_
