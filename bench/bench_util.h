// Shared plumbing for the experiment benches: flag parsing, document-
// combination enumeration/grouping, and the per-combination plan-class
// measurement pipeline used by Figures 6-8.

#ifndef ROX_BENCH_BENCH_UTIL_H_
#define ROX_BENCH_BENCH_UTIL_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "classical/executor.h"
#include "classical/plans.h"
#include "common/rng.h"
#include "index/corpus.h"
#include "rox/options.h"
#include "workload/dblp.h"

namespace rox::bench {

// Minimal --key=value flag parser. Malformed arguments, unparsable
// numeric/bool values and (via FailOnUnused) unknown flags all exit
// with status 2, so CI smoke steps fail fast on a typo instead of
// silently benchmarking with a default-ish garbage value (strtod on
// "abc" is 0.0).
class Flags {
 public:
  Flags(int argc, char** argv);

  double GetDouble(const std::string& key, double def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  bool GetBool(const std::string& key, bool def) const;
  std::string GetString(const std::string& key, std::string def) const;

  // Flags that were consumed via Get* (for usage checking).
  void FailOnUnused() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  mutable std::vector<bool> used_;
};

// One 4-document combination with its group and correlation.
struct Combo {
  std::array<int, 4> spec_indices;  // into Table3Documents()
  std::string group;                // "2:2", "3:1", "4:0"
  double correlation = 0.0;         // filled after corpus generation
};

// Enumerates all 4-of-23 combinations that fall into the paper's three
// groups, then samples up to `per_group` of each (deterministically
// from `seed`); per_group <= 0 keeps everything.
std::vector<Combo> SampleCombos(int per_group, uint64_t seed);

// Measured timings of all plan classes for one combination (Fig. 6's
// y-values, before normalization).
struct ComboMeasurement {
  Combo combo;
  // Canonical classes (min over placements except `largest` = max).
  double smallest_ms = 0, largest_ms = 0, classical_ms = 0, rox_order_ms = 0;
  // The adaptive ROX runs.
  double rox_full_ms = 0;  // incl. sampling
  double rox_pure_ms = 0;  // excl. sampling
  // The fastest plan seen anywhere (normalization baseline).
  double optimal_ms = 0;
  std::string rox_order_label;
  std::string classical_label;
  uint64_t result_rows = 0;
  // ROX stats of interest.
  double sampling_overhead_pct = 0;  // 100*(full-pure)/pure
};

// Runs the whole Figure-6 measurement pipeline for one combination:
// generates nothing (corpus supplied), runs ROX, extracts its join
// order, enumerates order cardinalities, and measures the four
// canonical classes. Returns nullopt when the combination yields an
// empty result (the paper omits those).
std::optional<ComboMeasurement> MeasureCombo(const Corpus& corpus,
                                             const Combo& combo,
                                             const RoxOptions& rox_options);

// Generates the corpus for a combo (only its 4 documents).
Result<Corpus> ComboCorpus(const Combo& combo, const DblpGenOptions& gen);

// Geometric mean helper for report aggregation.
double GeoMean(const std::vector<double>& xs);

}  // namespace rox::bench

#endif  // ROX_BENCH_BENCH_UTIL_H_
