#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "classical/rox_order.h"
#include "common/str_util.h"
#include "rox/optimizer.h"

namespace rox::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg.substr(2), "true");
    } else {
      kv_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
  used_.assign(kv_.size(), false);
}

namespace {

// Exits with the usage status when a flag value fails to parse.
[[noreturn]] void BadFlagValue(const std::string& key,
                               const std::string& value, const char* want) {
  std::fprintf(stderr, "bad value for --%s: \"%s\" (want %s)\n", key.c_str(),
               value.c_str(), want);
  std::exit(2);
}

double ParseDoubleOrDie(const std::string& key, const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0') {
    BadFlagValue(key, value, "a number");
  }
  return v;
}

int64_t ParseIntOrDie(const std::string& key, const std::string& value) {
  char* end = nullptr;
  int64_t v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0') {
    BadFlagValue(key, value, "an integer");
  }
  return v;
}

}  // namespace

double Flags::GetDouble(const std::string& key, double def) const {
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      used_[i] = true;
      return ParseDoubleOrDie(key, kv_[i].second);
    }
  }
  return def;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      used_[i] = true;
      return ParseIntOrDie(key, kv_[i].second);
    }
  }
  return def;
}

std::string Flags::GetString(const std::string& key, std::string def) const {
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      used_[i] = true;
      return kv_[i].second;
    }
  }
  return def;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      used_[i] = true;
      const std::string& v = kv_[i].second;
      if (v == "true" || v == "1") return true;
      if (v == "false" || v == "0") return false;
      BadFlagValue(key, v, "true/false/1/0");
    }
  }
  return def;
}

void Flags::FailOnUnused() const {
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (!used_[i]) {
      std::fprintf(stderr, "unknown flag: --%s\n", kv_[i].first.c_str());
      std::exit(2);
    }
  }
}

std::vector<Combo> SampleCombos(int per_group, uint64_t seed) {
  const auto& specs = Table3Documents();
  std::vector<Combo> groups[3];
  const std::string names[3] = {"2:2", "3:1", "4:0"};
  int n = static_cast<int>(specs.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (int c = b + 1; c < n; ++c) {
        for (int d = c + 1; d < n; ++d) {
          Combo combo;
          combo.spec_indices = {a, b, c, d};
          combo.group = AreaGroup(specs, combo.spec_indices);
          for (int g = 0; g < 3; ++g) {
            if (combo.group == names[g]) groups[g].push_back(combo);
          }
        }
      }
    }
  }
  Rng rng(seed);
  std::vector<Combo> out;
  for (auto& g : groups) {
    if (per_group > 0 && static_cast<int>(g.size()) > per_group) {
      rng.Shuffle(g);
      g.resize(per_group);
    }
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

Result<Corpus> ComboCorpus(const Combo& combo, const DblpGenOptions& gen) {
  std::vector<int> idx(combo.spec_indices.begin(), combo.spec_indices.end());
  return GenerateDblpCorpus(gen, idx);
}

std::optional<ComboMeasurement> MeasureCombo(const Corpus& corpus,
                                             const Combo& combo,
                                             const RoxOptions& rox_options) {
  std::vector<DocId> docs = {0, 1, 2, 3};
  ComboMeasurement m;
  m.combo = combo;
  m.combo.correlation = CorrelationC(corpus, {0, 1, 2, 3});

  // Sub-millisecond runs are repeated and the minimum taken, so fixed
  // noise (allocator warm-up, cache state) does not swamp the ratios.
  constexpr double kMinMeasurableMs = 1.0;
  constexpr int kMaxReps = 5;

  // --- the adaptive ROX run -------------------------------------------------
  DblpQueryGraph q = BuildDblpJoinGraph(corpus, docs);
  std::optional<RoxResult> best_rox;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    RoxOptimizer rox(corpus, q.graph, rox_options);
    auto rox_result = rox.Run();
    if (!rox_result.ok()) {
      std::fprintf(stderr, "ROX failed: %s\n",
                   rox_result.status().ToString().c_str());
      return std::nullopt;
    }
    double full = rox_result->stats.sampling_time.TotalMillis() +
                  rox_result->stats.execution_time.TotalMillis();
    double best_full = !best_rox ? 1e300
                                 : best_rox->stats.sampling_time.TotalMillis() +
                                       best_rox->stats.execution_time
                                           .TotalMillis();
    if (!best_rox || full < best_full) best_rox = std::move(*rox_result);
    if (full >= kMinMeasurableMs && rep >= 1) break;
  }
  const RoxResult& rox_result = *best_rox;
  m.result_rows = rox_result.table.NumRows();
  if (m.result_rows == 0) return std::nullopt;  // paper omits empty combos
  double sampling_ms = rox_result.stats.sampling_time.TotalMillis();
  double exec_ms = rox_result.stats.execution_time.TotalMillis();
  m.rox_full_ms = sampling_ms + exec_ms;
  m.rox_pure_ms = exec_ms;
  m.sampling_overhead_pct = exec_ms > 0 ? 100.0 * sampling_ms / exec_ms : 0;

  // --- canonical classes ----------------------------------------------------
  CanonicalPlanExecutor exec(corpus, docs);
  auto cards = ComputeOrderCardinalities(corpus, docs);
  const OrderCardinality* smallest = &cards[0];
  const OrderCardinality* largest = &cards[0];
  for (const auto& oc : cards) {
    if (oc.cumulative < smallest->cumulative) smallest = &oc;
    if (oc.cumulative > largest->cumulative) largest = &oc;
  }
  JoinOrder classical = ClassicalJoinOrder(corpus, docs);
  m.classical_label = classical.Label();

  auto rox_order = RoxJoinOrderFromRun(q, rox_result);
  JoinOrder rox_jo = rox_order.ok() ? *rox_order : classical;
  m.rox_order_label = rox_jo.Label();

  auto repeat_min = [&](auto&& run_once) -> double {
    double best = -1;
    for (int rep = 0; rep < kMaxReps; ++rep) {
      double t = run_once();
      if (t < 0) return t;
      if (best < 0 || t < best) best = t;
      if (best >= kMinMeasurableMs && rep >= 1) break;
    }
    return best;
  };
  auto run_best = [&](const JoinOrder& o) {
    return repeat_min([&]() {
      auto r = exec.RunBestPlacement(o);
      return r.ok() ? r->elapsed_ms : -1.0;
    });
  };
  m.smallest_ms = run_best(smallest->order);
  m.classical_ms = run_best(classical);
  m.rox_order_ms = run_best(rox_jo);
  m.largest_ms = repeat_min([&]() {
    auto r = exec.RunWorstPlacement(largest->order);
    return r.ok() ? r->elapsed_ms : -1.0;
  });

  m.optimal_ms = m.rox_pure_ms;
  for (double v : {m.smallest_ms, m.classical_ms, m.rox_order_ms}) {
    if (v > 0 && v < m.optimal_ms) m.optimal_ms = v;
  }
  return m;
}

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(std::max(x, 1e-9));
  return std::exp(s / xs.size());
}

}  // namespace rox::bench
