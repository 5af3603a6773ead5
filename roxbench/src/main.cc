// roxbench: the repository benchmark (see ../README.md).
//
//   roxbench --workload=paper_joins|theta_bulk|serve_mix
//            --seed=N --seconds=S --trace=0|1
//   roxbench --selftest
//
// Sets the workload up several times (setup_s is the median), runs
// its measured window, and prints on stdout: a run record
// ("ROXBENCH_RECORD {...}", every metric with its unit plus notes and
// the traced run's layer table), for an untraced run the raw latency
// and publish-round samples ("ROXBENCH_SAMPLES {...}"), and, last, the
// result object
// {"correct", "attempted", "failed", "metrics"}. --trace=0 reports the
// end-to-end metrics, --trace=1 the per-layer metrics.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "harness.h"
#include "util.h"

namespace roxbench {

int RunSelfTest();

namespace {

// Setup runs at least kMinSetupRuns times and until kMinSetupSeconds
// are spent (at most kMaxSetupRuns): a small setup needs more runs for
// a steady median.
constexpr int kMinSetupRuns = 5, kMaxSetupRuns = 25;
constexpr double kMinSetupSeconds = 1.5;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "roxbench: %s\nusage: roxbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 | --selftest\n",
               why);
  std::exit(2);
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "paper_joins") return MakePaperJoins();
  if (name == "theta_bulk") return MakeThetaBulk();
  if (name == "serve_mix") return MakeServeMix();
  return nullptr;
}

std::string RenderMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, metrics[i].name);
    out += ": {\"value\": " + JsonNumber(metrics[i].value) + ", \"unit\": ";
    AppendJsonString(&out, metrics[i].unit);
    out += "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage(("bad argument: " + arg).c_str());
    }
    std::string key = arg.substr(2, eq - 2), value = arg.substr(eq + 1);
    uint64_t v = 0;
    if (key == "workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (key == "seed" && ParseUint(value, &v)) {
      cfg.seed = v;
    } else if (key == "seconds" && ParseUint(value, &v) && v > 0) {
      cfg.seconds = static_cast<double>(v);
    } else if (key == "trace" && ParseUint(value, &v) && v <= 1) {
      cfg.trace = v == 1;
    } else {
      Usage(("bad argument: " + arg).c_str());
    }
  }
  if (selftest) return RunSelfTest();
  if (!have_workload || Make(cfg.workload) == nullptr) {
    Usage("unknown or missing --workload");
  }
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  cfg.nproc = n > 0 ? static_cast<size_t>(n) : 1;

  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Workload> workload;
  double setup_total_s = 0;
  for (int i = 0; i < kMaxSetupRuns; ++i) {
    workload.reset();  // tear the previous setup down first
    int64_t start = NowNs();
    workload = Make(cfg.workload);
    rox::Status st = workload->Setup(cfg);
    if (!st.ok()) {
      std::fprintf(stderr, "roxbench: setup of %s failed: %s\n",
                   cfg.workload.c_str(), st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsSince(start) / 1e3);
    generate_s.push_back(workload->generate_s);
    setup_total_s += setup_s.back();
    if (i + 1 >= kMinSetupRuns && setup_total_s >= kMinSetupSeconds) break;
  }

  RunOutput out;
  MetricMap e2e, layers;
  workload->Run(cfg, &out, &e2e, &layers);
  workload.reset();
  e2e["setup_s"] = Median(setup_s);
  e2e["peak_rss_mb"] = PeakRssMb();
  layers["workload.generate_s"] = Median(generate_s);

  const std::vector<MetricSpec>& specs =
      cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  const MetricMap& values = cfg.trace ? layers : e2e;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end() && !cfg.trace) {
      std::fprintf(stderr, "roxbench: %s produced no %s\n",
                   cfg.workload.c_str(), spec.name);
      return 1;
    }
    out.Add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "roxbench: no operation was attempted\n");
    return 1;
  }

  std::string record = "{\"workload\": ";
  AppendJsonString(&record, cfg.workload);
  record += ", \"seed\": " + std::to_string(cfg.seed) +
            ", \"seconds\": " + JsonNumber(cfg.seconds) +
            ", \"trace\": " + (cfg.trace ? "1" : "0") +
            ", \"nproc\": " + std::to_string(cfg.nproc) + ", \"compiler\": ";
  AppendJsonString(&record, ROXBENCH_COMPILER);
  record += ", \"build_type\": ";
  AppendJsonString(&record, ROXBENCH_BUILD_TYPE);
  record += ", \"setup_runs_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    record += (i > 0 ? ", " : "") + JsonNumber(setup_s[i]);
  }
  record += "], \"attempted\": " + std::to_string(out.attempted) +
            ", \"failed\": " + std::to_string(out.failed) +
            ", \"correct\": " + (out.correct ? "true" : "false") +
            ", \"metrics\": " + RenderMetrics(out.metrics) + ", \"notes\": [";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    if (i > 0) record += ", ";
    AppendJsonString(&record, out.notes[i]);
  }
  record += "], \"layer_table\": ";
  AppendJsonString(&record, out.layer_table);
  record += "}";

  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (!out.layer_table.empty()) {
    std::fprintf(stderr, "%s", out.layer_table.c_str());
  }
  std::printf("ROXBENCH_RECORD %s\n", record.c_str());
  if (!cfg.trace) {
    std::string samples = "{\"latency_ms\": [";
    for (size_t i = 0; i < out.latency_samples.size(); ++i) {
      samples += (i > 0 ? ", " : "") + JsonNumber(out.latency_samples[i]);
    }
    samples += "], \"publish_ms\": [";
    for (size_t i = 0; i < out.publish_samples.size(); ++i) {
      samples += (i > 0 ? ", " : "") + JsonNumber(out.publish_samples[i]);
    }
    std::printf("ROXBENCH_SAMPLES %s]}\n", samples.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              RenderMetrics(out.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace roxbench

int main(int argc, char** argv) { return roxbench::Main(argc, argv); }
