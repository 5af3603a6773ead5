// Engine throughput under concurrent load: sweeps RunBatch concurrency
// {1, 4, 16} over a mixed XMark + DBLP query set served from one shared
// corpus, and reports queries/sec, latency percentiles and cache hit
// rates per level.
//
// Protocol. One Engine serves the whole sweep (a session), so the
// first level pays the cold compiles/sampling and later levels benefit
// from the plan/weight/result cache exactly as a long-running server
// would — the per-level cache hit rates printed alongside make the
// source of every speedup visible. A second sweep with result caching
// disabled isolates the warm-start (plan + learned weight reuse)
// contribution: every query executes, but Phase 1 sampling is
// amortized. Pass --isolate=1 to instead give every level a fresh
// engine (cold cache), which measures pure thread scaling.
//
//   $ ./bench_engine_throughput [--repeat=6] [--threads=16] [--tau=100]
//        [--xmark_scale=0.4] [--dblp_tag_scale=0.2] [--isolate=0]
//        [--skip_warm_sweep=0] [--seed=42] [--min_qps=0]
//
// --trace_overhead=1 runs a different experiment instead of the
// sweeps: the same executed workload (result cache off) through two
// otherwise-identical engines, one with trace_level=off and one with
// trace_level=spans, interleaved best-of---overhead_rounds. It reports
// the spans-level q/s cost, writes --json (default
// BENCH_engine_trace_overhead.json), and fails when the overhead
// exceeds --max_trace_overhead_pct (0 disables the gate). This is the
// CI guard on the "near-zero cost when off, cheap when on" trace
// contract (DESIGN.md §12).
//
// --overload=1 runs the admission-control experiment instead
// (DESIGN.md §13): one engine with a small admission gate
// (--overload_cap concurrent, --overload_queue queued) is driven at
// 10x the cap. It fails unless every refused query carries a
// governance code (shed / deadline / cancelled — never a crash or an
// internal error), at least one query was shed, at least one ran to
// completion, and the p95 latency of completed queries stays under
// --overload_max_p95_ms — i.e. overload degrades by shedding, not by
// collapsing.
//
// Exit status: 0 only when every query of every level succeeded and
// every level reached --min_qps queries/sec (so a CI smoke run fails
// on broken flags or a silently failing workload instead of printing
// a zero-throughput table and exiting 0).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "workload/dblp.h"
#include "workload/xmark.h"

namespace rox::bench {
namespace {

Result<Corpus> BuildMixedCorpus(double xmark_scale, double dblp_tag_scale,
                                uint32_t dblp_scale) {
  Corpus corpus;
  XmarkGenOptions xmark;
  xmark.items = static_cast<uint32_t>(4350 * xmark_scale);
  xmark.persons = static_cast<uint32_t>(5100 * xmark_scale);
  xmark.open_auctions = static_cast<uint32_t>(2400 * xmark_scale);
  ROX_RETURN_IF_ERROR(GenerateXmarkDocument(corpus, xmark).status());

  DblpGenOptions dblp;
  dblp.scale = dblp_scale;
  dblp.tag_scale = dblp_tag_scale;
  // MLDM, INEX, SPIRE, ADBIS, EDBT, SIGMOD — two IR venues, three DB
  // venues and one DM venue from Table 3, small enough for quick runs
  // but with the same-area author overlap the ROX experiments rely on.
  ROX_RETURN_IF_ERROR(
      AddDblpDocuments(corpus, dblp, {7, 11, 12, 18, 19, 20}).status());
  return corpus;
}

std::vector<std::string> DistinctQueries() {
  return {
      // XMark: the paper's Q1 (3-way, cheap side).
      R"(let $d := doc("xmark.xml")
         for $o in $d//open_auction[.//current/text() < 145],
             $p in $d//person[.//province],
             $i in $d//item[./quantity = 1]
         where $o//bidder//personref/@person = $p/@id and
               $o//itemref/@item = $i/@id
         return $o)",
      // XMark: Qm1 (expensive side of the correlation).
      R"(let $d := doc("xmark.xml")
         for $o in $d//open_auction[.//current/text() > 145],
             $p in $d//person[.//province],
             $i in $d//item[./quantity = 1]
         where $o//bidder//personref/@person = $p/@id and
               $o//itemref/@item = $i/@id
         return $o)",
      // XMark: bidder -> person lookup join.
      R"(for $b in doc("xmark.xml")//bidder//personref,
             $p in doc("xmark.xml")//person
         where $b/@person = $p/@id
         return $p)",
      // XMark: selective single-document scans.
      R"(for $p in doc("xmark.xml")//person[.//province] return $p)",
      R"(for $i in doc("xmark.xml")//item[./quantity = 1] return $i)",
      // DBLP: 2-way and 3-way author joins (Figure 4 shape).
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author
         where $a/text() = $b/text()
         return $a)",
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author,
             $c in doc("ADBIS")//author
         where $a/text() = $b/text() and $a/text() = $c/text()
         return $a)",
      R"(for $a in doc("SPIRE")//author, $b in doc("INEX")//author
         where $a/text() = $b/text()
         return $a)",
  };
}

std::vector<std::string> BuildWorkload(int repeat, uint64_t seed) {
  std::vector<std::string> distinct = DistinctQueries();
  std::vector<std::string> workload;
  for (int r = 0; r < repeat; ++r) {
    workload.insert(workload.end(), distinct.begin(), distinct.end());
  }
  Rng rng(seed);
  rng.Shuffle(workload);
  return workload;
}

struct LevelResult {
  size_t concurrency = 0;
  double wall_ms = 0;
  double qps = 0;
  size_t failed = 0;
  engine::EngineStats stats;
};

LevelResult RunLevel(engine::Engine& eng,
                     const std::vector<std::string>& workload,
                     size_t concurrency) {
  eng.ResetStats();
  StopWatch watch;
  std::vector<engine::QueryResult> results =
      eng.RunBatch(workload, concurrency);
  LevelResult out;
  out.concurrency = concurrency;
  out.wall_ms = watch.ElapsedMillis();
  out.qps = 1000.0 * static_cast<double>(workload.size()) / out.wall_ms;
  out.stats = eng.Stats();
  size_t items = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status.ToString().c_str());
      ++out.failed;
    } else {
      items += r.items->size();
    }
  }
  if (out.failed > 0) {
    std::fprintf(stderr, "%zu of %zu queries failed\n", out.failed,
                 workload.size());
  }
  std::printf("  (checksum: %zu result items)\n", items);
  return out;
}

void PrintSweep(const std::vector<LevelResult>& levels) {
  std::printf(
      "  conc |  wall ms |    q/s | speedup |  p50 ms |  p95 ms | plan hit | "
      "result hit | warm runs\n");
  double base_qps = levels.empty() ? 0 : levels.front().qps;
  for (const LevelResult& lv : levels) {
    std::printf(
      "  %4zu | %8.1f | %6.1f |  %5.2fx | %7.2f | %7.2f | %7.0f%% | %9.0f%% "
      "| %9llu\n",
        lv.concurrency, lv.wall_ms, lv.qps, lv.qps / base_qps,
        lv.stats.p50_ms, lv.stats.p95_ms, 100 * lv.stats.plan_hit_rate(),
        100 * lv.stats.result_hit_rate(),
        static_cast<unsigned long long>(lv.stats.warm_started_runs));
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int repeat = static_cast<int>(flags.GetInt("repeat", 6));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 16));
  const uint64_t tau = static_cast<uint64_t>(flags.GetInt("tau", 100));
  const double xmark_scale = flags.GetDouble("xmark_scale", 0.4);
  const double dblp_tag_scale = flags.GetDouble("dblp_tag_scale", 0.2);
  const bool isolate = flags.GetBool("isolate", false);
  const bool skip_warm_sweep = flags.GetBool("skip_warm_sweep", false);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double min_qps = flags.GetDouble("min_qps", 0.0);
  const bool trace_overhead = flags.GetBool("trace_overhead", false);
  const int overhead_rounds =
      static_cast<int>(flags.GetInt("overhead_rounds", 5));
  const double max_trace_overhead_pct =
      flags.GetDouble("max_trace_overhead_pct", 0.0);
  const std::string json_path =
      flags.GetString("json", "BENCH_engine_trace_overhead.json");
  const bool overload = flags.GetBool("overload", false);
  const size_t overload_cap =
      static_cast<size_t>(flags.GetInt("overload_cap", 2));
  const size_t overload_queue =
      static_cast<size_t>(flags.GetInt("overload_queue", 4));
  const double overload_max_p95_ms =
      flags.GetDouble("overload_max_p95_ms", 10000.0);
  flags.FailOnUnused();

  const std::vector<size_t> levels = {1, 4, 16};
  std::vector<std::string> workload = BuildWorkload(repeat, seed);
  size_t total_failed = 0;
  double slowest_qps = -1.0;
  auto account = [&](const std::vector<LevelResult>& results) {
    for (const LevelResult& lv : results) {
      total_failed += lv.failed;
      if (slowest_qps < 0 || lv.qps < slowest_qps) slowest_qps = lv.qps;
    }
  };
  std::printf(
      "mixed XMark+DBLP workload: %zu distinct queries x %d = %zu instances, "
      "pool of %zu threads\n",
      DistinctQueries().size(), repeat, workload.size(), threads);

  auto make_engine = [&](bool cache_results,
                         obs::TraceLevel trace_level = obs::TraceLevel::kOff)
      -> Result<std::unique_ptr<engine::Engine>> {
    ROX_ASSIGN_OR_RETURN(Corpus corpus,
                         BuildMixedCorpus(xmark_scale, dblp_tag_scale, 1));
    engine::EngineOptions opts;
    opts.num_threads = threads;
    opts.cache_results = cache_results;
    opts.rox.tau = tau;
    opts.rox.seed = seed;
    opts.trace_level = trace_level;
    return std::make_unique<engine::Engine>(std::move(corpus), opts);
  };

  // --- overload experiment (replaces the sweeps) --------------------------
  if (overload) {
    const size_t drive = 10 * overload_cap;
    std::printf(
        "\n== overload: admission cap %zu (+%zu queued), driven at "
        "concurrency %zu (10x) ==\n",
        overload_cap, overload_queue, drive);
    auto corpus = BuildMixedCorpus(xmark_scale, dblp_tag_scale, 1);
    if (!corpus.ok()) {
      std::fprintf(stderr, "corpus: %s\n",
                   corpus.status().ToString().c_str());
      return 1;
    }
    engine::EngineOptions opts;
    opts.num_threads = drive;  // RunBatch can actually drive 10x the cap
    opts.cache_results = false;  // every admitted query must execute
    opts.rox.tau = tau;
    opts.rox.seed = seed;
    opts.max_concurrent_queries = overload_cap;
    opts.max_queued_queries = overload_queue;
    engine::Engine eng(std::move(*corpus), opts);

    StopWatch watch;
    std::vector<engine::QueryResult> results = eng.RunBatch(workload, drive);
    const double wall_ms = watch.ElapsedMillis();
    size_t ok = 0, shed = 0, deadline = 0, cancelled = 0, other = 0;
    for (const auto& r : results) {
      if (r.ok()) {
        ++ok;
        continue;
      }
      switch (r.status.code()) {
        case StatusCode::kResourceExhausted:
          ++shed;
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline;
          break;
        case StatusCode::kCancelled:
          ++cancelled;
          break;
        default:
          ++other;
          std::fprintf(stderr, "non-governance failure: %s\n",
                       r.status.ToString().c_str());
          break;
      }
    }
    engine::EngineStats stats = eng.Stats();
    std::printf(
        "  %zu queries in %.1f ms: %zu completed, %zu shed, %zu "
        "deadline-exceeded, %zu cancelled, %zu other failures\n"
        "  completed latency: p50 %.2f ms, p95 %.2f ms; peak admission "
        "queue %zu\n",
        results.size(), wall_ms, ok, shed, deadline, cancelled, other,
        stats.p50_ms, stats.p95_ms, stats.peak_admission_queued);
    if (other > 0) {
      std::fprintf(stderr,
                   "FAIL: %zu queries failed outside the governance "
                   "codes\n",
                   other);
      return 1;
    }
    if (shed == 0) {
      std::fprintf(stderr,
                   "FAIL: 10x drive shed nothing — the admission gate "
                   "did not engage\n");
      return 1;
    }
    if (ok == 0) {
      std::fprintf(stderr, "FAIL: no query completed under overload\n");
      return 1;
    }
    if (overload_max_p95_ms > 0 && stats.p95_ms > overload_max_p95_ms) {
      std::fprintf(stderr,
                   "FAIL: completed-query p95 %.2f ms > "
                   "--overload_max_p95_ms=%.2f\n",
                   stats.p95_ms, overload_max_p95_ms);
      return 1;
    }
    std::printf(
        "  PASS: overload degraded by shedding (bounded p95, no "
        "non-governance failures)\n");
    return 0;
  }

  // --- trace-overhead experiment (replaces the sweeps) --------------------
  if (trace_overhead) {
    std::printf(
        "\n== trace overhead: trace off vs spans, result cache off, "
        "concurrency 4, best of %d rounds ==\n",
        overhead_rounds);
    auto off_eng = make_engine(/*cache_results=*/false, obs::TraceLevel::kOff);
    auto spans_eng =
        make_engine(/*cache_results=*/false, obs::TraceLevel::kSpans);
    if (!off_eng.ok() || !spans_eng.ok()) {
      std::fprintf(stderr, "corpus: %s\n",
                   (!off_eng.ok() ? off_eng : spans_eng)
                       .status()
                       .ToString()
                       .c_str());
      return 1;
    }
    // Interleave the rounds so drift (thermal, page cache, a noisy CI
    // neighbor) hits both configurations alike; best-of-N on each side
    // then cancels it out.
    double best_off = 0, best_spans = 0;
    size_t failed = 0;
    for (int r = 0; r < overhead_rounds; ++r) {
      LevelResult off = RunLevel(**off_eng, workload, 4);
      LevelResult spans = RunLevel(**spans_eng, workload, 4);
      failed += off.failed + spans.failed;
      if (off.qps > best_off) best_off = off.qps;
      if (spans.qps > best_spans) best_spans = spans.qps;
      std::printf("  round %d: off %.1f q/s, spans %.1f q/s\n", r + 1,
                  off.qps, spans.qps);
    }
    double overhead_pct =
        best_off > 0 ? 100.0 * (best_off - best_spans) / best_off : 0.0;
    std::printf(
        "  best: off %.1f q/s, spans %.1f q/s -> spans overhead %.2f%%\n",
        best_off, best_spans, overhead_pct);
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      // overhead_pct stays outside "metrics": it is the bench's own
      // gate (below), not a trend series — it can be negative on a
      // noisy run, which fits neither a timing nor a rate for
      // perf_trend.py.
      std::fprintf(f,
                   "{\n  \"bench\": \"engine_trace_overhead\",\n"
                   "  \"rounds\": %d,\n  \"queries\": %zu,\n"
                   "  \"trace_overhead_pct\": %.3f,\n"
                   "  \"metrics\": {\n"
                   "    \"qps_trace_off\": %.2f,\n"
                   "    \"qps_trace_spans\": %.2f\n  }\n}\n",
                   overhead_rounds, workload.size(), overhead_pct, best_off,
                   best_spans);
      std::fclose(f);
      std::printf("  wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    if (failed > 0) {
      std::fprintf(stderr, "FAIL: %zu queries failed\n", failed);
      return 1;
    }
    if (max_trace_overhead_pct > 0 && overhead_pct > max_trace_overhead_pct) {
      std::fprintf(stderr,
                   "FAIL: spans-level tracing cost %.2f%% q/s "
                   "(> --max_trace_overhead_pct=%.2f)\n",
                   overhead_pct, max_trace_overhead_pct);
      return 1;
    }
    return 0;
  }

  // --- sweep 1: full session cache (plans + weights + results) -----------
  std::printf("\n== session sweep: plan/weight/result cache %s ==\n",
              isolate ? "(fresh engine per level)" : "(shared across levels)");
  {
    std::vector<LevelResult> results;
    auto eng = make_engine(/*cache_results=*/true);
    if (!eng.ok()) {
      std::fprintf(stderr, "corpus: %s\n", eng.status().ToString().c_str());
      return 1;
    }
    for (size_t c : levels) {
      if (isolate && !results.empty()) {
        eng = make_engine(true);
        if (!eng.ok()) return 1;
      }
      results.push_back(RunLevel(**eng, workload, c));
    }
    account(results);
    PrintSweep(results);
    double speedup4 = results[1].qps / results[0].qps;
    std::printf("  -> %.2fx queries/sec at concurrency 4 vs 1 (%s)\n",
                speedup4, speedup4 > 2.0 ? "PASS >2x" : "below 2x");
  }

  // --- sweep 2: warm-start only (every query executes) --------------------
  if (!skip_warm_sweep) {
    std::printf(
        "\n== warm-start sweep: result cache off, plans + learned weights "
        "reused ==\n");
    std::vector<LevelResult> results;
    auto eng = make_engine(/*cache_results=*/false);
    if (!eng.ok()) return 1;
    for (size_t c : levels) {
      if (isolate && !results.empty()) {
        eng = make_engine(false);
        if (!eng.ok()) return 1;
      }
      results.push_back(RunLevel(**eng, workload, c));
    }
    account(results);
    PrintSweep(results);
  }

  if (total_failed > 0) {
    std::fprintf(stderr, "FAIL: %zu queries failed\n", total_failed);
    return 1;
  }
  if (min_qps > 0 && slowest_qps < min_qps) {
    std::fprintf(stderr, "FAIL: slowest level ran %.2f q/s < --min_qps=%.2f\n",
                 slowest_qps, min_qps);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rox::bench

int main(int argc, char** argv) { return rox::bench::Main(argc, argv); }
