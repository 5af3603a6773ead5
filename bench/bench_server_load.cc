// Closed-loop load bench for the roxd network front end (DESIGN.md
// §15). Two phases over one in-process HttpServer stack:
//
//   sustained  16 persistent-connection clients, replay-enabled
//              engine, open admission — the headline q/s and latency
//              percentiles (these are the trended metrics).
//   overload   admission capacity 2 (1 running + 1 queued), cache
//              disabled so every query really executes, and
//              clients = 10 x capacity (>= 16): most requests must be
//              shed with 429 while the server stays healthy.
//
//   bench_server_load [--smoke] [--overload] [--clients=N]
//                     [--seconds=S] [--xmark_scale=0.15]
//                     [--num_threads=8] [--p95_bound_ms=10000]
//                     [--out=BENCH_server_load.json]
//
// --smoke shrinks both phases for CI; --overload runs the overload
// phase alone (the gate check, no trended metrics). The bench exits 1 when any
// degradation gate fails — zero transport errors, zero 5xx, zero
// leaked connections/in-flight queries after the clients hang up,
// nonzero sheds under overload, and overload p95 under the structural
// bound (pool backlog + two serialized executions) — so CI catches a
// leak or shed-path regression, not just a slowdown.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "index/corpus.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/xmark.h"

namespace {

using rox::server::HttpClient;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

struct PhaseConfig {
  const char* name;
  int clients;
  double seconds;
  bool overload;  // slow queries mixed in, deadline header, shed backoff
  size_t max_concurrent;
  size_t max_queued;
  bool enable_cache;
};

struct PhaseResult {
  uint64_t ok = 0;
  uint64_t shed = 0;          // 429
  uint64_t deadline_504 = 0;  // graceful under overload, not a bug
  uint64_t other_4xx = 0;
  uint64_t server_5xx = 0;
  uint64_t transport_errors = 0;
  uint64_t leaked_connections = 0;
  uint64_t leaked_inflight = 0;
  double wall_s = 0;
  double qps = 0;
  double p50_ms = 0, p95_ms = 0, max_ms = 0;
};

}  // namespace

static PhaseResult RunPhase(const PhaseConfig& cfg, double xmark_scale,
                            size_t num_threads) {
  using namespace rox;
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = static_cast<uint32_t>(4350 * xmark_scale);
  gen.persons = static_cast<uint32_t>(5100 * xmark_scale);
  gen.open_auctions = static_cast<uint32_t>(2400 * xmark_scale);
  auto doc = GenerateXmarkDocument(corpus, gen);
  if (!doc.ok()) {
    std::fprintf(stderr, "xmark generation failed: %s\n",
                 doc.status().ToString().c_str());
    std::exit(1);
  }

  engine::EngineOptions eopts;
  eopts.num_threads = num_threads;
  eopts.max_concurrent_queries = cfg.max_concurrent;
  eopts.max_queued_queries = cfg.max_queued;
  eopts.enable_cache = cfg.enable_cache;
  engine::Engine eng(std::move(corpus), eopts);

  server::ServerOptions sopts;
  sopts.port = 0;  // ephemeral: parallel CI jobs cannot collide
  server::HttpServer srv(&eng, sopts);
  Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  const uint16_t port = srv.port();

  // The query mix: cheap scans, with the theta join mixed in under
  // overload so admission slots are genuinely occupied for a while.
  const std::vector<std::string> fast = {
      R"(for $p in doc("xmark.xml")//person return $p)",
      R"(for $i in doc("xmark.xml")//item return $i)",
      R"(for $a in doc("xmark.xml")//open_auction return $a)",
  };
  const std::string slow = XmarkQuantityIncreaseQuery(CmpOp::kLt, 1);

  std::atomic<bool> stop{false};
  std::vector<PhaseResult> tallies(static_cast<size_t>(cfg.clients));
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(cfg.clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(cfg.clients));
  const double phase_start_ms = NowMs();

  for (int c = 0; c < cfg.clients; ++c) {
    workers.emplace_back([&, c] {
      PhaseResult& tally = tallies[static_cast<size_t>(c)];
      std::vector<double>& lat = latencies[static_cast<size_t>(c)];
      HttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++tally.transport_errors;
        return;
      }
      char tag[32];
      std::snprintf(tag, sizeof(tag), "bench:%s-%d", cfg.name, c);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Under overload every 4th request is the slow theta join;
        // otherwise rotate through the cheap scans.
        const std::string& q = (cfg.overload && n % 4 == 3)
                                   ? slow
                                   : fast[(static_cast<size_t>(c) + n) %
                                          fast.size()];
        ++n;
        std::vector<std::pair<std::string, std::string>> headers = {
            {"X-Client-Tag", tag}};
        if (cfg.overload) headers.emplace_back("X-Deadline-Ms", "8000");
        double t0 = NowMs();
        auto resp = client.Request("POST", "/query", headers, q);
        if (!resp.ok()) {
          // A torn connection mid-bench is a failed gate unless we
          // caused it by stopping.
          if (!stop.load(std::memory_order_acquire)) {
            ++tally.transport_errors;
          }
          if (!client.Connect("127.0.0.1", port).ok()) return;
          continue;
        }
        if (resp->status == 200) {
          ++tally.ok;
          lat.push_back(NowMs() - t0);
        } else if (resp->status == 429) {
          ++tally.shed;
          // Back off briefly after a shed: an un-paced retry storm
          // starves the query that IS running of CPU and measures
          // nothing but socket churn.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        } else if (resp->status == 504) {
          ++tally.deadline_504;
        } else if (resp->status >= 500) {
          ++tally.server_5xx;
        } else {
          ++tally.other_4xx;
        }
      }
      client.Close();
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  PhaseResult total;
  total.wall_s = (NowMs() - phase_start_ms) / 1e3;

  // Leak gate: every client disconnected; the server must agree and
  // have nothing in flight shortly after.
  bool drained = false;
  for (int i = 0; i < 500; ++i) {
    server::ServerStats snap = srv.Snapshot();
    if (snap.open_connections == 0 && snap.queries_inflight == 0) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server::ServerStats snap = srv.Snapshot();
  srv.Stop();
  if (!drained) {
    total.leaked_connections = snap.open_connections;
    total.leaked_inflight = snap.queries_inflight;
  }

  std::vector<double> lat;
  for (int c = 0; c < cfg.clients; ++c) {
    const PhaseResult& t = tallies[static_cast<size_t>(c)];
    total.ok += t.ok;
    total.shed += t.shed;
    total.deadline_504 += t.deadline_504;
    total.other_4xx += t.other_4xx;
    total.server_5xx += t.server_5xx;
    total.transport_errors += t.transport_errors;
    lat.insert(lat.end(), latencies[static_cast<size_t>(c)].begin(),
               latencies[static_cast<size_t>(c)].end());
  }
  std::sort(lat.begin(), lat.end());
  total.qps = total.wall_s > 0
                  ? static_cast<double>(total.ok) / total.wall_s
                  : 0;
  total.p50_ms = Quantile(lat, 0.50);
  total.p95_ms = Quantile(lat, 0.95);
  total.max_ms = lat.empty() ? 0 : lat.back();

  std::printf(
      "%s: %d clients for %.1fs -> %llu ok (%.1f q/s), %llu shed, "
      "%llu deadline 504, %llu 4xx, %llu 5xx, %llu transport errors\n"
      "  latency p50 %.2f ms, p95 %.2f ms, max %.2f ms; "
      "leaked conns %llu, leaked inflight %llu\n",
      cfg.name, cfg.clients, total.wall_s,
      static_cast<unsigned long long>(total.ok), total.qps,
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.deadline_504),
      static_cast<unsigned long long>(total.other_4xx),
      static_cast<unsigned long long>(total.server_5xx),
      static_cast<unsigned long long>(total.transport_errors),
      total.p50_ms, total.p95_ms, total.max_ms,
      static_cast<unsigned long long>(total.leaked_connections),
      static_cast<unsigned long long>(total.leaked_inflight));
  return total;
}

int main(int argc, char** argv) {
  using rox::bench::Flags;
  Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const bool overload_only = flags.GetBool("overload", false);
  const double xmark_scale = flags.GetDouble("xmark_scale", 0.15);
  // Pool threads double as dispatch workers: provisioning more than
  // the admission cap keeps the shed path responsive while a big
  // query holds all execution slots.
  const size_t num_threads =
      static_cast<size_t>(flags.GetInt("num_threads", 8));
  const double p95_bound_ms = flags.GetDouble("p95_bound_ms", 10000);
  const std::string out_path =
      flags.GetString("out", "BENCH_server_load.json");
  const int clients =
      static_cast<int>(flags.GetInt("clients", smoke ? 8 : 16));
  const double seconds = flags.GetDouble("seconds", smoke ? 1.0 : 5.0);
  flags.FailOnUnused();

  PhaseConfig sustained_cfg;
  sustained_cfg.name = "sustained";
  sustained_cfg.clients = clients;
  sustained_cfg.seconds = seconds;
  sustained_cfg.overload = false;
  sustained_cfg.max_concurrent = 0;  // unlimited
  sustained_cfg.max_queued = 0;
  sustained_cfg.enable_cache = true;

  // 10x the admission capacity of 2 (1 running + 1 queued), and at
  // least 16 clients either way.
  PhaseConfig overload_cfg;
  overload_cfg.name = "overload";
  overload_cfg.clients = std::max(20, clients);
  overload_cfg.seconds = seconds;
  overload_cfg.overload = true;
  overload_cfg.max_concurrent = 1;
  overload_cfg.max_queued = 1;
  overload_cfg.enable_cache = false;  // every query really executes

  PhaseResult sustained;
  if (!overload_only) {
    sustained = RunPhase(sustained_cfg, xmark_scale, num_threads);
  }
  PhaseResult overload = RunPhase(overload_cfg, xmark_scale, num_threads);

  // --- degradation gates ---------------------------------------------------
  bool failed = false;
  auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      failed = true;
    }
  };
  std::vector<const PhaseResult*> gated = {&overload};
  if (!overload_only) gated.push_back(&sustained);
  for (const PhaseResult* p : gated) {
    gate(p->transport_errors == 0, "transport errors (torn connections)");
    gate(p->server_5xx == 0, "5xx responses");
    gate(p->ok > 0, "no query ever succeeded");
    gate(p->leaked_connections == 0 && p->leaked_inflight == 0,
         "connection/in-flight leak after clients disconnected");
  }
  gate(overload.shed > 0, "overload produced zero 429 sheds");
  gate(overload.p95_ms <= p95_bound_ms,
       "overload p95 exceeds the structural bound");

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  // The trended metrics come from the sustained phase; an
  // overload-only run has none (perf_trend skips an empty map).
  std::string metrics_block = "  \"metrics\": {}\n";
  if (!overload_only) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"metrics\": {\n"
                  "    \"qps_sustained\": %.1f,\n"
                  "    \"p50_ms\": %.3f,\n"
                  "    \"p95_ms\": %.3f\n"
                  "  }\n",
                  sustained.qps, sustained.p50_ms, sustained.p95_ms);
    metrics_block = buf;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"server_load\",\n"
      "  \"clients\": %d,\n"
      "  \"seconds\": %.1f,\n"
      "  \"xmark_scale\": %.3f,\n"
      "  \"num_threads\": %zu,\n"
      "  \"sustained\": {\n"
      "    \"requests_ok\": %llu,\n"
      "    \"requests_shed_429\": %llu\n"
      "  },\n"
      "  \"overload\": {\n"
      "    \"clients\": %d,\n"
      "    \"admission_capacity\": 2,\n"
      "    \"requests_ok\": %llu,\n"
      "    \"requests_shed_429\": %llu,\n"
      "    \"requests_deadline_504\": %llu,\n"
      "    \"requests_5xx\": %llu,\n"
      "    \"transport_errors\": %llu,\n"
      "    \"leaked_connections\": %llu,\n"
      "    \"p95_ms\": %.3f\n"
      "  },\n"
      "  \"gates_passed\": %s,\n"
      "%s"
      "}\n",
      clients, seconds, xmark_scale, num_threads,
      static_cast<unsigned long long>(sustained.ok),
      static_cast<unsigned long long>(sustained.shed),
      overload_cfg.clients, static_cast<unsigned long long>(overload.ok),
      static_cast<unsigned long long>(overload.shed),
      static_cast<unsigned long long>(overload.deadline_504),
      static_cast<unsigned long long>(overload.server_5xx),
      static_cast<unsigned long long>(overload.transport_errors),
      static_cast<unsigned long long>(overload.leaked_connections),
      overload.p95_ms, failed ? "false" : "true", metrics_block.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
