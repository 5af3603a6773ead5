// serve_mix: one persistent HTTP connection in a closed loop against an
// in-process HttpServer on an ephemeral port (roxd's callers, roxq and
// HttpClient, each block for their reply — hence the closed loop).
//
// The whole process — client, event loop and the nproc engine threads —
// runs on one CPU, so each request's hand-offs between threads are
// context switches on that CPU. Spread over the CPUs of a shared VM,
// every hand-off woke an idle virtual CPU, and that wake-up's cost,
// which depends on the host's other tenants, moved qps by 1.5x from one
// process to the next (README). The publish probe after the window
// runs unpinned, as on the other workloads.
//
// Keys: four templates (auction scans below / above a price, Q1, Qm1)
// at kThresholds prices each — kNumKeys keys, four times the engine's
// 256-entry cache. The client draws keys from a Zipf(kZipfS) law over a
// fixed popularity ranking (shuffled once with kRankSeed, so every run
// sees the same mix); --seed drives the draws and the optimizer seed.
// kWarmupRequests requests fill the cache before the measured window.
// Every result returns open_auction subtrees and fits under
// ServerOptions::max_response_rows (checked when the keys are built).
//
// Every response is checked: HTTP 200, status OK, `rows` as long as
// `row_count`, no truncation, and row_count plus a hash of the rows
// equal to the brute-force oracle's for that key.
//
// The HTTP stats carry only the engine's timings, so the figures of
// executed queries (rox.*, exec.*, engine.query_memory_bytes) come from
// an in-process re-execution of the run's own keys, result replay off,
// after the window — the same executions the render is timed on.

#include <sched.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "engine/engine.h"
#include "harness.h"
#include "oracle.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "workload/xmark.h"
#include "xml/parser.h"

namespace roxbench {
namespace {

using rox::engine::QueryRequest;
using rox::engine::QueryResponse;

constexpr double kXmarkScale = 0.15;
constexpr int kThresholds = 250;  // prices 1..250
constexpr int kNumKeys = 4 * kThresholds;
constexpr double kZipfS = 1.0;
constexpr uint64_t kRankSeed = 0x5e7e0001;
// Requests sent, checked and counted before the measured window, which
// starts with a warm cache.
constexpr uint64_t kWarmupRequests = 400;
// Keys re-executed in process after the window (render timing and the
// figures of executed queries) and requests whose bytes are parsed.
constexpr size_t kRenderKeys = 400, kParseRequests = 2000;
// The share of a request's latency that its layers may leave
// unattributed: dispatch-queue wait, the context switches between
// client, event loop and engine pool, and socket transfer cannot be
// timed from outside (README).
constexpr double kServeMixUnattributedPct = 40.0;

struct Key {
  std::string text;
  uint64_t rows = 0;
  uint64_t rows_hash = 0;
};

std::string ScanQuery(int threshold, bool less_than) {
  return std::string(
             "for $o in doc(\"xmark.xml\")//open_auction[.//current/text() ") +
         (less_than ? "< " : "> ") + std::to_string(threshold) +
         "] return $o";
}

// The CPUs the process may run on, read once, before the first setup
// pins it.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return allowed;
}

// Pins the calling thread, and every thread it starts afterwards, to
// the first of AllowedCpus().
void PinToFirstCpu() {
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &AllowedCpus())) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

}  // namespace

std::string CheckResponse(const Json& body, uint64_t rows, uint64_t rows_hash,
                          bool* truncated) {
  *truncated = false;
  const Json* status = body.Find("status");
  const Json* code = status != nullptr ? status->Find("code") : nullptr;
  const Json* row_count = body.Find("row_count");
  const Json* items = body.Find("rows");
  const Json* stats = body.Find("stats");
  if (code == nullptr || row_count == nullptr || items == nullptr ||
      stats == nullptr || items->type != Json::Type::kArray) {
    return "malformed response";
  }
  if (code->str != "OK") return "status " + code->str;
  const Json* cut = body.Find("rows_truncated");
  if ((cut != nullptr && cut->boolean) ||
      items->items.size() != static_cast<size_t>(row_count->number)) {
    *truncated = true;
    return "truncated response: " + std::to_string(items->items.size()) +
           " of " + std::to_string(static_cast<uint64_t>(row_count->number)) +
           " rows";
  }
  if (static_cast<uint64_t>(row_count->number) != rows) {
    return std::to_string(static_cast<uint64_t>(row_count->number)) +
           " rows, expected " + std::to_string(rows);
  }
  uint64_t hash = 0;
  for (const Json& row : items->items) hash = HashCombine(hash, Fnv1a(row.str));
  if (hash != rows_hash) return "row contents or order differ";
  return "";
}

namespace {

// What the client saw.
struct ClientLog {
  OpLog untraced;
  std::vector<double> traced_ms;
  std::vector<double> overhead_us;  // latency - engine wall_ms
  std::vector<double> response_bytes;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> mismatches;
  std::vector<int> keys;  // every key sent, in order
  // Traced requests: engine spans + client latency.
  std::vector<std::pair<std::vector<SpanRec>, double>> traces;
  EngineAccum accum;  // cache hits and wall_ms from the response "stats"
};

class ServeMix : public Workload {
 public:
  ~ServeMix() override {
    if (server_ != nullptr) server_->Stop();
  }

  rox::Status Setup(const RunConfig& cfg) override {
    int64_t start = NowNs();
    PinToFirstCpu();  // before the engine and server start their threads
    rox::Corpus corpus;
    rox::XmarkGenOptions xmark;
    xmark.items = static_cast<uint32_t>(4350 * kXmarkScale);
    xmark.persons = static_cast<uint32_t>(5100 * kXmarkScale);
    xmark.open_auctions = static_cast<uint32_t>(2400 * kXmarkScale);
    ROX_RETURN_IF_ERROR(rox::GenerateXmarkDocument(corpus, xmark).status());
    ROX_ASSIGN_OR_RETURN(churn_, ChurnDocs::Generate());
    generate_s = MsSince(start) / 1e3;

    rox::engine::EngineOptions opts;
    opts.num_threads = cfg.nproc;
    opts.metrics = &registry_;
    opts.rox.seed = cfg.seed;
    engine_ = std::make_unique<rox::engine::Engine>(std::move(corpus), opts);
    rox::server::ServerOptions sopts;
    sopts.port = 0;
    server_ = std::make_unique<rox::server::HttpServer>(engine_.get(), sopts);
    return server_->Start();
  }

  void Run(const RunConfig& cfg, RunOutput* out, MetricMap* e2e,
           MetricMap* layers) override {
    if (!BuildKeys(out)) return;
    rox::Rng ranking(kRankSeed);
    std::vector<int> rank_to_key(kNumKeys);
    for (int i = 0; i < kNumKeys; ++i) rank_to_key[static_cast<size_t>(i)] = i;
    ranking.Shuffle(rank_to_key);

    rox::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
    rox::server::HttpClient client;
    ClientLog warmup, log;
    Client(cfg, rank_to_key, std::numeric_limits<int64_t>::max(),
           kWarmupRequests, /*measured=*/false, &rng, &client, &warmup);
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(cfg.seconds * 1e9);
    Client(cfg, rank_to_key, deadline, std::numeric_limits<uint64_t>::max(),
           /*measured=*/true, &rng, &client, &log);
    const int64_t end = NowNs();

    LayerProfile profile;
    for (const ClientLog* l : {&warmup, &log}) {
      out->attempted += l->attempted;
      out->failed += l->failed;
      for (const std::string& e : l->errors) out->notes.push_back(e);
      for (const std::string& m : l->mismatches) out->Mismatch(m);
    }
    for (const auto& [spans, ns] : log.traces) profile.AddOperation(spans, ns);
    out->notes.push_back(
        "serve_mix: " + std::to_string(log.untraced.latency_ms.size()) +
        " untraced requests, p99 " +
        std::to_string(Quantile(log.untraced.latency_ms, 0.99)) + " ms");

    if (cfg.trace) ServerLayers(log, &profile, out, layers);
    // The publish probe runs on this thread alone; unpinned, it runs as
    // on the other workloads.
    sched_setaffinity(0, sizeof(cpu_set_t), &AllowedCpus());
    RunPublishProbe(*engine_, churn_, cfg.trace, out, e2e, layers);
    if (!cfg.trace) AddLatencyMetrics(log.untraced, start, end, out, e2e);
  }

 private:
  bool BuildKeys(RunOutput* out) {
    std::shared_ptr<const rox::Corpus> snap = engine_->CurrentSnapshot();
    auto id = snap->Resolve("xmark.xml");
    if (!id.ok()) {
      out->Mismatch("xmark.xml missing from the corpus");
      return false;
    }
    const rox::Document& doc = snap->doc(*id);
    XmarkOracle oracle(doc);
    std::unordered_map<rox::Pre, uint64_t> row_hash;
    auto add = [&](std::string text, const std::vector<rox::Pre>& items) {
      Key key;
      key.text = std::move(text);
      key.rows = items.size();
      key.rows_hash = 0;
      for (rox::Pre p : items) {
        auto it = row_hash.find(p);
        if (it == row_hash.end()) {
          it = row_hash.emplace(p, Fnv1a(rox::SerializeSubtree(doc, p))).first;
        }
        key.rows_hash = HashCombine(key.rows_hash, it->second);
      }
      keys_.push_back(std::move(key));
    };
    for (int t = 1; t <= kThresholds; ++t) {
      add(ScanQuery(t, true), oracle.AuctionScan(t, true));
      add(ScanQuery(t, false), oracle.AuctionScan(t, false));
      add(Q1Query(t, true), oracle.Q1(t, true));
      add(Q1Query(t, false), oracle.Q1(t, false));
    }
    const size_t cap = rox::server::ServerOptions{}.max_response_rows;
    for (const Key& k : keys_) {
      if (k.rows > cap) {
        out->Mismatch("key exceeds max_response_rows: " +
                      std::to_string(k.rows) + " rows");
        return false;
      }
    }
    return true;
  }

  // Sends requests until `deadline` or `max_requests` and checks every
  // response; only a `measured` phase records latencies and layers
  // (and, with cfg.trace, sends every second request traced).
  void Client(const RunConfig& cfg, const std::vector<int>& rank_to_key,
              int64_t deadline, uint64_t max_requests, bool measured,
              rox::Rng* rng, rox::server::HttpClient* client, ClientLog* log) {
    const std::vector<std::pair<std::string, std::string>> traced_headers = {
        {"X-Trace-Level", "spans"}};
    const std::vector<std::pair<std::string, std::string>> no_headers;
    for (uint64_t n = 0; n < max_requests && NowNs() < deadline; ++n) {
      const int key_index =
          rank_to_key[rng->Zipf(static_cast<uint64_t>(kNumKeys), kZipfS)];
      const Key& key = keys_[static_cast<size_t>(key_index)];
      const bool traced = measured && cfg.trace && n % 2 == 1;
      ++log->attempted;
      if (!client->connected() &&
          !client->Connect("127.0.0.1", server_->port()).ok()) {
        ++log->failed;
        log->errors.push_back("connect failed");
        continue;
      }
      const int64_t t0 = NowNs();
      auto resp = client->Request("POST", "/query",
                                  traced ? traced_headers : no_headers,
                                  key.text);
      const int64_t elapsed = NowNs() - t0;
      log->keys.push_back(key_index);
      if (!resp.ok() || resp->status != 200) {
        ++log->failed;
        if (log->errors.size() < 5) {
          log->errors.push_back(
              "request failed: " +
              (resp.ok() ? "HTTP " + std::to_string(resp->status)
                         : resp.status().ToString()));
        }
        continue;
      }
      Json body;
      std::string error;
      if (!ParseJson(resp->body, &body, &error)) {
        log->mismatches.push_back("unparsable response: " + error);
        continue;
      }
      bool truncated = false;
      std::string mismatch =
          CheckResponse(body, key.rows, key.rows_hash, &truncated);
      if (truncated) {
        ++log->failed;  // a truncated response is a failed operation
        if (log->errors.size() < 5) {
          log->errors.push_back("key " + std::to_string(key_index) + ": " +
                                mismatch);
        }
        continue;
      }
      if (!mismatch.empty()) {
        log->mismatches.push_back("key " + std::to_string(key_index) + ": " +
                                  mismatch);
        continue;
      }
      const Json* stats = body.Find("stats");
      const double latency_ms = elapsed / 1e6;
      const Json* wall = stats->Find("wall_ms");
      const double wall_ms = wall != nullptr ? wall->number : 0;
      if (traced) {
        log->traced_ms.push_back(latency_ms);
        std::vector<SpanRec> spans;
        const Json* trace = body.Find("trace");
        if (trace != nullptr && SpansFromJson(*trace, &spans)) {
          log->traces.emplace_back(std::move(spans),
                                   static_cast<double>(elapsed));
        }
        continue;
      }
      if (!measured) continue;
      log->untraced.Add(latency_ms, static_cast<double>(key.rows));
      log->overhead_us.push_back(latency_ms * 1e3 - wall_ms * 1e3);
      log->response_bytes.push_back(static_cast<double>(resp->body.size()));
      const Json* plan_hit = stats->Find("plan_cache_hit");
      const Json* result_hit = stats->Find("result_cache_hit");
      ++log->accum.queries;
      log->accum.execute_us += wall_ms * 1e3;
      log->accum.plan_hits += plan_hit != nullptr && plan_hit->boolean;
      log->accum.result_hits += result_hit != nullptr && result_hit->boolean;
    }
  }

  // The server.* layers, measured from outside on the run's own
  // requests and responses, plus the engine spans of traced requests.
  // Render and request parsing are added to the layer table as layers
  // of their own.
  void ServerLayers(const ClientLog& log, LayerProfile* profile,
                    RunOutput* out, MetricMap* layers) {
    // HttpParser on the bytes HttpClient sent for the first requests.
    const std::vector<int>& sent = log.keys;
    const size_t n = std::min<size_t>(sent.size(), kParseRequests);
    std::vector<double> parse_us;
    for (size_t i = 0; i < n; ++i) {
      const std::string& body = keys_[static_cast<size_t>(sent[i])].text;
      std::string bytes = "POST /query HTTP/1.1\r\nHost: roxd\r\n";
      if (i % 2 == 1) bytes += "X-Trace-Level: spans\r\n";
      bytes += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
      bytes += body;
      const int64_t t0 = NowNs();
      rox::server::HttpParser parser;
      parser.Feed(bytes.data(), bytes.size());
      const bool ok = parser.HasRequest();
      if (ok) parser.TakeRequest();
      parse_us.push_back((NowNs() - t0) / 1e3);
      if (!ok) out->Mismatch("HttpParser rejected a request the server took");
    }
    // QueryResponse::ToJson + BuildHttpResponse on the same keys' results,
    // each executed afresh (result replay off) for the figures the HTTP
    // stats do not carry.
    rox::engine::ResponseJsonOptions jopts;
    jopts.max_rows = rox::server::ServerOptions{}.max_response_rows;
    std::vector<double> render_us;
    EngineAccum executed;
    for (size_t i = 0; i < std::min<size_t>(n, kRenderKeys); ++i) {
      QueryRequest req;
      req.text = keys_[static_cast<size_t>(sent[i])].text;
      req.allow_result_replay = false;
      const int64_t start = NowNs();
      QueryResponse r = engine_->Execute(req);
      if (!r.ok()) {
        out->notes.push_back("re-execution failed: " + r.status.ToString());
        continue;
      }
      executed.Add(r.result, MsSince(start) * 1e3);
      const int64_t t0 = NowNs();
      std::string bytes = rox::server::BuildHttpResponse(
          200, "application/json", r.ToJson(jopts), true);
      render_us.push_back((NowNs() - t0) / 1e3);
      if (bytes.empty()) out->Mismatch("empty rendered response");
    }
    (*layers)["server.http_parse_us"] = Mean(parse_us);
    (*layers)["server.render_us"] = Mean(render_us);
    (*layers)["server.response_bytes"] = Mean(log.response_bytes);
    (*layers)["server.overhead_us"] = Mean(log.overhead_us);
    log.accum.Emit(layers);
    executed.EmitExecuted(layers);
    profile->AddMeasured("server.render", Mean(render_us));
    profile->AddMeasured("server.http_parse", Mean(parse_us));
    EmitTracedLayers("serve_mix", *profile, log.untraced.latency_ms,
                     log.traced_ms, kServeMixUnattributedPct, out, layers);
  }

  rox::obs::MetricsRegistry registry_;
  std::unique_ptr<rox::engine::Engine> engine_;
  std::unique_ptr<rox::server::HttpServer> server_;
  ChurnDocs churn_;
  std::vector<Key> keys_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix() {
  return std::make_unique<ServeMix>();
}

}  // namespace roxbench
