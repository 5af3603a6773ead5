// The concurrent query engine: a session layer over the single-query
// ROX pipeline (parse -> compile -> run-time optimize -> plan tail).
//
// An Engine owns
//   * a *live* corpus, published as a sequence of immutable epoch
//     snapshots (DESIGN.md §10): every in-flight query pins the epoch
//     it started on via a shared_ptr CorpusSnapshot, so execution
//     always sees one frozen corpus — the invariant every layer below
//     (compilation, sampling, edge execution) was built on — while
//     AddDocuments/RemoveDocument copy-on-write the next epoch and
//     publish it atomically,
//   * a fixed ThreadPool executing submitted queries,
//   * an LRU QueryCache keyed by (epoch, normalized query text),
//     holding the compiled Join Graph, the edge weights learned by
//     prior runs (warm-starting ROX's Phase 1), and optionally the
//     final result sequence — all invalidated on publish,
//   * a StatsCollector aggregating latency/cache/optimizer/epoch
//     statistics,
//   * a governance layer (DESIGN.md §13): every query runs under a
//     CancellationToken + MemoryBudget pair (deadline, kill switch,
//     memory cap, result-row cap), and an optional AdmissionGate
//     bounds concurrent + queued queries, shedding the excess.
//
// Every in-flight query gets its own RoxState and an independently
// seeded RNG stream (base seed mixed with the query's sequence number),
// so concurrent runs never share mutable state. Result sequences are
// deterministic for a given epoch regardless of seed or thread
// interleaving: ROX's join order affects only performance, and the
// plan tail sorts in document order.

#ifndef ROX_ENGINE_ENGINE_H_
#define ROX_ENGINE_ENGINE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/engine_stats.h"
#include "engine/governor.h"
#include "engine/query_api.h"
#include "engine/query_cache.h"
#include "index/corpus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rox/options.h"
#include "xq/compile.h"

namespace rox::engine {

struct EngineOptions {
  // Worker threads of the owned pool. RunBatch can run at any
  // concurrency up to this.
  size_t num_threads = 8;

  // LRU entries of the query cache; 0 behaves as 1.
  size_t cache_capacity = 256;

  // Master switch for the query cache (plans, weights, results).
  bool enable_cache = true;

  // Feed the edge weights learned by a prior run of the same query
  // back into ROX's Phase 1 (also gated by rox.use_warm_start).
  bool warm_start = true;

  // Replay the memoized final item sequence for a repeated query
  // without running it. Sound because entries are keyed by epoch and
  // each epoch is immutable.
  bool cache_results = true;

  // Late materialization (DESIGN.md §8): intermediates stay selection-
  // vector views and full row gather happens once, at the plan tail.
  // Results are byte-identical either way; off runs the eager row-
  // copying path (the differential-testing / perf baseline). Both this
  // and rox.lazy_materialization must be set for a lazy run.
  bool lazy_materialization = true;

  // Query flight recorder (DESIGN.md §12): kOff records nothing and
  // costs one null check per instrumentation site; kSpans captures the
  // span tree and per-edge payloads; kFull adds per-decision events
  // (chain rounds, re-sampling, cut-off counts). \profile overrides
  // this to kFull for its one query.
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;

  // The metrics registry this engine's StatsCollector mirrors into;
  // null binds the process-wide obs::MetricsRegistry::Global() (tests
  // inject private registries).
  obs::MetricsRegistry* metrics = nullptr;

  // Query-lifecycle governance (DESIGN.md §13). `default_limits`
  // applies to every query that does not carry its own QueryLimits
  // (the Run/Submit overloads); all-zero (the default) runs unbounded.
  QueryLimits default_limits;

  // Admission control: at most this many queries execute concurrently
  // while at most `max_queued_queries` wait for a slot; anything beyond
  // is shed immediately with kResourceExhausted. A queued query whose
  // deadline lapses leaves with kDeadlineExceeded without running.
  // 0 (the default) disables the gate entirely.
  size_t max_concurrent_queries = 0;
  size_t max_queued_queries = 64;

  // Base per-query optimizer options; each query's seed is derived
  // from rox.seed and the query's sequence number.
  RoxOptions rox;
  xq::CompileOptions compile;
};

// One document to ingest: the XML text plus the name doc("name")
// resolves.
struct IngestDoc {
  std::string name;
  std::string xml;
};

// QueryRequest / QueryResult / QueryResponse — the unified query API —
// live in engine/query_api.h (DESIGN.md §15).

class Engine {
 public:
  // Takes ownership of the corpus as epoch `corpus.epoch()` (0 for a
  // freshly built one); it is immutable from here on — further change
  // goes through AddDocuments/RemoveDocument, which publish successor
  // epochs.
  explicit Engine(Corpus corpus, EngineOptions options = {});

  // Serves an already-pinned snapshot (shares it — e.g. the fuzz
  // harness's fresh single-epoch reference engines).
  explicit Engine(std::shared_ptr<const Corpus> corpus,
                  EngineOptions options = {});

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The currently published epoch's corpus. The reference stays valid
  // until the next publish; callers that outlive a publish (or race
  // one) must pin via CurrentSnapshot() instead.
  const Corpus& corpus() const { return *CurrentSnapshot(); }
  const EngineOptions& options() const { return options_; }

  // Pins the currently published epoch: nothing a running query
  // references can be freed by a later publish.
  std::shared_ptr<const Corpus> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return state_;
  }
  uint64_t CurrentEpoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  // --- live ingestion (DESIGN.md §10) ---------------------------------------
  //
  // Both calls copy-on-write the next epoch from the current one,
  // parse/index only the delta, and atomically publish it: queries in
  // flight keep their pinned epoch; queries arriving after the call
  // returns see the new one. Cache entries of dead epochs are purged.
  // Writers are serialized; a failed build publishes nothing.

  // Parses and adds `docs` as one new epoch. Returns the assigned
  // DocIds (in input order). An empty vector is a no-op (no publish).
  Result<std::vector<DocId>> AddDocuments(std::vector<IngestDoc> docs);

  // Tombstones the named document in a new epoch. DocIds are never
  // reused; pinned older epochs still serve the document.
  Status RemoveDocument(std::string_view name);

  // --- unified query API (DESIGN.md §15) ------------------------------------
  //
  // The single entry point every surface routes through: the request
  // carries the text, the mode (execute/explain/profile), optional
  // per-query limits and trace level, and a client tag. Synchronous;
  // runs on the calling thread against the engine's cache and stats.
  QueryResponse Execute(const QueryRequest& request);

  // Executes under a sequence number obtained earlier from
  // ReserveSequence() — the server's dispatch path: it learns the
  // handle Kill() takes *before* the query starts, so a client
  // disconnect racing query startup still has something to kill.
  QueryResponse Execute(const QueryRequest& request, uint64_t sequence);

  // Asynchronous Execute on the owned pool.
  std::future<QueryResponse> ExecuteAsync(QueryRequest request);

  // Callback-style asynchronous Execute under a pre-reserved sequence
  // number: `done` runs on the pool thread right after the query
  // finishes (the server's completion-queue hookup). `done` must not
  // block for long — it occupies a query worker.
  void ExecuteAsync(QueryRequest request, uint64_t sequence,
                    std::function<void(QueryResponse)> done);

  // Reserves the sequence number a later Execute(request, sequence)
  // will run under.
  uint64_t ReserveSequence() { return next_sequence_.fetch_add(1); }

  // --- legacy entry points (deprecated) -------------------------------------
  //
  // Thin shims over Execute(QueryRequest), kept for source
  // compatibility; tests/query_api_test.cc pins their equivalence.
  // New call sites should build a QueryRequest instead.

  // Deprecated: Execute({.text = ..., .limits = ...}) asynchronously.
  std::future<QueryResult> Submit(std::string query_text);
  std::future<QueryResult> Submit(std::string query_text,
                                  QueryLimits limits);

  // Deprecated: Execute({.text = ..., .limits = ...}).result.
  QueryResult Run(std::string query_text);
  QueryResult Run(std::string query_text, QueryLimits limits);

  // --- cooperative kill (DESIGN.md §13) -------------------------------------
  //
  // Cancels the in-flight query with this sequence number (the one
  // QueryResult::sequence reports). Returns OK when the cancel was
  // signalled and kNotFound when no such query is active — already
  // completed, shed, or never started — so callers like the server's
  // disconnect path can distinguish "killed" from "already done". The
  // cancel is cooperative: the query unwinds at its next token
  // checkpoint with kCancelled. A query queued at the admission gate
  // keeps its slot reservation until one frees, then exits immediately
  // without executing.
  Status Kill(uint64_t sequence);
  // Cancels every in-flight query; returns how many were signalled.
  size_t KillAll();

  // Deprecated: Execute({.text = ..., .mode = QueryMode::kProfile}):
  // forces a full-detail trace and bypasses the result-cache replay so
  // an execution actually happens (plan cache and warm weights still
  // apply, and are recorded in the trace as provenance). The shell's
  // \profile surface.
  QueryResult Profile(std::string query_text);

  // Deprecated: Execute({.text = ..., .mode = QueryMode::kExplain}).
  // EXPLAIN (no execution): compiles the query (sharing the plan
  // cache) and runs ROX Phase 1 sampling only, then renders the join
  // graph with estimated cardinalities/weights and each component's
  // predicted first edge. The order beyond that is decided at run time
  // — the paper's point — and the rendering says so.
  Result<std::string> Explain(const std::string& query_text);

  // Executes `queries` with at most `concurrency` in flight at a time
  // (0 = pool size; capped at the pool size) and returns results in
  // input order. Blocks until the whole batch is done. An empty batch
  // returns immediately without touching the pool.
  std::vector<QueryResult> RunBatch(const std::vector<std::string>& queries,
                                    size_t concurrency = 0);

  // Statistics snapshot / reset (reset also restarts the qps clock).
  EngineStats Stats() const {
    EngineStats out = stats_.Snapshot();
    out.epoch = CurrentEpoch();
    out.admission_running = gate_.running();
    out.admission_queued = gate_.queued();
    out.peak_admission_queued = gate_.peak_queued();
    return out;
  }
  void ResetStats() { stats_.Reset(); }

  // The metrics registry this engine's stats mirror into (the /metrics
  // exposition surface): options().metrics, or the process-wide
  // registry when none was injected.
  obs::MetricsRegistry& metrics_registry() const {
    return options_.metrics != nullptr ? *options_.metrics
                                       : obs::MetricsRegistry::Global();
  }

  // Cache inspection (the shell's \cache command).
  std::vector<QueryCache::Listing> CacheContents() const;
  size_t CacheSize() const;
  uint64_t CacheEvictions() const;
  void ClearCache();

 private:
  // Swaps in the next epoch built by `builder` and purges dead cache
  // entries. Caller holds ingest_mu_.
  void Publish(CorpusBuilder builder);

  // The execute/profile engine underneath Execute(QueryRequest).
  // `limits` null applies options_.default_limits; `client_tag` is
  // recorded on the trace root span.
  QueryResult ExecuteQuery(const std::string& text, uint64_t seq,
                           obs::TraceLevel trace_level,
                           bool allow_result_replay = true,
                           const QueryLimits* limits = nullptr,
                           std::string_view client_tag = {});

  // The explain engine underneath Execute(QueryRequest) (and the
  // legacy Explain shim): renders Phase-1 estimates without executing.
  Result<std::string> ExplainText(const std::string& query_text);

  EngineOptions options_;
  StatsCollector stats_;

  // Admission gate (inert when max_concurrent_queries is 0; Execute
  // never calls Admit then).
  AdmissionGate gate_;

  // In-flight queries' cancellation tokens, keyed by sequence number —
  // the \kill surface. Entries live exactly as long as Execute's stack
  // frame; tokens are owned by that frame, never by this map.
  mutable std::mutex active_mu_;
  std::unordered_map<uint64_t, CancellationToken*> active_;

  mutable std::mutex cache_mu_;
  QueryCache cache_;

  // The published epoch, swapped atomically under state_mu_; writers
  // are serialized by ingest_mu_ (held across build + publish so
  // epochs are linear).
  mutable std::mutex state_mu_;
  std::shared_ptr<const Corpus> state_;
  std::mutex ingest_mu_;
  std::atomic<uint64_t> current_epoch_{0};

  std::atomic<uint64_t> next_sequence_{0};

  // Declared last: destroyed first, so workers drain while the state,
  // cache and stats above are still alive.
  ThreadPool pool_;
};

}  // namespace rox::engine

#endif  // ROX_ENGINE_ENGINE_H_
