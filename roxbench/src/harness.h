// The workload interface and the pieces every workload shares: the
// fixed metric lists, latency summaries, optimizer-statistics
// accumulation, and the churn-document publish cycle.

#ifndef ROXBENCH_HARNESS_H_
#define ROXBENCH_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "layers.h"
#include "util.h"

namespace roxbench {

// Metric name -> value, filled by a workload and emitted by main in the
// fixed order of the lists below (a metric a workload does not
// exercise is emitted as 0 on the per-layer list).
using MetricMap = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// The traced run's layer check (README): the attributed self times may
// exceed the untraced mean latency by at most kAttributedOverPct, and
// fall short of it by at most a workload's unattributed share —
// kInProcessUnattributedPct where the engine's spans cover the call.
inline constexpr double kAttributedOverPct = 15.0;
inline constexpr double kInProcessUnattributedPct = 15.0;

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates inputs and starts the engine (and server). Timed as one
  // setup; records the generation share in `generate_s`.
  virtual rox::Status Setup(const RunConfig& cfg) = 0;
  // Runs the measured window, checks every output, and fills
  // `e2e` (untraced run) or `layers` (traced run).
  virtual void Run(const RunConfig& cfg, RunOutput* out, MetricMap* e2e,
                   MetricMap* layers) = 0;

  double generate_s = 0;
};

std::unique_ptr<Workload> MakePaperJoins();
std::unique_ptr<Workload> MakeThetaBulk();
std::unique_ptr<Workload> MakeServeMix();

// The untraced operations of a measured window: each one's latency
// and, at its completion, the result rows it delivered.
struct OpLog {
  std::vector<double> latency_ms;
  std::vector<std::pair<int64_t, double>> done;  // (completion ns, rows)

  void Add(double ms, double rows) {
    latency_ms.push_back(ms);
    done.emplace_back(NowNs(), rows);
  }
};

// qps is the median completion rate over kRateWindows equal sub-windows
// of [start_ns, end_ns] — robust to short bursts of interference from
// outside the process; result_rows_per_s is qps times the window's
// result rows per operation; latency_p50_ms and latency_p95_ms are
// quantiles over every operation.
inline constexpr int kRateWindows = 5;
// The latencies are also kept in out->latency_samples.
void AddLatencyMetrics(const OpLog& log, int64_t start_ns, int64_t end_ns,
                       RunOutput* out, MetricMap* e2e);

// A query with its oracle result.
struct CheckedQuery {
  std::string name;
  std::string text;
  std::vector<rox::Pre> expected;
};

// One client running whole rounds of a fixed query list, each round in
// a seeded order, until the window has lasted cfg.seconds. With
// cfg.trace, rounds alternate untraced and traced (the window ends on a
// traced round), so both halves run the same mix. `run(i, traced,
// &latency_ms)` executes query i and returns false when it failed or
// its result was wrong; `rows(i)` is query i's result size.
struct Rounds {
  OpLog untraced;
  std::vector<double> traced_ms;
  std::vector<std::vector<double>> per_query_ms;  // untraced, by query
  int64_t start_ns = 0, end_ns = 0;
};
Rounds RunRounds(const RunConfig& cfg, size_t queries, uint64_t order_seed,
                 const std::function<bool(size_t, bool, double*)>& run,
                 const std::function<double(size_t)>& rows);

// A note per query: its median untraced latency and result size.
void NoteQueryMedians(const std::vector<CheckedQuery>& queries,
                      const Rounds& rounds, RunOutput* out);

// Mean-per-query accumulation of what QueryResult reports.
struct EngineAccum {
  uint64_t queries = 0, executed = 0;
  uint64_t plan_hits = 0, result_hits = 0;
  double execute_us = 0;
  double sampling_ms = 0, execution_ms = 0, assembly_ms = 0;
  double sampled_tuples = 0, chain_sample_calls = 0;
  double intermediate_rows = 0, peak_intermediate_rows = 0;
  double gather_bytes = 0, arena_bytes = 0, memory_bytes = 0;

  void Add(const rox::engine::QueryResult& r, double call_us);
  // engine.* / rox.* / exec.* means per query into `layers`.
  void Emit(MetricMap* layers) const;
  // Only the figures of executed queries: engine.query_memory_bytes,
  // rox.* and exec.* means per executed query.
  void EmitExecuted(MetricMap* layers) const;
};

// Runs `q` through Engine::Execute on the calling thread (traced at
// TraceLevel::kSpans when `traced`) and checks its items against
// q.expected: counted in out->attempted, an error in out->failed, a
// wrong result as a mismatch. A traced call adds its spans to `profile`
// and its statistics to `accum`. Returns true for a correct result;
// *latency_ms is the call's latency either way.
bool ExecuteChecked(rox::engine::Engine& engine, const CheckedQuery& q,
                    bool allow_replay, bool traced, RunOutput* out,
                    LayerProfile* profile, EngineAccum* accum,
                    double* latency_ms);

// XMark Q1 (less_than) / Qm1 at a price threshold (§3.2, Figure 3).
std::string Q1Query(int threshold, bool less_than);
// for $a in doc(docs[0])//author, $b in doc(docs[1])//author, ...
// where $a/text() = $b/text() and ... return $a  (Figure 4)
std::string AuthorJoinQuery(const std::vector<std::string>& docs);

// The traced run's summary: the span-derived per-layer metrics (xq.*,
// rox.phase1_ms, exec.<kernel>.ns_per_row), the trace overhead (traced
// against untraced mean latency), and the layer table with its check of
// the attributed self times against the untraced mean latency: a gap
// larger than `max_unattributed_pct` or an excess larger than
// kAttributedOverPct adds a note.
void EmitTracedLayers(const std::string& title, const LayerProfile& profile,
                      const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms,
                      double max_unattributed_pct, RunOutput* out,
                      MetricMap* layers);

// Pre-serialized DBLP venue documents published and retired in turn:
// CIKM, ADBIS, KDD and SIGIR of Table 3 at kChurnTagScale, from the
// generator's default seed — the same documents in every workload.
struct ChurnDocs {
  static constexpr double kChurnTagScale = 0.5;
  static const std::vector<int>& Specs();

  std::vector<std::string> xml;

  static rox::Result<ChurnDocs> Generate();
  static std::string Name(uint64_t cycle) {
    return "churn" + std::to_string(cycle);
  }
  const std::string& Xml(uint64_t cycle) const {
    return xml[cycle % xml.size()];
  }
};

// The publish probe: kProbeCycles back-to-back publish cycles on the
// engine after the measured window. Cycle k is AddDocuments(churn k),
// then RemoveDocument of churn k-2 — two churn documents stay live, so
// the corpus size holds steady. Fills publish_ms_p50/p95, quantiles over
// rounds of one cycle per churn document (kept in out->publish_samples),
// and
// engine.cache_invalidations_per_publish; with `trace` on, each cycle
// also times ParseXml and a CorpusBuilder Add+Build on a private copy
// of the epoch it starts from (xml.* and index.*).
void RunPublishProbe(rox::engine::Engine& engine, const ChurnDocs& churn,
                     bool trace, RunOutput* out, MetricMap* e2e,
                     MetricMap* layers);
inline constexpr uint64_t kProbeCycles = 400;

// Checks one /query response body against the oracle's row count and
// row hash (an order-sensitive hash of the serialized rows). Returns ""
// when it matches. A response that is not a full answer — rows cut off
// — sets *truncated: a failed operation rather than a wrong one.
std::string CheckResponse(const Json& body, uint64_t rows, uint64_t rows_hash,
                          bool* truncated);

}  // namespace roxbench

#endif  // ROXBENCH_HARNESS_H_
