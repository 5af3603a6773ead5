// The query flight recorder: a structured, low-overhead event tree
// captured per query (DESIGN.md §12).
//
// A QueryTrace is a tree of *spans* — named intervals with monotonic
// start/duration and the recording thread id — plus a flat list of
// per-edge payloads (EdgeTrace) recording what ROX decided at run time:
// the chosen edge, the kernel that executed it, the estimated (sampled)
// vs. observed cardinality, re-sampling and cut-off events, and
// gather/arena byte counts. The span taxonomy is
//
//   query                     one per Engine::Execute
//     cache_lookup            plan/result cache provenance (attrs)
//     parse                   XQuery text -> AST
//     compile                 AST -> Join Graph
//     execute                 the whole RunXQuery
//       rox                   one per connected component
//         phase1              index sampling + initial edge weights
//         chain_round         (full) one ChainSample invocation
//         edge                one per full edge execution
//           resample          (full) re-weigh events, children of edge
//         assembly            Yannakakis-style final assembly
//       gather                terminal column gather (lazy runs)
//       plan_tail             project/distinct/sort/project
//
// Ownership and threading: a trace belongs to exactly one query and is
// recorded from the query's thread only. There is no lock anywhere;
// cost when tracing is off is a single null check per instrumentation
// site.

#ifndef ROX_OBS_TRACE_H_
#define ROX_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rox::obs {

// EngineOptions::trace_level. kSpans records the span tree and the
// per-edge payloads; kFull additionally records per-decision events
// (chain-sampling rounds, re-sampling, cut-off counts).
enum class TraceLevel : uint8_t { kOff = 0, kSpans = 1, kFull = 2 };

const char* TraceLevelName(TraceLevel level);
// Parses "off"/"spans"/"full"; returns false on anything else.
bool ParseTraceLevel(std::string_view text, TraceLevel* out);

// One attribute of a span: numeric or string, keyed by a static name.
struct TraceAttr {
  const char* key;
  double num = 0;
  std::string str;
  bool is_num = true;
};

struct TraceSpan {
  const char* name;      // static taxonomy name (see header comment)
  std::string detail;    // dynamic label (edge label, component id, ...)
  int32_t parent = -1;   // index into spans(); -1 for the root
  int64_t start_ns = 0;  // monotonic, relative to trace creation
  int64_t duration_ns = -1;  // -1 while the span is open
  uint64_t thread_id = 0;
  std::vector<TraceAttr> attrs;
};

// The structured payload of one full edge execution, in execution
// order. `estimated` is w(e) as ROX last sampled it before deciding to
// execute; `observed` is the materialized |R_e|. Their ratio is the
// drift \profile prints per edge.
struct EdgeTrace {
  uint32_t span = 0;  // index of the edge's span in spans()
  int64_t edge_id = -1;
  std::string label;        // JoinGraph::EdgeLabel
  const char* kernel = "";  // structural/hash/merge/index-nl/theta-*/...
  double estimated = -1;    // w(e) before execution (<0: unweighted)
  double observed = -1;     // |R_e| after execution
  double card_v1 = -1;      // endpoint cards after semi-join reduction
  double card_v2 = -1;
  // kFull only: cut-off sampled executions of this edge observed while
  // its span (or the whole run, for pre-execution sampling) was live.
  uint64_t sample_calls = 0;
  uint64_t resamples = 0;
};

class QueryTrace {
 public:
  explicit QueryTrace(TraceLevel level);

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  TraceLevel level() const { return level_; }
  bool spans_enabled() const { return level_ >= TraceLevel::kSpans; }
  bool full_enabled() const { return level_ >= TraceLevel::kFull; }

  // Opens a span as a child of the innermost open span and returns its
  // id. Spans must be closed in LIFO order (RAII via ScopedSpan).
  uint32_t BeginSpan(const char* name, std::string detail = {});
  void EndSpan(uint32_t id);

  // Attaches attributes to a span (any open or closed span id).
  void AttrNum(uint32_t span, const char* key, double value);
  void AttrStr(uint32_t span, const char* key, std::string value);

  // Records a zero-duration event span under the innermost open span.
  void Event(const char* name, std::string detail = {});

  // Opens the span of one edge execution and its payload record. At
  // most one edge can be open at a time (edge executions never nest).
  EdgeTrace* BeginEdge(int64_t edge_id, std::string label);
  EdgeTrace* open_edge() {
    return open_edge_ < 0 ? nullptr : &edges_[static_cast<size_t>(open_edge_)];
  }
  void EndEdge();

  // kFull bookkeeping: a cut-off sampled execution of `edge_id` ran.
  // Counts toward the open edge's payload when that edge is live,
  // toward the per-query totals otherwise.
  void CountSampleCall(int64_t edge_id);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<EdgeTrace>& edges() const { return edges_; }
  uint64_t total_sample_calls() const { return total_sample_calls_; }

  // Nanoseconds since the trace was created (monotonic clock).
  int64_t Now() const;

  // Serializations: a single-object JSON document (QueryResult::
  // trace_json) and the annotated tree \profile prints.
  std::string ToJson() const;
  std::string ToTree() const;

 private:
  TraceLevel level_;
  std::chrono::steady_clock::time_point birth_;
  std::vector<TraceSpan> spans_;
  std::vector<EdgeTrace> edges_;
  std::vector<uint32_t> open_;  // stack of open span ids
  int64_t open_edge_ = -1;
  uint64_t total_sample_calls_ = 0;
};

// RAII span, null-safe: a null or spans-disabled trace costs one
// branch and records nothing.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, const char* name, std::string detail = {})
      : trace_(trace != nullptr && trace->spans_enabled() ? trace : nullptr) {
    if (trace_ != nullptr) id_ = trace_->BeginSpan(name, std::move(detail));
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool armed() const { return trace_ != nullptr; }
  uint32_t id() const { return id_; }
  void AttrNum(const char* key, double value) {
    if (trace_ != nullptr) trace_->AttrNum(id_, key, value);
  }
  void AttrStr(const char* key, std::string value) {
    if (trace_ != nullptr) trace_->AttrStr(id_, key, std::move(value));
  }

 private:
  QueryTrace* trace_;
  uint32_t id_ = 0;
};

// Minimal JSON string escaping (shared by trace and metrics dumps).
void AppendJsonEscaped(std::string* out, std::string_view s);

}  // namespace rox::obs

#endif  // ROX_OBS_TRACE_H_
