#include "harness.h"

#include <algorithm>

#include "common/rng.h"
#include "oracle.h"

#include "index/corpus.h"
#include "workload/dblp.h"
#include "xml/parser.h"

namespace roxbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"result_rows_per_s", "rows/s"},
      {"publish_ms_p50", "ms"},
      {"publish_ms_p95", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kList = {
      {"server.http_parse_us", "us"},
      {"server.render_us", "us"},
      {"server.response_bytes", "B"},
      {"server.overhead_us", "us"},
      {"engine.execute_us", "us"},
      {"engine.plan_cache_hit_ratio", "ratio"},
      {"engine.result_cache_hit_ratio", "ratio"},
      {"engine.cache_invalidations_per_publish", "count"},
      {"engine.query_memory_bytes", "B"},
      {"xq.parse_us", "us"},
      {"xq.compile_us", "us"},
      {"xq.gather_ms", "ms"},
      {"xq.plan_tail_ms", "ms"},
      {"rox.phase1_ms", "ms"},
      {"rox.sampling_ms", "ms"},
      {"rox.sampling_share", "ratio"},
      {"rox.sampled_tuples", "count"},
      {"rox.chain_sample_calls", "count"},
      {"rox.execution_ms", "ms"},
      {"rox.assembly_ms", "ms"},
      {"rox.intermediate_rows", "count"},
      {"rox.peak_intermediate_rows", "count"},
      {"rox.order_rows_over_best", "ratio"},
      {"exec.structural.ns_per_row", "ns/row"},
      {"exec.hash.ns_per_row", "ns/row"},
      {"exec.index-nl.ns_per_row", "ns/row"},
      {"exec.theta-run.ns_per_row", "ns/row"},
      {"exec.gather_bytes", "B"},
      {"exec.arena_bytes", "B"},
      {"classical.best_plan_ms", "ms"},
      {"classical.rox_over_best_ms", "ratio"},
      {"xml.parse_mb_per_s", "MB/s"},
      {"index.build_ms", "ms"},
      {"index.publish_other_ms", "ms"},
      {"workload.generate_s", "s"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kList;
}

void AddLatencyMetrics(const OpLog& log, int64_t start_ns, int64_t end_ns,
                       RunOutput* out, MetricMap* e2e) {
  out->latency_samples = log.latency_ms;
  const double span_ns =
      static_cast<double>(std::max<int64_t>(end_ns - start_ns, 1));
  // Per sub-window: its completions and the first and last completion
  // time. The rate is (completions - 1) over the time between the first
  // and the last, so it does not move in steps of one query when a
  // sub-window holds few.
  std::vector<double> ops(kRateWindows, 0);
  std::vector<int64_t> first(kRateWindows, 0), last(kRateWindows, 0);
  double rows = 0;
  for (const auto& [at, n] : log.done) {
    int w = static_cast<int>(static_cast<double>(at - start_ns) / span_ns *
                             kRateWindows);
    const size_t i = static_cast<size_t>(std::clamp(w, 0, kRateWindows - 1));
    if (ops[i] == 0) first[i] = at;
    last[i] = at;
    ops[i] += 1;
    rows += n;
  }
  const double window_s = span_ns / 1e9 / kRateWindows;
  std::vector<double> rates;
  for (size_t i = 0; i < ops.size(); ++i) {
    rates.push_back(ops[i] >= 2 && last[i] > first[i]
                        ? (ops[i] - 1) / ((last[i] - first[i]) / 1e9)
                        : ops[i] / window_s);
  }
  const double qps = Median(rates);
  (*e2e)["qps"] = qps;
  // Rows per operation over the whole window, not per sub-window: a
  // sub-window holds a handful of queries whose result sizes differ by
  // 100x, so its own row count would measure the mix, not the speed.
  (*e2e)["result_rows_per_s"] =
      log.done.empty() ? 0 : qps * rows / static_cast<double>(log.done.size());
  (*e2e)["latency_p50_ms"] = Quantile(log.latency_ms, 0.50);
  (*e2e)["latency_p95_ms"] = Quantile(log.latency_ms, 0.95);
}

void EngineAccum::Add(const rox::engine::QueryResult& r, double call_us) {
  ++queries;
  execute_us += call_us;
  plan_hits += r.plan_cache_hit ? 1 : 0;
  result_hits += r.result_cache_hit ? 1 : 0;
  if (r.result_cache_hit) return;
  ++executed;
  const rox::RoxStats& s = r.rox_stats;
  sampling_ms += s.sampling_time.TotalMillis();
  execution_ms += s.execution_time.TotalMillis();
  assembly_ms += s.assembly_time.TotalMillis();
  sampled_tuples += static_cast<double>(s.sampled_tuples);
  chain_sample_calls += static_cast<double>(s.chain_sample_calls);
  intermediate_rows += static_cast<double>(s.cumulative_intermediate_rows);
  peak_intermediate_rows += static_cast<double>(s.peak_intermediate_rows);
  gather_bytes += static_cast<double>(s.gather.bytes_gathered);
  arena_bytes += static_cast<double>(s.arena_bytes);
  memory_bytes += static_cast<double>(r.memory_bytes);
}

void EngineAccum::Emit(MetricMap* layers) const {
  if (queries == 0) return;
  const double q = static_cast<double>(queries);
  (*layers)["engine.execute_us"] = execute_us / q;
  (*layers)["engine.plan_cache_hit_ratio"] = plan_hits / q;
  (*layers)["engine.result_cache_hit_ratio"] = result_hits / q;
  EmitExecuted(layers);
}

void EngineAccum::EmitExecuted(MetricMap* layers) const {
  if (executed == 0) return;
  const double e = static_cast<double>(executed);
  (*layers)["engine.query_memory_bytes"] = memory_bytes / e;
  (*layers)["rox.sampling_ms"] = sampling_ms / e;
  (*layers)["rox.execution_ms"] = execution_ms / e;
  (*layers)["rox.assembly_ms"] = assembly_ms / e;
  (*layers)["rox.sampling_share"] =
      sampling_ms + execution_ms > 0
          ? sampling_ms / (sampling_ms + execution_ms)
          : 0;
  (*layers)["rox.sampled_tuples"] = sampled_tuples / e;
  (*layers)["rox.chain_sample_calls"] = chain_sample_calls / e;
  (*layers)["rox.intermediate_rows"] = intermediate_rows / e;
  (*layers)["rox.peak_intermediate_rows"] = peak_intermediate_rows / e;
  (*layers)["exec.gather_bytes"] = gather_bytes / e;
  (*layers)["exec.arena_bytes"] = arena_bytes / e;
}

void EmitTracedLayers(const std::string& title, const LayerProfile& profile,
                      const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms,
                      double max_unattributed_pct, RunOutput* out,
                      MetricMap* layers) {
  (*layers)["xq.parse_us"] = profile.MeanSelfUs("parse");
  (*layers)["xq.compile_us"] = profile.MeanSelfUs("compile");
  (*layers)["xq.gather_ms"] = profile.MeanSpanMs("gather");
  (*layers)["xq.plan_tail_ms"] = profile.MeanSpanMs("plan_tail");
  (*layers)["rox.phase1_ms"] = profile.MeanSpanMs("phase1");
  // merge and theta-index never run as full edge executions in these
  // workloads (theta-index serves cut-off sampling only), so they have
  // no per-row figure.
  for (const char* k : {"structural", "hash", "index-nl", "theta-run"}) {
    (*layers)[std::string("exec.") + k + ".ns_per_row"] =
        profile.KernelNsPerRow(k);
  }
  const double untraced_us = Mean(untraced_ms) * 1e3;
  if (untraced_us <= 0 || traced_ms.empty()) return;
  (*layers)["obs.trace_overhead_pct"] =
      100.0 * (Mean(traced_ms) * 1e3 / untraced_us - 1.0);
  bool within = false;
  out->layer_table =
      profile.Render(title, untraced_us, max_unattributed_pct,
                     kAttributedOverPct, &within);
  if (!within) {
    out->notes.push_back(title + ": attributed layer time outside the "
                         "allowed range of the untraced latency");
  }
}

bool ExecuteChecked(rox::engine::Engine& engine, const CheckedQuery& q,
                    bool allow_replay, bool traced, RunOutput* out,
                    LayerProfile* profile, EngineAccum* accum,
                    double* latency_ms) {
  rox::engine::QueryRequest req;
  req.text = q.text;
  req.allow_result_replay = allow_replay;
  if (traced) req.trace_level = rox::obs::TraceLevel::kSpans;
  ++out->attempted;
  const int64_t t0 = NowNs();
  rox::engine::QueryResponse r = engine.Execute(req);
  const int64_t elapsed = NowNs() - t0;
  *latency_ms = elapsed / 1e6;
  if (!r.ok()) {
    ++out->failed;
    out->notes.push_back(q.name + " failed: " + r.status.ToString());
    return false;
  }
  std::string why;
  if (!SameItems(*r.result.items, q.expected, &why)) {
    out->Mismatch(q.name + ": " + why);
    return false;
  }
  if (traced && r.result.trace != nullptr) {
    profile->AddOperation(SpansFromTrace(*r.result.trace),
                          static_cast<double>(elapsed));
    accum->Add(r.result, elapsed / 1e3);
  }
  return true;
}

std::string Q1Query(int threshold, bool less_than) {
  return std::string(
             "let $d := doc(\"xmark.xml\")\n"
             "for $o in $d//open_auction[.//current/text() ") +
         (less_than ? "< " : "> ") + std::to_string(threshold) +
         "],\n"
         "    $p in $d//person[.//province],\n"
         "    $i in $d//item[./quantity = 1]\n"
         "where $o//bidder//personref/@person = $p/@id and\n"
         "      $o//itemref/@item = $i/@id\n"
         "return $o";
}

std::string AuthorJoinQuery(const std::vector<std::string>& docs) {
  static const char* kVars[] = {"$a", "$b", "$c", "$d"};
  std::string text = "for ";
  for (size_t i = 0; i < docs.size() && i < 4; ++i) {
    text += std::string(i > 0 ? ", " : "") + kVars[i] + " in doc(\"" +
            docs[i] + "\")//author";
  }
  text += "\nwhere ";
  for (size_t i = 1; i < docs.size() && i < 4; ++i) {
    text += std::string(i > 1 ? " and " : "") + "$a/text() = " + kVars[i] +
            "/text()";
  }
  return text + "\nreturn $a";
}

void NoteQueryMedians(const std::vector<CheckedQuery>& queries,
                      const Rounds& rounds, RunOutput* out) {
  for (size_t i = 0; i < queries.size(); ++i) {
    out->notes.push_back(queries[i].name + ": median " +
                         std::to_string(Median(rounds.per_query_ms[i])) +
                         " ms, " + std::to_string(queries[i].expected.size()) +
                         " items");
  }
}

Rounds RunRounds(const RunConfig& cfg, size_t queries, uint64_t order_seed,
                 const std::function<bool(size_t, bool, double*)>& run,
                 const std::function<double(size_t)>& rows) {
  Rounds r;
  r.per_query_ms.resize(queries);
  std::vector<size_t> order(queries);
  for (size_t i = 0; i < queries; ++i) order[i] = i;
  rox::Rng rng(order_seed);
  r.start_ns = NowNs();
  for (uint64_t round = 0;; ++round) {
    rng.Shuffle(order);
    const bool traced = cfg.trace && round % 2 == 1;
    for (size_t i : order) {
      double ms = 0;
      if (!run(i, traced, &ms)) continue;
      if (traced) {
        r.traced_ms.push_back(ms);
      } else {
        r.untraced.Add(ms, rows(i));
        r.per_query_ms[i].push_back(ms);
      }
    }
    if (MsSince(r.start_ns) >= cfg.seconds * 1e3 &&
        (!cfg.trace || round % 2 == 1)) {
      break;
    }
  }
  r.end_ns = NowNs();
  return r;
}

const std::vector<int>& ChurnDocs::Specs() {
  static const std::vector<int> kSpecs = {17, 18, 9, 14};
  return kSpecs;
}

rox::Result<ChurnDocs> ChurnDocs::Generate() {
  rox::DblpGenOptions gen;
  gen.tag_scale = kChurnTagScale;
  ROX_ASSIGN_OR_RETURN(rox::Corpus corpus,
                       rox::GenerateDblpCorpus(gen, Specs()));
  ChurnDocs out;
  for (size_t i = 0; i < Specs().size(); ++i) {
    out.xml.push_back(
        rox::SerializeXml(corpus.doc(static_cast<rox::DocId>(i))));
  }
  return out;
}

namespace {

struct PublishCycleTimes {
  double total_ms = 0;
  double add_ms = 0;
  double parse_ms = 0, build_ms = 0;  // traced cycles only
  uint64_t xml_bytes = 0;
};

// Publishing summary: publish_ms_p50/p95 (e2e) and xml.* / index.* /
// engine.cache_invalidations_per_publish (layers). The churn documents
// differ in size, so single cycle times fall into one cluster per
// document (up to 3x apart on theta_bulk's corpus) and a quantile between
// two clusters jumps from run to run; the quantiles are therefore taken
// over rounds of one cycle per document, as mean ms per cycle.
struct PublishAccum {
  std::vector<double> cycle_ms;
  size_t round = 1;  // cycles per round: the number of churn documents
  double parse_ms = 0, build_ms = 0, other_ms = 0, xml_bytes = 0;
  uint64_t traced = 0;

  void Add(const PublishCycleTimes& t, bool traced_cycle);
  void Emit(double invalidations_per_publish, RunOutput* out, MetricMap* e2e,
            MetricMap* layers) const;
};

rox::Status PublishCycle(rox::engine::Engine& engine, const ChurnDocs& churn,
                         uint64_t cycle, bool trace,
                         PublishCycleTimes* times) {
  const std::string& xml = churn.Xml(cycle);
  const std::string name = ChurnDocs::Name(cycle);
  times->xml_bytes = xml.size();
  // Parse and build on a private copy of the epoch AddDocuments starts
  // from, once before and once after it; the faster of the two is kept,
  // so both sides of add_ms - parse_ms - build_ms run with warm caches.
  std::shared_ptr<const rox::Corpus> snap =
      trace ? engine.CurrentSnapshot() : nullptr;
  auto parse_and_build = [&]() -> rox::Status {
    int64_t t0 = NowNs();
    auto doc = rox::ParseXml(xml, name, snap->pool());
    const double parse_ms = MsSince(t0);
    ROX_RETURN_IF_ERROR(doc.status());
    int64_t t1 = NowNs();
    {
      rox::CorpusBuilder builder(*snap);
      ROX_RETURN_IF_ERROR(builder.Add(std::move(*doc)).status());
      rox::Corpus next = std::move(builder).Build();
    }
    const double build_ms = MsSince(t1);
    if (times->parse_ms + times->build_ms == 0 ||
        parse_ms + build_ms < times->parse_ms + times->build_ms) {
      times->parse_ms = parse_ms;
      times->build_ms = build_ms;
    }
    return rox::Status::Ok();
  };
  if (trace) ROX_RETURN_IF_ERROR(parse_and_build());
  int64_t start = NowNs();
  ROX_RETURN_IF_ERROR(engine.AddDocuments({{name, xml}}).status());
  times->add_ms = MsSince(start);
  if (trace) ROX_RETURN_IF_ERROR(parse_and_build());
  start = NowNs();
  if (cycle >= 2) {
    ROX_RETURN_IF_ERROR(engine.RemoveDocument(ChurnDocs::Name(cycle - 2)));
  }
  times->total_ms = times->add_ms + MsSince(start);
  return rox::Status::Ok();
}

void PublishAccum::Add(const PublishCycleTimes& t, bool traced_cycle) {
  cycle_ms.push_back(t.total_ms);
  if (!traced_cycle) return;
  ++traced;
  parse_ms += t.parse_ms;
  build_ms += t.build_ms;
  // Not clamped at 0: a negative mean says AddDocuments cost less than
  // the parse and build timed apart.
  other_ms += t.add_ms - t.parse_ms - t.build_ms;
  xml_bytes += static_cast<double>(t.xml_bytes);
}

void PublishAccum::Emit(double invalidations_per_publish, RunOutput* out,
                        MetricMap* e2e, MetricMap* layers) const {
  std::vector<double> round_ms;
  for (size_t i = 0; i + round <= cycle_ms.size(); i += round) {
    double sum = 0;
    for (size_t j = i; j < i + round; ++j) sum += cycle_ms[j];
    round_ms.push_back(sum / static_cast<double>(round));
  }
  out->publish_samples = round_ms;
  (*e2e)["publish_ms_p50"] = Quantile(round_ms, 0.50);
  (*e2e)["publish_ms_p95"] = Quantile(round_ms, 0.95);
  (*layers)["engine.cache_invalidations_per_publish"] =
      invalidations_per_publish;
  if (traced == 0) return;
  const double n = static_cast<double>(traced);
  (*layers)["xml.parse_mb_per_s"] =
      parse_ms > 0 ? (xml_bytes / 1e6) / (parse_ms / 1e3) : 0;
  (*layers)["index.build_ms"] = build_ms / n;
  (*layers)["index.publish_other_ms"] = other_ms / n;
}

}  // namespace

void RunPublishProbe(rox::engine::Engine& engine, const ChurnDocs& churn,
                     bool trace, RunOutput* out, MetricMap* e2e,
                     MetricMap* layers) {
  const rox::engine::EngineStats before = engine.Stats();
  PublishAccum acc;
  acc.round = churn.xml.size();
  for (uint64_t k = 0; k < kProbeCycles; ++k) {
    PublishCycleTimes t;
    ++out->attempted;
    rox::Status s = PublishCycle(engine, churn, k, trace, &t);
    if (!s.ok()) {
      ++out->failed;
      out->notes.push_back("publish cycle failed: " + s.ToString());
      continue;
    }
    acc.Add(t, trace);
  }
  const rox::engine::EngineStats after = engine.Stats();
  const double publishes =
      static_cast<double>(after.publishes - before.publishes);
  acc.Emit(publishes > 0 ? static_cast<double>(after.cache_invalidations -
                                               before.cache_invalidations) /
                               publishes
                         : 0,
           out, e2e, layers);
}

}  // namespace roxbench
