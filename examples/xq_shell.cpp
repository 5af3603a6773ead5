// Interactive XQuery shell over the concurrent query engine.
//
//   $ ./xq_shell [--trace_level=off|spans|full]
//                [--deadline_ms=N] [--memory_budget_mb=N] [--json]
//                file1.xml file2.xml ...
//
// Loads the given XML files into a corpus (doc("<basename>") resolves
// them), hands the corpus to an Engine, then reads XQueries from stdin
// (terminated by a line with just ";") and executes each through the
// engine — so repeated queries hit the plan/weight/result cache exactly
// as they would on a server. With no files, a demo XMark document is
// generated as doc("xmark.xml"). --trace_level=spans|full (default
// off) records a flight-recorder trace for every query, not just
// \profile's (DESIGN.md §12).
// --deadline_ms=N / --memory_budget_mb=N (default 0 = unlimited) apply
// a per-query deadline / memory budget to every query (DESIGN.md §13):
// a query past either limit unwinds cooperatively with
// kDeadlineExceeded / kResourceExhausted instead of running on.
// --json prints each query's answer as the stable QueryResponse wire
// JSON (DESIGN.md §15) — byte-identical to what the roxd HTTP server
// returns for the same query — instead of the human-readable listing.
//
// The corpus is *live* (DESIGN.md §10): \load and \drop publish new
// epochs while the engine keeps serving — queries in flight finish on
// the epoch they started on.
//
// Commands:
//   \docs               list documents of the current epoch
//   \load FILE [NAME]   ingest FILE as doc("NAME") (default: basename)
//   \drop NAME          remove doc("NAME") in a new epoch
//   \epoch              current epoch + publish counters
//   \stats  engine statistics (latency percentiles, cache hit rates)
//   \cache  query cache contents (most recently used first)
//   \explain QUERY      compile + ROX Phase-1 estimates, no execution
//   \profile QUERY      execute with a full trace; print the span tree
//   \metrics            process-wide metrics registry (text exposition)
//   \kill               cancel every in-flight query (cooperative: each
//                       unwinds at its next checkpoint with kCancelled)
//   \wait               collect results of background queries
//   \quit
//
// A query terminated by "&" instead of ";" runs in the background on
// the engine's pool — the prompt returns immediately, \kill can cancel
// it, and \wait (or \quit) collects its result.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "index/corpus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/xmark.h"
#include "xml/parser.h"

namespace {

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Splits "\cmd arg1 arg2" into whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rox;
  Corpus corpus;

  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  QueryLimits limits;
  bool json_output = false;
  std::vector<char*> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_output = true;
      continue;
    }
    const std::string trace_prefix = "--trace_level=";
    const std::string deadline_prefix = "--deadline_ms=";
    const std::string budget_prefix = "--memory_budget_mb=";
    if (arg.rfind(deadline_prefix, 0) == 0 ||
        arg.rfind(budget_prefix, 0) == 0) {
      bool is_deadline = arg.rfind(deadline_prefix, 0) == 0;
      size_t skip = is_deadline ? deadline_prefix.size()
                                : budget_prefix.size();
      char* end = nullptr;
      long v = std::strtol(arg.c_str() + skip, &end, 10);
      if (end == nullptr || *end != '\0' || v < 0) {
        std::fprintf(stderr, "invalid %s (want a non-negative integer)\n",
                     arg.c_str());
        return 2;
      }
      if (is_deadline) {
        limits.deadline_ms = static_cast<double>(v);
      } else {
        limits.memory_budget_bytes =
            static_cast<uint64_t>(v) * 1024 * 1024;
      }
    } else if (arg.rfind(trace_prefix, 0) == 0) {
      if (!obs::ParseTraceLevel(arg.c_str() + trace_prefix.size(),
                                &trace_level)) {
        std::fprintf(stderr, "invalid %s (want off, spans, or full)\n",
                     arg.c_str());
        return 2;
      }
    } else {
      files.push_back(argv[i]);
    }
  }

  if (!files.empty()) {
    for (char* file : files) {
      std::string xml;
      if (!ReadFile(file, &xml)) {
        std::fprintf(stderr, "cannot open %s\n", file);
        return 1;
      }
      auto id = corpus.AddXml(xml, Basename(file));
      if (!id.ok()) {
        std::fprintf(stderr, "%s: %s\n", file,
                     id.status().ToString().c_str());
        return 1;
      }
      std::printf("loaded doc(\"%s\"): %u nodes\n",
                  corpus.doc(*id).name().c_str(), corpus.doc(*id).NodeCount());
    }
  } else {
    XmarkGenOptions gen;
    gen.open_auctions = 500;
    gen.items = 400;
    gen.persons = 500;
    auto id = GenerateXmarkDocument(corpus, gen);
    if (!id.ok()) return 1;
    std::printf("no files given; generated doc(\"xmark.xml\") with %u "
                "nodes\n",
                corpus.doc(*id).NodeCount());
  }

  // The engine publishes the corpus as epoch 0; every query from here
  // on is served through its cache and statistics layer, and \load /
  // \drop publish successor epochs.
  engine::EngineOptions options;
  options.num_threads = 4;
  options.trace_level = trace_level;
  options.default_limits = limits;
  engine::Engine eng(std::move(corpus), options);
  if (limits.deadline_ms > 0) {
    std::printf("per-query deadline: %.0f ms\n", limits.deadline_ms);
  }
  if (limits.memory_budget_bytes > 0) {
    std::printf("per-query memory budget: %llu MB\n",
                static_cast<unsigned long long>(limits.memory_budget_bytes /
                                                (1024 * 1024)));
  }

  std::printf(
      "enter an XQuery terminated by a ';' line ('&' runs it in the "
      "background)\n"
      "(\\docs, \\load, \\drop, \\epoch, \\stats, \\cache, \\explain, "
      "\\profile, \\metrics, \\kill, \\wait, \\quit)\n");

  // Serializes and prints one finished query result (sync or
  // background). In --json mode the shell emits the same stable
  // QueryResponse wire JSON the roxd HTTP server sends.
  auto print_response = [json_output](const engine::QueryResponse& resp) {
    if (json_output) {
      std::printf("%s", resp.ToJson().c_str());
      return;
    }
    const engine::QueryResult& r = resp.result;
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      return;
    }
    // Rows serialize through the query's own pinned snapshot: a
    // concurrent (or just-issued) \drop cannot invalidate the
    // result's documents.
    constexpr size_t kMaxRows = 20;
    std::vector<std::string> rows = engine::SerializeResultRows(r, kMaxRows);
    for (std::string& s : rows) {
      if (s.size() > 200) s = s.substr(0, 200) + "...";
      std::printf("  %s\n", s.c_str());
    }
    if (r.items->size() > rows.size()) {
      std::printf("  ... (%zu more)\n", r.items->size() - rows.size());
    }
    if (r.result_cache_hit) {
      std::printf("%zu items in %.2f ms (replayed from result cache)\n",
                  r.items->size(), r.wall_ms);
    } else {
      std::printf(
          "%zu items in %.2f ms (epoch %llu); %llu edges executed%s; "
          "sampling %.2f ms, execution %.2f ms%s\n",
          r.items->size(), r.wall_ms,
          static_cast<unsigned long long>(r.epoch),
          static_cast<unsigned long long>(r.rox_stats.edges_executed),
          r.plan_cache_hit ? " (cached plan)" : "",
          r.rox_stats.sampling_time.TotalMillis(),
          r.rox_stats.execution_time.TotalMillis(),
          r.warm_started ? " (warm-started weights)" : "");
    }
  };

  // Queries running on the engine pool (submitted with '&'); \wait and
  // shell exit collect them.
  std::vector<std::future<engine::QueryResponse>> background;
  auto collect_background = [&]() {
    for (auto& f : background) {
      engine::QueryResponse resp = f.get();
      std::printf("[background query %llu]\n",
                  static_cast<unsigned long long>(resp.sequence()));
      print_response(resp);
    }
    background.clear();
  };

  std::string query, line;
  while (std::printf("xq> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    // Commands dispatch on the exact first token — a prefix match
    // would route a mistyped "\dropall x" into \drop — and any other
    // backslash line is rejected below instead of silently joining
    // the query buffer.
    const std::vector<std::string> args =
        !line.empty() && line[0] == '\\' ? Tokenize(line)
                                         : std::vector<std::string>{};
    const std::string cmd = args.empty() ? std::string() : args[0];
    if (cmd == "\\quit" || cmd == "\\q") break;
    if (cmd == "\\docs") {
      auto snap = eng.CurrentSnapshot();
      for (DocId d = 0; d < snap->DocCount(); ++d) {
        if (!snap->IsLive(d)) continue;
        std::printf("  doc(\"%s\") — %u nodes\n", snap->doc(d).name().c_str(),
                    snap->doc(d).NodeCount());
      }
      continue;
    }
    if (cmd == "\\load") {
      if (args.size() < 2 || args.size() > 3) {
        std::printf("usage: \\load FILE [NAME]\n");
        continue;
      }
      std::string xml;
      if (!ReadFile(args[1], &xml)) {
        std::printf("cannot open %s\n", args[1].c_str());
        continue;
      }
      std::string name = args.size() == 3 ? args[2] : Basename(args[1]);
      auto ids = eng.AddDocuments({{std::move(name), std::move(xml)}});
      if (!ids.ok()) {
        std::printf("error: %s\n", ids.status().ToString().c_str());
        continue;
      }
      auto snap = eng.CurrentSnapshot();
      std::printf("loaded doc(\"%s\"): %u nodes; published epoch %llu\n",
                  snap->doc(ids->front()).name().c_str(),
                  snap->doc(ids->front()).NodeCount(),
                  static_cast<unsigned long long>(eng.CurrentEpoch()));
      continue;
    }
    if (cmd == "\\drop") {
      if (args.size() != 2) {
        std::printf("usage: \\drop NAME\n");
        continue;
      }
      Status s = eng.RemoveDocument(args[1]);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      std::printf("dropped doc(\"%s\"); published epoch %llu\n",
                  args[1].c_str(),
                  static_cast<unsigned long long>(eng.CurrentEpoch()));
      continue;
    }
    if (cmd == "\\epoch") {
      engine::EngineStats stats = eng.Stats();
      auto snap = eng.CurrentSnapshot();
      std::printf(
          "  epoch %llu: %zu live docs (%zu slots), %llu publishes "
          "(+%llu/-%llu docs), %llu cache invalidations\n",
          static_cast<unsigned long long>(stats.epoch),
          snap->LiveDocCount(), snap->DocCount(),
          static_cast<unsigned long long>(stats.publishes),
          static_cast<unsigned long long>(stats.docs_added),
          static_cast<unsigned long long>(stats.docs_removed),
          static_cast<unsigned long long>(stats.cache_invalidations));
      continue;
    }
    if (cmd == "\\stats") {
      std::printf("%s\n", eng.Stats().ToString().c_str());
      continue;
    }
    if (cmd == "\\cache") {
      auto listing = eng.CacheContents();
      if (listing.empty()) {
        std::printf("  (cache empty)\n");
        continue;
      }
      std::printf("  %zu of %zu entries, %llu evictions\n", listing.size(),
                  eng.options().cache_capacity,
                  static_cast<unsigned long long>(eng.CacheEvictions()));
      for (const auto& entry : listing) {
        std::string text = entry.key;
        if (text.size() > 60) text = text.substr(0, 60) + "...";
        std::printf("  [e%llu, %llu hit%s]%s%s %s\n",
                    static_cast<unsigned long long>(entry.epoch),
                    static_cast<unsigned long long>(entry.hits),
                    entry.hits == 1 ? "" : "s",
                    entry.has_weights ? " +weights" : "",
                    entry.has_result ? " +result" : "", text.c_str());
      }
      continue;
    }
    if (cmd == "\\explain" || cmd == "\\profile") {
      // The rest of the line is the query (one-liners only — these are
      // inspection surfaces, not the main query path).
      std::string rest = line.substr(cmd.size());
      size_t start = rest.find_first_not_of(" \t");
      rest = start == std::string::npos ? std::string() : rest.substr(start);
      if (!rest.empty() && rest.back() == ';') rest.pop_back();
      if (rest.empty()) {
        std::printf("usage: %s QUERY (on one line)\n", cmd.c_str());
        continue;
      }
      engine::QueryRequest req;
      req.text = rest;
      req.mode = cmd == "\\explain" ? engine::QueryMode::kExplain
                                    : engine::QueryMode::kProfile;
      engine::QueryResponse resp = eng.Execute(req);
      if (json_output) {
        engine::ResponseJsonOptions jopts;
        jopts.include_trace = true;
        std::printf("%s", resp.ToJson(jopts).c_str());
        continue;
      }
      if (cmd == "\\explain") {
        if (!resp.ok()) {
          std::printf("error: %s\n", resp.status.ToString().c_str());
          continue;
        }
        std::printf("%s", resp.explain_text.c_str());
      } else {
        const engine::QueryResult& r = resp.result;
        if (!resp.ok()) {
          std::printf("error: %s\n", resp.status.ToString().c_str());
          if (r.trace != nullptr) std::printf("%s", r.trace->ToTree().c_str());
          continue;
        }
        std::printf("%s", r.trace->ToTree().c_str());
        std::printf("%zu items in %.2f ms (epoch %llu)%s%s\n",
                    r.items->size(), r.wall_ms,
                    static_cast<unsigned long long>(r.epoch),
                    r.plan_cache_hit ? " (cached plan)" : "",
                    r.warm_started ? " (warm-started weights)" : "");
      }
      continue;
    }
    if (cmd == "\\metrics") {
      std::printf("%s", obs::MetricsRegistry::Global().DumpText().c_str());
      continue;
    }
    if (cmd == "\\kill") {
      size_t n = eng.KillAll();
      std::printf("cancel signalled to %zu in-flight quer%s\n", n,
                  n == 1 ? "y" : "ies");
      continue;
    }
    if (cmd == "\\wait") {
      if (background.empty()) {
        std::printf("  (no background queries)\n");
        continue;
      }
      collect_background();
      continue;
    }
    if (!cmd.empty()) {
      std::printf(
          "unknown command %s (try \\docs, \\load, \\drop, \\epoch, "
          "\\stats, \\cache, \\explain, \\profile, \\metrics, \\kill, "
          "\\wait, \\quit)\n",
          cmd.c_str());
      continue;
    }
    if (line != ";" && line != "&") {
      query += line;
      query += '\n';
      continue;
    }
    if (line == "&") {
      // Run on the engine pool; the prompt stays live so \kill can
      // cancel it cooperatively.
      engine::QueryRequest req;
      req.text = query;
      req.client_tag = "xq_shell";
      background.push_back(eng.ExecuteAsync(std::move(req)));
      std::printf("submitted in background (\\kill cancels, \\wait "
                  "collects)\n");
      query.clear();
      continue;
    }
    // Execute the accumulated query through the engine.
    engine::QueryRequest req;
    req.text = query;
    req.client_tag = "xq_shell";
    engine::QueryResponse resp = eng.Execute(req);
    query.clear();
    print_response(resp);
  }
  // Collect (and thereby wait for) any background queries still in
  // flight so their results are not silently dropped at exit.
  collect_background();
  return 0;
}
