// roxd — the ROX query server daemon.
//
//   $ roxd [--port=8080] [--host=127.0.0.1] [--num_threads=N]
//          [--max_concurrent=N] [--max_queued=N]
//          [--cache_capacity=N] [--trace_level=off|spans|full]
//          [--deadline_ms=N] [--memory_budget_mb=N]
//          [file1.xml file2.xml ...]
//
// Loads the given XML files into a corpus (doc("<basename>") resolves
// them; a demo XMark document is generated when none are given), hands
// the corpus to an Engine, and serves it over HTTP (DESIGN.md §15):
//
//   $ curl -d 'QUERY' http://localhost:8080/query
//   $ curl http://localhost:8080/stats
//   $ curl http://localhost:8080/metrics
//
// Per-query governance is wire-controlled (X-Deadline-Ms,
// X-Memory-Budget-Mb, X-Max-Rows headers); --deadline_ms /
// --memory_budget_mb set engine-wide defaults underneath them.
// SIGINT/SIGTERM stop the server gracefully: in-flight queries are
// cancelled, connections drained, then the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "engine/engine.h"
#include "server/server.h"
#include "workload/xmark.h"

namespace {

// Signal flag + self-waking: the handler just sets the flag; the main
// thread sleeps in pause()-free polling on a pipe.
volatile std::sig_atomic_t g_stop = 0;
int g_stop_pipe[2] = {-1, -1};

void HandleStop(int) {
  g_stop = 1;
  if (g_stop_pipe[1] >= 0) {
    char b = 's';
    (void)!write(g_stop_pipe[1], &b, 1);
  }
}

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

bool ParseLong(const char* text, long min, long max, long* out) {
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=8080] [--host=127.0.0.1] [--num_threads=N]\n"
      "          [--max_concurrent=N] [--max_queued=N]\n"
      "          [--cache_capacity=N] [--trace_level=off|spans|full]\n"
      "          [--deadline_ms=N] [--memory_budget_mb=N]\n"
      "          [--max_response_rows=N] [files...]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rox;

  server::ServerOptions sopts;
  engine::EngineOptions eopts;
  eopts.num_threads = 4;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    const char* val = eq == std::string::npos ? "" : arg.c_str() + eq + 1;
    long v = 0;
    if (key == "--port") {
      if (!ParseLong(val, 0, 65535, &v)) return Usage(argv[0]);
      sopts.port = static_cast<uint16_t>(v);
    } else if (key == "--host") {
      sopts.host = val;
    } else if (key == "--num_threads") {
      if (!ParseLong(val, 1, 256, &v)) return Usage(argv[0]);
      eopts.num_threads = static_cast<size_t>(v);
    } else if (key == "--max_concurrent") {
      if (!ParseLong(val, 0, 100000, &v)) return Usage(argv[0]);
      eopts.max_concurrent_queries = static_cast<size_t>(v);
    } else if (key == "--max_queued") {
      if (!ParseLong(val, 0, 100000, &v)) return Usage(argv[0]);
      eopts.max_queued_queries = static_cast<size_t>(v);
    } else if (key == "--cache_capacity") {
      if (!ParseLong(val, 0, 1000000, &v)) return Usage(argv[0]);
      eopts.cache_capacity = static_cast<size_t>(v);
    } else if (key == "--trace_level") {
      if (!obs::ParseTraceLevel(val, &eopts.trace_level)) {
        return Usage(argv[0]);
      }
    } else if (key == "--max_response_rows") {
      if (!ParseLong(val, 0, 100000000, &v)) return Usage(argv[0]);
      sopts.max_response_rows = static_cast<size_t>(v);
    } else if (key == "--deadline_ms") {
      if (!ParseLong(val, 0, 86400000, &v)) return Usage(argv[0]);
      eopts.default_limits.deadline_ms = static_cast<double>(v);
    } else if (key == "--memory_budget_mb") {
      if (!ParseLong(val, 0, 1048576, &v)) return Usage(argv[0]);
      eopts.default_limits.memory_budget_bytes =
          static_cast<uint64_t>(v) * 1024 * 1024;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  Corpus corpus;
  if (!files.empty()) {
    for (const std::string& file : files) {
      std::string xml;
      if (!ReadFile(file, &xml)) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 1;
      }
      auto id = corpus.AddXml(xml, Basename(file));
      if (!id.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     id.status().ToString().c_str());
        return 1;
      }
      std::printf("loaded doc(\"%s\"): %u nodes\n",
                  corpus.doc(*id).name().c_str(),
                  corpus.doc(*id).NodeCount());
    }
  } else {
    XmarkGenOptions gen;
    gen.open_auctions = 500;
    gen.items = 400;
    gen.persons = 500;
    auto id = GenerateXmarkDocument(corpus, gen);
    if (!id.ok()) {
      std::fprintf(stderr, "xmark generation failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    std::printf("no files given; generated doc(\"xmark.xml\") with %u "
                "nodes\n",
                corpus.doc(*id).NodeCount());
  }

  engine::Engine eng(std::move(corpus), eopts);
  server::HttpServer srv(&eng, sopts);
  Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("roxd listening on %s:%u\n", sopts.host.c_str(),
              static_cast<unsigned>(srv.port()));
  std::fflush(stdout);

  if (pipe(g_stop_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  // SIGPIPE would otherwise kill the process on a vanished peer; the
  // server uses MSG_NOSIGNAL, but belt and braces.
  std::signal(SIGPIPE, SIG_IGN);

  char b;
  while (g_stop == 0 && read(g_stop_pipe[0], &b, 1) < 0 && errno == EINTR) {
  }

  std::printf("shutting down...\n");
  srv.Stop();
  server::ServerStats s = srv.Snapshot();
  std::printf("served %llu requests over %llu connections (%llu "
              "disconnect kills)\n",
              static_cast<unsigned long long>(s.requests_total),
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.disconnect_kills));
  return 0;
}
