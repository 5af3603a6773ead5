// paper_joins: the paper's own queries, one client, query cache off —
// every query parses, compiles, samples and executes.
//
//   * XMark Q1 / Qm1 at kPriceThresholds (the §3.2 price/bidder
//     correlation: the cheap side's bidder route is selective, the
//     expensive side's is not);
//   * the DBLP 4-way author join (§4.1, Figure 4) over the Figure 5
//     combination plus kCombosPerGroup seeded combinations from each of
//     the 2:2, 3:1 and 4:0 area groups;
//   * the DBLP author-year theta join on two venue pairs.
//
// A round runs every query once, in a seeded order; the measured
// window runs whole rounds. After it, the join-order invariant is
// checked — every query again under another RoxOptions seed, cold,
// warm-started from the plan cache, and replayed from the result
// cache — and a fixed publish probe runs. The traced run alternates
// traced and untraced rounds and adds the optimizer-quality and
// classical-plan reference figures.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "classical/executor.h"
#include "classical/rox_order.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "harness.h"
#include "oracle.h"
#include "rox/optimizer.h"
#include "workload/dblp.h"
#include "workload/xmark.h"

namespace roxbench {
namespace {

using rox::engine::QueryRequest;
using rox::engine::QueryResponse;

constexpr double kXmarkScale = 1.0;
constexpr double kDblpTagScale = 1.0;
constexpr int kPriceThresholds[] = {60, 110, 145, 190};
constexpr int kCombosPerGroup = 4;
// The combinations are drawn once, with this seed, so that every run
// measures the same query mix; --seed varies the query order and the
// optimizer's random choices.
constexpr uint64_t kComboSeed = 20090629;
// Figure 5's documents: VLDB, ICDE, ICIP, ADBIS.
constexpr std::array<int, 4> kFigure5 = {22, 21, 16, 18};

// Every 4-of-23 Table 3 combination of one area group.
std::vector<std::array<int, 4>> GroupCombos(const std::string& group) {
  const auto& specs = rox::Table3Documents();
  const int n = static_cast<int>(specs.size());
  std::vector<std::array<int, 4>> out;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (int c = b + 1; c < n; ++c) {
        for (int d = c + 1; d < n; ++d) {
          std::array<int, 4> combo = {a, b, c, d};
          if (rox::AreaGroup(specs, combo) == group) out.push_back(combo);
        }
      }
    }
  }
  return out;
}

class PaperJoins : public Workload {
 public:
  rox::Status Setup(const RunConfig& cfg) override {
    int64_t start = NowNs();
    rox::Corpus corpus;
    rox::XmarkGenOptions xmark;
    xmark.items = static_cast<uint32_t>(4350 * kXmarkScale);
    xmark.persons = static_cast<uint32_t>(5100 * kXmarkScale);
    xmark.open_auctions = static_cast<uint32_t>(2400 * kXmarkScale);
    ROX_RETURN_IF_ERROR(rox::GenerateXmarkDocument(corpus, xmark).status());
    rox::DblpGenOptions dblp;
    dblp.tag_scale = kDblpTagScale;
    std::vector<int> all(rox::Table3Documents().size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    ROX_RETURN_IF_ERROR(rox::AddDblpDocuments(corpus, dblp, all).status());
    ROX_ASSIGN_OR_RETURN(churn_,
                         ChurnDocs::Generate());
    generate_s = MsSince(start) / 1e3;

    rox::engine::EngineOptions opts;
    opts.num_threads = cfg.nproc;
    opts.enable_cache = false;
    opts.metrics = &registry_;
    opts.rox.seed = cfg.seed;
    engine_ = std::make_unique<rox::engine::Engine>(std::move(corpus), opts);
    return rox::Status::Ok();
  }

  void Run(const RunConfig& cfg, RunOutput* out, MetricMap* e2e,
           MetricMap* layers) override {
    BuildQueries(out);
    if (!out->correct) return;
    // Warm-up round (checked, not timed).
    double ms = 0;
    for (const CheckedQuery& q : queries_) {
      ExecuteChecked(*engine_, q, true, false, out, nullptr, nullptr, &ms);
    }

    LayerProfile profile;
    EngineAccum accum;
    Rounds rounds = RunRounds(
        cfg, queries_.size(), cfg.seed ^ 0x5eedULL,
        [&](size_t i, bool traced, double* latency_ms) {
          return ExecuteChecked(*engine_, queries_[i], true, traced, out,
                                &profile, &accum, latency_ms);
        },
        [&](size_t i) {
          return static_cast<double>(queries_[i].expected.size());
        });
    NoteQueryMedians(queries_, rounds, out);

    CheckInvariant(cfg.seed, out);
    RunPublishProbe(*engine_, churn_, cfg.trace, out, e2e, layers);

    if (!cfg.trace) {
      AddLatencyMetrics(rounds.untraced, rounds.start_ns, rounds.end_ns, out,
                        e2e);
      return;
    }
    accum.Emit(layers);
    EmitTracedLayers("paper_joins", profile, rounds.untraced.latency_ms,
                     rounds.traced_ms, kInProcessUnattributedPct, out,
                     layers);
    OrderQuality(cfg.seed, out, layers);
  }

 private:
  void BuildQueries(RunOutput* out) {
    std::shared_ptr<const rox::Corpus> snap = engine_->CurrentSnapshot();
    auto doc = [&](const std::string& name) -> const rox::Document* {
      auto id = snap->Resolve(name);
      return id.ok() ? &snap->doc(*id) : nullptr;
    };
    const auto& specs = rox::Table3Documents();
    const rox::Document* xmark_doc = doc("xmark.xml");
    if (xmark_doc == nullptr) {
      out->Mismatch("xmark.xml missing from the corpus");
      return;
    }
    XmarkOracle xmark(*xmark_doc);
    for (int t : kPriceThresholds) {
      for (bool less : {true, false}) {
        queries_.push_back({std::string(less ? "Q1<" : "Qm1>") +
                                std::to_string(t),
                            Q1Query(t, less), xmark.Q1(t, less)});
      }
    }

    // The Figure 5 combination, then per area group the first
    // kCombosPerGroup combinations (in a kComboSeed shuffle) whose join
    // result is not empty — the paper omits empty combinations too.
    auto add_combo = [&](const std::array<int, 4>& combo) {
      std::vector<std::string> names;
      std::vector<const rox::Document*> others;
      for (int s : combo) names.push_back(specs[static_cast<size_t>(s)].name);
      for (size_t i = 1; i < names.size(); ++i) others.push_back(doc(names[i]));
      std::vector<rox::Pre> expected = AuthorJoin(*doc(names[0]), others);
      if (expected.empty()) return false;
      combos_.push_back(combo);
      queries_.push_back({"authors4(" + names[0] + "," + names[1] + "," +
                              names[2] + "," + names[3] + ")",
                          AuthorJoinQuery(names), std::move(expected)});
      return true;
    };
    add_combo(kFigure5);
    rox::Rng rng(kComboSeed);
    for (const char* group : {"2:2", "3:1", "4:0"}) {
      std::vector<std::array<int, 4>> all = GroupCombos(group);
      rng.Shuffle(all);
      int taken = 0;
      for (size_t i = 0; i < all.size() && taken < kCombosPerGroup; ++i) {
        taken += add_combo(all[i]) ? 1 : 0;
      }
    }
    for (const auto& [d1, d2, op] :
         {std::tuple("MLDM", "ICDM", rox::CmpOp::kLe),
          std::tuple("ADBIS", "EDBT", rox::CmpOp::kLt)}) {
      queries_.push_back({std::string("author_year(") + d1 + "," + d2 + ")",
                          rox::DblpAuthorYearQuery(d1, d2, op),
                          AuthorYear(*doc(d1), *doc(d2), op)});
    }
  }

  // The result must not depend on the optimizer's random choices or on
  // what the cache holds: every query again under another seed on a
  // cache-enabled engine — cold, warm-started, and replayed.
  void CheckInvariant(uint64_t seed, RunOutput* out) {
    rox::engine::EngineOptions opts;
    opts.num_threads = 1;
    opts.metrics = &registry_;
    opts.rox.seed = seed + 0x9e3779b9ULL;
    rox::engine::Engine other(engine_->CurrentSnapshot(), opts);
    for (const CheckedQuery& q : queries_) {
      for (int pass = 0; pass < 3; ++pass) {
        QueryRequest req;
        req.text = q.text;
        req.allow_result_replay = pass == 2;
        ++out->attempted;
        QueryResponse r = other.Execute(req);
        if (!r.ok()) {
          ++out->failed;
          out->notes.push_back(q.name + " failed (invariant pass): " +
                               r.status.ToString());
          continue;
        }
        const bool expect_replay = pass == 2;
        std::string why;
        if (r.result.result_cache_hit != expect_replay ||
            (pass > 0 && !r.result.plan_cache_hit)) {
          out->Mismatch(q.name + ": unexpected cache state on pass " +
                        std::to_string(pass));
        } else if (!SameItems(*r.result.items, q.expected, &why)) {
          out->Mismatch(q.name + " (seed/cache pass " + std::to_string(pass) +
                        "): " + why);
        }
      }
    }
  }

  // rox.order_rows_over_best and the classical reference figures, on the
  // Figure 5 combination and the seeded combinations.
  void OrderQuality(uint64_t seed, RunOutput* out, MetricMap* layers) {
    std::shared_ptr<const rox::Corpus> snap = engine_->CurrentSnapshot();
    const auto& specs = rox::Table3Documents();
    std::vector<double> order_ratio, best_ms, rox_over_best;
    for (const auto& combo : combos_) {
      std::vector<rox::DocId> docs;
      for (int s : combo) {
        auto id = snap->Resolve(specs[static_cast<size_t>(s)].name);
        if (!id.ok()) return;
        docs.push_back(*id);
      }
      rox::DblpQueryGraph q = rox::BuildDblpJoinGraph(*snap, docs);
      rox::RoxOptions ro;
      ro.seed = seed;
      rox::RoxOptimizer optimizer(*snap, q.graph, ro);
      auto run = optimizer.Run();
      if (!run.ok() || run->table.NumRows() == 0) continue;
      auto order = rox::RoxJoinOrderFromRun(q, *run);
      if (!order.ok()) continue;
      std::vector<rox::OrderCardinality> cards =
          rox::ComputeOrderCardinalities(*snap, docs);
      const rox::OrderCardinality* best = &cards[0];
      uint64_t rox_rows = 0;
      for (const auto& oc : cards) {
        if (oc.cumulative < best->cumulative) best = &oc;
        if (oc.order == *order) rox_rows = oc.cumulative;
      }
      if (best->cumulative == 0) continue;
      order_ratio.push_back(static_cast<double>(rox_rows) /
                            static_cast<double>(best->cumulative));
      rox::CanonicalPlanExecutor exec(*snap, docs);
      auto plan = exec.RunBestPlacement(best->order);
      if (!plan.ok() || plan->elapsed_ms <= 0) continue;
      const double rox_ms = run->stats.sampling_time.TotalMillis() +
                            run->stats.execution_time.TotalMillis();
      best_ms.push_back(plan->elapsed_ms);
      rox_over_best.push_back(rox_ms / plan->elapsed_ms);
    }
    auto geomean = [](const std::vector<double>& xs) {
      if (xs.empty()) return 0.0;
      double s = 0;
      for (double x : xs) s += std::log(std::max(x, 1e-9));
      return std::exp(s / static_cast<double>(xs.size()));
    };
    (*layers)["rox.order_rows_over_best"] = geomean(order_ratio);
    (*layers)["classical.best_plan_ms"] = Median(best_ms);
    (*layers)["classical.rox_over_best_ms"] = geomean(rox_over_best);
    out->notes.push_back("order quality over " +
                         std::to_string(order_ratio.size()) +
                         " combinations (geo-mean ROX/best cumulative rows)");
  }

  rox::obs::MetricsRegistry registry_;
  std::unique_ptr<rox::engine::Engine> engine_;
  ChurnDocs churn_;
  std::vector<std::array<int, 4>> combos_;
  std::vector<CheckedQuery> queries_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperJoins() {
  return std::make_unique<PaperJoins>();
}

}  // namespace roxbench
