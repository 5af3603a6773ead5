// theta_bulk: large-result theta joins, one client, result replay off
// (the plan cache stays on, so the work is execution: theta kernels,
// assembly, gather and the plan-tail sort).
//
//   qty_lt       items of quantity 1 against bidder increases, <
//   qty_ne       the same pair of paths, !=
//   price_theta  reserves of cheap auctions against currents of
//                expensive ones, <=
//
// A round runs the three queries in a seeded order; the measured window
// runs whole rounds. The traced run alternates traced and untraced
// rounds.

#include <memory>

#include "engine/engine.h"
#include "harness.h"
#include "oracle.h"
#include "workload/xmark.h"

namespace roxbench {
namespace {

// XMark 0.08: ~250k result items per theta query, and with one client a
// 15 s run (three processes of 5 s) completes well over the 200 queries
// latency_p95_ms needs.
constexpr double kXmarkScale = 0.08;

class ThetaBulk : public Workload {
 public:
  rox::Status Setup(const RunConfig& cfg) override {
    int64_t start = NowNs();
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
    return rox::Status::Ok();
  }

  void Run(const RunConfig& cfg, RunOutput* out, MetricMap* e2e,
           MetricMap* layers) override {
    {
      std::shared_ptr<const rox::Corpus> snap = engine_->CurrentSnapshot();
      auto id = snap->Resolve("xmark.xml");
      if (!id.ok()) {
        out->Mismatch("xmark.xml missing from the corpus");
        return;
      }
      XmarkOracle oracle(snap->doc(*id));
      queries_ = {
          {"qty_lt", rox::XmarkQuantityIncreaseQuery(rox::CmpOp::kLt, 1),
           oracle.QuantityIncrease(rox::CmpOp::kLt, 1)},
          {"qty_ne", rox::XmarkQuantityIncreaseQuery(rox::CmpOp::kNe, 1),
           oracle.QuantityIncrease(rox::CmpOp::kNe, 1)},
          {"price_theta", rox::XmarkPriceThetaQuery(rox::CmpOp::kLe, 80, 170),
           oracle.PriceTheta(rox::CmpOp::kLe, 80, 170)},
      };
    }
    double ms = 0;
    for (const CheckedQuery& q : queries_) {
      ExecuteChecked(*engine_, q, false, false, out, nullptr, nullptr, &ms);
    }

    LayerProfile profile;
    EngineAccum accum;
    Rounds rounds = RunRounds(
        cfg, queries_.size(), cfg.seed ^ 0x7e7aULL,
        [&](size_t i, bool traced, double* latency_ms) {
          return ExecuteChecked(*engine_, queries_[i], false, traced, out,
                                &profile, &accum, latency_ms);
        },
        [&](size_t i) {
          return static_cast<double>(queries_[i].expected.size());
        });
    NoteQueryMedians(queries_, rounds, out);
    RunPublishProbe(*engine_, churn_, cfg.trace, out, e2e, layers);

    if (!cfg.trace) {
      AddLatencyMetrics(rounds.untraced, rounds.start_ns, rounds.end_ns, out,
                        e2e);
      return;
    }
    accum.Emit(layers);
    EmitTracedLayers("theta_bulk", profile, rounds.untraced.latency_ms,
                     rounds.traced_ms, kInProcessUnattributedPct, out,
                     layers);
  }

 private:
  rox::obs::MetricsRegistry registry_;
  std::unique_ptr<rox::engine::Engine> engine_;
  ChurnDocs churn_;
  std::vector<CheckedQuery> queries_;
};

}  // namespace

std::unique_ptr<Workload> MakeThetaBulk() {
  return std::make_unique<ThetaBulk>();
}

}  // namespace roxbench
