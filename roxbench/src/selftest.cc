// roxbench --selftest: the benchmark's own test. On a small corpus it
// checks that the engine agrees with every brute-force oracle, then
// perturbs results on purpose — a dropped, duplicated, replaced or
// reordered item, a wrong row count, a changed or reordered row, a
// truncated response — and requires each checker to catch every
// perturbation. It also feeds the traced run's layer check spans that
// leave too much of the latency unattributed or count time twice.
// Exits 0 only when all agree and all are caught.

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "oracle.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xml/parser.h"

namespace roxbench {
namespace {

class SelfTest {
 public:
  void Expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failures_;
      std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
    }
  }
  int Finish() const {
    std::fprintf(stderr, "selftest: %d checks, %d failed\n", checks_,
                 failures_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int checks_ = 0, failures_ = 0;
};

// Every way of damaging a result sequence the item checker must catch.
std::vector<std::pair<std::string, std::vector<rox::Pre>>> Perturb(
    const std::vector<rox::Pre>& items) {
  std::vector<std::pair<std::string, std::vector<rox::Pre>>> out;
  if (items.empty()) {
    out.push_back({"spurious item", {1}});
    return out;
  }
  auto v = items;
  v.pop_back();
  out.push_back({"dropped item", v});
  v = items;
  v.push_back(items.back());
  out.push_back({"duplicated item", v});
  v = items;
  v[v.size() / 2] += 1;
  out.push_back({"replaced item", v});
  for (size_t i = 0; i + 1 < items.size(); ++i) {
    if (items[i] != items[i + 1]) {
      v = items;
      std::swap(v[i], v[i + 1]);
      out.push_back({"reordered items", v});
      break;
    }
  }
  return out;
}

}  // namespace

int RunSelfTest() {
  SelfTest t;
  rox::Corpus corpus;
  rox::XmarkGenOptions xmark;
  xmark.items = 300;
  xmark.persons = 350;
  xmark.open_auctions = 200;
  if (!rox::GenerateXmarkDocument(corpus, xmark).ok()) return 1;
  rox::DblpGenOptions dblp;
  dblp.tag_scale = 0.3;
  // MLDM, ICDM, ADBIS, EDBT, SIGMOD, VLDB
  if (!rox::AddDblpDocuments(corpus, dblp, {7, 8, 18, 19, 20, 22}).ok()) {
    return 1;
  }
  rox::engine::EngineOptions opts;
  opts.num_threads = 1;
  rox::obs::MetricsRegistry registry;
  opts.metrics = &registry;
  rox::engine::Engine engine(std::move(corpus), opts);
  std::shared_ptr<const rox::Corpus> snap = engine.CurrentSnapshot();
  auto doc = [&](const char* name) -> const rox::Document& {
    return snap->doc(*snap->Resolve(name));
  };
  const rox::Document& xdoc = doc("xmark.xml");
  XmarkOracle x(xdoc);

  std::vector<CheckedQuery> cases = {
      {"Q1<145", Q1Query(145, true), x.Q1(145, true)},
      {"Qm1>100", Q1Query(100, false), x.Q1(100, false)},
      {"scan<120",
       "for $o in doc(\"xmark.xml\")//open_auction[.//current/text() < 120] "
       "return $o",
       x.AuctionScan(120, true)},
      {"items q=2",
       "for $i in doc(\"xmark.xml\")//item[./quantity = 2] return $i",
       x.ItemQuantityScan(2)},
      {"persons", "for $p in doc(\"xmark.xml\")//person[.//province] return $p",
       x.PersonsWithProvince()},
      {"qty_lt", rox::XmarkQuantityIncreaseQuery(rox::CmpOp::kLt, 1),
       x.QuantityIncrease(rox::CmpOp::kLt, 1)},
      {"qty_ne", rox::XmarkQuantityIncreaseQuery(rox::CmpOp::kNe, 1),
       x.QuantityIncrease(rox::CmpOp::kNe, 1)},
      {"qty_ge", rox::XmarkQuantityIncreaseQuery(rox::CmpOp::kGe, 2),
       x.QuantityIncrease(rox::CmpOp::kGe, 2)},
      {"price_theta", rox::XmarkPriceThetaQuery(rox::CmpOp::kLe, 80, 170),
       x.PriceTheta(rox::CmpOp::kLe, 80, 170)},
      {"authors4", AuthorJoinQuery({"SIGMOD", "VLDB", "EDBT", "ADBIS"}),
       AuthorJoin(doc("SIGMOD"), {&doc("VLDB"), &doc("EDBT"), &doc("ADBIS")})},
      {"authors2", AuthorJoinQuery({"MLDM", "ICDM"}),
       AuthorJoin(doc("MLDM"), {&doc("ICDM")})},
      {"author_year_le", rox::DblpAuthorYearQuery("MLDM", "ICDM",
                                                  rox::CmpOp::kLe),
       AuthorYear(doc("MLDM"), doc("ICDM"), rox::CmpOp::kLe)},
      {"author_year_ne", rox::DblpAuthorYearQuery("ADBIS", "EDBT",
                                                  rox::CmpOp::kNe),
       AuthorYear(doc("ADBIS"), doc("EDBT"), rox::CmpOp::kNe)},
  };

  for (const CheckedQuery& c : cases) {
    rox::engine::QueryRequest req;
    req.text = c.text;
    rox::engine::QueryResponse r = engine.Execute(req);
    t.Expect(r.ok(), c.name + " runs: " + r.status.ToString());
    if (!r.ok()) continue;
    std::string why;
    t.Expect(SameItems(*r.result.items, c.expected, &why),
             c.name + " matches its oracle: " + why);
    t.Expect(!c.expected.empty() || c.name.rfind("author", 0) == 0,
             c.name + " has a non-empty oracle result");
    for (const auto& [what, damaged] : Perturb(*r.result.items)) {
      t.Expect(!SameItems(damaged, c.expected, &why),
               c.name + ": " + what + " is caught");
    }
  }

  // The HTTP response checker, on the wire JSON of a real response.
  const CheckedQuery& scan = cases[2];
  rox::engine::QueryRequest req;
  req.text = scan.text;
  rox::engine::QueryResponse resp = engine.Execute(req);
  uint64_t rows_hash = 0;
  for (rox::Pre p : scan.expected) {
    rows_hash = HashCombine(rows_hash, Fnv1a(rox::SerializeSubtree(xdoc, p)));
  }
  auto check = [&](const std::string& text, bool want_ok, bool want_truncated,
                   const std::string& what,
                   const std::function<void(Json*)>& edit) {
    Json body;
    std::string error;
    t.Expect(ParseJson(text, &body, &error), what + " parses: " + error);
    if (edit) edit(&body);
    bool truncated = false;
    std::string mismatch =
        CheckResponse(body, scan.expected.size(), rows_hash, &truncated);
    t.Expect(mismatch.empty() == want_ok && truncated == want_truncated,
             what + (want_ok ? " passes" : " is caught") + " (" + mismatch +
                 ")");
  };
  rox::engine::ResponseJsonOptions jopts;
  const std::string wire = resp.ToJson(jopts);
  auto rows_of = [](Json* b) -> std::vector<Json>& {
    for (auto& [k, v] : b->members) {
      if (k == "rows") return v.items;
    }
    return b->items;
  };
  check(wire, true, false, "intact response", nullptr);
  auto add_row_count = [](Json* b, double delta) {
    for (auto& [k, v] : b->members) {
      if (k == "row_count") v.number += delta;
    }
  };
  check(wire, false, true, "row_count above the rows sent",
        [&](Json* b) { add_row_count(b, 1); });
  check(wire, false, true, "dropped row",
        [&](Json* b) { rows_of(b).pop_back(); });
  check(wire, false, false, "dropped row with a matching row_count",
        [&](Json* b) {
          rows_of(b).pop_back();
          add_row_count(b, -1);
        });
  check(wire, false, false, "changed row",
        [&](Json* b) { rows_of(b)[0].str += " "; });
  check(wire, false, false, "reordered rows",
        [&](Json* b) { std::swap(rows_of(b)[0], rows_of(b)[1]); });
  jopts.max_rows = 1;
  check(resp.ToJson(jopts), false, true, "truncated response", nullptr);

  // The layer check, on one operation of 1000 us with a query span and
  // one child span.
  auto layer_check = [&](double query_us, double child_us, double measured_us,
                         bool want_within, const std::string& what) {
    LayerProfile profile;
    std::vector<SpanRec> spans(2);
    spans[0].name = "query";
    spans[0].dur_ns = query_us * 1e3;
    spans[1].name = "execute";
    spans[1].parent = 0;
    spans[1].dur_ns = child_us * 1e3;
    profile.AddOperation(spans, 1000e3);
    if (measured_us > 0) profile.AddMeasured("server.render", measured_us);
    bool within = false;
    profile.Render("selftest", 1000, kInProcessUnattributedPct,
                   kAttributedOverPct, &within);
    t.Expect(within == want_within,
             "layer check: " + what + (want_within ? " passes" : " is caught"));
  };
  layer_check(950, 700, 0, true, "spans covering 95% of the latency");
  layer_check(500, 300, 0, false, "half the latency unattributed");
  layer_check(500, 300, 450, true, "a measured layer closing the gap");
  layer_check(950, 700, 400, false, "a measured layer counted twice");
  layer_check(950, 1500, 0, false, "a child span longer than its parent");
  return t.Finish();
}

}  // namespace roxbench
