// Late materialization correctness (DESIGN.md §8): the view layer must
// reproduce the eager ResultTable operators byte for byte, and whole
// query runs — including cut-off/approximate execution — must return
// identical result sequences with lazy_materialization on and off.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classical/executor.h"
#include "classical/plans.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "exec/column_arena.h"
#include "exec/result_table.h"
#include "exec/result_view.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xq/compile.h"

namespace rox {
namespace {

// --- view-layer property tests ---------------------------------------------

ResultTable RandomTable(Rng& rng, size_t cols, uint64_t rows,
                        uint32_t domain) {
  ResultTable t(cols);
  for (size_t c = 0; c < cols; ++c) {
    t.MutableCol(c).reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      t.MutableCol(c).push_back(static_cast<Pre>(rng.Below(domain)));
    }
  }
  return t;
}

bool TablesEqual(const ResultTable& a, const ResultTable& b) {
  if (a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows()) return false;
  for (size_t c = 0; c < a.NumCols(); ++c) {
    if (a.Col(c) != b.Col(c)) return false;
  }
  return true;
}

TEST(ResultViewTest, SelectRowsMatchesEager) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    ResultTable t = RandomTable(rng, 1 + rng.Below(4), rng.Below(200), 50);
    std::vector<uint32_t> rows;
    for (uint64_t i = 0; i < t.NumRows(); ++i) {
      if (rng.Below(3) == 0) rows.push_back(static_cast<uint32_t>(i));
      if (rng.Below(7) == 0) rows.push_back(static_cast<uint32_t>(i));
    }
    ColumnArena arena;
    ResultView v = ResultView::FromTable(t);
    // Stack two selections so composed (indexed) columns get exercised.
    ResultView first = SelectRowsView(v, rows, arena);
    std::vector<uint32_t> rows2;
    for (uint64_t i = 0; i < first.NumRows(); i += 2) {
      rows2.push_back(static_cast<uint32_t>(i));
    }
    ResultView second = SelectRowsView(first, rows2, arena);
    ResultTable eager = t.SelectRows(rows).SelectRows(rows2);
    EXPECT_TRUE(TablesEqual(second.Gather(nullptr), eager));
  }
}

// Pairs grouped by left row, as all pair-producing joins emit them.
JoinPairs RandomPairs(Rng& rng, uint64_t outer_rows, uint32_t domain) {
  JoinPairs p;
  for (uint64_t r = 0; r < outer_rows; ++r) {
    uint64_t n = rng.Below(4);
    for (uint64_t k = 0; k < n; ++k) {
      p.left_rows.push_back(static_cast<uint32_t>(r));
      p.right_nodes.push_back(static_cast<Pre>(rng.Below(domain)));
    }
  }
  p.outer_consumed = outer_rows;
  return p;
}

TEST(ResultViewTest, ExtendMatchesEager) {
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    ResultTable t = RandomTable(rng, 1 + rng.Below(4), rng.Below(100), 40);
    JoinPairs pairs = RandomPairs(rng, t.NumRows(), 40);
    ResultTable eager = ExtendTableWithPairs(t, pairs);
    ColumnArena arena;
    ResultView v = ResultView::FromTable(t);
    ResultView out = ExtendViewWithPairs(v, std::move(pairs), arena);
    EXPECT_TRUE(TablesEqual(out.Gather(nullptr), eager));
  }
}

TEST(ResultViewTest, JoinMatchesEager) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    ResultTable outer = RandomTable(rng, 1 + rng.Below(3), rng.Below(80), 30);
    ResultTable inner = RandomTable(rng, 1 + rng.Below(3), rng.Below(80), 30);
    size_t inner_col = rng.Below(inner.NumCols());
    JoinPairs pairs = RandomPairs(rng, outer.NumRows(), 30);
    ResultTable eager = JoinTablesWithPairs(outer, pairs, inner, inner_col);
    ColumnArena arena;
    ResultView out =
        JoinViewsWithPairs(ResultView::FromTable(outer), pairs,
                           ResultView::FromTable(inner), inner_col, arena);
    EXPECT_TRUE(TablesEqual(out.Gather(nullptr), eager));
  }
}

TEST(ResultViewTest, DistinctColumnMatchesEager) {
  Rng rng(4);
  ResultTable t = RandomTable(rng, 2, 300, 25);
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < t.NumRows(); i += 3) rows.push_back(i);
  ColumnArena arena;
  ResultView v = SelectRowsView(ResultView::FromTable(t), rows, arena);
  ResultTable eager = t.SelectRows(rows);
  EXPECT_EQ(v.DistinctColumn(0), eager.DistinctColumn(0));
  EXPECT_EQ(v.DistinctColumn(1), eager.DistinctColumn(1));
}

TEST(ResultViewTest, DeadColumnsAreElidedButLiveOnesSurvive) {
  Rng rng(5);
  ResultTable t = RandomTable(rng, 3, 100, 20);
  std::vector<uint32_t> rows = {5, 1, 7, 7, 30};
  std::vector<bool> live = {true, false, true};
  ColumnArena arena;
  ResultView v =
      SelectRowsView(ResultView::FromTable(t), rows, arena, &live);
  EXPECT_FALSE(v.Dead(0));
  EXPECT_TRUE(v.Dead(1));
  EXPECT_FALSE(v.Dead(2));
  ResultTable eager = t.SelectRows(rows);
  std::vector<Pre> col;
  v.GatherColumnInto(0, col, nullptr);
  EXPECT_EQ(col, eager.Col(0));
  v.GatherColumnInto(2, col, nullptr);
  EXPECT_EQ(col, eager.Col(2));
}

TEST(ColumnArenaTest, AdoptKeepsDataStableWithoutCopy) {
  ColumnArena arena;
  std::vector<uint32_t> v = {1, 2, 3};
  const uint32_t* data = v.data();
  std::span<const uint32_t> s = arena.Adopt(std::move(v));
  EXPECT_EQ(s.data(), data);  // zero-copy: same heap buffer
  // Later allocations must not disturb adopted storage.
  for (int i = 0; i < 100; ++i) arena.Alloc(1000);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[2], 3u);
}

// --- end-to-end differential tests -----------------------------------------

Corpus TestCorpus() {
  Corpus corpus;
  XmarkGenOptions gen;
  gen.items = 400;
  gen.persons = 450;
  gen.open_auctions = 250;
  EXPECT_TRUE(GenerateXmarkDocument(corpus, gen).ok());
  DblpGenOptions dblp;
  dblp.tag_scale = 0.05;
  EXPECT_TRUE(AddDblpDocuments(corpus, dblp, {18, 19, 20}).ok());
  // A deep chain document for multi-step chain queries.
  std::string xml = "<root>";
  for (int c = 0; c < 30; ++c) {
    xml += "<a><b><a><b><a><b><t/></b></a></b></a></b></a>";
  }
  xml += "</root>";
  EXPECT_TRUE(corpus.AddXml(xml, "chain.xml").ok());
  return corpus;
}

// Q1-shaped query with a randomized price threshold and direction.
std::string XmarkQuery(uint32_t threshold, bool less_than) {
  std::string q = R"(let $d := doc("xmark.xml")
      for $o in $d//open_auction[.//current/text() )";
  q += less_than ? "<" : ">";
  q += " " + std::to_string(threshold) + R"(],
          $p in $d//person[.//province],
          $i in $d//item[./quantity = 1]
      where $o//bidder//personref/@person = $p/@id and
            $o//itemref/@item = $i/@id
      return $o)";
  return q;
}

std::vector<std::string> DifferentialQueries() {
  std::vector<std::string> queries;
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        XmarkQuery(40 + static_cast<uint32_t>(rng.Below(180)), i % 2 == 0));
  }
  // Deep chain: only the last step's column survives to the tail.
  queries.push_back(
      R"(let $d := doc("chain.xml")
         for $x in $d//a//b//a//b//t return $x)");
  // DBLP equi-joins (2-way and 3-way author joins).
  queries.push_back(
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author
         where $a/text() = $b/text() return $a)");
  queries.push_back(
      R"(for $a in doc("SIGMOD")//author, $b in doc("EDBT")//author,
             $c in doc("ADBIS")//author
         where $a/text() = $b/text() and $a/text() = $c/text()
         return $b)");
  // Disconnected join graph: components combine via cross product.
  queries.push_back(
      R"(for $p in doc("xmark.xml")//person[.//province],
             $i in doc("xmark.xml")//item[./quantity = 1]
         return $p)");
  return queries;
}

std::vector<Pre> RunWithOptions(const Corpus& corpus, const std::string& q,
                                RoxOptions rox, bool lazy,
                                RoxStats* stats = nullptr) {
  rox.lazy_materialization = lazy;
  auto compiled = xq::CompileXQuery(corpus, q);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto items = xq::RunXQuery(corpus, *compiled, rox, stats);
  EXPECT_TRUE(items.ok()) << items.status().ToString();
  return items.ok() ? *items : std::vector<Pre>{};
}

TEST(MaterializationDifferentialTest, LazyMatchesEagerOnAllQueries) {
  Corpus corpus = TestCorpus();
  RoxOptions rox;
  rox.seed = 99;
  size_t i = 0;
  for (const std::string& q : DifferentialQueries()) {
    RoxStats lazy_stats;
    std::vector<Pre> eager = RunWithOptions(corpus, q, rox, false);
    std::vector<Pre> lazy = RunWithOptions(corpus, q, rox, true, &lazy_stats);
    EXPECT_EQ(eager, lazy) << "query #" << i;
    // Row-count accounting is representation-independent.
    RoxStats eager_stats;
    RunWithOptions(corpus, q, rox, false, &eager_stats);
    EXPECT_EQ(eager_stats.peak_intermediate_rows,
              lazy_stats.peak_intermediate_rows)
        << "query #" << i;
    ++i;
  }
}

TEST(MaterializationDifferentialTest, CutOffAndApproximateRunsMatch) {
  Corpus corpus = TestCorpus();
  // Tiny tau forces truncated (cut-off) sampled executions everywhere;
  // approximate_fraction materializes sampled subsets of every vertex
  // table. Same seed -> both modes must still agree exactly.
  RoxOptions rox;
  rox.seed = 1234;
  rox.tau = 15;
  rox.approximate_fraction = 0.5;
  for (const std::string& q : DifferentialQueries()) {
    EXPECT_EQ(RunWithOptions(corpus, q, rox, false),
              RunWithOptions(corpus, q, rox, true));
  }
}

TEST(MaterializationDifferentialTest, EngineFlagKeepsResultsIdentical) {
  std::vector<std::shared_ptr<const std::vector<Pre>>> results;
  for (bool lazy : {false, true}) {
    engine::EngineOptions opts;
    opts.num_threads = 2;
    opts.lazy_materialization = lazy;
    opts.cache_results = false;
    engine::Engine engine(TestCorpus(), opts);
    auto r = engine.Run(XmarkQuery(145, true));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    results.push_back(r.items);
    if (lazy) {
      EXPECT_GT(r.rox_stats.gather.gather_count, 0u);
      EXPECT_GT(engine.Stats().gather_count, 0u);
    }
  }
  EXPECT_EQ(*results[0], *results[1]);
}

TEST(MaterializationDifferentialTest, ClassicalExecutorLazyMatchesEager) {
  std::vector<bench::Combo> combos = bench::SampleCombos(1, 5);
  ASSERT_FALSE(combos.empty());
  DblpGenOptions gen;
  gen.tag_scale = 0.05;
  auto corpus = bench::ComboCorpus(combos[0], gen);
  ASSERT_TRUE(corpus.ok());
  std::vector<DocId> docs = {0, 1, 2, 3};
  CanonicalPlanExecutor eager(*corpus, docs, /*lazy=*/false);
  CanonicalPlanExecutor lazy(*corpus, docs, /*lazy=*/true);
  int checked = 0;
  for (const JoinOrder& order : EnumerateJoinOrders4()) {
    if (++checked > 4) break;  // a few orders x all placements suffice
    for (StepPlacement p : kAllPlacements) {
      auto re = eager.Run(order, p);
      auto rl = lazy.Run(order, p);
      ASSERT_TRUE(re.ok() && rl.ok());
      EXPECT_EQ(re->join_result_sizes, rl->join_result_sizes);
      EXPECT_EQ(re->cumulative_join_rows, rl->cumulative_join_rows);
      EXPECT_EQ(re->result_rows, rl->result_rows);
    }
  }
}

}  // namespace
}  // namespace rox
