// Kernel-level truncation-invariant suite (DESIGN.md §14): every
// pair-producing join kernel is driven through {clean finish, limit
// trip, cancellation trip}, asserting the cut-off protocol invariants:
//
//  * the clean run matches a brute-force nested-loop reference built
//    here, compared per outer row as the set of matched nodes;
//  * truncated and outer_consumed are mutually consistent
//    (!truncated => outer_consumed == outer.size());
//  * outer_consumed <= outer.size();
//  * every emitted pair references a row < outer_consumed, and
//    left_rows stay grouped (non-decreasing);
//  * a limit run is exactly the first `limit` pairs of the clean run,
//    and a limit trip counts every row up to the tripping one;
//  * a cancellation trip keeps no partial row: its pairs are a whole-
//    row prefix of the clean run.
//
// Plus regression cases for the pre-§14 accounting bugs: limit trips
// under-reported outer_consumed when match-less rows preceded the
// tripping row, and MergeValueJoinPairs left outer_consumed stale on
// two of its exit paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "engine/governor.h"
#include "exec/join_result.h"
#include "exec/kernel_batch.h"
#include "exec/structural_join.h"
#include "exec/value_join.h"
#include "index/corpus.h"

namespace rox {
namespace {

// Outer inputs larger than kCancelCheckRows (and fan-outs producing
// > kCancelCheckRows pairs), so a pre-tripped token is guaranteed to
// stop every kernel mid-run through at least one poll.
constexpr size_t kRows = 5000;
constexpr size_t kMod = 8;   // distinct join values
constexpr size_t kDup = 3;   // inner text nodes per value

std::vector<Pre> TextNodes(const Document& doc) {
  std::vector<Pre> out;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) == NodeKind::kText) out.push_back(p);
  }
  return out;
}

// Left document: kRows <k>i%kMod</k>. Right document: per value, kDup
// <e>v</e> text nodes and one <a v="v"/> attribute — so every outer
// row equi-matches exactly kDup text nodes and exactly 1 attribute.
struct ValueFixture {
  Corpus corpus;
  DocId left = 0, right = 0;
  std::vector<Pre> outer;        // left text nodes, one per row
  std::vector<Pre> inner_texts;  // right text nodes
};

const ValueFixture& VF() {
  static const ValueFixture* f = [] {
    auto* v = new ValueFixture;
    std::string lxml = "<l>";
    for (size_t i = 0; i < kRows; ++i) {
      lxml += "<k>" + std::to_string(i % kMod) + "</k>";
    }
    lxml += "</l>";
    std::string rxml = "<r>";
    for (size_t j = 0; j < kMod; ++j) {
      for (size_t d = 0; d < kDup; ++d) {
        rxml += "<e>" + std::to_string(j) + "</e>";
      }
      rxml += "<a v=\"" + std::to_string(j) + "\"/>";
    }
    rxml += "</r>";
    auto l = v->corpus.AddXml(lxml, "left");
    auto r = v->corpus.AddXml(rxml, "right");
    ROX_CHECK(l.ok() && r.ok());
    v->left = *l;
    v->right = *r;
    v->outer = TextNodes(v->corpus.doc(v->left));
    v->inner_texts = TextNodes(v->corpus.doc(v->right));
    ROX_CHECK(v->outer.size() == kRows);
    return v;
  }();
  return *f;
}

// kRows <p><x/><x/></p> rows: descendant::x / child::x emit exactly 2
// pairs per context row.
struct StructFixture {
  Corpus corpus;
  DocId id = 0;
  std::vector<Pre> context;  // the <p> elements
};

const StructFixture& SF() {
  static const StructFixture* f = [] {
    auto* v = new StructFixture;
    std::string xml = "<s>";
    for (size_t i = 0; i < kRows; ++i) xml += "<p><x/><x/></p>";
    xml += "</s>";
    auto id = v->corpus.AddXml(xml, "struct");
    ROX_CHECK(id.ok());
    v->id = *id;
    auto span = v->corpus.element_index(v->id).Lookup(v->corpus.Find("p"));
    v->context.assign(span.begin(), span.end());
    ROX_CHECK(v->context.size() == kRows);
    return v;
  }();
  return *f;
}

void CheckInvariants(const JoinPairs& p, size_t outer_n) {
  ASSERT_EQ(p.left_rows.size(), p.right_nodes.size());
  EXPECT_LE(p.outer_consumed, outer_n);
  if (!p.truncated) {
    EXPECT_EQ(p.outer_consumed, outer_n);
  }
  for (size_t k = 0; k < p.left_rows.size(); ++k) {
    ASSERT_LT(p.left_rows[k], p.outer_consumed) << "pair " << k;
    if (k > 0) {
      ASSERT_LE(p.left_rows[k - 1], p.left_rows[k]) << "pair " << k;
    }
  }
}

void ExpectIdentical(const JoinPairs& a, const JoinPairs& b,
                     const char* what) {
  EXPECT_EQ(a.left_rows, b.left_rows) << what;
  EXPECT_EQ(a.right_nodes, b.right_nodes) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.outer_consumed, b.outer_consumed) << what;
}

// Expects `p`'s pairs to be the first p.size() pairs of `full`.
void ExpectPrefixOf(const JoinPairs& p, const JoinPairs& full,
                    const char* what) {
  ASSERT_LE(p.size(), full.size()) << what;
  EXPECT_TRUE(std::equal(p.left_rows.begin(), p.left_rows.end(),
                         full.left_rows.begin()))
      << what;
  EXPECT_TRUE(std::equal(p.right_nodes.begin(), p.right_nodes.end(),
                         full.right_nodes.begin()))
      << what;
}

// Per outer row, the sorted matched nodes (the brute-force reference
// shape). Within-row emission order differs by kernel — document order
// for index runs, (value, pre) order for range theta runs — so rows
// are compared as sets.
using RowMatches = std::vector<std::vector<Pre>>;

RowMatches GroupByRow(const JoinPairs& p, size_t outer_n) {
  RowMatches out(outer_n);
  for (size_t k = 0; k < p.size(); ++k) {
    out[p.left_rows[k]].push_back(p.right_nodes[k]);
  }
  for (auto& row : out) std::sort(row.begin(), row.end());
  return out;
}

// Nested-loop reference: row r matches every candidate s with
// match(outer[r], s), candidates scanned in document order.
template <typename Match>
RowMatches NestedLoop(std::span<const Pre> outer,
                      std::span<const Pre> candidates, const Match& match) {
  RowMatches out(outer.size());
  for (size_t r = 0; r < outer.size(); ++r) {
    for (Pre s : candidates) {
      if (match(outer[r], s)) out[r].push_back(s);
    }
  }
  return out;
}

// Every node of `doc` of kind `kind` (and name `name`, if valid).
std::vector<Pre> NodesOf(const Document& doc, NodeKind kind,
                         StringId name = kInvalidStringId) {
  std::vector<Pre> out;
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    if (doc.Kind(p) != kind) continue;
    if (name != kInvalidStringId && doc.Name(p) != name) continue;
    out.push_back(p);
  }
  return out;
}

// The comparison `outer op inner` over two nodes' string values:
// numeric for the range operators (non-numeric values never match),
// string (in)equality for kEq/kNe.
bool CompareValues(const Document& ldoc, Pre l, const Document& rdoc,
                   Pre r, CmpOp op) {
  std::string lv(ldoc.pool().Get(ldoc.Value(l)));
  std::string rv(rdoc.pool().Get(rdoc.Value(r)));
  if (op == CmpOp::kEq) return lv == rv;
  if (op == CmpOp::kNe) return lv != rv;
  double a = std::stod(lv), b = std::stod(rv);
  switch (op) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    default: return false;
  }
}

using Kernel =
    std::function<JoinPairs(uint64_t limit, const CancellationToken*)>;

// The full case matrix for one kernel. `pairs_per_row` > 0 asserts the
// sharp cancellation identity size == outer_consumed * pairs_per_row
// for uniform-fanout inputs — which fails if a tripped run keeps a
// partially-emitted row or counts it as consumed. `has_limit` is false
// for the full-execution kernels that take no cut-off (hash, merge).
void RunKernelMatrix(const Kernel& run, const RowMatches& oracle,
                     size_t pairs_per_row, bool has_limit, const char* what) {
  SCOPED_TRACE(what);
  const size_t outer_n = oracle.size();
  // Clean finish against the brute-force reference.
  JoinPairs clean = run(kNoLimit, nullptr);
  CheckInvariants(clean, outer_n);
  EXPECT_FALSE(clean.truncated);
  EXPECT_TRUE(GroupByRow(clean, outer_n) == oracle) << "clean vs oracle";
  const uint64_t total = clean.size();
  if (pairs_per_row > 0) {
    EXPECT_EQ(total, outer_n * pairs_per_row);
  }

  if (has_limit) {
    // Limit trips (and limits the result fits under).
    for (uint64_t limit : {uint64_t{1}, uint64_t{7}, uint64_t{64},
                           uint64_t{1000}, total, total + 10}) {
      SCOPED_TRACE("limit=" + std::to_string(limit));
      JoinPairs s = run(limit, nullptr);
      CheckInvariants(s, outer_n);
      EXPECT_EQ(s.truncated, limit < total);
      EXPECT_EQ(s.size(), std::min(limit, total));
      ExpectPrefixOf(s, clean, "limit prefix");
      if (s.truncated) {
        // The tripping row produced the sentinel, pair `limit` of the
        // clean run.
        EXPECT_EQ(s.outer_consumed, clean.left_rows[limit] + 1u);
      }
    }
  }

  // Cancellation trips: a pre-tripped token stops through the same
  // truncation protocol, keeping only whole rows.
  CancellationToken tok;
  tok.Cancel();
  JoinPairs c = run(kNoLimit, &tok);
  CheckInvariants(c, outer_n);
  if (total > kCancelCheckRows) {
    EXPECT_TRUE(c.truncated);
  }
  if (c.truncated && pairs_per_row > 0) {
    EXPECT_EQ(c.size(), c.outer_consumed * pairs_per_row);
  }
  ExpectPrefixOf(c, clean, "cancel prefix");
}

// --- the kernel matrix ------------------------------------------------------

// True iff `s` lies strictly inside `c`'s subtree (pre/size encoding).
bool InSubtree(const Document& doc, Pre c, Pre s) {
  return c < s && s <= c + doc.Size(c);
}

TEST(KernelInvariantTest, StructuralDescendantIndexed) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Descendant(sf.corpus.Find("x"));
  RowMatches oracle =
      NestedLoop(sf.context, NodesOf(doc, NodeKind::kElem, step.name),
                 [&](Pre c, Pre s) { return InSubtree(doc, c, s); });
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, sf.context, step, limit, idx, c);
      },
      oracle, 2, true, "descendant::x (bulk index range)");
}

TEST(KernelInvariantTest, StructuralChildSink) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Child(sf.corpus.Find("x"));
  RowMatches oracle =
      NestedLoop(sf.context, NodesOf(doc, NodeKind::kElem, step.name),
                 [&](Pre c, Pre s) { return doc.Parent(s) == c; });
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, sf.context, step, limit, idx, c);
      },
      oracle, 2, true, "child::x (per-match sink)");
}

TEST(KernelInvariantTest, StructuralDescendantOrSelfEmitsSelf) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  // Context nodes match the name test themselves and contain no other
  // <p>: exactly the self pair per row, through the bulk path's
  // self-emission.
  StepSpec step{Axis::kDescendantOrSelf, KindTest::kElem,
                sf.corpus.Find("p")};
  RowMatches oracle = NestedLoop(
      sf.context, NodesOf(doc, NodeKind::kElem, step.name),
      [&](Pre c, Pre s) { return s == c || InSubtree(doc, c, s); });
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        return StructuralJoinPairs(doc, sf.context, step, limit, idx, c);
      },
      oracle, 1, true, "descendant-or-self::p (self pairs)");
}

TEST(KernelInvariantTest, StructuralFollowingLimitAndCancel) {
  // following::x explodes quadratically (~2 * kRows pairs from row 0
  // alone), so the bulk suffix-range path is exercised under limits and
  // cancellation only — never to completion. Row 0's following x nodes
  // are every x outside its own subtree, in document order.
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step{Axis::kFollowing, KindTest::kElem, sf.corpus.Find("x")};
  const Pre first = sf.context[0];
  std::vector<Pre> row0;
  for (Pre s : NodesOf(doc, NodeKind::kElem, step.name)) {
    if (s > first + doc.Size(first)) row0.push_back(s);
  }
  for (uint64_t limit : {uint64_t{1}, uint64_t{1000}}) {
    JoinPairs s = StructuralJoinPairs(doc, sf.context, step, limit, idx);
    CheckInvariants(s, sf.context.size());
    EXPECT_TRUE(s.truncated);
    EXPECT_EQ(s.size(), limit);
    EXPECT_EQ(s.outer_consumed, 1u);
    ASSERT_LT(limit, row0.size());
    EXPECT_EQ(s.right_nodes,
              std::vector<Pre>(row0.begin(), row0.begin() + limit));
  }
  CancellationToken tok;
  tok.Cancel();
  JoinPairs c =
      StructuralJoinPairs(doc, sf.context, step, kNoLimit, idx, &tok);
  CheckInvariants(c, sf.context.size());
  EXPECT_TRUE(c.truncated);
}

TEST(KernelInvariantTest, ValueIndexEquiText) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  RowMatches oracle =
      NestedLoop(vf.outer, NodesOf(rdoc, NodeKind::kText), [&](Pre l, Pre r) {
        return CompareValues(ldoc, l, rdoc, r, CmpOp::kEq);
      });
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        JoinPairs out;
        ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc,
                                vidx, ValueProbeSpec::Text(), limit, out, c);
        return out;
      },
      oracle, kDup, true, "index-nl equi, text spec");
}

TEST(KernelInvariantTest, ValueIndexEquiAttr) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  ValueProbeSpec spec = ValueProbeSpec::Attr(vf.corpus.Find("v"));
  RowMatches oracle = NestedLoop(
      vf.outer, NodesOf(rdoc, NodeKind::kAttr, spec.attr_name),
      [&](Pre l, Pre r) {
        return CompareValues(ldoc, l, rdoc, r, CmpOp::kEq);
      });
  RunKernelMatrix(
      [&](uint64_t limit, const CancellationToken* c) {
        JoinPairs out;
        ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc,
                                vidx, spec, limit, out, c);
        return out;
      },
      oracle, 1, true, "index-nl equi, attr spec");
}

TEST(KernelInvariantTest, ValueIndexTheta) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  for (CmpOp op :
       {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kNe}) {
    RowMatches oracle = NestedLoop(
        vf.outer, NodesOf(rdoc, NodeKind::kText),
        [&](Pre l, Pre r) { return CompareValues(ldoc, l, rdoc, r, op); });
    RunKernelMatrix(
        [&](uint64_t limit, const CancellationToken* c) {
          return ValueIndexThetaJoinPairs(ldoc, vf.outer, rdoc, vidx,
                                          ValueProbeSpec::Text(), op, limit,
                                          c);
        },
        oracle, 0, true,
        ("index theta op=" + std::to_string(static_cast<int>(op))).c_str());
  }
}

TEST(KernelInvariantTest, SortTheta) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  for (CmpOp op :
       {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kNe}) {
    RowMatches oracle = NestedLoop(
        vf.outer, vf.inner_texts,
        [&](Pre l, Pre r) { return CompareValues(ldoc, l, rdoc, r, op); });
    RunKernelMatrix(
        [&](uint64_t limit, const CancellationToken* c) {
          return SortThetaJoinPairs(ldoc, vf.outer, rdoc, vf.inner_texts, op,
                                    limit, c);
        },
        oracle, 0, true,
        ("sort theta op=" + std::to_string(static_cast<int>(op))).c_str());
  }
}

TEST(KernelInvariantTest, HashProbe) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  RowMatches oracle =
      NestedLoop(vf.outer, vf.inner_texts, [&](Pre l, Pre r) {
        return CompareValues(ldoc, l, rdoc, r, CmpOp::kEq);
      });
  RunKernelMatrix(
      [&](uint64_t, const CancellationToken* c) {
        return HashValueJoinPairs(ldoc, vf.outer, rdoc, vf.inner_texts, c);
      },
      oracle, kDup, /*has_limit=*/false, "hash equi probe");
}

TEST(KernelInvariantTest, Merge) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  std::vector<Pre> os = SortByValueId(ldoc, vf.outer);
  std::vector<Pre> is = SortByValueId(rdoc, vf.inner_texts);
  // Merge rows index the value-sorted outer.
  RowMatches oracle = NestedLoop(os, vf.inner_texts, [&](Pre l, Pre r) {
    return CompareValues(ldoc, l, rdoc, r, CmpOp::kEq);
  });
  RunKernelMatrix(
      [&](uint64_t, const CancellationToken* c) {
        return MergeValueJoinPairs(ldoc, os, rdoc, is, c);
      },
      oracle, kDup, /*has_limit=*/false, "merge equi join");
}

// --- regression cases for the pre-fix accounting ----------------------------

// A limit trip must count every row up to and including the tripping
// one, even when rows before it matched nothing and none of the
// tripping row's pairs survive the sentinel pop. The former accounting
// derived outer_consumed from left_rows.back() and reported 1 here,
// skewing the reduction factor (and the |r|/f extrapolation) by 6x.
TEST(KernelInvariantTest, EquiLimitCountsMatchlessPrefix) {
  Corpus c;
  auto l = c.AddXml(
      "<l><k>a</k><k>z0</k><k>z1</k><k>z2</k><k>z3</k><k>a</k></l>", "l");
  auto r = c.AddXml("<r><e>a</e><e>a</e><e>a</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  std::vector<Pre> outer = TextNodes(ldoc);
  ASSERT_EQ(outer.size(), 6u);
  JoinPairs out;
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(outer), c.doc(*r),
                          c.value_index(*r), ValueProbeSpec::Text(),
                          /*limit=*/3, out);
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.size(), 3u);  // all from row 0; row 5's pair was the sentinel
  EXPECT_EQ(out.outer_consumed, 6u);
  CheckInvariants(out, outer.size());
}

// Same shape through the theta probe loop: non-numeric rows between the
// emitting row and the tripping row must still count as consumed.
TEST(KernelInvariantTest, ThetaLimitCountsMatchlessPrefix) {
  Corpus c;
  auto l = c.AddXml("<l><k>5</k><k>x</k><k>x</k><k>x</k><k>x</k><k>5</k></l>",
                    "l");
  auto r = c.AddXml("<r><e>10</e><e>20</e><e>30</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  const Document& rdoc = c.doc(*r);
  std::vector<Pre> outer = TextNodes(ldoc);
  std::vector<Pre> inner = TextNodes(rdoc);
  ASSERT_EQ(outer.size(), 6u);
  JoinPairs idx =
      ValueIndexThetaJoinPairs(ldoc, outer, rdoc, c.value_index(*r),
                               ValueProbeSpec::Text(), CmpOp::kLt,
                               /*limit=*/3);
  EXPECT_TRUE(idx.truncated);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.outer_consumed, 6u);
  CheckInvariants(idx, outer.size());

  JoinPairs sorted =
      SortThetaJoinPairs(ldoc, outer, rdoc, inner, CmpOp::kLt, /*limit=*/3);
  ExpectIdentical(idx, sorted, "index vs sort theta");
}

// MergeValueJoinPairs formerly returned from its group cross-product
// loop without setting outer_consumed (leaving 0 with thousands of
// pairs emitted), and stamped truncated without adjusting
// outer_consumed on the loop-head trip.
TEST(KernelInvariantTest, MergeCancellationKeepsPairsWithinConsumedPrefix) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  std::vector<Pre> os = SortByValueId(ldoc, vf.outer);
  std::vector<Pre> is = SortByValueId(rdoc, vf.inner_texts);
  CancellationToken tok;
  tok.Cancel();
  JoinPairs p = MergeValueJoinPairs(ldoc, os, rdoc, is, &tok);
  EXPECT_TRUE(p.truncated);
  EXPECT_GT(p.outer_consumed, 0u);
  EXPECT_LT(p.outer_consumed, os.size());
  // Every sorted row matches exactly kDup inner nodes, so a correct
  // stop leaves exactly the consumed prefix's pairs.
  EXPECT_EQ(p.size(), p.outer_consumed * kDup);
  CheckInvariants(p, os.size());
}

// The merge's value-less-tail early exit is a clean finish: value-less
// rows never join, so every outer row counts as consumed.
TEST(KernelInvariantTest, MergeValuelessTailCountsAsConsumed) {
  Corpus c;
  auto l = c.AddXml("<l><k>a</k><k>a</k><k/><k/></l>", "l");
  auto r = c.AddXml("<r><e>a</e></r>", "r");
  ASSERT_TRUE(l.ok() && r.ok());
  const Document& ldoc = c.doc(*l);
  const Document& rdoc = c.doc(*r);
  auto kspan = c.element_index(*l).Lookup(c.Find("k"));
  std::vector<Pre> outer(kspan.begin(), kspan.end());
  ASSERT_EQ(outer.size(), 4u);
  std::vector<Pre> os = SortByValueId(ldoc, outer);
  std::vector<Pre> is = SortByValueId(rdoc, TextNodes(rdoc));
  JoinPairs p = MergeValueJoinPairs(ldoc, os, rdoc, is);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_FALSE(p.truncated);
  EXPECT_EQ(p.outer_consumed, 4u);
  EXPECT_EQ(p.left_rows, (std::vector<uint32_t>{0, 1}));
  CheckInvariants(p, os.size());
}

// --- selection-vector entry points ------------------------------------------

// A PreColumn with a selection vector must produce exactly what the
// gathered copy of the same rows produces.
TEST(KernelInvariantTest, PreColumnSelectionMatchesGather) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; i += 3) sel.push_back(i);
  PreColumn col{vf.outer.data(), sel.data(), sel.size()};
  std::vector<Pre> gathered;
  gathered.reserve(sel.size());
  for (uint32_t s : sel) gathered.push_back(vf.outer[s]);

  ValueHashTable table(rdoc, vf.inner_texts);
  for (uint64_t limit : {kNoLimit, uint64_t{100}}) {
    JoinPairs a, b;
    ValueIndexJoinPairsInto(ldoc, col, rdoc, vidx, ValueProbeSpec::Text(),
                            limit, a);
    ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(gathered), rdoc, vidx,
                            ValueProbeSpec::Text(), limit, b);
    ExpectIdentical(a, b, "equi precolumn");
    CheckInvariants(a, sel.size());
  }
  JoinPairs a, b;
  table.ProbeInto(ldoc, col, a);
  table.ProbeInto(ldoc, std::span<const Pre>(gathered), b);
  ExpectIdentical(a, b, "hash precolumn");
}

TEST(KernelInvariantTest, StructuralPreColumnMatchesGather) {
  const StructFixture& sf = SF();
  const Document& doc = sf.corpus.doc(sf.id);
  const ElementIndex* idx = &sf.corpus.element_index(sf.id);
  StepSpec step = StepSpec::Descendant(sf.corpus.Find("x"));
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; i += 7) sel.push_back(i);
  PreColumn col{sf.context.data(), sel.data(), sel.size()};
  std::vector<Pre> gathered;
  for (uint32_t s : sel) gathered.push_back(sf.context[s]);
  for (uint64_t limit : {kNoLimit, uint64_t{33}}) {
    JoinPairs a, b;
    StructuralJoinPairsInto(doc, col, step, limit, idx, a);
    StructuralJoinPairsInto(doc, std::span<const Pre>(gathered), step, limit,
                            idx, b);
    ExpectIdentical(a, b, "structural precolumn");
    CheckInvariants(a, sel.size());
  }
}

// The *Into variants clear a reused (dirty, previously truncated)
// buffer completely — stale pairs or flags must not leak into the next
// probe.
TEST(KernelInvariantTest, IntoVariantsClearReusedBuffers) {
  const ValueFixture& vf = VF();
  const Document& ldoc = vf.corpus.doc(vf.left);
  const Document& rdoc = vf.corpus.doc(vf.right);
  const ValueIndex& vidx = vf.corpus.value_index(vf.right);
  JoinPairs reused, fresh;
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc, vidx,
                          ValueProbeSpec::Text(), /*limit=*/5, reused);
  EXPECT_TRUE(reused.truncated);
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc, vidx,
                          ValueProbeSpec::Text(), kNoLimit, reused);
  ValueIndexJoinPairsInto(ldoc, std::span<const Pre>(vf.outer), rdoc, vidx,
                          ValueProbeSpec::Text(), kNoLimit, fresh);
  ExpectIdentical(reused, fresh, "buffer reuse");
}

}  // namespace
}  // namespace rox
