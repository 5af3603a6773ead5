// Tests for corpus versioning (DESIGN.md §10): CorpusBuilder copy-on-
// write deltas, CorpusSnapshot pinning, live Engine ingestion, and the
// epoch-keyed query cache (stale hits must be impossible).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "index/corpus.h"
#include "xq/compile.h"

namespace rox {
namespace {

// A small library document with `books` <book> elements.
std::string LibraryXml(int books, const std::string& tag = "book") {
  std::string xml = "<lib>";
  for (int i = 0; i < books; ++i) {
    xml += "<" + tag + "><title>t" + std::to_string(i) + "</title><year>" +
           std::to_string(2000 + i) + "</year></" + tag + ">";
  }
  xml += "</lib>";
  return xml;
}

Corpus MakeBaseCorpus() {
  Corpus corpus;
  EXPECT_TRUE(corpus.AddXml(LibraryXml(3), "a.xml").ok());
  EXPECT_TRUE(corpus.AddXml(LibraryXml(5), "b.xml").ok());
  return corpus;
}

// --- CorpusBuilder ----------------------------------------------------------

TEST(CorpusBuilderTest, BuildStampsNextEpochAndSharesUnchangedDocs) {
  Corpus base = MakeBaseCorpus();
  EXPECT_EQ(base.epoch(), 0u);

  CorpusBuilder builder(base);
  auto id = builder.AddXml(LibraryXml(7), "c.xml");
  ASSERT_TRUE(id.ok());
  Corpus next = std::move(builder).Build();

  EXPECT_EQ(next.epoch(), 1u);
  EXPECT_EQ(next.DocCount(), 3u);
  EXPECT_EQ(next.LiveDocCount(), 3u);
  // The base epoch is untouched.
  EXPECT_EQ(base.epoch(), 0u);
  EXPECT_EQ(base.DocCount(), 2u);
  EXPECT_FALSE(base.Resolve("c.xml").ok());
  // Unchanged documents are shared by pointer (copy-on-write), not
  // copied.
  EXPECT_EQ(next.DocPtrOrNull(0), base.DocPtrOrNull(0));
  EXPECT_EQ(next.DocPtrOrNull(1), base.DocPtrOrNull(1));
  EXPECT_EQ(&next.element_index(0), &base.element_index(0));
  EXPECT_EQ(&next.value_index(1), &base.value_index(1));
}

TEST(CorpusBuilderTest, RemoveTombstonesWithoutDisturbingTheBase) {
  Corpus base = MakeBaseCorpus();
  CorpusBuilder builder(base);
  ASSERT_TRUE(builder.Remove("a.xml").ok());
  EXPECT_FALSE(builder.Remove("nope.xml").ok());
  Corpus next = std::move(builder).Build();

  // The slot stays (DocIds are never reused) but is dead.
  EXPECT_EQ(next.DocCount(), 2u);
  EXPECT_EQ(next.LiveDocCount(), 1u);
  EXPECT_FALSE(next.IsLive(0));
  EXPECT_TRUE(next.IsLive(1));
  EXPECT_FALSE(next.Resolve("a.xml").ok());
  EXPECT_TRUE(next.Resolve("b.xml").ok());
  // The base still serves the removed document.
  EXPECT_TRUE(base.IsLive(0));
  EXPECT_TRUE(base.Resolve("a.xml").ok());
  EXPECT_EQ(base.doc(0).name(), "a.xml");
}

TEST(CorpusBuilderTest, ReaddedNameGetsFreshDocId) {
  Corpus base = MakeBaseCorpus();
  CorpusBuilder b1(base);
  ASSERT_TRUE(b1.Remove("a.xml").ok());
  Corpus e1 = std::move(b1).Build();

  CorpusBuilder b2(e1);
  auto id = b2.AddXml(LibraryXml(9), "a.xml");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);  // appended, slot 0 is never reused
  Corpus e2 = std::move(b2).Build();
  EXPECT_EQ(e2.epoch(), 2u);
  EXPECT_FALSE(e2.IsLive(0));
  ASSERT_TRUE(e2.Resolve("a.xml").ok());
  EXPECT_EQ(*e2.Resolve("a.xml"), 2u);
}

TEST(CorpusBuilderTest, DuplicateNameIsRejected) {
  Corpus base = MakeBaseCorpus();
  CorpusBuilder builder(base);
  EXPECT_FALSE(builder.AddXml(LibraryXml(1), "a.xml").ok());
}

TEST(CorpusBuilderTest, StringPoolIsSharedAndAppendOnlyAcrossEpochs) {
  Corpus base = MakeBaseCorpus();
  StringId title = base.Find("title");
  ASSERT_NE(title, kInvalidStringId);
  size_t size_before = base.string_pool().size();

  CorpusBuilder builder(base);
  ASSERT_TRUE(builder.AddXml(LibraryXml(2, "novel"), "c.xml").ok());
  Corpus next = std::move(builder).Build();

  // One pool per lineage: interned ids stay stable across epochs.
  EXPECT_EQ(next.pool().get(), base.pool().get());
  EXPECT_EQ(next.Find("title"), title);
  EXPECT_EQ(next.string_pool().Get(title), "title");
  EXPECT_NE(next.Find("novel"), kInvalidStringId);
  EXPECT_GT(next.string_pool().size(), size_before);
}

// --- CorpusSnapshot ---------------------------------------------------------

TEST(CorpusSnapshotTest, OwningSnapshotPinsTheEpoch) {
  auto shared = std::make_shared<const Corpus>(MakeBaseCorpus());
  CorpusSnapshot snap(shared);
  EXPECT_TRUE(snap.pinned());
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(&*snap, shared.get());
  // Dropping the original reference must not free the corpus.
  const Corpus* raw = shared.get();
  shared.reset();
  EXPECT_EQ(snap->DocCount(), 2u);
  EXPECT_EQ(&snap.corpus(), raw);
}

TEST(CorpusSnapshotTest, UnownedSnapshotFromReference) {
  Corpus corpus = MakeBaseCorpus();
  CorpusSnapshot snap = corpus;  // implicit, unowned
  EXPECT_FALSE(snap.pinned());
  EXPECT_EQ(&*snap, &corpus);
}

// --- live Engine ingestion --------------------------------------------------

constexpr char kCountBooksA[] = "for $b in doc(\"a.xml\")//book return $b";
constexpr char kCountBooksC[] = "for $b in doc(\"c.xml\")//book return $b";

TEST(EngineIngestTest, AddDocumentsPublishesAQueryableEpoch) {
  engine::Engine eng(MakeBaseCorpus());
  EXPECT_EQ(eng.CurrentEpoch(), 0u);
  // The new document is invisible (a compile-time NotFound) before the
  // publish...
  EXPECT_FALSE(eng.Run(kCountBooksC).ok());

  auto ids = eng.AddDocuments({{"c.xml", LibraryXml(7)},
                               {"d.xml", LibraryXml(2)}});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 2u);
  EXPECT_EQ(eng.CurrentEpoch(), 1u);

  // ...and queryable right after.
  engine::QueryResult r = eng.Run(kCountBooksC);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.items->size(), 7u);
  EXPECT_EQ(r.epoch, 1u);
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.docs_added, 2u);
  EXPECT_EQ(stats.docs_removed, 0u);
}

TEST(EngineIngestTest, EmptyAddIsANoOp) {
  engine::Engine eng(MakeBaseCorpus());
  auto ids = eng.AddDocuments({});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
  EXPECT_EQ(eng.CurrentEpoch(), 0u);
  EXPECT_EQ(eng.Stats().publishes, 0u);
}

TEST(EngineIngestTest, FailedIngestPublishesNothing) {
  engine::Engine eng(MakeBaseCorpus());
  // Second document clashes with an existing name: the whole call
  // fails and no epoch is published.
  auto ids = eng.AddDocuments({{"c.xml", LibraryXml(1)},
                               {"a.xml", LibraryXml(1)}});
  EXPECT_FALSE(ids.ok());
  EXPECT_EQ(eng.CurrentEpoch(), 0u);
  EXPECT_FALSE(eng.Run(kCountBooksC).ok());
  EXPECT_EQ(eng.Stats().publishes, 0u);
}

TEST(EngineIngestTest, RemoveDocumentHidesItFromNewQueriesOnly) {
  engine::Engine eng(MakeBaseCorpus());
  engine::QueryResult before = eng.Run(kCountBooksA);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.items->size(), 3u);

  // Pin the pre-remove epoch the way an in-flight query would.
  std::shared_ptr<const Corpus> pinned = eng.CurrentSnapshot();

  ASSERT_TRUE(eng.RemoveDocument("a.xml").ok());
  EXPECT_EQ(eng.CurrentEpoch(), 1u);
  EXPECT_FALSE(eng.RemoveDocument("a.xml").ok());  // already gone
  EXPECT_EQ(eng.CurrentEpoch(), 1u);               // failed: no publish

  // New queries see the document gone...
  EXPECT_FALSE(eng.Run(kCountBooksA).ok());
  // ...but the pinned snapshot still serves it, byte-identically: a
  // fresh single-epoch engine over the pinned corpus reproduces the
  // pre-remove result.
  engine::Engine ref(pinned);
  engine::QueryResult after = ref.Run(kCountBooksA);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after.items, *before.items);

  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.docs_removed, 1u);
  EXPECT_EQ(stats.publishes, 1u);
}

// --- epoch-keyed caching (the regression satellite) ------------------------

TEST(EngineEpochCacheTest, PublishInvalidatesResultAndPlanCaches) {
  engine::Engine eng(MakeBaseCorpus());
  engine::QueryResult cold = eng.Run(kCountBooksA);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.items->size(), 3u);
  engine::QueryResult hot = eng.Run(kCountBooksA);
  ASSERT_TRUE(hot.ok());
  EXPECT_TRUE(hot.result_cache_hit);

  // Replace a.xml (remove + re-add with different content) across two
  // publishes. A stale plan would still point at the tombstoned DocId;
  // a stale result would replay 3 items.
  ASSERT_TRUE(eng.RemoveDocument("a.xml").ok());
  ASSERT_TRUE(eng.AddDocuments({{"a.xml", LibraryXml(9)}}).ok());
  EXPECT_EQ(eng.CurrentEpoch(), 2u);

  engine::QueryResult fresh = eng.Run(kCountBooksA);
  ASSERT_TRUE(fresh.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.result_cache_hit);
  EXPECT_FALSE(fresh.plan_cache_hit);
  EXPECT_EQ(fresh.items->size(), 9u);
  EXPECT_EQ(fresh.epoch, 2u);
  // The re-added document lives in a fresh slot.
  EXPECT_NE(fresh.result_doc, cold.result_doc);

  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.stale_cache_hits, 0u);
  EXPECT_GT(stats.cache_invalidations, 0u);
}

TEST(EngineEpochCacheTest, StaleWarmStartWeightsAreImpossible) {
  engine::EngineOptions options;
  options.cache_results = false;  // force re-execution so weights matter
  engine::Engine eng(MakeBaseCorpus(), options);

  ASSERT_TRUE(eng.Run(kCountBooksA).ok());
  engine::QueryResult warm = eng.Run(kCountBooksA);
  ASSERT_TRUE(warm.ok());
  // (Single-edge queries may or may not warm-start; what matters is
  // the post-publish behavior below.)

  ASSERT_TRUE(eng.AddDocuments({{"c.xml", LibraryXml(4)}}).ok());
  engine::QueryResult post = eng.Run(kCountBooksA);
  ASSERT_TRUE(post.ok());
  // The dead epoch's weights were purged: the first post-publish run
  // can never adopt them.
  EXPECT_FALSE(post.warm_started);
  EXPECT_FALSE(post.plan_cache_hit);
  EXPECT_EQ(eng.Stats().stale_cache_hits, 0u);
}

TEST(EngineEpochCacheTest, CapacityEvictionAcrossEpochsKeepsServing) {
  engine::EngineOptions options;
  options.cache_capacity = 2;
  engine::Engine eng(MakeBaseCorpus(), options);
  const std::string qa = kCountBooksA;
  const std::string qb = "for $b in doc(\"b.xml\")//book return $b";

  for (int round = 0; round < 3; ++round) {
    engine::QueryResult ra = eng.Run(qa);
    engine::QueryResult rb = eng.Run(qb);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra.items->size(), 3u);
    EXPECT_EQ(rb.items->size(), 5u);
    // Each publish moves to a new epoch; old entries are purged and
    // the tiny cache keeps cycling without ever serving stale data.
    ASSERT_TRUE(
        eng.AddDocuments({{"extra" + std::to_string(round) + ".xml",
                           LibraryXml(1)}})
            .ok());
  }
  EXPECT_LE(eng.CacheSize(), 2u);
  EXPECT_EQ(eng.Stats().stale_cache_hits, 0u);
}

TEST(EngineEpochCacheTest, CacheListingsCarryTheEpoch) {
  engine::Engine eng(MakeBaseCorpus());
  ASSERT_TRUE(eng.Run(kCountBooksA).ok());
  ASSERT_TRUE(eng.AddDocuments({{"c.xml", LibraryXml(2)}}).ok());
  ASSERT_TRUE(eng.Run(kCountBooksA).ok());
  auto listing = eng.CacheContents();
  ASSERT_EQ(listing.size(), 1u);  // epoch-0 entry was invalidated
  EXPECT_EQ(listing[0].epoch, 1u);
}

}  // namespace
}  // namespace rox
