// A corpus bundles the documents of an experiment with their indexes
// and the shared string pool.
//
// In the paper, fn:doc(url) resolves documents at run time; the corpus
// plays the role of that resolver, and building the per-document element
// and value indexes corresponds to MonetDB/XQuery's shredding-time index
// construction.
//
// Versioning (DESIGN.md §10). A Corpus is one *epoch*: an immutable
// value once it is served. Documents and index bundles are held by
// shared_ptr, so producing the next epoch is a copy-on-write delta —
// CorpusBuilder copies the slot vectors (cheap pointer copies), parses
// and indexes only the new documents, tombstones removed ones, and
// Build() stamps epoch+1. DocIds are slot positions and are never
// reused; the StringPool is shared append-only across every epoch of
// the lineage, so interned ids stay stable and cross-epoch cached
// StringIds remain valid. A CorpusSnapshot pins one epoch for the
// duration of a query: everything it can reach is frozen.

#ifndef ROX_INDEX_CORPUS_H_
#define ROX_INDEX_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "index/element_index.h"
#include "index/value_index.h"
#include "xml/document.h"

namespace rox {

// Per-document index bundle.
struct DocumentIndexes {
  std::unique_ptr<ElementIndex> element;
  std::unique_ptr<ValueIndex> value;
};

// One corpus epoch. Mutable only while being built (initial Add/AddXml
// calls, or inside a CorpusBuilder); immutable once served.
class Corpus {
 public:
  Corpus() : pool_(std::make_shared<StringPool>()) {}

  // Copying is cheap and shares the immutable documents and indexes —
  // it is how CorpusBuilder starts the next epoch's delta.
  Corpus(const Corpus&) = default;
  Corpus& operator=(const Corpus&) = default;
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  // Which epoch this corpus value is. 0 for a freshly built corpus;
  // CorpusBuilder::Build stamps base epoch + 1.
  uint64_t epoch() const { return epoch_; }

  // The pool to hand to DocumentBuilder / ParseXml so all documents of
  // this corpus share interned ids.
  std::shared_ptr<StringPool> pool() const { return pool_; }
  const StringPool& string_pool() const { return *pool_; }

  // Adds a document (which must use this corpus's pool) and builds its
  // indexes. Returns the assigned DocId.
  Result<DocId> Add(std::unique_ptr<Document> doc);

  // Parses and adds an XML string.
  Result<DocId> AddXml(std::string_view xml, std::string doc_name);

  // Slot count: live documents plus tombstones of removed ones. DocIds
  // are in [0, DocCount()), but a slot may be dead — check IsLive when
  // iterating; resolved ids are always live.
  size_t DocCount() const { return docs_.size(); }
  size_t LiveDocCount() const { return live_docs_; }
  bool IsLive(DocId id) const {
    return id < docs_.size() && docs_[id] != nullptr;
  }

  const Document& doc(DocId id) const {
    ROX_DCHECK(IsLive(id));
    return *docs_[id];
  }
  const ElementIndex& element_index(DocId id) const {
    return *indexes_[id]->element;
  }
  const ValueIndex& value_index(DocId id) const {
    return *indexes_[id]->value;
  }

  // The shared document pointer of a slot (null for tombstones / out of
  // range). Pointer identity across epochs means "unchanged document".
  const Document* DocPtrOrNull(DocId id) const {
    return id < docs_.size() ? docs_[id].get() : nullptr;
  }

  // Resolves a document by name (the fn:doc(url) analogue).
  Result<DocId> Resolve(std::string_view doc_name) const;

  // Interning helpers on the shared pool.
  StringId Intern(std::string_view s) { return pool_->Intern(s); }
  StringId Find(std::string_view s) const { return pool_->Find(s); }

 private:
  friend class CorpusBuilder;

  uint64_t epoch_ = 0;
  size_t live_docs_ = 0;
  std::shared_ptr<StringPool> pool_;
  std::vector<std::shared_ptr<const Document>> docs_;       // null = removed
  std::vector<std::shared_ptr<const DocumentIndexes>> indexes_;
  std::unordered_map<std::string, DocId> by_name_;          // live docs only
};

// A pinned, epoch-numbered immutable view of a corpus. Owning
// snapshots (constructed from a shared_ptr) keep the epoch alive for
// as long as any holder exists — the engine hands one to every
// in-flight query, so a publish of epoch E+1 never frees what a query
// pinned at E is reading. The implicit conversion from a plain
// `const Corpus&` forms an *unowned* snapshot for callers that stack-
// own their corpus (tests, benches, single-epoch tools) and guarantee
// its lifetime themselves.
class CorpusSnapshot {
 public:
  CorpusSnapshot(const Corpus& corpus)  // NOLINT: implicit by design
      : corpus_(&corpus) {}
  explicit CorpusSnapshot(std::shared_ptr<const Corpus> pinned)
      : corpus_(pinned.get()), pinned_(std::move(pinned)) {
    ROX_CHECK(corpus_ != nullptr);
  }

  const Corpus& operator*() const { return *corpus_; }
  const Corpus* operator->() const { return corpus_; }
  const Corpus& corpus() const { return *corpus_; }
  uint64_t epoch() const { return corpus_->epoch(); }

  // True when this snapshot shares ownership (pins the epoch).
  bool pinned() const { return pinned_ != nullptr; }
  const std::shared_ptr<const Corpus>& shared() const { return pinned_; }

 private:
  const Corpus* corpus_;
  std::shared_ptr<const Corpus> pinned_;
};

// Copy-on-write construction of the next corpus epoch. Starts from a
// base epoch, records added/removed documents, and Build() produces
// the epoch+1 Corpus value. Only the new documents are parsed and
// indexed; every untouched document (and its indexes) is shared with
// the base by pointer. Not thread-safe; the engine serializes builders
// with its ingest lock. The base corpus is never modified.
class CorpusBuilder {
 public:
  explicit CorpusBuilder(const Corpus& base) : next_(base) {}

  // Adds a parsed document (which must use the lineage's shared pool).
  // Removed-then-readded names get a fresh DocId; slots are never
  // reused.
  Result<DocId> Add(std::unique_ptr<Document> doc);

  // Parses and adds an XML string (interning into the shared pool —
  // safe while older epochs serve queries).
  Result<DocId> AddXml(std::string_view xml, std::string doc_name);

  // Tombstones the named document: its slot stays (pinned snapshots of
  // older epochs still use the DocId) but the next epoch no longer
  // resolves or serves it.
  Status Remove(std::string_view doc_name);

  size_t added_docs() const { return added_; }
  size_t removed_docs() const { return removed_; }

  // The next epoch. The builder is consumed.
  Corpus Build() &&;

 private:
  Corpus next_;
  size_t added_ = 0;
  size_t removed_ = 0;
};

}  // namespace rox

#endif  // ROX_INDEX_CORPUS_H_
