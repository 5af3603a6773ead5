// Element name index: qname -> sorted list of element pre ranks.
//
// This is the paper's D³elt(q) lookup (§2.2): given a qualified name it
// returns, in document order and duplicate-free, all elements with that
// name. Because the per-name lists are materialized, the *count* of
// qualifying nodes is O(1) — the property ROX's phase-1 initialization
// relies on — and uniform random samples can be drawn in O(sample size)
// (the "partial sum tree" sampling of [26] degenerates to direct
// indexing on a dense materialized list).

#ifndef ROX_INDEX_ELEMENT_INDEX_H_
#define ROX_INDEX_ELEMENT_INDEX_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "xml/document.h"

namespace rox {

class ElementIndex {
 public:
  // Builds the index with one scan over `doc`.
  explicit ElementIndex(const Document& doc);

  // All elements named `q`, in document order. Empty span if none.
  std::span<const Pre> Lookup(StringId q) const;

  // O(1) count of elements named `q`.
  uint64_t Count(StringId q) const { return Lookup(q).size(); }

  // Uniform random sample (without replacement) of up to `k` elements
  // named `q`, in document order.
  std::vector<Pre> Sample(StringId q, uint64_t k, Rng& rng) const;

  // Elements named `q` with pre in the half-open interval (`lo`, `hi`]:
  // exactly the descendants-of-`lo` probe used by index-accelerated
  // descendant steps. O(log n + |result|).
  std::span<const Pre> RangeLookup(StringId q, Pre lo, Pre hi) const;

  // Distinct element names present in the document.
  std::vector<StringId> Names() const;

  // --- attribute nodes (same machinery, keyed by attribute name) --------

  // All attribute nodes named `q`, in document order.
  std::span<const Pre> LookupAttr(StringId q) const;
  uint64_t CountAttr(StringId q) const { return LookupAttr(q).size(); }
  std::vector<Pre> SampleAttr(StringId q, uint64_t k, Rng& rng) const;

 private:
  // name id -> sorted pre list. Name ids are dense per corpus pool, so a
  // vector indexed by name id is used, with empty vectors for non-element
  // names.
  std::vector<std::vector<Pre>> by_name_;
  std::vector<std::vector<Pre>> attr_by_name_;
};

}  // namespace rox

#endif  // ROX_INDEX_ELEMENT_INDEX_H_
