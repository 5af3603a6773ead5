// Value index over text and attribute nodes.
//
// The paper's MonetDB/XQuery value index is an ordered store of
// (val, qelt, qattr, pre) tuples supporting equi- and range-lookup, with
// a hash-based variant for string equality (§2.2). We provide both:
//  * hash lookup by interned value id -> node list (equality predicates
//    and index nested-loop equi-joins),
//  * an ordered numeric projection -> range predicates like
//    `current/text() < 145`.
//
// Like the element index, a lookup yields the result *count* without
// materializing anything, and lists are in document order.

#ifndef ROX_INDEX_VALUE_INDEX_H_
#define ROX_INDEX_VALUE_INDEX_H_

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "xml/document.h"

namespace rox {

// Comparison operator of value predicates and value-join edges. Lives
// at the index layer so the join graph (edge annotation), the physical
// operators (theta kernels) and the XQuery frontend all share one
// vocabulary. Equality and inequality compare interned string ids;
// the four range operators compare numeric projections (non-numeric
// values never satisfy a range comparison).
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

// The surface syntax of `op` ("=", "!=", "<", "<=", ">", ">=").
const char* CmpOpName(CmpOp op);

// The operator seen from the other side: a OP b  <=>  b SwapCmp(OP) a.
// kEq/kNe are symmetric; kLt<->kGt and kLe<->kGe swap.
CmpOp SwapCmp(CmpOp op);

// Half-open / closed numeric interval with per-bound inclusivity, used
// for range-selection predicates on text and attribute values.
struct NumericRange {
  double lo = -1e308;
  double hi = 1e308;
  bool lo_inclusive = false;
  bool hi_inclusive = false;

  static NumericRange LessThan(double v) { return {-1e308, v, true, false}; }
  static NumericRange GreaterThan(double v) { return {v, 1e308, false, true}; }
  static NumericRange AtMost(double v) { return {-1e308, v, true, true}; }
  static NumericRange AtLeast(double v) { return {v, 1e308, true, true}; }
  static NumericRange Exactly(double v) { return {v, v, true, true}; }

  bool Contains(double v) const {
    if (v < lo || (v == lo && !lo_inclusive)) return false;
    if (v > hi || (v == hi && !hi_inclusive)) return false;
    return true;
  }
};

class ValueIndex {
 public:
  // Builds the index with one scan over `doc`. Element "content" is not
  // indexed directly; equality on element content goes through the
  // element's text child (as the paper's Join Graph vertices do).
  explicit ValueIndex(const Document& doc);

  // --- equality lookups (hash-based) ------------------------------------

  // Text nodes whose value is exactly `v` (interned id), document order.
  std::span<const Pre> TextLookup(StringId v) const;

  // Attribute nodes with value `v`; `qattr`/`qelt` optionally restrict
  // the attribute name and the owner element name (kInvalidStringId = no
  // restriction). The unrestricted list is returned as a span; restricted
  // variants materialize the filtered list.
  std::span<const Pre> AttrLookup(StringId v) const;
  std::vector<Pre> AttrLookup(const Document& doc, StringId v, StringId qattr,
                              StringId qelt) const;

  // The paper's D³attr(v, qelt, qattr): *owner elements* (not attribute
  // nodes) named `qelt` having attribute `qattr` = v.
  std::vector<Pre> AttrOwnerLookup(const Document& doc, StringId v,
                                   StringId qelt, StringId qattr) const;

  // --- numeric range lookups (ordered) -----------------------------------

  // Text nodes whose numeric value lies in `range`, document order.
  std::vector<Pre> TextRangeLookup(const NumericRange& range) const;
  uint64_t TextRangeCount(const NumericRange& range) const;

  // Attribute nodes whose numeric value lies in `range`.
  std::vector<Pre> AttrRangeLookup(const NumericRange& range) const;

  // --- sorted runs (theta-join probes) ------------------------------------

  // (numeric value, pre) pairs sorted ascending by (value, pre). A
  // range-comparison probe binary-searches the run and emits a prefix
  // or suffix — the sort-based value-join kernels of exec/value_join.h
  // read these directly instead of materializing per-probe lookups.
  struct NumEntry {
    double value;
    Pre pre;
  };
  std::span<const NumEntry> NumericTextRun() const { return numeric_text_; }
  std::span<const NumEntry> NumericAttrRun() const { return numeric_attr_; }

  // All indexed text/attribute nodes in document order (every such node
  // carries a value). `!=` probes scan these and skip the equal ones.
  std::span<const Pre> AllTextNodes() const { return all_text_; }
  std::span<const Pre> AllAttrNodes() const { return all_attr_; }

  // --- sampling -----------------------------------------------------------

  // Uniform sample (without replacement, document order) of text nodes
  // with value `v`.
  std::vector<Pre> SampleText(StringId v, uint64_t k, Rng& rng) const;

  // Total indexed node counts.
  uint64_t text_node_count() const { return text_node_count_; }
  uint64_t attr_node_count() const { return attr_node_count_; }

 private:
  std::vector<Pre> RangeScan(const std::vector<NumEntry>& entries,
                             const NumericRange& range) const;

  std::unordered_map<StringId, std::vector<Pre>> text_by_value_;
  std::unordered_map<StringId, std::vector<Pre>> attr_by_value_;
  std::vector<NumEntry> numeric_text_;
  std::vector<NumEntry> numeric_attr_;
  std::vector<Pre> all_text_;
  std::vector<Pre> all_attr_;
  uint64_t text_node_count_ = 0;
  uint64_t attr_node_count_ = 0;
};

}  // namespace rox

#endif  // ROX_INDEX_VALUE_INDEX_H_
