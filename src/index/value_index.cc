#include "index/value_index.h"

#include <algorithm>

namespace rox {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp SwapCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kEq:
    case CmpOp::kNe:
      break;
  }
  return op;
}

ValueIndex::ValueIndex(const Document& doc) {
  const StringPool& pool = doc.pool();
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    NodeKind k = doc.Kind(p);
    if (k == NodeKind::kText) {
      ++text_node_count_;
      StringId v = doc.Value(p);
      text_by_value_[v].push_back(p);
      all_text_.push_back(p);
      if (auto num = pool.NumericValue(v)) {
        numeric_text_.push_back({*num, p});
      }
    } else if (k == NodeKind::kAttr) {
      ++attr_node_count_;
      StringId v = doc.Value(p);
      attr_by_value_[v].push_back(p);
      all_attr_.push_back(p);
      if (auto num = pool.NumericValue(v)) {
        numeric_attr_.push_back({*num, p});
      }
    }
  }
  auto by_value = [](const NumEntry& a, const NumEntry& b) {
    return a.value < b.value || (a.value == b.value && a.pre < b.pre);
  };
  std::sort(numeric_text_.begin(), numeric_text_.end(), by_value);
  std::sort(numeric_attr_.begin(), numeric_attr_.end(), by_value);
}

std::span<const Pre> ValueIndex::TextLookup(StringId v) const {
  auto it = text_by_value_.find(v);
  if (it == text_by_value_.end()) return {};
  return it->second;
}

std::span<const Pre> ValueIndex::AttrLookup(StringId v) const {
  auto it = attr_by_value_.find(v);
  if (it == attr_by_value_.end()) return {};
  return it->second;
}

std::vector<Pre> ValueIndex::AttrLookup(const Document& doc, StringId v,
                                        StringId qattr, StringId qelt) const {
  std::vector<Pre> out;
  for (Pre a : AttrLookup(v)) {
    if (qattr != kInvalidStringId && doc.Name(a) != qattr) continue;
    if (qelt != kInvalidStringId && doc.Name(doc.Parent(a)) != qelt) continue;
    out.push_back(a);
  }
  return out;
}

std::vector<Pre> ValueIndex::AttrOwnerLookup(const Document& doc, StringId v,
                                             StringId qelt,
                                             StringId qattr) const {
  std::vector<Pre> out;
  for (Pre a : AttrLookup(doc, v, qattr, qelt)) out.push_back(doc.Parent(a));
  return out;
}

std::vector<Pre> ValueIndex::RangeScan(const std::vector<NumEntry>& entries,
                                       const NumericRange& range) const {
  auto lo_it = std::lower_bound(
      entries.begin(), entries.end(), range.lo,
      [](const NumEntry& e, double v) { return e.value < v; });
  std::vector<Pre> out;
  for (auto it = lo_it; it != entries.end() && it->value <= range.hi; ++it) {
    if (range.Contains(it->value)) out.push_back(it->pre);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Pre> ValueIndex::TextRangeLookup(const NumericRange& range) const {
  return RangeScan(numeric_text_, range);
}

uint64_t ValueIndex::TextRangeCount(const NumericRange& range) const {
  auto lo_it = std::lower_bound(
      numeric_text_.begin(), numeric_text_.end(), range.lo,
      [](const NumEntry& e, double v) { return e.value < v; });
  uint64_t n = 0;
  for (auto it = lo_it; it != numeric_text_.end() && it->value <= range.hi;
       ++it) {
    if (range.Contains(it->value)) ++n;
  }
  return n;
}

std::vector<Pre> ValueIndex::AttrRangeLookup(const NumericRange& range) const {
  return RangeScan(numeric_attr_, range);
}

std::vector<Pre> ValueIndex::SampleText(StringId v, uint64_t k,
                                        Rng& rng) const {
  std::span<const Pre> all = TextLookup(v);
  std::vector<uint64_t> idx = rng.SampleWithoutReplacement(all.size(), k);
  std::vector<Pre> out;
  out.reserve(idx.size());
  for (uint64_t i : idx) out.push_back(all[i]);
  return out;
}

}  // namespace rox
