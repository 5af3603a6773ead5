#include "index/element_index.h"

#include <algorithm>

namespace rox {

ElementIndex::ElementIndex(const Document& doc) {
  const auto& kinds = doc.kinds();
  const auto& names = doc.name_ids();
  for (Pre p = 0; p < doc.NodeCount(); ++p) {
    StringId q = names[p];
    if (kinds[p] == NodeKind::kElem) {
      if (q >= by_name_.size()) by_name_.resize(q + 1);
      by_name_[q].push_back(p);  // pre order => already sorted
    } else if (kinds[p] == NodeKind::kAttr) {
      if (q >= attr_by_name_.size()) attr_by_name_.resize(q + 1);
      attr_by_name_[q].push_back(p);
    }
  }
}

std::span<const Pre> ElementIndex::Lookup(StringId q) const {
  if (q >= by_name_.size()) return {};
  return by_name_[q];
}

std::vector<Pre> ElementIndex::Sample(StringId q, uint64_t k, Rng& rng) const {
  std::span<const Pre> all = Lookup(q);
  std::vector<uint64_t> idx = rng.SampleWithoutReplacement(all.size(), k);
  std::vector<Pre> out;
  out.reserve(idx.size());
  for (uint64_t i : idx) out.push_back(all[i]);
  return out;
}

std::span<const Pre> ElementIndex::RangeLookup(StringId q, Pre lo,
                                               Pre hi) const {
  std::span<const Pre> all = Lookup(q);
  auto begin = std::upper_bound(all.begin(), all.end(), lo);
  auto end = std::upper_bound(begin, all.end(), hi);
  return all.subspan(static_cast<size_t>(begin - all.begin()),
                     static_cast<size_t>(end - begin));
}

std::span<const Pre> ElementIndex::LookupAttr(StringId q) const {
  if (q >= attr_by_name_.size()) return {};
  return attr_by_name_[q];
}

std::vector<Pre> ElementIndex::SampleAttr(StringId q, uint64_t k,
                                          Rng& rng) const {
  std::span<const Pre> all = LookupAttr(q);
  std::vector<uint64_t> idx = rng.SampleWithoutReplacement(all.size(), k);
  std::vector<Pre> out;
  out.reserve(idx.size());
  for (uint64_t i : idx) out.push_back(all[i]);
  return out;
}

std::vector<StringId> ElementIndex::Names() const {
  std::vector<StringId> out;
  for (StringId q = 0; q < by_name_.size(); ++q) {
    if (!by_name_[q].empty()) out.push_back(q);
  }
  return out;
}

}  // namespace rox
