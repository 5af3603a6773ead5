#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

namespace roxbench {
namespace {

using rox::CmpOp;
using rox::Document;
using rox::NodeKind;
using rox::StringId;

StringId NameId(const Document& d, std::string_view name) {
  return d.pool().Find(name);
}

bool IsElem(const Document& d, Pre q, StringId name) {
  return name != rox::kInvalidStringId && d.Kind(q) == NodeKind::kElem &&
         d.Name(q) == name;
}

// Calls f(child) for every child node of p (attributes included).
template <class F>
void ForChildren(const Document& d, Pre p, F&& f) {
  const Pre end = p + d.Size(p);
  for (Pre q = p + 1; q <= end; q += d.Size(q) + 1) f(q);
}

// Calls f(q) for every element descendant of p named `name`.
template <class F>
void ForDescendants(const Document& d, Pre p, StringId name, F&& f) {
  const Pre end = p + d.Size(p);
  for (Pre q = p + 1; q <= end; ++q) {
    if (IsElem(d, q, name)) f(q);
  }
}

// The values of p's text() children (an element's atomized value).
std::vector<std::string> TextValues(const Document& d, Pre p) {
  std::vector<std::string> out;
  ForChildren(d, p, [&](Pre q) {
    if (d.Kind(q) == NodeKind::kText) out.emplace_back(d.ValueStr(q));
  });
  return out;
}

// Values of the `name` children of p, atomized.
std::vector<std::string> ChildValues(const Document& d, Pre p,
                                     StringId name) {
  std::vector<std::string> out;
  ForChildren(d, p, [&](Pre q) {
    if (IsElem(d, q, name)) {
      for (std::string& v : TextValues(d, q)) out.push_back(std::move(v));
    }
  });
  return out;
}

// Value of attribute `name` on element p into *out; false when absent.
bool AttrValue(const Document& d, Pre p, StringId name, std::string* out) {
  if (name == rox::kInvalidStringId) return false;
  for (Pre q = p + 1; q <= p + d.Size(p) && d.Kind(q) == NodeKind::kAttr;
       ++q) {
    if (d.Name(q) == name) {
      *out = std::string(d.ValueStr(q));
      return true;
    }
  }
  return false;
}

bool ParseNumber(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string text(s);
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool NumericCompare(CmpOp op, double a, double b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

// Path-against-path comparison of two atomized values.
bool ValuesCompare(CmpOp op, std::string_view a, std::string_view b) {
  if (op == CmpOp::kEq) return a == b;
  if (op == CmpOp::kNe) return a != b;
  double x = 0, y = 0;
  return ParseNumber(a, &x) && ParseNumber(b, &y) && NumericCompare(op, x, y);
}

bool AnyCompare(CmpOp op, const std::vector<std::string>& as,
                const std::vector<std::string>& bs) {
  for (const std::string& a : as) {
    for (const std::string& b : bs) {
      if (ValuesCompare(op, a, b)) return true;
    }
  }
  return false;
}

bool AnyEqualsNumber(const std::vector<std::string>& values, double n) {
  double v = 0;
  for (const std::string& s : values) {
    if (ParseNumber(s, &v) && v == n) return true;
  }
  return false;
}

void Repeat(std::vector<Pre>* out, Pre p, uint64_t times) {
  out->insert(out->end(), times, p);
}

// All element nodes named `name`, in document order.
std::vector<Pre> ElementsNamed(const Document& d, std::string_view name) {
  std::vector<Pre> out;
  StringId id = NameId(d, name);
  for (Pre q = 0; q < d.NodeCount(); ++q) {
    if (IsElem(d, q, id)) out.push_back(q);
  }
  return out;
}

}  // namespace

bool SameItems(const std::vector<Pre>& got, const std::vector<Pre>& want,
               std::string* why) {
  size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      *why = "item " + std::to_string(i) + " is node " +
             std::to_string(got[i]) + ", expected node " +
             std::to_string(want[i]);
      return false;
    }
  }
  if (got.size() != want.size()) {
    *why = std::to_string(got.size()) + " items, expected " +
           std::to_string(want.size());
    return false;
  }
  return true;
}

XmarkOracle::XmarkOracle(const Document& d) {
  const StringId open_auction = NameId(d, "open_auction");
  const StringId current = NameId(d, "current");
  const StringId reserve = NameId(d, "reserve");
  const StringId bidder = NameId(d, "bidder");
  const StringId personref = NameId(d, "personref");
  const StringId itemref = NameId(d, "itemref");
  const StringId person = NameId(d, "person");
  const StringId province = NameId(d, "province");
  const StringId item = NameId(d, "item");
  const StringId quantity = NameId(d, "quantity");
  const StringId increase = NameId(d, "increase");
  const StringId id_attr = NameId(d, "id");

  std::map<std::vector<std::string>, uint64_t> groups;
  for (Pre q = 0; q < d.NodeCount(); ++q) {
    if (IsElem(d, q, open_auction)) {
      Auction a;
      a.pre = q;
      ForDescendants(d, q, current, [&](Pre c) {
        for (std::string& v : TextValues(d, c)) {
          double num = 0;
          if (ParseNumber(v, &num)) a.currents.push_back(num);
          a.currents_text.push_back(std::move(v));
        }
      });
      ForDescendants(d, q, reserve, [&](Pre r) {
        for (std::string& v : TextValues(d, r)) a.reserves.push_back(v);
      });
      ForDescendants(d, q, bidder, [&](Pre b) {
        ForDescendants(d, b, personref, [&](Pre pr) {
          std::string ref;
          if (AttrValue(d, pr, person, &ref)) a.person_refs.push_back(ref);
        });
      });
      ForDescendants(d, q, itemref, [&](Pre ir) {
        std::string ref;
        if (AttrValue(d, ir, item, &ref)) a.item_refs.push_back(ref);
      });
      auctions_.push_back(std::move(a));
    } else if (IsElem(d, q, person)) {
      bool has_province = false;
      ForDescendants(d, q, province, [&](Pre) { has_province = true; });
      if (has_province) {
        persons_with_province_.push_back(q);
        std::string id;
        if (AttrValue(d, q, id_attr, &id)) ++province_persons_by_id_[id];
      }
    } else if (IsElem(d, q, item)) {
      Item it;
      it.pre = q;
      it.quantities = ChildValues(d, q, quantity);
      std::string id;
      if (AnyEqualsNumber(it.quantities, 1) && AttrValue(d, q, id_attr, &id)) {
        ++qty1_items_by_id_[id];
      }
      items_.push_back(std::move(it));
    } else if (IsElem(d, q, bidder)) {
      ++groups[ChildValues(d, q, increase)];
    }
  }
  bidder_groups_.assign(groups.begin(), groups.end());
}

bool XmarkOracle::Priced(const Auction& a, int threshold,
                         bool less_than) const {
  for (double c : a.currents) {
    if (less_than ? c < threshold : c > threshold) return true;
  }
  return false;
}

std::vector<Pre> XmarkOracle::Q1(int threshold, bool less_than) const {
  std::vector<Pre> out;
  for (const Auction& a : auctions_) {
    if (!Priced(a, threshold, less_than)) continue;
    // Distinct $p / $i nodes: each distinct referenced id counts the
    // nodes carrying it.
    uint64_t persons = 0, items = 0;
    std::set<std::string> seen(a.person_refs.begin(), a.person_refs.end());
    for (const std::string& ref : seen) {
      auto it = province_persons_by_id_.find(ref);
      if (it != province_persons_by_id_.end()) persons += it->second;
    }
    seen = std::set<std::string>(a.item_refs.begin(), a.item_refs.end());
    for (const std::string& ref : seen) {
      auto it = qty1_items_by_id_.find(ref);
      if (it != qty1_items_by_id_.end()) items += it->second;
    }
    Repeat(&out, a.pre, persons * items);
  }
  return out;
}

std::vector<Pre> XmarkOracle::AuctionScan(int threshold,
                                          bool less_than) const {
  std::vector<Pre> out;
  for (const Auction& a : auctions_) {
    if (Priced(a, threshold, less_than)) out.push_back(a.pre);
  }
  return out;
}

std::vector<Pre> XmarkOracle::ItemQuantityScan(int q) const {
  std::vector<Pre> out;
  for (const Item& it : items_) {
    if (AnyEqualsNumber(it.quantities, q)) out.push_back(it.pre);
  }
  return out;
}

std::vector<Pre> XmarkOracle::PersonsWithProvince() const {
  return persons_with_province_;
}

std::vector<Pre> XmarkOracle::QuantityIncrease(CmpOp op, int guard) const {
  std::vector<Pre> out;
  for (const Item& it : items_) {
    if (guard > 0 && !AnyEqualsNumber(it.quantities, guard)) continue;
    uint64_t bidders = 0;
    for (const auto& [increases, count] : bidder_groups_) {
      if (AnyCompare(op, it.quantities, increases)) bidders += count;
    }
    Repeat(&out, it.pre, bidders);
  }
  return out;
}

std::vector<Pre> XmarkOracle::PriceTheta(CmpOp op, int lo, int hi) const {
  std::vector<const Auction*> outer, inner;
  for (const Auction& a : auctions_) {
    if (Priced(a, lo, /*less_than=*/true)) outer.push_back(&a);
    if (Priced(a, hi, /*less_than=*/false)) inner.push_back(&a);
  }
  std::vector<Pre> out;
  for (const Auction* a : outer) {
    uint64_t matches = 0;
    for (const Auction* b : inner) {
      if (AnyCompare(op, a->reserves, b->currents_text)) ++matches;
    }
    Repeat(&out, a->pre, matches);
  }
  return out;
}

std::vector<Pre> AuthorJoin(const Document& first,
                            const std::vector<const Document*>& others) {
  // Per other document: author text value -> author nodes carrying it.
  std::vector<std::unordered_map<std::string, std::vector<Pre>>> by_value(
      others.size());
  for (size_t i = 0; i < others.size(); ++i) {
    for (Pre a : ElementsNamed(*others[i], "author")) {
      for (const std::string& v : TextValues(*others[i], a)) {
        by_value[i][v].push_back(a);
      }
    }
  }
  std::vector<Pre> out;
  for (Pre a : ElementsNamed(first, "author")) {
    std::vector<std::string> values = TextValues(first, a);
    uint64_t tuples = 1;
    for (size_t i = 0; i < others.size() && tuples > 0; ++i) {
      std::set<Pre> matched;
      for (const std::string& v : values) {
        auto it = by_value[i].find(v);
        if (it != by_value[i].end()) {
          matched.insert(it->second.begin(), it->second.end());
        }
      }
      tuples *= matched.size();
    }
    Repeat(&out, a, tuples);
  }
  return out;
}

std::vector<Pre> AuthorYear(const Document& d1, const Document& d2,
                            CmpOp op) {
  const StringId author2 = NameId(d2, "author");
  const StringId year2 = NameId(d2, "year");
  struct Article {
    std::vector<std::string> years;
  };
  std::vector<Article> inner;
  std::unordered_map<std::string, std::vector<size_t>> by_author;
  for (Pre b : ElementsNamed(d2, "article")) {
    for (const std::string& v : ChildValues(d2, b, author2)) {
      by_author[v].push_back(inner.size());
    }
    inner.push_back({ChildValues(d2, b, year2)});
  }
  const StringId author1 = NameId(d1, "author");
  const StringId year1 = NameId(d1, "year");
  std::vector<Pre> out;
  for (Pre a : ElementsNamed(d1, "article")) {
    std::set<size_t> partners;
    for (const std::string& v : ChildValues(d1, a, author1)) {
      auto it = by_author.find(v);
      if (it != by_author.end()) {
        partners.insert(it->second.begin(), it->second.end());
      }
    }
    std::vector<std::string> years = ChildValues(d1, a, year1);
    uint64_t matches = 0;
    for (size_t b : partners) {
      if (AnyCompare(op, years, inner[b].years)) ++matches;
    }
    Repeat(&out, a, matches);
  }
  return out;
}

}  // namespace roxbench
