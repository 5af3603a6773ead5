// Brute-force evaluators of the benchmark's queries, written directly
// against the shredded document columns (xml/document.h). They share
// no code with the query compiler (xq), the optimizer (rox) or the
// join kernels (exec): no indexes, no join graph, no value tables —
// only node scans, string maps and counting. Each returns exactly the
// item sequence the XQuery semantics of the engine define: one item
// per distinct binding tuple of the for-variables, sorted by the
// tuple in document order, projected on the return variable.
//
// Comparison semantics follow DESIGN.md §11: `=` between paths is
// string equality of the atomized values, `!=` string inequality,
// ordering operators compare numeric values (non-numeric never
// matches), and a literal-numeric step predicate compares numerically.

#ifndef ROXBENCH_ORACLE_H_
#define ROXBENCH_ORACLE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/value_index.h"
#include "xml/document.h"

namespace roxbench {

using rox::Pre;

// Checks `got` against `want` item for item; on a difference writes
// the first divergence into *why.
bool SameItems(const std::vector<Pre>& got, const std::vector<Pre>& want,
               std::string* why);

// The XMark auction document's queries (workload/xmark.h shapes).
class XmarkOracle {
 public:
  explicit XmarkOracle(const rox::Document& doc);

  // Q1 (less_than) / Qm1: auctions priced below / above `threshold`
  // joined to bidders' persons with a province and to quantity-1 items.
  std::vector<Pre> Q1(int threshold, bool less_than) const;
  // for $o in //open_auction[.//current/text() < / > threshold] return $o
  std::vector<Pre> AuctionScan(int threshold, bool less_than) const;
  // for $i in //item[./quantity = q] return $i
  std::vector<Pre> ItemQuantityScan(int q) const;
  // for $p in //person[.//province] return $p
  std::vector<Pre> PersonsWithProvince() const;
  // XmarkQuantityIncreaseQuery(op, guard): items against bidders.
  std::vector<Pre> QuantityIncrease(rox::CmpOp op, int guard) const;
  // XmarkPriceThetaQuery(op, lo, hi): reserves against currents.
  std::vector<Pre> PriceTheta(rox::CmpOp op, int lo, int hi) const;

 private:
  struct Auction {
    Pre pre = 0;
    std::vector<double> currents;  // numeric .//current text values
    std::vector<std::string> reserves;
    std::vector<std::string> currents_text;
    std::vector<std::string> person_refs;  // .//bidder//personref/@person
    std::vector<std::string> item_refs;    // .//itemref/@item
  };
  struct Item {
    Pre pre = 0;
    std::vector<std::string> quantities;  // ./quantity values
  };

  bool Priced(const Auction& a, int threshold, bool less_than) const;

  std::vector<Auction> auctions_;
  std::vector<Item> items_;
  std::vector<Pre> persons_with_province_;
  std::unordered_map<std::string, int> province_persons_by_id_;
  std::unordered_map<std::string, int> qty1_items_by_id_;
  // Each bidder's ./increase values, grouped: values -> bidder count.
  std::vector<std::pair<std::vector<std::string>, uint64_t>> bidder_groups_;
};

// for $a in doc(first)//author, $x in doc(other_i)//author, ...
// where $a/text() = $x/text() ... return $a
std::vector<Pre> AuthorJoin(const rox::Document& first,
                            const std::vector<const rox::Document*>& others);

// DblpAuthorYearQuery(d1, d2, op).
std::vector<Pre> AuthorYear(const rox::Document& d1, const rox::Document& d2,
                            rox::CmpOp op);

}  // namespace roxbench

#endif  // ROXBENCH_ORACLE_H_
