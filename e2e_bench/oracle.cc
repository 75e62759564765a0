#include "oracle.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

namespace squirrel {
namespace e2e_bench {

namespace {

std::string RowText(const Row& r) {
  std::string out = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(r[i]);
  }
  return out + ")";
}

}  // namespace

Rows OracleFigure1(const Rows& r, const Rows& s) {
  std::unordered_map<int64_t, int64_t> s2_by_s1;  // σ_{s3<50} S
  for (const Row& row : s) {
    if (row[2] < 50) s2_by_s1.emplace(row[0], row[1]);
  }
  Rows t;
  for (const Row& row : r) {
    if (row[3] != 100) continue;
    auto it = s2_by_s1.find(row[1]);
    if (it == s2_by_s1.end()) continue;
    t.push_back({row[0], row[2], it->first, it->second});
  }
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

std::map<std::string, Rows> OracleFigure4(const Rows& a, const Rows& b,
                                          const Rows& c, const Rows& d) {
  Rows e;
  for (const Row& ra : a) {
    for (const Row& rb : b) {
      if (ra[0] * ra[0] + ra[1] < rb[1] * rb[1]) {
        e.push_back({ra[0], ra[1], rb[0]});
      }
    }
  }
  std::sort(e.begin(), e.end());
  std::unordered_map<int64_t, int64_t> b1_by_d1;
  for (const Row& rd : d) b1_by_d1.emplace(rd[0], rd[1]);
  std::set<std::pair<int64_t, int64_t>> f;
  for (const Row& rc : c) {
    auto it = b1_by_d1.find(rc[0]);
    if (it != b1_by_d1.end()) f.emplace(rc[1], it->second);
  }
  Rows g;
  for (const Row& re : e) {
    if (f.count({re[0], re[2]}) == 0) g.push_back({re[0], re[2]});
  }
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  return {{"E", std::move(e)}, {"G", std::move(g)}};
}

bool ReadRows(const Relation& rel, const std::vector<std::string>& attrs,
              Rows* out, std::string* error) {
  std::vector<size_t> cols;
  for (const auto& a : attrs) {
    auto idx = rel.schema().IndexOf(a);
    if (!idx.has_value()) {
      *error = "answer has no attribute " + a;
      return false;
    }
    cols.push_back(*idx);
  }
  out->clear();
  bool ok = true;
  rel.ForEach([&](const Tuple& t, int64_t count) {
    if (!ok) return;
    if (count != 1) {
      *error = "answer tuple " + t.ToString() + " has count " +
               std::to_string(count);
      ok = false;
      return;
    }
    Row row;
    for (size_t c : cols) {
      if (t.at(c).type() != ValueType::kInt) {
        *error = "answer tuple " + t.ToString() + " holds a non-integer";
        ok = false;
        return;
      }
      row.push_back(t.at(c).AsInt());
    }
    out->push_back(std::move(row));
  });
  std::sort(out->begin(), out->end());
  return ok;
}

bool SameRows(const Rows& expected, const Rows& got, std::string* error) {
  if (expected == got) return true;
  auto mis = std::mismatch(expected.begin(), expected.end(), got.begin(),
                           got.end());
  *error = "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(got.size()) + "; first difference: expected " +
           (mis.first == expected.end() ? "<end>" : RowText(*mis.first)) +
           ", got " + (mis.second == got.end() ? "<end>" : RowText(*mis.second));
  return false;
}

}  // namespace e2e_bench
}  // namespace squirrel
