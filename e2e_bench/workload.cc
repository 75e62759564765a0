#include "workload.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "oracle.h"
#include "vdp/paper_examples.h"

namespace squirrel {
namespace e2e_bench {

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t Prng::Range(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
}

bool Prng::Chance(double p) {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
}

Table::Table(std::string db, std::string relation, std::string decl,
             int64_t key_space, std::function<bool(const Row&)> flag)
    : db_(std::move(db)),
      relation_(std::move(relation)),
      decl_(std::move(decl)),
      rows_(key_space),
      present_(key_space, 0),
      pos_(key_space),
      flag_(std::move(flag)) {
  for (int64_t k = 0; k < key_space; ++k) {
    pos_[k] = free_.size();
    free_.push_back(k);
  }
}

Rows Table::LiveRows() const {
  Rows out;
  out.reserve(live_.size());
  for (int64_t k : live_) out.push_back(rows_[k]);
  return out;
}

namespace {

void SwapPop(std::vector<int64_t>* keys, std::vector<size_t>* pos,
             int64_t key) {
  size_t i = (*pos)[key];
  int64_t last = keys->back();
  (*keys)[i] = last;
  (*pos)[last] = i;
  keys->pop_back();
}

}  // namespace

void Table::Insert(const Row& row) {
  int64_t key = row[0];
  if (present_[key]) {
    std::cerr << "e2e_bench: generator inserted live key " << key << "\n";
    std::exit(1);
  }
  SwapPop(&free_, &pos_, key);
  pos_[key] = live_.size();
  live_.push_back(key);
  rows_[key] = row;
  present_[key] = 1;
  if (flag_ && flag_(row)) ++flagged_;
}

void Table::Erase(int64_t key) {
  if (!present_[key]) {
    std::cerr << "e2e_bench: generator erased absent key " << key << "\n";
    std::exit(1);
  }
  if (flag_ && flag_(rows_[key])) --flagged_;
  SwapPop(&live_, &pos_, key);
  pos_[key] = free_.size();
  free_.push_back(key);
  present_[key] = 0;
}

int64_t Table::RandomLiveKey(Prng* rng) const {
  return live_[rng->Range(0, static_cast<int64_t>(live_.size()))];
}

int64_t Table::RandomFreeKey(Prng* rng) const {
  return free_[rng->Range(0, static_cast<int64_t>(free_.size()))];
}

Rows ProjectRows(const Rows& rows, const std::vector<size_t>& cols) {
  Rows out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    Row p;
    p.reserve(cols.size());
    for (size_t c : cols) p.push_back(r[c]);
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Op Workload::Next() {
  Op op;
  if (alternate_) {
    op.is_query = next_is_query_;
    next_is_query_ = !next_is_query_;
  } else {
    op.is_query = rng_.Chance(query_share_);
  }
  if (op.is_query) {
    op.query = MakeQuery();
    // Every shape's first answer is checked; later ones by seeded sample.
    op.query.check = !shape_checked_[op.query.shape] ||
                     rng_.Chance(check_share_);
    shape_checked_[op.query.shape] = true;
  } else {
    op.txn = NextTxn();
  }
  return op;
}

SourceTxn Workload::NextTxn() {
  SourceTxn txn = MakeTxn();
  Apply(txn);
  return txn;
}

bool Workload::InsertNext(const Table& t, size_t target) {
  // A random walk pulled back toward the target size.
  double p = 0.5 + (static_cast<double>(target) -
                    static_cast<double>(t.size())) /
                       (0.02 * static_cast<double>(target) + 1.0);
  return rng_.Chance(std::clamp(p, 0.1, 0.9));
}

bool Workload::FlagNext(const Table& t, double share) {
  // Sizes alone do not hold a view steady: the share of rows passing its
  // selections must not wander either.
  double deficit = share * static_cast<double>(t.size() + 1) -
                   static_cast<double>(t.flagged());
  if (deficit > 0.5) return true;
  if (deficit < -0.5) return false;
  return rng_.Chance(share);
}

void Workload::Apply(const SourceTxn& txn) {
  Table& t = tables_[txn.table];
  for (const Row& r : txn.deletes) t.Erase(r[0]);
  for (const Row& r : txn.inserts) t.Insert(r);
}

namespace {

Vdp MustVdp(Result<Vdp> vdp) {
  if (!vdp.ok()) {
    std::cerr << "e2e_bench: " << vdp.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(vdp).value();
}

std::string Num(int64_t v) { return std::to_string(v); }

// ---- Figure 1: T = π_{r1,r3,s1,s2}(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S) ----

class Figure1Workload : public Workload {
 public:
  // Shape indexes.
  enum { kMatRange = 0, kR3Range = 1, kFullT = 2, kPoint = 3 };

  Figure1Workload(std::string name, uint64_t seed, double scale,
                  bool query_mix)
      : Workload(std::move(name), seed),
        n_r_(static_cast<size_t>(10000 * scale)),
        n_s_(static_cast<size_t>(5000 * scale)),
        query_mix_(query_mix) {
    vdp_ = MustVdp(BuildFigure1Vdp());
    ann_ = AnnotationExample23(vdp_);
    tables_.emplace_back("DB1", "R", "R(r1, r2, r3, r4) key(r1)",
                         static_cast<int64_t>(2 * n_r_),
                         [](const Row& r) { return r[3] == 100; });
    tables_.emplace_back("DB2", "S", "S(s1, s2, s3) key(s1)",
                         static_cast<int64_t>(2 * n_s_),
                         [](const Row& s) { return s[2] < 50; });
    // T's columns: r1, r3, s1, s2. Range width: 1/64 of R's key space.
    width_ = std::max<int64_t>(2, static_cast<int64_t>(2 * n_r_) / 64);
    auto in_range = [](const Row& t, const QueryOp& q) {
      return t[0] >= q.a && t[0] < q.b;
    };
    auto range_text = [](const std::string& attrs) {
      return [attrs](const QueryOp& q) {
        return "project[" + attrs + "](select[r1 >= " + Num(q.a) +
               " and r1 < " + Num(q.b) + "](T))";
      };
    };
    shapes_.push_back(
        {"mat_range", range_text("r1, s1"), {"r1", "s1"},
         [in_range](const std::map<std::string, Rows>& ex, const QueryOp& q) {
           Rows sel;
           for (const Row& t : ex.at("T")) {
             if (in_range(t, q)) sel.push_back(t);
           }
           return ProjectRows(sel, {0, 2});
         }});
    shapes_.push_back(
        {"r3_range", range_text("r1, r3"), {"r1", "r3"},
         [in_range](const std::map<std::string, Rows>& ex, const QueryOp& q) {
           Rows sel;
           for (const Row& t : ex.at("T")) {
             if (in_range(t, q)) sel.push_back(t);
           }
           return ProjectRows(sel, {0, 1});
         }});
    shapes_.push_back(
        {"full_t", [](const QueryOp&) { return std::string("T"); },
         {"r1", "r3", "s1", "s2"},
         [](const std::map<std::string, Rows>& ex, const QueryOp&) {
           return ProjectRows(ex.at("T"), {0, 1, 2, 3});
         }});
    shapes_.push_back(
        {"point",
         [](const QueryOp& q) { return "select[r1 = " + Num(q.a) + "](T)"; },
         {"r1", "r3", "s1", "s2"},
         [](const std::map<std::string, Rows>& ex, const QueryOp& q) {
           Rows sel;
           for (const Row& t : ex.at("T")) {
             if (t[0] == q.a) sel.push_back(t);
           }
           return ProjectRows(sel, {0, 1, 2, 3});
         }});
    shape_checked_.assign(shapes_.size(), false);
    alternate_ = !query_mix_;
    query_share_ = 0.8;
    rounds_per_second_ = query_mix_ ? 8.5 : 4.4;
  }

  std::vector<std::string> Exports() const override { return {"T"}; }

  std::map<std::string, Rows> Oracle() const override {
    return {{"T", OracleFigure1(tables_[0].LiveRows(),
                                tables_[1].LiveRows())}};
  }

  void Populate() override {
    for (size_t t = 0; t < 2; ++t) {
      const size_t n = t == 0 ? n_r_ : n_s_;
      for (size_t i = 0; i < n; ++i) {
        tables_[t].Insert(New(t, tables_[t].RandomFreeKey(&rng_),
                              FlagNext(tables_[t], kPassShare)));
      }
    }
  }

 protected:
  // Four in five rows pass each selection (r4 = 100, s3 < 50), so about
  // four in five updates change the view and poll the other source.
  Row NewR(int64_t key, bool pass) {
    int64_t r4 = pass ? 100 : rng_.Range(0, 100);
    return {key, rng_.Range(0, static_cast<int64_t>(2 * n_s_)),
            rng_.Range(0, 1000), r4};
  }
  Row NewS(int64_t key, bool pass) {
    int64_t s3 = pass ? rng_.Range(0, 50) : rng_.Range(50, 100);
    return {key, rng_.Range(0, 1000), s3};
  }
  Row New(size_t table, int64_t key, bool pass) {
    return table == 0 ? NewR(key, pass) : NewS(key, pass);
  }

  SourceTxn MakeTxn() override {
    SourceTxn txn;
    txn.table = rng_.Chance(0.6) ? 0 : 1;
    const Table& t = tables_[txn.table];
    const size_t target = txn.table == 0 ? n_r_ : n_s_;
    if (rng_.Chance(1.0 / 3)) {
      // Modify: same key and selection outcome, new other values.
      int64_t key = t.RandomLiveKey(&rng_);
      Row old = t.Get(key);
      Row now = New(txn.table, key, Flagged(txn.table, old));
      if (txn.table == 0 && rng_.Chance(0.5)) now[1] = old[1];  // keep r2
      const size_t moved = txn.table == 0 ? 2 : 1;  // r3 or s2 changes
      if (now[moved] == old[moved]) now[moved] = (old[moved] + 1) % 1000;
      txn.deletes.push_back(std::move(old));
      txn.inserts.push_back(std::move(now));
    } else if (InsertNext(t, target)) {
      txn.inserts.push_back(New(txn.table, t.RandomFreeKey(&rng_),
                                FlagNext(t, kPassShare)));
    } else {
      txn.deletes.push_back(t.Get(t.RandomLiveKey(&rng_)));
    }
    return txn;
  }

  QueryOp MakeQuery() override {
    QueryOp q;
    if (!query_mix_) {
      q.shape = kMatRange;
    } else {
      // Cumulative shares, cheapest shape first, so the median falls
      // inside one shape's latency mode rather than between two.
      double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
      q.shape = u < 0.35 ? kMatRange
                : u < 0.70 ? kR3Range
                : u < 0.95 ? kPoint
                           : kFullT;
    }
    const int64_t space = static_cast<int64_t>(2 * n_r_);
    if (q.shape == kPoint) {
      q.a = tables_[0].RandomLiveKey(&rng_);
    } else if (q.shape != kFullT) {
      q.a = rng_.Range(0, space - width_);
      q.b = q.a + width_;
    }
    return q;
  }

 private:
  static bool Flagged(size_t table, const Row& row) {
    return table == 0 ? row[3] == 100 : row[2] < 50;
  }
  static constexpr double kPassShare = 0.8;

  size_t n_r_, n_s_;
  bool query_mix_;
  int64_t width_ = 0;
};

// ---- Figure 4: E = π σ(A ⋈_{a1*a1+a2<b2*b2} B), G = π_{a1,b1}E − F ----

class Figure4Workload : public Workload {
 public:
  Figure4Workload(std::string name, uint64_t seed)
      : Workload(std::move(name), seed), n_(200) {
    vdp_ = MustVdp(BuildFigure4Vdp());
    ann_ = Annotation::AllMaterialized();
    const int64_t space = static_cast<int64_t>(2 * n_);
    tables_.emplace_back("DBA", "A", "A(a1, a2) key(a1)", space);
    tables_.emplace_back("DBB", "B", "B(b1, b2) key(b1)", space,
                         [](const Row& b) { return b[1] > 0; });
    tables_.emplace_back("DBC", "C", "C(c1, a1) key(c1)", space);
    tables_.emplace_back("DBD", "D", "D(d1, b1) key(d1)", space);
    // E's columns: a1, a2, b1. G's columns: a1, b1.
    shapes_.push_back(
        {"e_by_a1",
         [](const QueryOp& q) { return "select[a1 = " + Num(q.a) + "](E)"; },
         {"a1", "a2", "b1"},
         [](const std::map<std::string, Rows>& ex, const QueryOp& q) {
           Rows sel;
           for (const Row& t : ex.at("E")) {
             if (t[0] == q.a) sel.push_back(t);
           }
           return ProjectRows(sel, {0, 1, 2});
         }});
    shapes_.push_back(
        {"g_by_b1",
         [](const QueryOp& q) { return "select[b1 = " + Num(q.a) + "](G)"; },
         {"a1", "b1"},
         [](const std::map<std::string, Rows>& ex, const QueryOp& q) {
           Rows sel;
           for (const Row& t : ex.at("G")) {
             if (t[1] == q.a) sel.push_back(t);
           }
           return ProjectRows(sel, {0, 1});
         }});
    shape_checked_.assign(shapes_.size(), false);
    rounds_per_second_ = 3.6;
  }

  std::vector<std::string> Exports() const override { return {"E", "G"}; }

  std::map<std::string, Rows> Oracle() const override {
    return OracleFigure4(tables_[0].LiveRows(), tables_[1].LiveRows(),
                         tables_[2].LiveRows(), tables_[3].LiveRows());
  }

  void Populate() override {
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (size_t i = 0; i < n_; ++i) {
        tables_[t].Insert(NewRow(t, tables_[t].RandomFreeKey(&rng_)));
      }
    }
  }

 protected:
  // Half of B joins every A row and half joins none: every key a1 is below
  // the key space, so a1*a1 + a2 < b2*b2 holds for each b2 above it and
  // for no b2 = 0. E is then |A| x |B joining| rows, which the generator
  // holds steady, and an A or B atom fans out to about a hundred E atoms
  // and as many G atoms.
  Row NewRow(size_t table, int64_t key) {
    const int64_t space = static_cast<int64_t>(2 * n_);
    switch (table) {
      case 0: return {key, rng_.Range(0, 100)};  // A: a2
      case 1:                                     // B: b2
        return {key, FlagNext(tables_[1], 0.5)
                         ? rng_.Range(space + 1, space + 200)
                         : 0};
      case 2: return {key, rng_.Range(0, space)};  // C: a1 (A's key space)
      default: return {key, rng_.Range(0, space)}; // D: b1 (B's key space)
    }
  }

  SourceTxn MakeTxn() override {
    // A and B atoms fan out through the θ-join; C and D atoms are cheap.
    SourceTxn txn;
    double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
    txn.table = u < 0.4 ? 0 : u < 0.8 ? 1 : u < 0.9 ? 2 : 3;
    const Table& t = tables_[txn.table];
    if (InsertNext(t, n_)) {
      txn.inserts.push_back(NewRow(txn.table, t.RandomFreeKey(&rng_)));
    } else {
      txn.deletes.push_back(t.Get(t.RandomLiveKey(&rng_)));
    }
    return txn;
  }

  QueryOp MakeQuery() override {
    // Two E lookups per G lookup: the median stays inside the E mode.
    QueryOp q;
    q.shape = rng_.Chance(2.0 / 3) ? 0 : 1;
    q.a = tables_[q.shape == 0 ? 0 : 1].RandomLiveKey(&rng_);
    return q;
  }

 private:
  size_t n_;
};

}  // namespace

std::unique_ptr<Workload> Workload::Make(const std::string& name,
                                         uint64_t seed) {
  // Decorrelate the streams of neighbouring seeds.
  uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 0x5E2E;
  if (name == "hybrid_updates") {
    return std::make_unique<Figure1Workload>(name, s, 1.0, false);
  }
  if (name == "query_mix") {
    // Half the hybrid_updates size: a thousand updates among four thousand
    // queries must fit in one run.
    return std::make_unique<Figure1Workload>(name, s, 0.5, true);
  }
  if (name == "materialized_fanout") {
    return std::make_unique<Figure4Workload>(name, s);
  }
  return nullptr;
}

}  // namespace e2e_bench
}  // namespace squirrel
