// Seeded inputs of the end-to-end benchmark: source tables kept at a
// stationary size, the operation stream (source transactions and view
// queries), and the query shapes with their oracle evaluators.
//
// The generator owns the live rows of every source relation as plain C++
// vectors. Each generated source transaction is applied to those rows at
// generation time, so the generator state is always the state the sources
// reach once the operation commits — the input the oracle recomputes the
// exports from.

#ifndef SQUIRREL_E2E_BENCH_WORKLOAD_H_
#define SQUIRREL_E2E_BENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {
namespace e2e_bench {

using Row = std::vector<int64_t>;
/// A set of rows in a fixed column order, sorted (the oracle's relation).
using Rows = std::vector<Row>;

/// splitmix64: the benchmark's own generator, independent of src/.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi).
  int64_t Range(int64_t lo, int64_t hi);
  /// True with probability \p p.
  bool Chance(double p);

 private:
  uint64_t state_;
};

/// Live rows of one source relation, keyed by its first column, whose
/// values come from the key space [0, key_space).
class Table {
 public:
  /// \p flag marks the rows whose share the generator holds steady (those
  /// passing a view's selection, say); null flags none.
  Table(std::string db, std::string relation, std::string decl,
        int64_t key_space, std::function<bool(const Row&)> flag = nullptr);

  const std::string& db() const { return db_; }
  const std::string& relation() const { return relation_; }
  /// Schema declaration, e.g. "R(r1, r2, r3, r4) key(r1)".
  const std::string& decl() const { return decl_; }
  size_t size() const { return live_.size(); }
  /// Live rows the flag marks.
  size_t flagged() const { return flagged_; }
  const Row& Get(int64_t key) const { return rows_[key]; }
  /// Every live row, in no particular order.
  Rows LiveRows() const;

  void Insert(const Row& row);
  void Erase(int64_t key);
  int64_t RandomLiveKey(Prng* rng) const;
  int64_t RandomFreeKey(Prng* rng) const;

 private:
  std::string db_, relation_, decl_;
  std::vector<Row> rows_;       // by key; meaningful iff present_[key]
  std::vector<char> present_;
  std::vector<int64_t> live_, free_;
  std::vector<size_t> pos_;     // index of a key in live_ or free_
  std::function<bool(const Row&)> flag_;
  size_t flagged_ = 0;
};

/// One source transaction on one table: its deletes precede its inserts
/// (a modify deletes the old row and inserts the new one).
struct SourceTxn {
  size_t table = 0;
  Rows deletes, inserts;
  size_t Atoms() const { return deletes.size() + inserts.size(); }
};

/// One view query: a shape and its parameters.
struct QueryOp {
  size_t shape = 0;
  int64_t a = 0, b = 0;
  /// Seeded sample: compare this answer with the oracle.
  bool check = false;
};

struct Op {
  bool is_query = false;
  SourceTxn txn;
  QueryOp query;
};

/// A query shape: its text for the mediator and its oracle evaluator.
struct QueryShape {
  std::string name;
  /// Query text for ParseViewQuery, from the op's parameters.
  std::function<std::string(const QueryOp&)> text;
  /// Answer attributes, in order.
  std::vector<std::string> attrs;
  /// The expected answer from the oracle's exports (keyed by export name,
  /// rows in export schema order).
  std::function<Rows(const std::map<std::string, Rows>&, const QueryOp&)>
      oracle;
};

/// \brief One benchmark workload: VDP, annotation, tables, op mix.
class Workload {
 public:
  /// Builds the named workload; nullptr for an unknown name.
  static std::unique_ptr<Workload> Make(const std::string& name,
                                        uint64_t seed);
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  const Vdp& vdp() const { return vdp_; }
  const Annotation& annotation() const { return ann_; }
  const std::vector<Table>& tables() const { return tables_; }
  const std::vector<QueryShape>& shapes() const { return shapes_; }
  /// Rounds of operations per second of --seconds (see main.cc).
  double rounds_per_second() const { return rounds_per_second_; }
  /// Export relations the oracle recomputes, in check order.
  virtual std::vector<std::string> Exports() const = 0;
  /// Recomputes every export from the live rows (plain C++ only).
  virtual std::map<std::string, Rows> Oracle() const = 0;

  /// Fills the tables with their initial rows.
  virtual void Populate() = 0;
  /// Generates the next operation and applies it to the live rows.
  Op Next();
  /// The next source transaction only (used between recovery cycles).
  SourceTxn NextTxn();

 protected:
  Workload(std::string name, uint64_t seed) : name_(std::move(name)),
                                              rng_(seed) {}
  /// Chooses insert (true) or delete (false) so that \p t stays near
  /// \p target rows.
  bool InsertNext(const Table& t, size_t target);
  /// Whether the next inserted row of \p t should be flagged, so that
  /// flagged rows stay at \p share of the table.
  bool FlagNext(const Table& t, double share);
  void Apply(const SourceTxn& txn);
  virtual SourceTxn MakeTxn() = 0;
  virtual QueryOp MakeQuery() = 0;
  /// Updates and queries alternate; otherwise an op is a query with
  /// probability query_share_.
  bool alternate_ = true;
  double query_share_ = 0.5;
  /// The round rate the reference machine sustains on this workload.
  double rounds_per_second_ = 1.0;
  /// Probability that a query answer is compared with the oracle.
  double check_share_ = 1.0 / 8;

  std::string name_;
  Prng rng_;
  Vdp vdp_;
  Annotation ann_;
  std::vector<Table> tables_;
  std::vector<QueryShape> shapes_;
  std::vector<bool> shape_checked_;
  bool next_is_query_ = false;
};

/// Sorted rows of \p rows projected to column positions \p cols, deduped.
Rows ProjectRows(const Rows& rows, const std::vector<size_t>& cols);

}  // namespace e2e_bench
}  // namespace squirrel

#endif  // SQUIRREL_E2E_BENCH_WORKLOAD_H_
