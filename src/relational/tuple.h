// Tuples: fixed-width rows of Values, positionally matched to a Schema.

#ifndef SQUIRREL_RELATIONAL_TUPLE_H_
#define SQUIRREL_RELATIONAL_TUPLE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "relational/value.h"

namespace squirrel {

/// \brief A row: an ordered vector of Values.
///
/// Tuples are schema-agnostic; the containing Relation supplies the schema.
/// They hash and compare value-wise, which makes them usable as keys in the
/// multiplicity maps that implement bag relations and deltas.
///
/// Hash() is memoized: map keys are hashed repeatedly (probe-then-insert,
/// rehash on growth, index maintenance), and tuples carried between maps by
/// move keep the cached value. The cache is a relaxed atomic so that a
/// const tuple may be hashed from several threads; the memoized function is
/// pure, so racing writers store the same value.
class Tuple {
 public:
  Tuple() = default;
  /// Builds a tuple from values, e.g. Tuple({1, 2, "x"}).
  Tuple(std::initializer_list<Value> values) : values_(values) {}
  /// Builds a tuple from a value vector.
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  Tuple(const Tuple& other)
      : values_(other.values_),
        hash_(other.hash_.load(std::memory_order_relaxed)) {}
  Tuple(Tuple&& other) noexcept
      : values_(std::move(other.values_)),
        hash_(other.hash_.load(std::memory_order_relaxed)) {}
  Tuple& operator=(const Tuple& other) {
    values_ = other.values_;
    hash_.store(other.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    values_ = std::move(other.values_);
    hash_.store(other.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  /// Number of fields.
  size_t size() const { return values_.size(); }
  /// Field at position \p i.
  const Value& at(size_t i) const { return values_[i]; }
  /// Mutable field at position \p i (invalidates the memoized hash).
  Value& at(size_t i) {
    hash_.store(0, std::memory_order_relaxed);
    return values_[i];
  }
  /// All fields.
  const std::vector<Value>& values() const { return values_; }

  /// Appends a field.
  void Append(Value v) {
    hash_.store(0, std::memory_order_relaxed);
    values_.push_back(std::move(v));
  }

  /// Concatenation of this tuple and \p other (used by joins).
  Tuple Concat(const Tuple& other) const;

  /// Projection onto the given positions (in the given order).
  Tuple Project(const std::vector<size_t>& positions) const;

  /// Value-wise hash.
  uint64_t Hash() const;

  /// Lexicographic comparison.
  int Compare(const Tuple& other) const;

  bool operator==(const Tuple& other) const { return Compare(other) == 0; }
  bool operator!=(const Tuple& other) const { return Compare(other) != 0; }
  bool operator<(const Tuple& other) const { return Compare(other) < 0; }

  /// Renders e.g. "(1, 'a', NULL)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
  /// Memoized Hash(); 0 means "not computed yet" (the empty tuple hashes to
  /// the nonzero fold seed; a full hash colliding with 0 merely loses the
  /// memoization for that tuple, never correctness).
  mutable std::atomic<uint64_t> hash_{0};
};

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHash {
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(t.Hash());
  }
};

}  // namespace squirrel

#endif  // SQUIRREL_RELATIONAL_TUPLE_H_
