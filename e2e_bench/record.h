// What the end-to-end run hands to the traced replay, the metric list both
// of them print, and the helpers both use.

#ifndef SQUIRREL_E2E_BENCH_RECORD_H_
#define SQUIRREL_E2E_BENCH_RECORD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "delta/delta.h"
#include "mediator/durability/log_device.h"
#include "relational/relation.h"
#include "sim/clock.h"
#include "workload.h"

namespace squirrel {
namespace e2e_bench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One operation of the timed loop as the end-to-end run executed it.
struct ExecutedOp {
  Op op;
  Time when = 0;            ///< virtual time of the commit / submit
  double wall_ms = 0;       ///< end-to-end wall time of the operation
  uint64_t answer_digest = 0;  ///< queries: digest of the answer rows
};

/// The end-to-end run's results over its timed loop.
struct EndToEndRecord {
  double seed_ms = 0;
  double view_init_ms = 0;
  double update_wall_ms = 0;  ///< sum over update operations
  uint64_t update_atoms = 0;
  uint64_t update_txns = 0;
  uint64_t queries = 0;
  uint64_t update_events = 0;  ///< scheduler events fired by updates
  /// Per materialized node: EncodeRelation bytes at the end of the loop.
  std::map<std::string, std::string> repos;
  uint64_t polled_tuples = 0;   ///< MediatorStats::polled_tuples
  uint64_t rules_fired = 0;     ///< MediatorStats::iup.rules_fired
  uint64_t wal_bytes = 0;       ///< DurabilityManager::bytes_logged()
  uint64_t loop_checkpoints = 0;  ///< checkpoints written during the loop
  uint64_t loop_wal_bytes = 0;    ///< bytes logged during the loop
  size_t store_bytes = 0;         ///< LocalStore::ApproxBytes()
  MemLogDevice device;            ///< copy of the WAL device
};

/// The source transaction on \p relation that deletes \p deletes and then
/// inserts \p inserts.
Result<MultiDelta> TxnDelta(const std::string& relation, const Schema& schema,
                            const Rows& deletes, const Rows& inserts);

/// Order-independent digest of a relation's tuples and counts.
uint64_t DigestRelation(const Relation& rel);

}  // namespace e2e_bench
}  // namespace squirrel

#endif  // SQUIRREL_E2E_BENCH_RECORD_H_
