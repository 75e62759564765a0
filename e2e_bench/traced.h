// The traced run: replays the end-to-end run's operations against the
// mediator's layers called directly — UpdateQueue, Iup, Vap,
// QueryProcessor, ResyncManager and DurabilityManager over replica sources
// — with a timer around each call, in the order the mediator's update and
// query transactions make them. The replay must agree with the end-to-end
// run (byte-identical repositories and WAL bytes, equal polled tuples,
// rules fired and answers); the end-to-end wall time its layers do not
// account for is reported as mediator glue.

#ifndef SQUIRREL_E2E_BENCH_TRACED_H_
#define SQUIRREL_E2E_BENCH_TRACED_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "record.h"
#include "workload.h"

namespace squirrel {
namespace e2e_bench {

class Replay;

/// \brief The traced replay, stepped in lockstep with the end-to-end run:
/// each operation is replayed right after the run executed it, so both
/// see the same machine and the same heap.
class TracedRun {
 public:
  explicit TracedRun(const Workload& w);
  ~TracedRun();
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  /// Seeds the replica sources with \p initial_rows (per table) and builds
  /// the initial view and checkpoint.
  Status Setup(const std::vector<Rows>& initial_rows);
  /// Replays one operation the end-to-end run executed.
  Status Step(const ExecutedOp& e);
  /// Fills \p metrics with every per-layer metric. Returns false with
  /// \p error set when the replay disagrees with the run in \p rec.
  bool Finish(const EndToEndRecord& rec, std::vector<Metric>* metrics,
              std::string* error);

 private:
  std::unique_ptr<Replay> replay_;
};

}  // namespace e2e_bench
}  // namespace squirrel

#endif  // SQUIRREL_E2E_BENCH_TRACED_H_
