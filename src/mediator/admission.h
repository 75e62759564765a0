// Admission control for view queries (DESIGN.md §15).
//
// The gate bounds how much query work the mediator accepts per service
// class. Each class has a run-slot limit (max_active) and an additional
// waiting allowance (max_queued); a query that would push the class's
// in-flight count past max_active + max_queued is rejected immediately with
// a typed kOverloaded status carrying a retry-after hint, instead of
// queueing unboundedly behind the serialized transaction loop. A query
// holds its slot from admission until its callback resolves (answer,
// degraded answer, or typed error), so poll-free queries answered from the
// committed store — which never wait for the transaction queue — are
// bounded too.
//
// The gate also implements the memory-budget soft-limit policy: while the
// installed MemoryBudget reports SoftBreached(), kBatch admissions are
// refused so retained state can drain before throughput work piles on.

#ifndef SQUIRREL_MEDIATOR_ADMISSION_H_
#define SQUIRREL_MEDIATOR_ADMISSION_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/query_class.h"
#include "common/status.h"
#include "sim/clock.h"

namespace squirrel {

/// Per-class admission limits. All zeros (the default) disables the gate
/// entirely — existing deployments are unchanged.
struct AdmissionOptions {
  /// Concurrent running queries per class; 0 = unlimited.
  std::array<uint32_t, kNumQueryClasses> max_active{};
  /// Additional queued (admitted, waiting for the transaction loop) queries
  /// per class on top of max_active; meaningful only when max_active > 0.
  std::array<uint32_t, kNumQueryClasses> max_queued{};
  /// Retry-after hint attached to rejections (and to responder-side
  /// deadline rejections); purely advisory.
  Time retry_after_hint = 50;

  /// True iff any class has a limit configured.
  bool Enabled() const {
    for (uint32_t m : max_active) {
      if (m != 0) return true;
    }
    return false;
  }
};

/// \brief Counts in-flight queries per class and refuses over-limit or
/// soft-budget-shed admissions with typed errors.
class AdmissionGate {
 public:
  AdmissionGate() = default;
  explicit AdmissionGate(AdmissionOptions opts) : opts_(opts) {}

  void set_options(const AdmissionOptions& opts) { opts_ = opts; }
  const AdmissionOptions& options() const { return opts_; }

  /// Admits or refuses one query of class \p cls. \p soft_breached is the
  /// memory budget's soft-limit state (sheds kBatch). On success the class
  /// holds one more slot until Release(). On refusal returns kOverloaded
  /// with the retry-after hint rendered into the message.
  Status Admit(QueryClass cls, bool soft_breached);

  /// Returns the slot taken by Admit(). Exactly one Release per admission.
  void Release(QueryClass cls);

  /// Drops all in-flight slots. Called at mediator Crash(): every admitted
  /// query dies with the process (its callback never fires), so the gate
  /// must not remember it into the next incarnation. Cumulative counters
  /// survive, like MediatorStats does.
  void ResetInflight() { inflight_.fill(0); }

  /// Queries of \p cls currently holding a slot.
  uint32_t Inflight(QueryClass cls) const {
    return inflight_[static_cast<size_t>(cls)];
  }

  /// Total admissions / rejections (all classes) since construction.
  uint64_t admitted() const { return admitted_; }
  uint64_t rejected() const { return rejected_; }
  /// Rejections attributable to the soft memory limit (kBatch sheds).
  uint64_t shed_soft_budget() const { return shed_soft_budget_; }

  /// "admission: inflight=i/b/n rejected=r shed=s" — one line for the
  /// mediator's trace/stats dump.
  std::string ToString() const;

 private:
  AdmissionOptions opts_;
  std::array<uint32_t, kNumQueryClasses> inflight_{};
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_soft_budget_ = 0;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_ADMISSION_H_
