// The Incremental Update Processor (paper §6.4).
//
// The Kernel Algorithm traverses the VDP once, leaves to exports, in
// topological order: each node's accumulated delta is fired toward its
// parents (with sibling repositories in their current — old or new — state,
// which is what makes Example 6.1 come out right) and only then applied to
// the node's own repository.
//
// The general algorithm wraps the kernel with the three phases of §6.4:
//  (a) IUP Preparation — simulate which rules will fire and collect the
//      projections of virtual/hybrid relations the kernel will need;
//  (b) populate those temporaries via the VAP (with Eager Compensation
//      against both the in-flight batch and the queue);
//  (c) run the kernel with temporaries standing in for virtual data,
//      keeping them up to date as nodes are processed.

#ifndef SQUIRREL_MEDIATOR_IUP_H_
#define SQUIRREL_MEDIATOR_IUP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "mediator/local_store.h"
#include "mediator/vap.h"
#include "vdp/rules.h"
#include "vdp/vdp.h"

namespace squirrel {

/// Counters describing one IUP run.
struct IupStats {
  uint64_t rules_fired = 0;       ///< edge-rule firings with non-empty input
  uint64_t atoms_in = 0;          ///< delta atoms entering at the leaves
  uint64_t atoms_propagated = 0;  ///< delta atoms produced across all edges
  uint64_t nodes_processed = 0;   ///< non-leaf nodes with non-empty deltas
  uint64_t polls = 0;             ///< source polls (phase b)
  uint64_t polled_tuples = 0;     ///< tuples fetched from sources
  uint64_t temps_built = 0;       ///< temporaries materialized (phase b)
  uint64_t poll_retries = 0;      ///< re-polls after timeouts (fault paths)

  /// Accumulates another run's counters.
  void Merge(const IupStats& other);
};

/// \brief Propagates batched source deltas through an annotated VDP.
class Iup {
 public:
  /// \param vdp, ann, vap not owned; \p store not owned but mutated.
  Iup(const Vdp* vdp, const Annotation* ann, LocalStore* store,
      const Vap* vap)
      : vdp_(vdp), ann_(ann), store_(store), vap_(vap) {}

  /// Phase (a): the temporary relations the kernel will need to process
  /// \p leaf_deltas (keyed by leaf *node* name). Conservative above the
  /// leaf-parents (a node is considered affected if any child is), exact at
  /// the leaf-parents (their deltas are actually filtered).
  Result<std::vector<TempRequest>> PrepareTempRequests(
      const std::map<std::string, Delta>& leaf_deltas) const;

  /// Phases (a)+(b)+(c): the general IUP algorithm.
  Result<IupStats> ProcessBatch(const std::map<std::string, Delta>& leaf_deltas,
                                const Vap::PollFn& poll,
                                const Vap::CompensationFn& comp);

  /// Phase (c) only: the Kernel Algorithm with caller-provided temporaries
  /// (pass an empty TempStore in the fully-materialized-support case).
  Result<IupStats> RunKernel(const std::map<std::string, Delta>& leaf_deltas,
                             TempStore* temps);

 private:
  const Vdp* vdp_;
  const Annotation* ann_;
  LocalStore* store_;
  const Vap* vap_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_IUP_H_
