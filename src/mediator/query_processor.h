// The Query Processor (paper §4, §6.3): answers view queries from the local
// store when possible, and through VAP temporaries when virtual attributes
// are involved. Export answers use set semantics (the view definition
// language is set-based; bags are internal).

#ifndef SQUIRREL_MEDIATOR_QUERY_PROCESSOR_H_
#define SQUIRREL_MEDIATOR_QUERY_PROCESSOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "mediator/local_store.h"
#include "mediator/query.h"
#include "mediator/vap.h"
#include "vdp/vdp.h"

namespace squirrel {

/// A ViewQuery that has been normalized once: attrs defaulted/validated,
/// cond non-null, and the needed-attr set (query attrs + cond attrs, schema
/// order) derived. The single internal entry point of the QP — obtained from
/// QueryProcessor::Prepare and reusable across PlanFor/Answer/AnswerWithTemps
/// without re-running normalization or coverage analysis.
struct PreparedQuery {
  ViewQuery query;                  ///< normalized form
  std::vector<std::string> needed;  ///< attrs the answer must read
};

/// \brief Answers ViewQueries over an annotated VDP.
class QueryProcessor {
 public:
  /// Answer computed locally (timing/reflect data added by the Mediator).
  struct LocalAnswer {
    Relation data;              ///< set-semantics result
    bool used_virtual = false;  ///< true iff the VAP ran
    uint64_t polls = 0;         ///< source polls performed
    uint64_t polled_tuples = 0;
    // ---- degraded reads (AnswerDegraded only) ----
    bool degraded = false;
    /// Requested attrs with no materialized backing (dropped).
    std::vector<std::string> missing_attrs;
    /// True iff the selection referenced unmaterialized attrs and was
    /// dropped (the answer is a superset of the exact result).
    bool cond_dropped = false;
  };

  /// None of the pointers are owned; all must outlive the processor.
  QueryProcessor(const Vdp* vdp, const Annotation* ann,
                 const LocalStore* store, const Vap* vap)
      : vdp_(vdp), ann_(ann), store_(store), vap_(vap) {}

  /// Normalizes a query: checks the relation is exported, defaults empty
  /// attrs to the full schema, checks attrs exist.
  Result<ViewQuery> Normalize(const ViewQuery& q) const;

  /// Normalize + needed-attr derivation, done once up front.
  Result<PreparedQuery> Prepare(const ViewQuery& raw) const;

  /// The VAP plan the query needs, or nullopt when the materialized data
  /// suffices.
  Result<std::optional<VapPlan>> PlanFor(const PreparedQuery& q) const;

  /// Answers \p q, running the VAP with \p poll / \p comp when needed.
  Result<LocalAnswer> Answer(const PreparedQuery& q, const Vap::PollFn& poll,
                             const Vap::CompensationFn& comp) const;

  /// Answers \p q with a plan already obtained from PlanFor: runs the VAP
  /// for \p plan, or reads the repository when \p plan is null.
  Result<LocalAnswer> AnswerWithPlan(const PreparedQuery& q,
                                     const VapPlan* plan,
                                     const Vap::PollFn& poll,
                                     const Vap::CompensationFn& comp) const;

  /// Answers \p q against pre-built temporaries (the Mediator's async path).
  Result<LocalAnswer> AnswerWithTemps(const PreparedQuery& q,
                                      const TempStore& temps) const;

  /// Degraded-mode answer while one or more needed sources are down
  /// (MediatorOptions::degraded_reads): serves whatever the export node's
  /// repository materializes instead of failing with kUnavailable.
  /// Unmaterialized requested attributes are dropped (reported in
  /// missing_attrs); a selection referencing unmaterialized attributes is
  /// dropped too (cond_dropped), making the answer a superset. Fails with
  /// kUnavailable only when the export node has no repository or none of
  /// the requested attributes are materialized — there is then nothing to
  /// serve.
  Result<LocalAnswer> AnswerDegraded(const PreparedQuery& q) const;

  // Convenience overloads for raw queries; each Prepares and delegates.
  /// Input should be normalized (legacy contract kept for callers that
  /// Normalize themselves).
  Result<std::optional<VapPlan>> PlanFor(const ViewQuery& q) const;
  Result<LocalAnswer> Answer(const ViewQuery& q, const Vap::PollFn& poll,
                             const Vap::CompensationFn& comp) const;
  Result<LocalAnswer> AnswerWithTemps(const ViewQuery& q,
                                      const TempStore& temps) const;

 private:
  Result<LocalAnswer> AnswerFromRepo(const PreparedQuery& q) const;

  const Vdp* vdp_;
  const Annotation* ann_;
  const LocalStore* store_;
  const Vap* vap_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_QUERY_PROCESSOR_H_
