// Message types exchanged between source databases and a mediator.
//
// Both incremental updates and poll answers from one source travel on a
// single FIFO channel (paper §4's in-order assumption; [ZGHW95]'s model).
// This ordering is what makes Eager-Compensation correct: by the time a poll
// answer arrives, every update the source committed before answering has
// already been enqueued at the mediator.

#ifndef SQUIRREL_SOURCE_MESSAGES_H_
#define SQUIRREL_SOURCE_MESSAGES_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/query_class.h"
#include "delta/delta.h"
#include "relational/expr.h"
#include "relational/relation.h"
#include "sim/clock.h"

namespace squirrel {

/// One batched net-change announcement: "every source database sends all the
/// updates that reflect the difference between two database states in a
/// single undividable message" (paper §4).
struct UpdateMessage {
  std::string source;  ///< announcing source database
  Time send_time = 0;  ///< when the announcement left the source
  uint64_t seq = 0;    ///< per-source sequence number (restarts at 0 when the
                       ///< source's epoch bumps)
  uint64_t epoch = 1;  ///< source incarnation; bumps on crash/restart
  MultiDelta delta;    ///< net changes since the previous announcement
  /// CRC32C of the message's canonical encoding (ChecksumUpdateMessage),
  /// stamped by every sender and verified unconditionally at receipt: a
  /// mismatch (a zeroed field included) drops the message.
  uint32_t checksum = 0;
};

/// One select/project poll of a single source relation: π_attrs σ_cond(rel).
struct PollSpec {
  std::string relation;
  std::vector<std::string> attrs;
  Expr::Ptr cond;  ///< null means true
};

/// A poll transaction: all polls of one source executed against one state
/// (paper §6.3: "packages all pollings of DB_k into a single transaction").
struct PollRequest {
  uint64_t id = 0;
  std::vector<PollSpec> polls;
  // ---- overload protection (DESIGN.md §15) ----
  /// Absolute deadline forwarded from the querying tier (remaining budget
  /// minus the parent's margin); 0 = none. A responder that receives the
  /// request at or past the deadline answers immediately with an empty
  /// rejection (retry_after set) instead of evaluating the polls.
  Time deadline = 0;
  /// Service class of the query this poll serves (kInteractive for updates
  /// and maintenance-originated polls).
  QueryClass qclass = QueryClass::kInteractive;
};

/// Answers to a PollRequest; all results reflect the same source state.
struct PollAnswer {
  uint64_t id = 0;
  std::string source;
  Time answered_at = 0;  ///< source-side time the state was read
  uint64_t epoch = 1;    ///< source incarnation the state belongs to
  std::vector<Relation> results;  ///< aligned with PollRequest::polls
  /// Non-zero marks a deadline/overload rejection: the responder did not
  /// evaluate the polls and suggests retrying at this absolute time.
  /// `results` is empty then.
  Time retry_after = 0;
};

/// Anti-entropy pull: the mediator asks a restarted source for the full
/// extent of the listed relations so it can diff away any deltas the old
/// incarnation committed but never announced (see mediator/resync.h).
struct SnapshotRequest {
  uint64_t id = 0;
  std::vector<std::string> relations;
};

/// Full-state reply to a SnapshotRequest. Because the answer travels on the
/// same FIFO channel as announcements and the source flushes its announcer
/// before answering, the snapshot covers every update message sent before
/// it; `announce_seq` is the announcer's sequence high-water at that
/// instant, which becomes the mediator's dedup floor after resync.
struct SnapshotAnswer {
  uint64_t id = 0;
  std::string source;
  Time answered_at = 0;      ///< source-side time the state was read
  uint64_t epoch = 1;        ///< incarnation the snapshot belongs to
  uint64_t announce_seq = 0; ///< announcer seq high-water when answering
  std::map<std::string, Relation> relations;  ///< full extents by name
  /// CRC32C of the answer's canonical encoding (ChecksumSnapshotAnswer). A
  /// mismatch at the mediator triggers a snapshot re-request instead of
  /// poisoning the believed-state mirror. Stamped by every responder and
  /// verified unconditionally, so a zeroed field is a mismatch too.
  uint32_t checksum = 0;
};

/// What flows source -> mediator on the shared FIFO channel.
using SourceToMediatorMsg =
    std::variant<UpdateMessage, PollAnswer, SnapshotAnswer>;

/// What flows mediator -> source on the shared FIFO channel.
using MediatorToSourceMsg = std::variant<PollRequest, SnapshotRequest>;

}  // namespace squirrel

#endif  // SQUIRREL_SOURCE_MESSAGES_H_
