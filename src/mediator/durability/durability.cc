#include "mediator/durability/durability.h"

#include <algorithm>
#include <deque>

#include "delta/delta.h"
#include "mediator/durability/integrity.h"
#include "mediator/durability/serialize.h"
#include "mediator/update_queue.h"

namespace squirrel {

namespace {

// WAL record tags. The one-byte tag leads every record.
enum RecordTag : uint8_t {
  kEnqueue = 1,
  kTxnBegin = 2,
  kTxnCommit = 3,
  kTxnAbort = 4,
  kCheckpoint = 5,
  // An enqueue the live queue merged into its tail message (delta
  // coalescing); replay smashes into the rebuilt queue's tail instead of
  // appending.
  kEnqueueCoalesced = 6,
  // Source resync lifecycle (anti-entropy after a source restart): a begin
  // without a matching done means the crash hit mid-resync and recovery
  // must re-initiate the snapshot pull.
  kResyncBegin = 7,
  kResyncDone = 8,
  // One backpressure shed: replay re-runs the deterministic oldest-coalesce
  // merge on the rebuilt queue.
  kShed = 9,
};

// Checkpoint format version, bumped on incompatible layout changes.
// v2 adds per-source epoch/health, the resync mirrors, and the
// snapshot-request id counter. v3 adds a snapshot-version counter (always 0
// since the store dropped versioned snapshots; kept so the layout is stable).
constexpr uint32_t kHardStateVersion = 3;

}  // namespace

// ---- HardState ------------------------------------------------------------

std::string HardState::Encode() const {
  BinaryWriter w;
  w.PutU32(kHardStateVersion);
  w.PutU32(static_cast<uint32_t>(repos.size()));
  for (const auto& [node, rel] : repos) {
    w.PutString(node);
    EncodeRelation(&w, rel);
  }
  w.PutU64(queue.size());
  for (const auto& msg : queue) EncodeUpdateMessage(&w, msg);
  w.PutU32(static_cast<uint32_t>(sources.size()));
  for (const auto& [name, st] : sources) {
    w.PutString(name);
    w.PutU64(st.last_update_seq);
    w.PutTime(st.last_reflected_send);
    w.PutU8(st.quarantined ? 1 : 0);
    w.PutU64(st.epoch);
    w.PutU8(st.health);
  }
  w.PutU64(next_txn_id);
  w.PutU32(static_cast<uint32_t>(mirrors.size()));
  for (const auto& [source, rels] : mirrors) {
    w.PutString(source);
    w.PutU32(static_cast<uint32_t>(rels.size()));
    for (const auto& [rel_name, rel] : rels) {
      w.PutString(rel_name);
      EncodeRelation(&w, rel);
    }
  }
  w.PutU64(next_resync_id);
  w.PutU64(snapshot_version);
  return w.Take();
}

Result<HardState> HardState::Decode(const std::string& bytes) {
  BinaryReader r(bytes);
  SQ_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kHardStateVersion) {
    return Status::Internal("unsupported checkpoint version " +
                            std::to_string(version));
  }
  HardState hs;
  SQ_ASSIGN_OR_RETURN(uint32_t nrepos, r.GetU32());
  for (uint32_t i = 0; i < nrepos; ++i) {
    SQ_ASSIGN_OR_RETURN(std::string node, r.GetString());
    SQ_ASSIGN_OR_RETURN(Relation rel, DecodeRelation(&r));
    hs.repos.emplace(std::move(node), std::move(rel));
  }
  SQ_ASSIGN_OR_RETURN(uint64_t nmsgs, r.GetU64());
  // Clamp to what the remaining bytes could possibly encode (>= 1 byte per
  // element) so a corrupted count can't bad_alloc before the decode errors.
  hs.queue.reserve(std::min<uint64_t>(nmsgs, r.remaining()));
  for (uint64_t i = 0; i < nmsgs; ++i) {
    SQ_ASSIGN_OR_RETURN(UpdateMessage msg, DecodeUpdateMessage(&r));
    hs.queue.push_back(std::move(msg));
  }
  SQ_ASSIGN_OR_RETURN(uint32_t nsources, r.GetU32());
  for (uint32_t i = 0; i < nsources; ++i) {
    SQ_ASSIGN_OR_RETURN(std::string name, r.GetString());
    SourceState st;
    SQ_ASSIGN_OR_RETURN(st.last_update_seq, r.GetU64());
    SQ_ASSIGN_OR_RETURN(st.last_reflected_send, r.GetTime());
    SQ_ASSIGN_OR_RETURN(uint8_t q, r.GetU8());
    st.quarantined = q != 0;
    SQ_ASSIGN_OR_RETURN(st.epoch, r.GetU64());
    SQ_ASSIGN_OR_RETURN(st.health, r.GetU8());
    hs.sources.emplace(std::move(name), st);
  }
  SQ_ASSIGN_OR_RETURN(hs.next_txn_id, r.GetU64());
  SQ_ASSIGN_OR_RETURN(uint32_t nmirrors, r.GetU32());
  for (uint32_t i = 0; i < nmirrors; ++i) {
    SQ_ASSIGN_OR_RETURN(std::string source, r.GetString());
    SQ_ASSIGN_OR_RETURN(uint32_t nrels, r.GetU32());
    auto& rels = hs.mirrors[source];
    for (uint32_t j = 0; j < nrels; ++j) {
      SQ_ASSIGN_OR_RETURN(std::string rel_name, r.GetString());
      SQ_ASSIGN_OR_RETURN(Relation rel, DecodeRelation(&r));
      rels.emplace(std::move(rel_name), std::move(rel));
    }
  }
  SQ_ASSIGN_OR_RETURN(hs.next_resync_id, r.GetU64());
  SQ_ASSIGN_OR_RETURN(hs.snapshot_version, r.GetU64());
  if (!r.AtEnd()) {
    return Status::Internal("checkpoint has trailing bytes");
  }
  return hs;
}

// ---- DurabilityManager: logging -------------------------------------------

Status DurabilityManager::Append(std::string record) {
  record = FrameRecord(FrameClass::kRecord, log_epoch_, record);
  bytes_logged_ += record.size();
  ++records_logged_;
  return opts_.device->Append(std::move(record)).status();
}

Status DurabilityManager::LogEnqueue(const UpdateMessage& msg,
                                     bool coalesced) {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(coalesced ? kEnqueueCoalesced : kEnqueue);
  EncodeUpdateMessage(&w, msg);
  return Append(w.Take());
}

Status DurabilityManager::LogTxnBegin(uint64_t txn_id, uint64_t consumed) {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kTxnBegin);
  w.PutU64(txn_id);
  w.PutU64(consumed);
  return Append(w.Take());
}

Status DurabilityManager::LogTxnCommit(const CommitPayload& payload) {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kTxnCommit);
  w.PutU64(payload.txn_id);
  w.PutU64(payload.consumed);
  w.PutU32(static_cast<uint32_t>(payload.node_deltas.size()));
  for (const auto& [node, delta] : payload.node_deltas) {
    w.PutString(node);
    EncodeDelta(&w, delta);
  }
  w.PutU32(static_cast<uint32_t>(payload.reflect.size()));
  for (const auto& [source, send_time] : payload.reflect) {
    w.PutString(source);
    w.PutTime(send_time);
  }
  w.PutU32(static_cast<uint32_t>(payload.source_deltas.size()));
  for (const auto& [source, md] : payload.source_deltas) {
    w.PutString(source);
    EncodeMultiDelta(&w, md);
  }
  return Append(w.Take());
}

Status DurabilityManager::LogTxnAbort(uint64_t txn_id, bool requeued) {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kTxnAbort);
  w.PutU64(txn_id);
  w.PutU8(requeued ? 1 : 0);
  return Append(w.Take());
}

Status DurabilityManager::LogResyncBegin(const std::string& source,
                                         uint64_t epoch) {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kResyncBegin);
  w.PutString(source);
  w.PutU64(epoch);
  return Append(w.Take());
}

Status DurabilityManager::LogResyncDone(const std::string& source,
                                        uint64_t epoch,
                                        uint64_t last_update_seq) {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kResyncDone);
  w.PutString(source);
  w.PutU64(epoch);
  w.PutU64(last_update_seq);
  return Append(w.Take());
}

Status DurabilityManager::LogShed() {
  if (!wal_enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kShed);
  return Append(w.Take());
}

Status DurabilityManager::WriteCheckpoint(const HardState& state) {
  if (!enabled()) return Status::OK();
  BinaryWriter w;
  w.PutU8(kCheckpoint);
  w.PutString(state.Encode());
  // Checkpoint frames carry the complement magic so a damaged checkpoint
  // is still recognizably a checkpoint (generation fallback, not kCorrupted).
  std::string record =
      FrameRecord(FrameClass::kCheckpoint, log_epoch_, w.Take());
  bytes_logged_ += record.size();
  ++records_logged_;
  ++checkpoints_written_;
  SQ_ASSIGN_OR_RETURN(uint64_t lsn, opts_.device->Append(std::move(record)));
  // Dual-generation retention: truncate only up to the PREVIOUS checkpoint,
  // keeping it (and the WAL suffix behind it) as the fallback generation in
  // case this newest image is damaged before it is ever read back.
  uint64_t cut = have_prev_checkpoint_ ? prev_checkpoint_lsn_ : lsn;
  prev_checkpoint_lsn_ = lsn;
  have_prev_checkpoint_ = true;
  return opts_.device->TruncatePrefix(cut);
}

// ---- DurabilityManager: recovery ------------------------------------------

namespace {

/// One log record after frame verification.
struct ParsedRecord {
  uint64_t lsn = 0;
  FrameInfo frame;
};

/// Decodes a verified checkpoint-class payload into \p state. Any failure —
/// wrong tag, truncated blob, undecodable HardState — means this generation
/// is unusable and the caller falls back to an older one.
Status DecodeCheckpointPayload(const std::string& payload, HardState* state) {
  BinaryReader r(payload);
  SQ_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  if (tag != kCheckpoint) {
    return Status::Internal("checkpoint frame with record tag " +
                            std::to_string(tag));
  }
  SQ_ASSIGN_OR_RETURN(std::string blob, r.GetString());
  SQ_ASSIGN_OR_RETURN(*state, HardState::Decode(blob));
  return Status::OK();
}

}  // namespace

Result<RecoveredState> DurabilityManager::Recover() {
  if (!enabled()) {
    return Status::FailedPrecondition(
        "recovery requires a log device (durability is disabled)");
  }
  SQ_ASSIGN_OR_RETURN(std::vector<LogRecord> records, opts_.device->ReadAll());

  // Pass 1: verify every frame.
  std::vector<ParsedRecord> parsed;
  parsed.reserve(records.size());
  for (const auto& rec : records) {
    parsed.push_back({rec.lsn, UnframeRecord(rec.bytes)});
  }

  // The log epoch must be non-decreasing along the log: a verified frame
  // from an older incarnation sitting AFTER newer ones means the log was
  // spliced (e.g. a stale acked-then-lost tail resurfaced) — never replay.
  uint64_t max_epoch = 0;
  for (const auto& p : parsed) {
    if (!p.frame.valid) continue;
    if (p.frame.log_epoch < max_epoch) {
      return Status::Corrupted(
          "log epoch regression at LSN " + std::to_string(p.lsn) +
          " (epoch " + std::to_string(p.frame.log_epoch) + " after " +
          std::to_string(max_epoch) + ")");
    }
    max_epoch = p.frame.log_epoch;
  }

  // Pass 2: pick the newest checkpoint generation that verifies AND
  // decodes. Every damaged checkpoint-class record newer than the chosen
  // one is a generation fallback — recovery then replays the longer WAL
  // suffix behind the older image instead of failing.
  RecoveredState out;
  size_t start = 0;
  bool have_checkpoint = false;
  uint64_t checkpoint_slots_seen = 0;
  for (size_t i = parsed.size(); i-- > 0;) {
    if (parsed[i].frame.frame_class != FrameClass::kCheckpoint) continue;
    ++checkpoint_slots_seen;
    if (parsed[i].frame.valid) {
      Status decoded =
          DecodeCheckpointPayload(parsed[i].frame.payload, &out.state);
      if (decoded.ok()) {
        start = i;
        have_checkpoint = true;
        out.checkpoint_lsn = parsed[i].lsn;
        break;
      }
    }
    ++out.checkpoint_fallbacks;
  }
  if (!have_checkpoint) {
    if (checkpoint_slots_seen > 0) {
      return Status::Corrupted(
          "no recoverable checkpoint generation: all " +
          std::to_string(checkpoint_slots_seen) +
          " retained slot(s) failed verification");
    }
    return Status::Internal(
        "no checkpoint in the log: the mediator never started durably");
  }

  // Replay the suffix. The queue is rebuilt in a deque so commits can pop
  // consumed messages from the front while enqueues append at the back.
  std::deque<UpdateMessage> queue(out.state.queue.begin(),
                                  out.state.queue.end());
  bool txn_open = false;
  uint64_t open_txn_id = 0;
  uint64_t open_consumed = 0;
  auto roll_back_open = [&]() {
    // A begin whose commit/abort never became durable: the flushed messages
    // were never popped from the replay queue, so leaving them in place IS
    // the Requeue — order preserved, nothing lost.
    ++out.txns_rolled_back;
    out.msgs_requeued += open_consumed;
    txn_open = false;
  };
  for (size_t i = start + 1; i < parsed.size(); ++i) {
    if (parsed[i].lsn != parsed[i - 1].lsn + 1) {
      // A hole in the LSN sequence: the device acknowledged record(s) that
      // never reached the read-back (lying fsync). Their effects cannot be
      // reconstructed and replaying around them would silently diverge.
      return Status::Corrupted(
          "WAL record(s) missing between LSN " +
          std::to_string(parsed[i - 1].lsn) + " and LSN " +
          std::to_string(parsed[i].lsn) + " (acked but not persisted)");
    }
    if (parsed[i].frame.frame_class == FrameClass::kCheckpoint) {
      // A newer-but-damaged generation (counted as a fallback in pass 2):
      // its complement magic identifies it as a checkpoint even though its
      // body failed verification, so it is skippable — the chosen older
      // generation plus this very suffix covers everything it held.
      continue;
    }
    if (!parsed[i].frame.valid) {
      // Triage: a damaged run that reaches the end of the log is repairable
      // tail damage (torn/partial final appends — nothing after them ever
      // became durable). Damage FOLLOWED by a verifiable record means the
      // interior of the log is gone, and with it committed effects.
      bool tail = true;
      for (size_t j = i + 1; j < parsed.size(); ++j) {
        if (parsed[j].frame.valid) {
          tail = false;
          break;
        }
      }
      if (tail) {
        out.tail_records_dropped = parsed.size() - i;
        break;
      }
      return Status::Corrupted("interior WAL corruption at LSN " +
                               std::to_string(parsed[i].lsn) +
                               " (damaged record precedes verified ones)");
    }
    ++out.records_replayed;
    BinaryReader r(parsed[i].frame.payload);
    SQ_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    switch (tag) {
      case kEnqueue: {
        SQ_ASSIGN_OR_RETURN(UpdateMessage msg, DecodeUpdateMessage(&r));
        auto& src = out.state.sources[msg.source];
        if (msg.epoch > src.epoch) {
          // Defensive: live detection logs a resync-begin before any
          // newer-epoch message can reach the queue, so normally the epoch
          // was already raised.
          src.epoch = msg.epoch;
          src.last_update_seq = msg.seq;
        } else if (msg.epoch == src.epoch && msg.seq != 0 &&
                   msg.seq > src.last_update_seq) {
          src.last_update_seq = msg.seq;
        }
        queue.push_back(std::move(msg));
        break;
      }
      case kEnqueueCoalesced: {
        SQ_ASSIGN_OR_RETURN(UpdateMessage msg, DecodeUpdateMessage(&r));
        auto& src = out.state.sources[msg.source];
        if (msg.epoch > src.epoch) {
          src.epoch = msg.epoch;
          src.last_update_seq = msg.seq;
        } else if (msg.epoch == src.epoch && msg.seq != 0 &&
                   msg.seq > src.last_update_seq) {
          src.last_update_seq = msg.seq;
        }
        // The live queue merged this message into its tail; the replay
        // queue's tail is the same message (consumed-but-uncommitted
        // messages sit at the FRONT, and a coalesce is only recorded when
        // the live queue was non-empty), so mirror the merge here.
        if (queue.empty() || queue.back().source != msg.source) {
          return Status::Internal(
              "WAL replay: coalesced enqueue without a matching tail");
        }
        UpdateMessage& tail = queue.back();
        // Mirrors UpdateQueue::Enqueue's merge exactly (same inputs, same
        // smash) so recovered state matches the survivor's byte for byte.
        (void)tail.delta.SmashInPlace(msg.delta);
        tail.seq = msg.seq;
        tail.epoch = msg.epoch;
        tail.send_time = msg.send_time;
        break;
      }
      case kTxnBegin: {
        if (txn_open) roll_back_open();  // superseded by a later flush
        SQ_ASSIGN_OR_RETURN(open_txn_id, r.GetU64());
        SQ_ASSIGN_OR_RETURN(open_consumed, r.GetU64());
        if (open_consumed > queue.size()) {
          return Status::Internal("WAL replay: txn " +
                                  std::to_string(open_txn_id) +
                                  " consumed more messages than queued");
        }
        txn_open = true;
        break;
      }
      case kTxnCommit: {
        SQ_ASSIGN_OR_RETURN(uint64_t txn_id, r.GetU64());
        SQ_ASSIGN_OR_RETURN(uint64_t consumed, r.GetU64());
        if (!txn_open || txn_id != open_txn_id || consumed != open_consumed) {
          return Status::Internal("WAL replay: commit of txn " +
                                  std::to_string(txn_id) +
                                  " does not match the open begin");
        }
        queue.erase(queue.begin(),
                    queue.begin() + static_cast<ptrdiff_t>(consumed));
        SQ_ASSIGN_OR_RETURN(uint32_t ndeltas, r.GetU32());
        for (uint32_t d = 0; d < ndeltas; ++d) {
          SQ_ASSIGN_OR_RETURN(std::string node, r.GetString());
          SQ_ASSIGN_OR_RETURN(Delta delta, DecodeDelta(&r));
          auto it = out.state.repos.find(node);
          if (it == out.state.repos.end()) {
            return Status::Internal("WAL replay: commit delta for unknown "
                                    "repository " + node);
          }
          // The logged delta is exactly the narrowed delta the live
          // mediator applied, so a plain bag/set apply reproduces the
          // repository byte for byte.
          SQ_RETURN_IF_ERROR(ApplyDelta(&it->second, delta));
        }
        SQ_ASSIGN_OR_RETURN(uint32_t nreflect, r.GetU32());
        for (uint32_t s = 0; s < nreflect; ++s) {
          SQ_ASSIGN_OR_RETURN(std::string source, r.GetString());
          SQ_ASSIGN_OR_RETURN(Time send_time, r.GetTime());
          auto& src = out.state.sources[source];
          if (send_time > src.last_reflected_send) {
            src.last_reflected_send = send_time;
          }
        }
        SQ_ASSIGN_OR_RETURN(uint32_t nsrc_deltas, r.GetU32());
        for (uint32_t s = 0; s < nsrc_deltas; ++s) {
          SQ_ASSIGN_OR_RETURN(std::string source, r.GetString());
          SQ_ASSIGN_OR_RETURN(MultiDelta md, DecodeMultiDelta(&r));
          // Advance the resync mirror exactly as the live commit did
          // (untracked relations feed no VDP leaf and have no mirror).
          auto mit = out.state.mirrors.find(source);
          if (mit == out.state.mirrors.end()) continue;
          for (const auto& rel_name : md.RelationNames()) {
            auto rit = mit->second.find(rel_name);
            if (rit == mit->second.end()) continue;
            SQ_RETURN_IF_ERROR(ApplyDelta(&rit->second, *md.Find(rel_name)));
          }
        }
        if (txn_id >= out.state.next_txn_id) {
          out.state.next_txn_id = txn_id + 1;
        }
        txn_open = false;
        ++out.txns_replayed;
        break;
      }
      case kTxnAbort: {
        SQ_ASSIGN_OR_RETURN(uint64_t txn_id, r.GetU64());
        SQ_ASSIGN_OR_RETURN(uint8_t requeued, r.GetU8());
        if (!txn_open || txn_id != open_txn_id) {
          return Status::Internal("WAL replay: abort of txn " +
                                  std::to_string(txn_id) +
                                  " does not match the open begin");
        }
        if (!requeued) {
          // The live mediator dropped the batch (internal error path):
          // mirror it so recovered state matches the survivor's.
          queue.erase(queue.begin(),
                      queue.begin() + static_cast<ptrdiff_t>(open_consumed));
        }
        if (txn_id >= out.state.next_txn_id) {
          out.state.next_txn_id = txn_id + 1;
        }
        txn_open = false;
        break;
      }
      case kResyncBegin: {
        SQ_ASSIGN_OR_RETURN(std::string source, r.GetString());
        SQ_ASSIGN_OR_RETURN(uint64_t epoch, r.GetU64());
        auto& src = out.state.sources[source];
        if (epoch > src.epoch) src.epoch = epoch;
        src.health = 2;  // resyncing; recovery re-initiates the pull
        break;
      }
      case kResyncDone: {
        SQ_ASSIGN_OR_RETURN(std::string source, r.GetString());
        SQ_ASSIGN_OR_RETURN(uint64_t epoch, r.GetU64());
        SQ_ASSIGN_OR_RETURN(uint64_t last_seq, r.GetU64());
        auto& src = out.state.sources[source];
        if (epoch > src.epoch) src.epoch = epoch;
        src.last_update_seq = last_seq;
        src.health = 0;
        break;
      }
      case kShed: {
        // Re-run the deterministic oldest-coalesce on the rebuilt queue.
        // The merge is lossless (the two messages' deltas smash), so even
        // a shed the live mediator performed just before crashing leaves
        // recovered contents semantically identical.
        if (!UpdateQueue::CoalesceOldestIn(&queue,
                                           txn_open ? open_consumed : 0)) {
          return Status::Internal(
              "WAL replay: shed record with no coalescible pair");
        }
        break;
      }
      case kCheckpoint:
        return Status::Internal("WAL replay: checkpoint after the newest "
                                "checkpoint");
      default:
        return Status::Internal("WAL replay: unknown record tag " +
                                std::to_string(tag));
    }
  }
  if (txn_open) roll_back_open();
  out.state.queue.assign(queue.begin(), queue.end());
  // Re-anchor on what the log actually holds: the generation pointer sits
  // at the restored checkpoint, and subsequent frames carry a fresh log
  // incarnation so a resurfaced pre-crash tail can never splice in.
  prev_checkpoint_lsn_ = out.checkpoint_lsn;
  have_prev_checkpoint_ = true;
  log_epoch_ = max_epoch + 1;
  return out;
}

}  // namespace squirrel
