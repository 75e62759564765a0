// Round-trip property tests for the durability codec: every encoded piece of
// hard state must decode to an equal value, and a decoded state must
// re-encode to the identical byte string (determinism is what makes the
// crash–restart sweep's byte-identity assertions meaningful). Edge cases the
// checkpoint format must survive: empty relations and queues, bag rows with
// multiplicity > 1, set-semantics nodes, negative delta atoms, null values.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "mediator/durability/durability.h"
#include "mediator/durability/log_device.h"
#include "mediator/durability/serialize.h"
#include "relational/parser.h"

namespace squirrel {
namespace {

Schema TestSchema(const std::string& decl) {
  auto parsed = ParseSchemaDecl(decl);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->schema;
}

TEST(SerializeTest, ValueRoundTripAllTypes) {
  std::vector<Value> values = {Value(), Value(int64_t{-7}), Value(int64_t{0}),
                               Value(3.25), Value(-0.0), Value(std::string()),
                               Value(std::string("hello\0world", 11))};
  for (const Value& v : values) {
    BinaryWriter w;
    EncodeValue(&w, v);
    BinaryReader r(w.bytes());
    auto back = DecodeValue(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerializeTest, RelationRoundTripBagAndSet) {
  Relation bag(TestSchema("R(a, b)"), Semantics::kBag);
  ASSERT_TRUE(bag.Insert(Tuple({1, 2}), 3).ok());  // multiplicity > 1
  ASSERT_TRUE(bag.Insert(Tuple({4, 5})).ok());
  Relation set(TestSchema("S(x)"), Semantics::kSet);
  ASSERT_TRUE(set.Insert(Tuple({9})).ok());
  Relation empty(TestSchema("E(a, b, c)"), Semantics::kBag);
  for (const Relation* rel : {&bag, &set, &empty}) {
    BinaryWriter w;
    EncodeRelation(&w, *rel);
    BinaryReader r(w.bytes());
    auto back = DecodeRelation(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back->EqualContents(*rel));
    EXPECT_EQ(back->semantics(), rel->semantics());
    EXPECT_EQ(back->schema().AttributeNames(), rel->schema().AttributeNames());
    // Determinism: re-encoding the decoded relation is byte-identical.
    BinaryWriter w2;
    EncodeRelation(&w2, *back);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(SerializeTest, DeltaRoundTripWithDeletions) {
  Delta d(TestSchema("R(a, b)"));
  ASSERT_TRUE(d.AddInsert(Tuple({1, 10}), 2).ok());
  ASSERT_TRUE(d.AddDelete(Tuple({3, 30})).ok());
  Delta empty(TestSchema("R(a)"));
  for (const Delta* delta : {&d, &empty}) {
    BinaryWriter w;
    EncodeDelta(&w, *delta);
    BinaryReader r(w.bytes());
    auto back = DecodeDelta(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back->EqualContents(*delta));
  }
}

TEST(SerializeTest, UpdateMessageRoundTrip) {
  UpdateMessage msg;
  msg.source = "DB1";
  msg.send_time = 12.5;
  msg.seq = 42;
  Delta* d = msg.delta.Mutable("R", TestSchema("R(a, b)"));
  ASSERT_TRUE(d->AddInsert(Tuple({1, 2})).ok());
  ASSERT_TRUE(d->AddDelete(Tuple({3, 4}), 2).ok());
  BinaryWriter w;
  EncodeUpdateMessage(&w, msg);
  BinaryReader r(w.bytes());
  auto back = DecodeUpdateMessage(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->source, msg.source);
  EXPECT_EQ(back->send_time, msg.send_time);
  EXPECT_EQ(back->seq, msg.seq);
  ASSERT_NE(back->delta.Find("R"), nullptr);
  EXPECT_TRUE(back->delta.Find("R")->EqualContents(*msg.delta.Find("R")));
}

TEST(SerializeTest, DecoderRejectsTruncation) {
  Relation rel(TestSchema("R(a)"), Semantics::kBag);
  ASSERT_TRUE(rel.Insert(Tuple({1})).ok());
  BinaryWriter w;
  EncodeRelation(&w, rel);
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < w.bytes().size(); ++cut) {
    std::string prefix = w.bytes().substr(0, cut);
    BinaryReader r(prefix);
    EXPECT_FALSE(DecodeRelation(&r).ok()) << "prefix length " << cut;
  }
}

HardState MakeState() {
  HardState hs;
  Relation t(TestSchema("T(r1, s1)"), Semantics::kBag);
  EXPECT_TRUE(t.Insert(Tuple({1, 100}), 2).ok());
  hs.repos.emplace("T", std::move(t));
  Relation w(TestSchema("W(s1)"), Semantics::kSet);
  EXPECT_TRUE(w.Insert(Tuple({100})).ok());
  hs.repos.emplace("W", std::move(w));
  UpdateMessage msg;
  msg.source = "DB1";
  msg.send_time = 3.125;
  msg.seq = 7;
  EXPECT_TRUE(msg.delta.Mutable("R", TestSchema("R(a)"))
                  ->AddInsert(Tuple({5}))
                  .ok());
  hs.queue.push_back(std::move(msg));
  hs.sources["DB1"] = {7, 3.125, false};
  hs.sources["DB2"] = {0, 0.0, true};
  hs.next_txn_id = 9;
  return hs;
}

TEST(HardStateTest, CheckpointRestoreRecheckpointIsByteIdentical) {
  HardState hs = MakeState();
  std::string first = hs.Encode();
  auto back = HardState::Decode(first);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Encode(), first);
  EXPECT_EQ(back->next_txn_id, hs.next_txn_id);
  EXPECT_EQ(back->queue.size(), hs.queue.size());
  EXPECT_EQ(back->sources.size(), hs.sources.size());
  EXPECT_TRUE(back->sources.at("DB2").quarantined);
  EXPECT_TRUE(back->repos.at("T").EqualContents(hs.repos.at("T")));
}

TEST(HardStateTest, EmptyStateRoundTrips) {
  HardState hs;  // no repos, no queue, no sources
  auto back = HardState::Decode(hs.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Encode(), hs.Encode());
}

TEST(HardStateTest, TrailingBytesRejected) {
  std::string bytes = MakeState().Encode() + "x";
  EXPECT_FALSE(HardState::Decode(bytes).ok());
}

// snapshot_version is a v3 format field the mediator always writes as 0; a
// checkpoint written when it counted store snapshots must still decode.
TEST(HardStateMvccTest, EncodeRoundTripsSnapshotVersion) {
  HardState hs;
  hs.next_txn_id = 7;
  hs.next_resync_id = 3;
  hs.snapshot_version = 42;
  auto back = HardState::Decode(hs.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->snapshot_version, 42u);
  EXPECT_EQ(back->next_txn_id, 7u);
  EXPECT_EQ(back->next_resync_id, 3u);
  // Byte-identical re-encode (the checkpoint determinism contract).
  EXPECT_EQ(back->Encode(), hs.Encode());
}

UpdateMessage Msg(const std::string& source, uint64_t seq, Time send_time,
                  const Tuple& t, int64_t count = 1) {
  UpdateMessage msg;
  msg.source = source;
  msg.seq = seq;
  msg.send_time = send_time;
  EXPECT_TRUE(
      msg.delta.Mutable("R", TestSchema("R(a, b)"))->Add(t, count).ok());
  return msg;
}

TEST(WalReplayTest, CoalescedEnqueueMergesIntoReplayTail) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  // Live side: msg 1 enqueued, msg 2 merged into the tail (same source,
  // inside the batch window), then an unrelated source appended.
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({1, 10}))).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 1.5, Tuple({2, 20})),
                             /*coalesced=*/true)
                  .ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB2", 5, 2.0, Tuple({3, 30}))).ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->state.queue.size(), 2u);
  const UpdateMessage& merged = rec->state.queue.front();
  EXPECT_EQ(merged.source, "DB1");
  EXPECT_EQ(merged.seq, 2u);  // survivor carries the LATER identity
  EXPECT_EQ(merged.send_time, 1.5);
  ASSERT_NE(merged.delta.Find("R"), nullptr);
  EXPECT_EQ(merged.delta.Find("R")->CountOf(Tuple({1, 10})), 1);
  EXPECT_EQ(merged.delta.Find("R")->CountOf(Tuple({2, 20})), 1);
  EXPECT_EQ(rec->state.queue.back().source, "DB2");
  // Dedup high-water marks advance over merged messages too.
  EXPECT_EQ(rec->state.sources.at("DB1").last_update_seq, 2u);
}

TEST(WalReplayTest, CoalescedEnqueueCancelsOpposingAtoms) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({1, 10}), 1)).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 1.5, Tuple({1, 10}), -1),
                             /*coalesced=*/true)
                  .ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->state.queue.size(), 1u);
  // Insert and delete cancelled: the merged delta nets to nothing, and an
  // empty per-relation delta reads as "untouched".
  EXPECT_TRUE(rec->state.queue.front().delta.Empty());
  EXPECT_EQ(rec->state.queue.front().delta.Find("R"), nullptr);
}

TEST(WalReplayTest, CoalescedEnqueueWithoutTailIsCorruption) {
  // A coalesce record is only ever written when the live queue had a
  // same-source tail; replay must treat anything else as a torn log.
  {
    MemLogDevice dev;
    DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
    ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
    ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({1, 10})),
                               /*coalesced=*/true)
                    .ok());
    EXPECT_FALSE(mgr.Recover().ok());  // empty replay queue
  }
  {
    MemLogDevice dev;
    DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
    ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
    ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({1, 10}))).ok());
    ASSERT_TRUE(mgr.LogEnqueue(Msg("DB2", 1, 1.5, Tuple({2, 20})),
                               /*coalesced=*/true)
                    .ok());
    EXPECT_FALSE(mgr.Recover().ok());  // tail belongs to another source
  }
}

TEST(HardStateTest, ResyncStateRoundTrips) {
  HardState hs = MakeState();
  hs.sources["DB2"].epoch = 4;
  hs.sources["DB2"].health = 2;  // resyncing: recovery re-pulls the snapshot
  Relation mirror(TestSchema("R(a, b)"), Semantics::kBag);
  ASSERT_TRUE(mirror.Insert(Tuple({1, 2}), 2).ok());
  hs.mirrors["DB1"].emplace("R", std::move(mirror));
  hs.mirrors["DB1"].emplace("Q",
                            Relation(TestSchema("Q(x)"), Semantics::kBag));
  hs.next_resync_id = 9;
  std::string bytes = hs.Encode();
  auto back = HardState::Decode(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Encode(), bytes);
  EXPECT_EQ(back->sources.at("DB2").epoch, 4u);
  EXPECT_EQ(back->sources.at("DB2").health, 2);
  EXPECT_EQ(back->sources.at("DB1").epoch, 1u);  // default incarnation
  EXPECT_EQ(back->next_resync_id, 9u);
  ASSERT_EQ(back->mirrors.size(), 1u);
  ASSERT_EQ(back->mirrors.at("DB1").size(), 2u);
  EXPECT_TRUE(back->mirrors.at("DB1").at("R").EqualContents(
      hs.mirrors.at("DB1").at("R")));
  EXPECT_EQ(back->mirrors.at("DB1").at("Q").DistinctSize(), 0u);
}

TEST(WalReplayTest, ResyncRecordsRestoreEpochHealthAndDedupFloor) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 3, 1.0, Tuple({1, 10}))).ok());
  ASSERT_TRUE(mgr.LogResyncBegin("DB1", 2).ok());
  // The corrective enqueue precedes the done record (crash in between must
  // replay into a state that simply resyncs again).
  UpdateMessage fix = Msg("DB1", 5, 2.0, Tuple({2, 20}));
  fix.epoch = 2;
  ASSERT_TRUE(mgr.LogEnqueue(fix).ok());
  ASSERT_TRUE(mgr.LogResyncDone("DB1", 2, 5).ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const HardState::SourceState& src = rec->state.sources.at("DB1");
  EXPECT_EQ(src.epoch, 2u);
  EXPECT_EQ(src.health, 0);  // back to healthy
  // The new incarnation's dedup floor, NOT max(old seq, new seq).
  EXPECT_EQ(src.last_update_seq, 5u);
  EXPECT_EQ(rec->state.queue.size(), 2u);
}

TEST(WalReplayTest, ResyncBeginWithoutDoneLeavesSourceResyncing) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogResyncBegin("DB1", 3).ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->state.sources.at("DB1").epoch, 3u);
  // Recovery sees the unfinished resync and re-initiates the snapshot pull.
  EXPECT_EQ(rec->state.sources.at("DB1").health, 2);
}

TEST(WalReplayTest, EpochBumpInEnqueueResetsDedupHighWater) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 7, 1.0, Tuple({1, 10}))).ok());
  UpdateMessage hello = Msg("DB1", 1, 2.0, Tuple({2, 20}));
  hello.epoch = 2;
  ASSERT_TRUE(mgr.LogEnqueue(hello).ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->state.sources.at("DB1").epoch, 2u);
  EXPECT_EQ(rec->state.sources.at("DB1").last_update_seq, 1u);
}

TEST(WalReplayTest, ShedRecordReplaysTheLosslessMerge) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({1, 10}))).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB2", 1, 1.5, Tuple({7, 70}))).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0, Tuple({2, 20}))).ok());
  ASSERT_TRUE(mgr.LogShed().ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->state.queue.size(), 2u);
  EXPECT_EQ(rec->state.queue.front().source, "DB2");
  const UpdateMessage& merged = rec->state.queue.back();
  EXPECT_EQ(merged.source, "DB1");
  EXPECT_EQ(merged.seq, 2u);
  ASSERT_NE(merged.delta.Find("R"), nullptr);
  EXPECT_EQ(merged.delta.Find("R")->CountOf(Tuple({1, 10})), 1);
  EXPECT_EQ(merged.delta.Find("R")->CountOf(Tuple({2, 20})), 1);
}

TEST(WalReplayTest, ShedWithNoMergeablePairIsCorruption) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({1, 10}))).ok());
  ASSERT_TRUE(mgr.LogShed().ok());  // no same-source pair exists
  EXPECT_FALSE(mgr.Recover().ok());
}

TEST(WalReplayTest, CommitSourceDeltasAdvanceTheMirrors) {
  MemLogDevice dev;
  DurabilityManager mgr({&dev, /*wal=*/true, /*checkpoint_every=*/16});
  HardState hs;
  Relation mirror(TestSchema("R(a, b)"), Semantics::kBag);
  ASSERT_TRUE(mirror.Insert(Tuple({1, 10})).ok());
  hs.mirrors["DB1"].emplace("R", std::move(mirror));
  ASSERT_TRUE(mgr.WriteCheckpoint(hs).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0, Tuple({2, 20}))).ok());
  ASSERT_TRUE(mgr.LogTxnBegin(1, 1).ok());
  CommitPayload payload;
  payload.txn_id = 1;
  payload.consumed = 1;
  ASSERT_TRUE(payload.source_deltas["DB1"]
                  .Mutable("R", TestSchema("R(a, b)"))
                  ->AddInsert(Tuple({2, 20}))
                  .ok());
  ASSERT_TRUE(mgr.LogTxnCommit(payload).ok());
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const Relation& r = rec->state.mirrors.at("DB1").at("R");
  EXPECT_EQ(r.DistinctSize(), 2u);
  EXPECT_TRUE(r.Contains(Tuple({2, 20})));
}

TEST(MemLogDeviceTest, AppendTruncateReadAll) {
  MemLogDevice dev;
  for (int i = 0; i < 5; ++i) {
    auto lsn = dev.Append("rec" + std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(dev.TruncatePrefix(3).ok());
  auto records = dev.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].lsn, 3u);
  EXPECT_EQ((*records)[0].bytes, "rec3");
  EXPECT_EQ(dev.NextLsn(), 5u);  // LSNs keep counting past truncation
}

TEST(FileLogDeviceTest, SurvivesReopenAndDropsTornTail) {
  std::string path = ::testing::TempDir() + "/squirrel_wal_test.log";
  std::remove(path.c_str());
  {
    auto dev = FileLogDevice::Open(path);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    ASSERT_TRUE((*dev)->Append("alpha").ok());
    ASSERT_TRUE((*dev)->Append("beta").ok());
  }
  // Simulate a crash mid-append: a torn frame at the file's tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = {0x02, 0x00, 0x00};  // half an LSN, no payload
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }
  auto dev = FileLogDevice::Open(path);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  auto records = (*dev)->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // the torn tail is gone
  EXPECT_EQ((*records)[0].bytes, "alpha");
  EXPECT_EQ((*records)[1].bytes, "beta");
  EXPECT_EQ((*dev)->NextLsn(), 2u);
  // Appends after the reopen continue the sequence durably.
  ASSERT_TRUE((*dev)->Append("gamma").ok());
  auto dev2 = FileLogDevice::Open(path);
  ASSERT_TRUE(dev2.ok());
  auto records2 = (*dev2)->ReadAll();
  ASSERT_TRUE(records2.ok());
  ASSERT_EQ(records2->size(), 3u);
  EXPECT_EQ((*records2)[2].bytes, "gamma");
  std::remove(path.c_str());
}

// Randomized round-trip: seeded random relations/deltas must all survive
// encode→decode→re-encode byte-identically.
TEST(SerializeTest, SeededRandomRoundTrips) {
  Rng rng(20260807);
  for (int iter = 0; iter < 50; ++iter) {
    Relation rel(TestSchema("R(a, b, c)"),
                 rng.Bernoulli(0.5) ? Semantics::kBag : Semantics::kSet);
    int rows = static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < rows; ++i) {
      Tuple t({rng.UniformInt(-50, 50), rng.UniformInt(0, 9),
               rng.UniformInt(0, 999)});
      ASSERT_TRUE(
          rel.Insert(t, rel.semantics() == Semantics::kBag
                            ? rng.UniformInt(1, 4)
                            : 1)
              .ok());
    }
    BinaryWriter w;
    EncodeRelation(&w, rel);
    BinaryReader r(w.bytes());
    auto back = DecodeRelation(&r);
    ASSERT_TRUE(back.ok()) << "iter " << iter;
    BinaryWriter w2;
    EncodeRelation(&w2, *back);
    ASSERT_EQ(w.bytes(), w2.bytes()) << "iter " << iter;
  }
}

}  // namespace
}  // namespace squirrel
