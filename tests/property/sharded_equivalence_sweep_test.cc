// The sharded-deployment acceptance sweep: 125 seeded schedules proving a
// mediator tree (child shards re-announced to their parents through
// ExportAnnouncer mirrors) indistinguishable at the root from the classic
// single-mediator deployment of the SAME scenario.
//
// Every chunk runs each seed three ways — single mediator (the oracle),
// two-shard, and three-tier — over an identical scenario (sources, VDP,
// annotation, channel faults, source restarts, workload: all drawn before
// the topology is applied) and demands BYTE-IDENTICAL final exports. The
// sharded runs themselves must replay byte-identically, trace dump and full
// per-shard stats dump included — counter drift across Crash()/Recover()
// shows up here even when no export diverges. Every assertion names the
// seed; reproduce one with RunFaultSim(<seed>, <the chunk's options>)
// (see DESIGN.md §14 "Multi-mediator composition").

#include <gtest/gtest.h>

#include <string>

#include "testing/sim_harness.h"

namespace squirrel {
namespace {

using testing::FaultSimOptions;
using testing::RunFaultSim;

constexpr uint64_t kSeedsPerChunk = 25;
// A chunk's number fixes its seed range (1 + (chunk % 2) * 25 onward), so
// the numbers stay stable; 4 is unused.
constexpr int kChunkIds[] = {0, 1, 2, 3, 5};  // 5 * 25 = 125 seeds

// Per-chunk fault-model layers the single/sharded comparison rides on.
struct Scenario {
  bool durability = false;
  bool wal = false;
  int mediator_crashes = 0;  // also drives per-child crash/recovery windows
  int source_restarts = 0;
  double snapshot_corrupt_prob = 0;
  bool require_all_healthy = false;
  bool degraded_reads = false;
};

Scenario ChunkScenario(int chunk) {
  switch (chunk) {
    case 0:  // plain fault sim (message loss/dup/reorder baked in)
      return {};
    case 1:  // WAL durability + crash/recovery of EVERY tier mid-run
      return {.durability = true, .wal = true, .mediator_crashes = 2};
    case 2:  // source restarts + anti-entropy resync through the tree
      return {.durability = true,
              .wal = true,
              .source_restarts = 2,
              .require_all_healthy = true};
    case 3:  // corrupted snapshot payloads on every link (wire checksums)
      return {.durability = true, .wal = true, .snapshot_corrupt_prob = 0.3};
    default:  // down sources + degraded reads at every tier: a parent
              // answering from a resyncing child's mirror must annotate
              // staleness exactly like the single-mediator run does
      return {.durability = true,
              .wal = true,
              .source_restarts = 2,
              .require_all_healthy = true,
              .degraded_reads = true};
  }
}

FaultSimOptions ChunkOptions(const Scenario& s,
                             FaultSimOptions::Topology topo) {
  FaultSimOptions opts;
  opts.durability = s.durability;
  opts.wal = s.wal;
  opts.mediator_crashes = s.mediator_crashes;
  opts.source_restarts = s.source_restarts;
  opts.snapshot_corrupt_prob = s.snapshot_corrupt_prob;
  opts.require_all_healthy = s.require_all_healthy;
  opts.degraded_reads = s.degraded_reads;
  opts.topology = topo;
  return opts;
}

class ShardedEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardedEquivalenceSweep, ShardedRunsMatchSingleMediator) {
  const int chunk = GetParam();
  const Scenario scenario = ChunkScenario(chunk);
  const uint64_t base = 1 + static_cast<uint64_t>(chunk % 2) * kSeedsPerChunk;
  uint64_t commits_mirrored = 0;
  for (uint64_t seed = base; seed < base + kSeedsPerChunk; ++seed) {
    auto oracle = RunFaultSim(
        seed, ChunkOptions(scenario, FaultSimOptions::Topology::kSingle));
    ASSERT_TRUE(oracle.ok()) << "[seed " << seed << "] single-mediator "
                             << "oracle: " << oracle.status().ToString();
    for (auto topo : {FaultSimOptions::Topology::kTwoShard,
                      FaultSimOptions::Topology::kThreeTier}) {
      const char* tag = topo == FaultSimOptions::Topology::kTwoShard
                            ? "two-shard"
                            : "three-tier";
      auto run = RunFaultSim(seed, ChunkOptions(scenario, topo));
      ASSERT_TRUE(run.ok())
          << "[seed " << seed << "] " << tag << ": " << run.status().ToString();
      EXPECT_GT(run->exports_checked, 0u) << "[seed " << seed << "]";
      EXPECT_GE(run->shards, 2u) << "[seed " << seed << "]";
      // A seed whose child exports never change legally mirrors nothing
      // (e.g. every S commit misses the S' filter); the chunk as a whole
      // must still prove the composition flows through the mirrors.
      commits_mirrored += run->commits_mirrored;

      // The deployment split must be invisible in every exported view.
      ASSERT_EQ(run->final_exports, oracle->final_exports)
          << "[seed " << seed << "] chunk " << chunk << ": " << tag
          << " final exports diverged from the single-mediator run";

      // And the sharded run must be deterministic under replay — traces,
      // per-shard stats counters, and exports alike.
      auto replay = RunFaultSim(seed, ChunkOptions(scenario, topo));
      ASSERT_TRUE(replay.ok()) << "[seed " << seed << "] " << tag
                               << " replay: " << replay.status().ToString();
      ASSERT_EQ(run->trace_dump, replay->trace_dump)
          << "[seed " << seed << "] chunk " << chunk << ": " << tag
          << " replay trace was not byte-identical";
      ASSERT_EQ(run->stats_dump, replay->stats_dump)
          << "[seed " << seed << "] chunk " << chunk << ": " << tag
          << " replay stats drifted (a counter is not crash-deterministic)";
      ASSERT_EQ(run->final_exports, replay->final_exports)
          << "[seed " << seed << "] chunk " << chunk << ": " << tag
          << " replay exports were not byte-identical";
    }
  }
  EXPECT_GT(commits_mirrored, 0u)
      << "chunk " << chunk << ": no child commit was ever re-announced";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalenceSweep,
                         ::testing::ValuesIn(kChunkIds),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "chunk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace squirrel
