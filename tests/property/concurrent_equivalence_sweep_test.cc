// The concurrent-mediator acceptance sweep: 150 seeded schedules proving
// MVCC snapshot reads equivalent to serialized queries under the full fault
// model. Snapshot reads legitimately reschedule queries, so traces are not
// comparable to the serialized baseline; each seed must instead replay
// byte-identically and end with final exports byte-identical to the
// baseline's. Every assertion names the seed; reproduce one with
//   RunFaultSim(<seed>, <the chunk's options>)
// (see DESIGN.md §11 "Concurrency model").

#include <gtest/gtest.h>

#include <string>

#include "testing/sim_harness.h"

namespace squirrel {
namespace {

using testing::FaultSimOptions;
using testing::RunFaultSim;

constexpr uint64_t kSeedsPerChunk = 25;
constexpr int kChunks = 6;  // 6 * 25 = 150 seeds

// Per-chunk seed range and the fault-model layers the MVCC comparison rides
// on. Chunks 4 and 5 cover seeds 1-50; chunks 0-3 cover seeds 51-150.
struct Scenario {
  uint64_t first_seed = 1;
  bool durability = false;
  int mediator_crashes = 0;
  int source_restarts = 0;
};

Scenario ChunkScenario(int chunk) {
  const uint64_t first = 1 + static_cast<uint64_t>(chunk < 4 ? chunk + 2
                                                             : chunk % 2) *
                                 kSeedsPerChunk;
  switch (chunk) {
    case 0:  // MVCC snapshot reads, baseline faults
    case 4:
      return {.first_seed = first};
    case 1:  // MVCC under source restarts + anti-entropy resync
      return {.first_seed = first, .durability = true, .source_restarts = 2};
    case 3:  // MVCC under crashes and source restarts together
      return {.first_seed = first, .durability = true,
              .mediator_crashes = 2, .source_restarts = 2};
    default:  // MVCC + crashes (snapshot chain across recovery)
      return {.first_seed = first, .durability = true,
              .mediator_crashes = 2};
  }
}

FaultSimOptions BaselineOptions(const Scenario& s) {
  FaultSimOptions opts;
  opts.durability = s.durability;
  opts.mediator_crashes = s.mediator_crashes;
  opts.source_restarts = s.source_restarts;
  return opts;
}

FaultSimOptions ConcurrentOptions(const Scenario& s) {
  FaultSimOptions opts = BaselineOptions(s);
  opts.mvcc_reads = true;
  return opts;
}

class ConcurrentEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentEquivalenceSweep, ConcurrentRunsMatchSerialOracle) {
  const int chunk = GetParam();
  const Scenario scenario = ChunkScenario(chunk);
  const uint64_t base = scenario.first_seed;
  for (uint64_t seed = base; seed < base + kSeedsPerChunk; ++seed) {
    auto oracle = RunFaultSim(seed, BaselineOptions(scenario));
    ASSERT_TRUE(oracle.ok())
        << "[seed " << seed << "] oracle: " << oracle.status().ToString();
    auto run = RunFaultSim(seed, ConcurrentOptions(scenario));
    ASSERT_TRUE(run.ok())
        << "[seed " << seed << "] concurrent: " << run.status().ToString();
    EXPECT_GT(run->exports_checked, 0u) << "[seed " << seed << "]";

    // Update outcomes must be indistinguishable from the serial oracle.
    ASSERT_EQ(run->final_exports, oracle->final_exports)
        << "[seed " << seed << "] chunk " << chunk
        << ": final exports diverged from the serial oracle";

    // And the concurrent run itself must be deterministic under replay.
    auto replay = RunFaultSim(seed, ConcurrentOptions(scenario));
    ASSERT_TRUE(replay.ok())
        << "[seed " << seed << "] replay: " << replay.status().ToString();
    ASSERT_EQ(run->trace_dump, replay->trace_dump)
        << "[seed " << seed << "] chunk " << chunk
        << ": replay was not byte-identical";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentEquivalenceSweep,
                         ::testing::Range(0, kChunks),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "chunk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace squirrel
