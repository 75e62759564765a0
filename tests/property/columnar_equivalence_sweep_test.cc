// The columnar-engine acceptance sweep: >= 100 seeded schedules proving the
// columnar batch kernels indistinguishable from the row-at-a-time oracle
// across the whole fault matrix.
//
// Every chunk runs each seed twice — columnar off (the row oracle) and
// columnar on with the harness's zero size threshold, so even the small sim
// relations take the vectorized paths — and demands BYTE-IDENTICAL final
// exports and trace dumps. Every assertion names the seed;
// reproduce one with RunFaultSim(<seed>, <the chunk's options>)
// (see DESIGN.md §12 "Columnar execution").

#include <gtest/gtest.h>

#include <string>

#include "testing/sim_harness.h"

namespace squirrel {
namespace {

using testing::FaultSimOptions;
using testing::RunFaultSim;

constexpr uint64_t kSeedsPerChunk = 25;
constexpr int kChunks = 5;  // 5 * 25 = 125 seeds

// Per-chunk fault-model layers the columnar/row comparison rides on.
struct Scenario {
  bool durability = false;
  bool wal = false;
  int mediator_crashes = 0;
  int source_restarts = 0;
  bool use_indexes = false;
};

Scenario ChunkScenario(int chunk) {
  switch (chunk) {
    case 0:  // plain fault sim (message loss/dup/reorder baked in)
      return {};
    case 1:  // WAL durability + mediator crash/recovery mid-run
      return {.durability = true, .wal = true, .mediator_crashes = 2};
    case 2:  // source restarts + anti-entropy resync
      return {.durability = true, .source_restarts = 2};
    case 3:  // plain fault sim again, on seeds 26-50
      return {};
    default:  // index hints
      return {.use_indexes = true};
  }
}

FaultSimOptions ChunkOptions(const Scenario& s, bool columnar) {
  FaultSimOptions opts;
  opts.durability = s.durability;
  opts.wal = s.wal;
  opts.mediator_crashes = s.mediator_crashes;
  opts.source_restarts = s.source_restarts;
  opts.use_indexes = s.use_indexes;
  opts.columnar = columnar;
  return opts;
}

class ColumnarEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarEquivalenceSweep, ColumnarRunsMatchRowOracle) {
  const int chunk = GetParam();
  const Scenario scenario = ChunkScenario(chunk);
  const uint64_t base = 1 + static_cast<uint64_t>(chunk % 2) * kSeedsPerChunk;
  for (uint64_t seed = base; seed < base + kSeedsPerChunk; ++seed) {
    auto oracle = RunFaultSim(seed, ChunkOptions(scenario, false));
    ASSERT_TRUE(oracle.ok())
        << "[seed " << seed << "] row oracle: " << oracle.status().ToString();
    auto run = RunFaultSim(seed, ChunkOptions(scenario, true));
    ASSERT_TRUE(run.ok())
        << "[seed " << seed << "] columnar: " << run.status().ToString();
    EXPECT_GT(run->exports_checked, 0u) << "[seed " << seed << "]";

    // The engine swap must be invisible in every exported view state.
    ASSERT_EQ(run->final_exports, oracle->final_exports)
        << "[seed " << seed << "] chunk " << chunk
        << ": columnar final exports diverged from the row oracle";
    // And in the full trace.
    ASSERT_EQ(run->trace_dump, oracle->trace_dump)
        << "[seed " << seed << "] chunk " << chunk
        << ": columnar trace diverged from the row oracle";

    // The columnar run itself must be deterministic under replay.
    auto replay = RunFaultSim(seed, ChunkOptions(scenario, true));
    ASSERT_TRUE(replay.ok())
        << "[seed " << seed << "] replay: " << replay.status().ToString();
    ASSERT_EQ(run->trace_dump, replay->trace_dump)
        << "[seed " << seed << "] chunk " << chunk
        << ": columnar replay was not byte-identical";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarEquivalenceSweep,
                         ::testing::Range(0, kChunks),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "chunk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace squirrel
