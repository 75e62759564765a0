// The overload-protection acceptance sweep: 125 seeded schedules proving
// that query storms, tight deadlines, admission limits, and memory budgets
// never compromise correctness — only availability, and only in typed ways.
//
// Each chunk layers one overload mechanism over the standard fault sim
// (message loss/dup/reorder baked in) and asserts, per seed:
//   (1) the dichotomy: every injected storm query resolves, and resolves by
//       its deadline (storm_late == 0) or with a typed error
//       (storm_untyped == 0) — no silent drops, no unbounded waits;
//   (2) the final exports are BYTE-IDENTICAL to the no-overload oracle of
//       the same seed (storm queries and shed admissions are read-only:
//       update propagation must be completely unaffected);
//   (3) replaying the same seed + options reproduces the trace, the full
//       stats rendering, and the exports byte for byte.
// Every assertion names the seed; reproduce one with
// RunFaultSim(<seed>, <the chunk's options>) (see DESIGN.md §15).

#include <gtest/gtest.h>

#include <string>

#include "testing/sim_harness.h"

namespace squirrel {
namespace {

using testing::FaultSimOptions;
using testing::FaultSimResult;
using testing::RunFaultSim;

constexpr uint64_t kSeedsPerChunk = 25;
constexpr int kChunks = 5;  // 5 * 25 = 125 seeds

// The overload layer one chunk exercises on top of the base fault sim.
struct Scenario {
  int query_storm = 0;
  Time query_deadline = 0;
  bool degraded_reads = false;
  uint32_t admit_max_active = 0;
  uint32_t admit_max_queued = 0;
  size_t memory_soft_limit = 0;
  Time poll_backoff_cap = 0;
  double poll_jitter = 0;
  FaultSimOptions::Topology topology = FaultSimOptions::Topology::kSingle;
};

Scenario ChunkScenario(int chunk) {
  switch (chunk) {
    case 0:  // storm baseline + capped/jittered poll backoff, no limits:
             // every storm query must land ok/degraded/unavailable
      return {.query_storm = 20, .poll_backoff_cap = 6.0, .poll_jitter = 0.25};
    case 1:  // tight deadlines + degraded reads: expiring queries return
             // the materialized fraction or a typed kDeadlineExceeded
      return {.query_storm = 15, .query_deadline = 1.0,
              .degraded_reads = true};
    case 2:  // admission control: overlapping storm queries are refused
             // fast with kOverloaded + retry-after, never queued unboundedly
      return {.query_storm = 40, .admit_max_active = 1, .admit_max_queued = 0};
    case 3:  // memory budget soft limit: retained state past the soft line
             // sheds every kBatch storm query; interactive work continues
      return {.query_storm = 25, .admit_max_active = 4, .admit_max_queued = 4,
              .memory_soft_limit = 1};
    default:  // sharded 3-tier + deadlines: deadlines propagate to child
              // tiers minus the margin
      return {.query_storm = 10, .query_deadline = 2.0,
              .degraded_reads = true,
              .topology = FaultSimOptions::Topology::kThreeTier};
  }
}

FaultSimOptions ChunkOptions(const Scenario& s, bool overload_on) {
  FaultSimOptions opts;
  opts.degraded_reads = s.degraded_reads;
  opts.topology = s.topology;
  if (overload_on) {
    opts.query_storm = s.query_storm;
    opts.query_deadline = s.query_deadline;
    opts.admit_max_active = s.admit_max_active;
    opts.admit_max_queued = s.admit_max_queued;
    opts.memory_soft_limit = s.memory_soft_limit;
    opts.poll_backoff_cap = s.poll_backoff_cap;
    opts.poll_jitter = s.poll_jitter;
  }
  return opts;
}

class OverloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(OverloadSweep, TypedOutcomesAndExportsMatchNoOverloadOracle) {
  const int chunk = GetParam();
  const Scenario scenario = ChunkScenario(chunk);
  const uint64_t base = 1 + static_cast<uint64_t>(chunk % 2) * kSeedsPerChunk;
  uint64_t total_deadline_or_degraded = 0;
  uint64_t total_rejected = 0;
  uint64_t total_shed_soft = 0;
  for (uint64_t seed = base; seed < base + kSeedsPerChunk; ++seed) {
    // The oracle: the same scenario with every overload knob off (same
    // topology/degraded reads, no storm, no limits).
    auto oracle = RunFaultSim(seed, ChunkOptions(scenario, false));
    ASSERT_TRUE(oracle.ok()) << "[seed " << seed << "] no-overload oracle: "
                             << oracle.status().ToString();

    auto run = RunFaultSim(seed, ChunkOptions(scenario, true));
    ASSERT_TRUE(run.ok()) << "[seed " << seed << "] chunk " << chunk << ": "
                          << run.status().ToString();
    EXPECT_GT(run->exports_checked, 0u) << "[seed " << seed << "]";

    // (1) The dichotomy. The harness already failed the run if any storm
    // query never resolved; here: none resolved late, none untyped, and
    // the outcome counters partition the storm exactly.
    ASSERT_EQ(run->storm_queries,
              static_cast<uint64_t>(scenario.query_storm))
        << "[seed " << seed << "]";
    EXPECT_EQ(run->storm_late, 0u)
        << "[seed " << seed << "] a storm query resolved past its deadline";
    EXPECT_EQ(run->storm_untyped, 0u)
        << "[seed " << seed << "] a storm query died with an untyped status";
    EXPECT_EQ(run->storm_ok + run->storm_degraded +
                  run->storm_deadline_exceeded + run->storm_rejected_overload +
                  run->storm_unavailable + run->storm_untyped,
              run->storm_queries)
        << "[seed " << seed << "] storm outcomes do not partition the storm";
    if (scenario.query_deadline == 0 && scenario.admit_max_active == 0 &&
        scenario.memory_soft_limit == 0) {
      // No deadline / no gate configured: those outcomes are impossible.
      EXPECT_EQ(run->storm_deadline_exceeded, 0u) << "[seed " << seed << "]";
      EXPECT_EQ(run->storm_rejected_overload, 0u) << "[seed " << seed << "]";
    }
    total_deadline_or_degraded +=
        run->storm_deadline_exceeded + run->storm_degraded;
    total_rejected += run->storm_rejected_overload;
    total_shed_soft += run->stats.queries_shed_soft_budget;

    // (2) Overload protection is invisible in the view: byte-identical
    // exports to the no-overload oracle of the same seed.
    ASSERT_EQ(run->final_exports, oracle->final_exports)
        << "[seed " << seed << "] chunk " << chunk
        << ": a read-only storm perturbed the final exports";

    // (3) Replay identity, trace + full stats rendering included (deadline
    // timers, admission rejections, and jittered backoff must all be pure
    // functions of seed + options).
    auto replay = RunFaultSim(seed, ChunkOptions(scenario, true));
    ASSERT_TRUE(replay.ok()) << "[seed " << seed
                             << "] replay: " << replay.status().ToString();
    ASSERT_EQ(run->trace_dump, replay->trace_dump)
        << "[seed " << seed << "] chunk " << chunk
        << ": replay trace was not byte-identical";
    ASSERT_EQ(run->stats_dump, replay->stats_dump)
        << "[seed " << seed << "] chunk " << chunk
        << ": replay stats drifted (an overload counter is nondeterministic)";
    ASSERT_EQ(run->final_exports, replay->final_exports)
        << "[seed " << seed << "] chunk " << chunk
        << ": replay exports were not byte-identical";
  }
  // Chunk-level activity: the mechanism under test must actually fire
  // somewhere in 25 seeds, or the chunk proves nothing.
  if (ChunkScenario(chunk).query_deadline > 0) {
    EXPECT_GT(total_deadline_or_degraded, 0u)
        << "chunk " << chunk << ": no deadline ever fired";
  }
  if (ChunkScenario(chunk).admit_max_active > 0 &&
      ChunkScenario(chunk).memory_soft_limit == 0) {
    EXPECT_GT(total_rejected, 0u)
        << "chunk " << chunk << ": the admission gate never rejected";
  }
  if (ChunkScenario(chunk).memory_soft_limit > 0) {
    EXPECT_GT(total_shed_soft, 0u)
        << "chunk " << chunk << ": the soft budget never shed a batch query";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadSweep, ::testing::Range(0, kChunks),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "chunk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace squirrel
