// Experiment E14: concurrent mediator — MVCC snapshot reads.
//
// Drives a K-branch fully materialized VDP (K independent R' ⋈ S' exports)
// with a mixed workload: one writer streams update batches through the IUP
// while reader threads answer export queries. Two modes over byte-identical
// workloads, both with the same serial IUP kernel:
//
//   serialized — a global store mutex, queries read the live repositories.
//     Readers block behind every commit (and each other).
//   concurrent — the writer publishes an MVCC snapshot every few batches
//     and readers answer lock-free from pinned snapshots
//     (QueryProcessor::Answer with snap), reusing an answer while the
//     snapshot version it was computed on is still current.
//
// Reported per scale: update atoms/sec the writer sustained, queries/sec
// across readers, and query latency p50/p99. Both modes must end with
// repositories byte-identical to an undisturbed serial oracle run
// (exports_match) — the speedup may not cost equivalence.
//
// Standalone driver like E13: emits a JSON report (default BENCH_pr6.json)
// that bench/run_bench.sh commits as the PR baseline and the
// SQUIRREL_BENCH_SMOKE ctest validates.
//
//   bench_e14_concurrent_mediator [--smoke] [--out=PATH]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "mediator/iup.h"
#include "mediator/local_store.h"
#include "mediator/query_processor.h"
#include "mediator/vap.h"
#include "relational/operators.h"
#include "relational/parser.h"
#include "vdp/annotation.h"
#include "vdp/builder.h"

namespace squirrel {
namespace bench {
namespace {

/// Offered poll rate per monitor thread (open loop): one poll every 100us,
/// i.e. 10k polls/sec per monitor.
constexpr double kPollIntervalUs = 100.0;

struct ModeStats {
  double window_ms = 0;       ///< measured mixed-workload window
  double update_ms = 0;       ///< writer time actually inside ApplyBatch
  double atoms_per_sec = 0;   ///< update atoms the writer sustained
  uint64_t queries = 0;       ///< reader polls answered in the window
  uint64_t answers_reused = 0;  ///< polls served by version-validated reuse
  double queries_per_sec = 0;
  double q_p50_us = 0;        ///< poll latency percentiles
  double q_p99_us = 0;
};

struct ScaleReport {
  int branches = 0;
  int rows = 0;
  int batches = 0;
  int batch_atoms = 0;  ///< per branch per batch
  int readers = 0;
  int publish_every = 1;  ///< snapshot refresh interval, in batches
  int trials = 1;         ///< mode pairs run; median speedup reported
  ModeStats serialized;
  ModeStats concurrent;
  double mixed_speedup = 0;  ///< concurrent / serialized queries_per_sec
  double update_speedup = 0; ///< serialized / concurrent update_ms
  bool exports_match = false;
};

std::string BranchNode(const char* base, int branch) {
  return std::string(base) + std::to_string(branch);
}

/// K disjoint branches: leaves Rk/Sk, leaf-parents Rk'/Sk', exported SPJ
/// join Tk. No node is shared between branches.
Result<Vdp> BuildVdp(int branches) {
  VdpBuilder b;
  for (int k = 0; k < branches; ++k) {
    const std::string r = BranchNode("R", k), s = BranchNode("S", k);
    const std::string rp = r + "'", sp = s + "'";
    b.Leaf(r, "DB_" + r, r, r + "(r1, r2) key(r1)");
    b.Leaf(s, "DB_" + s, s, s + "(s1, s2) key(s1)");
    b.LeafParent(rp, r, {"r1", "r2"}, "");
    b.LeafParent(sp, s, {"s1", "s2"}, "");
    b.Spj(BranchNode("T", k), {{rp, {"r1", "r2"}, ""}, {sp, {"s1", "s2"}, ""}},
          {"r2 = s1"}, {"r1", "s1", "s2"}, "", /*exported=*/true);
  }
  return b.Build();
}

/// Identical base data and batch stream for every mode: each batch carries
/// one delta per branch leaf Rk (so the kernel sees K disjoint firings).
struct Workload {
  std::vector<Relation> r_base;  ///< per branch
  std::vector<Relation> s_base;
  /// batches[b][k] = the branch-k R delta of batch b.
  std::vector<std::vector<Delta>> batches;
};

Workload MakeWorkload(int branches, int rows, int batches, int batch_atoms,
                      uint64_t seed) {
  Rng rng(seed);
  Workload w;
  std::vector<std::map<int64_t, int64_t>> live(branches);
  for (int k = 0; k < branches; ++k) {
    const std::string r = BranchNode("R", k), s = BranchNode("S", k);
    Relation rb(SchemaOf(r + "(r1, r2)"), Semantics::kBag);
    Relation sb(SchemaOf(s + "(s1, s2)"), Semantics::kBag);
    for (int i = 0; i < rows; ++i) {
      Check(sb.Insert(Tuple({int64_t{i}, rng.UniformInt(0, 999)})), "seed S");
      int64_t r2 = rng.UniformInt(0, rows - 1);
      live[k][i] = r2;
      Check(rb.Insert(Tuple({int64_t{i}, r2})), "seed R");
    }
    w.r_base.push_back(std::move(rb));
    w.s_base.push_back(std::move(sb));
  }
  std::vector<int64_t> next_key(branches, rows);
  for (int b = 0; b < batches; ++b) {
    std::vector<Delta> per_branch;
    for (int k = 0; k < branches; ++k) {
      Delta d(SchemaOf(BranchNode("R", k) + "(r1, r2)"));
      for (int a = 0; a < batch_atoms; ++a) {
        if (!live[k].empty() && rng.Bernoulli(0.4)) {
          auto it = live[k].begin();
          std::advance(it, static_cast<long>(rng.Uniform(live[k].size())));
          Check(d.Add(Tuple({it->first, it->second}), -1), "delete atom");
          live[k].erase(it);
        } else {
          int64_t r1 = next_key[k]++;
          int64_t r2 = rng.UniformInt(0, rows - 1);
          live[k][r1] = r2;
          Check(d.Add(Tuple({r1, r2}), 1), "insert atom");
        }
      }
      per_branch.push_back(std::move(d));
    }
    w.batches.push_back(std::move(per_branch));
  }
  return w;
}

/// One mediator stack seeded from the workload (fully materialized, so
/// RunKernel needs no temporaries and export queries need no polls).
struct Stack {
  const Vdp* vdp;
  int branches;
  Annotation ann;  // empty = fully materialized
  LocalStore store;
  Vap vap;
  Iup iup;
  QueryProcessor qp;

  Stack(const Vdp* v, int k)
      : vdp(v),
        branches(k),
        store(v, &ann),
        vap(v, &ann, &store),
        iup(v, &ann, &store, &vap),
        qp(v, &ann, &store, &vap) {}

  void Seed(const Workload& w) {
    for (int k = 0; k < branches; ++k) {
      Check(store.SetRepo(BranchNode("R", k) + "'", w.r_base[k]), "seed R'");
      Check(store.SetRepo(BranchNode("S", k) + "'", w.s_base[k]), "seed S'");
      Relation joined =
          Unwrap(OpJoin(w.r_base[k], w.s_base[k],
                        Unwrap(ParsePredicate("r2 = s1"), "join cond")),
                 "seed join");
      Relation t = Unwrap(OpProject(joined, {"r1", "s1", "s2"}), "seed T");
      Check(store.SetRepo(BranchNode("T", k), std::move(t)), "seed T repo");
    }
  }

  void ApplyBatch(const std::vector<Delta>& per_branch) {
    std::map<std::string, Delta> leaf_deltas;
    for (int k = 0; k < branches; ++k) {
      leaf_deltas.emplace(BranchNode("R", k), per_branch[k]);
    }
    TempStore temps;
    Unwrap(iup.RunKernel(leaf_deltas, &temps), "kernel");
  }
};

/// Answers one prepared export query; returns the result cardinality so the
/// work cannot be optimized away.
size_t RunQuery(const Stack& s, const PreparedQuery& pq,
                const StoreSnapshot* snap) {
  auto ans = s.qp.Answer(pq, nullptr, nullptr, snap);
  Check(ans.status(), "query");
  return ans->data.DistinctSize();
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

/// Runs the mixed workload with the writer PACED at one batch per
/// \p pace_ms: both modes sustain the same update rate over the same wall
/// window (the ISSUE's "queries/sec while the IUP sustains N atoms/sec"),
/// so queries_per_sec and the latency percentiles are directly comparable.
/// A free-running writer would instead measure how badly readers starve
/// the writer, which differs per mode and muddies both numbers.
///
/// In snapshot mode the writer refreshes the published snapshot every
/// \p publish_every batches rather than after every commit — the
/// materialized-refresh staleness/cost knob: readers stay lock-free on a
/// slightly older consistent version while the copy cost amortizes.
ModeStats DriveMixed(Stack* s, const Workload& w, int batch_atoms,
                     int readers, bool use_snapshots, double pace_ms,
                     int publish_every) {
  if (use_snapshots) s->store.PublishSnapshot(TimeVector{});

  std::mutex store_mu;  // serialized mode's global lock
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};
  std::vector<std::vector<double>> latencies(readers);
  std::vector<uint64_t> reused(readers, 0);

  // Every reader is an export monitor: it polls the current answer of
  // σ(Tk) round-robin over the branches.
  std::vector<PreparedQuery> queries;
  for (int k = 0; k < s->branches; ++k) {
    ViewQuery q;
    q.relation = BranchNode("T", k);
    q.cond = Unwrap(ParsePredicate("s2 < 500"), "query cond");
    queries.push_back(Unwrap(s->qp.Prepare(q), "prepare"));
  }

  // In snapshot mode a poll first pins the latest snapshot and compares
  // its version against the one the cached answer was computed at: equal
  // versions certify the cached answer byte-for-byte (immutability), so
  // the poll is answered without rescanning. The serialized store exposes
  // no validity token, so every poll must re-answer under the lock —
  // reuse there would silently serve unbounded staleness.
  struct Memo {
    uint64_t version = 0;
    bool valid = false;
    size_t n = 0;
  };

  // Monitors poll open-loop at a fixed offered rate; a mode that cannot
  // keep up simply answers fewer polls (no unbounded backlog: a late
  // monitor resumes from "now" rather than bursting to catch up).
  const auto poll_interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::micro>(kPollIntervalUs));

  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      size_t k = static_cast<size_t>(r) % queries.size();
      std::vector<Memo> memo(queries.size());
      auto next_poll = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_until(next_poll);
        next_poll += poll_interval;
        auto t0 = std::chrono::steady_clock::now();
        if (next_poll < t0) next_poll = t0;
        size_t n;
        if (use_snapshots) {
          StoreSnapshotPtr snap = s->store.Snapshot();
          Memo& m = memo[k];
          if (m.valid && snap != nullptr && m.version == snap->version()) {
            n = m.n;
            ++reused[r];
          } else {
            n = RunQuery(*s, queries[k], snap.get());
            if (snap != nullptr) {
              m.version = snap->version();
              m.n = n;
              m.valid = true;
            }
          }
        } else {
          std::lock_guard<std::mutex> lock(store_mu);
          n = RunQuery(*s, queries[k], nullptr);
        }
        auto t1 = std::chrono::steady_clock::now();
        latencies[r].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        sink.fetch_add(n, std::memory_order_relaxed);
        k = (k + 1) % queries.size();
      }
    });
  }

  auto start = std::chrono::steady_clock::now();
  auto next_tick = start;
  double update_ms = 0;
  for (size_t i = 0; i < w.batches.size(); ++i) {
    std::this_thread::sleep_until(next_tick);
    next_tick += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(pace_ms));
    auto t0 = std::chrono::steady_clock::now();
    if (use_snapshots) {
      s->ApplyBatch(w.batches[i]);
      if ((i + 1) % static_cast<size_t>(publish_every) == 0 ||
          i + 1 == w.batches.size()) {
        s->store.PublishSnapshot(TimeVector{});
      }
    } else {
      std::lock_guard<std::mutex> lock(store_mu);
      s->ApplyBatch(w.batches[i]);
    }
    update_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  auto end = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  ModeStats stats;
  stats.window_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  stats.update_ms = update_ms;
  const double secs = stats.window_ms / 1000.0;
  stats.atoms_per_sec = static_cast<double>(w.batches.size()) * s->branches *
                        batch_atoms / secs;
  std::vector<double> all;
  for (auto& v : latencies) {
    stats.queries += v.size();
    all.insert(all.end(), v.begin(), v.end());
  }
  for (uint64_t r : reused) stats.answers_reused += r;
  stats.queries_per_sec = static_cast<double>(stats.queries) / secs;
  stats.q_p50_us = Percentile(&all, 0.50);
  stats.q_p99_us = Percentile(&all, 0.99);
  return stats;
}

ScaleReport RunScale(const Vdp& vdp, int branches, int rows, int batches,
                     int batch_atoms, int readers, int publish_every,
                     int trials, uint64_t seed) {
  ScaleReport report;
  report.branches = branches;
  report.rows = rows;
  report.batches = batches;
  report.batch_atoms = batch_atoms;
  report.readers = readers;
  report.publish_every = publish_every;
  report.trials = trials;
  Workload w = MakeWorkload(branches, rows, batches, batch_atoms, seed);

  // Undisturbed serial oracle: the equivalence reference for both modes,
  // and the calibration source for the writer pace. One batch per tick at
  // ~20x the serial kernel's own batch cost keeps the writer at a low duty
  // cycle in BOTH modes, so each sustains the same atoms/sec and the
  // queries/sec numbers compare reader efficiency, not writer starvation.
  Stack oracle(&vdp, branches);
  oracle.Seed(w);
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& batch : w.batches) oracle.ApplyBatch(batch);
  double oracle_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  const double pace_ms = std::max(
      {5.0, 20.0 * oracle_ms / static_cast<double>(batches),
       1500.0 / static_cast<double>(batches)});  // window of at least ~1.5s

  // The host's scheduler makes single short runs noisy; run a few trials
  // of each mode pair and report the trial with the median mixed speedup.
  report.exports_match = true;
  struct Trial {
    ModeStats serialized, concurrent;
    double speedup = 0;
  };
  std::vector<Trial> runs;
  for (int t = 0; t < trials; ++t) {
    Trial trial;
    Stack serial(&vdp, branches);
    serial.Seed(w);
    trial.serialized =
        DriveMixed(&serial, w, batch_atoms, readers,
                   /*use_snapshots=*/false, pace_ms, publish_every);

    Stack conc(&vdp, branches);
    conc.Seed(w);
    trial.concurrent =
        DriveMixed(&conc, w, batch_atoms, readers,
                   /*use_snapshots=*/true, pace_ms, publish_every);
    trial.speedup =
        trial.concurrent.queries_per_sec / trial.serialized.queries_per_sec;

    for (int k = 0; k < branches; ++k) {
      for (const std::string& node :
           {BranchNode("R", k) + "'", BranchNode("S", k) + "'",
            BranchNode("T", k)}) {
        const Relation* want = Unwrap(oracle.store.Repo(node), "oracle repo");
        const Relation* got_serial = Unwrap(serial.store.Repo(node), "repo");
        const Relation* got_conc = Unwrap(conc.store.Repo(node), "repo");
        if (!want->EqualContents(*got_serial) ||
            !want->EqualContents(*got_conc)) {
          report.exports_match = false;
        }
      }
    }
    runs.push_back(std::move(trial));
  }
  std::sort(runs.begin(), runs.end(),
            [](const Trial& a, const Trial& b) { return a.speedup < b.speedup; });
  const Trial& median = runs[runs.size() / 2];
  report.serialized = median.serialized;
  report.concurrent = median.concurrent;
  report.mixed_speedup = median.speedup;
  report.update_speedup =
      median.serialized.update_ms / median.concurrent.update_ms;
  return report;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string ModeJson(const ModeStats& s) {
  return "{\"window_ms\": " + Num(s.window_ms) +
         ", \"update_ms\": " + Num(s.update_ms) +
         ", \"atoms_per_sec\": " + Num(s.atoms_per_sec) +
         ", \"queries\": " + std::to_string(s.queries) +
         ", \"answers_reused\": " + std::to_string(s.answers_reused) +
         ", \"queries_per_sec\": " + Num(s.queries_per_sec) +
         ", \"q_p50_us\": " + Num(s.q_p50_us) +
         ", \"q_p99_us\": " + Num(s.q_p99_us) + "}";
}

std::string ReportJson(const std::vector<ScaleReport>& scales, bool smoke) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"e14_concurrent_mediator\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"poll_interval_us\": " << Num(kPollIntervalUs) << ",\n"
      << "  \"scales\": [\n";
  for (size_t i = 0; i < scales.size(); ++i) {
    const ScaleReport& r = scales[i];
    out << "    {\"branches\": " << r.branches << ", \"rows\": " << r.rows
        << ", \"batches\": " << r.batches
        << ", \"batch_atoms\": " << r.batch_atoms
        << ", \"readers\": " << r.readers
        << ", \"publish_every\": " << r.publish_every
        << ", \"trials\": " << r.trials
        << ",\n     \"serialized\": " << ModeJson(r.serialized)
        << ",\n     \"concurrent\": " << ModeJson(r.concurrent)
        << ",\n     \"mixed_speedup\": " << Num(r.mixed_speedup)
        << ", \"update_speedup\": " << Num(r.update_speedup)
        << ", \"exports_match\": " << (r.exports_match ? "true" : "false")
        << "}" << (i + 1 < scales.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

/// Schema check for the emitted report; the SQUIRREL_BENCH_SMOKE ctest runs
/// this binary and relies on a non-zero exit when the report is malformed
/// or any mode diverged from the serial oracle.
bool Validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  for (const char* key :
       {"\"bench\": \"e14_concurrent_mediator\"", "\"scales\"",
        "\"serialized\"", "\"concurrent\"", "\"queries_per_sec\"",
        "\"answers_reused\"",
        "\"q_p50_us\"", "\"q_p99_us\"", "\"atoms_per_sec\"",
        "\"mixed_speedup\"", "\"exports_match\""}) {
    if (json.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL: report missing %s\n", key);
      return false;
    }
  }
  if (json.find("\"exports_match\": false") != std::string::npos) {
    std::fprintf(stderr,
                 "FAIL: a mixed-workload run diverged from the serial "
                 "oracle (exports_match false)\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_pr6.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  const int branches = 4;
  Vdp vdp = Unwrap(BuildVdp(branches), "vdp");
  struct ScaleSpec {
    int rows, batches, batch_atoms, readers;
  };
  // Snapshot refresh interval (batches per publish) and per-scale trial
  // count; the full run reports the median-speedup trial per scale.
  const int publish_every = 4;
  const int trials = smoke ? 1 : 3;
  std::vector<ScaleSpec> specs =
      smoke ? std::vector<ScaleSpec>{{300, 20, 16, 2}}
            : std::vector<ScaleSpec>{{500, 80, 32, 2},
                                     {1000, 60, 32, 2},
                                     {2000, 40, 32, 4}};

  std::vector<ScaleReport> scales;
  for (const auto& spec : specs) {
    ScaleReport r = RunScale(vdp, branches, spec.rows, spec.batches,
                             spec.batch_atoms, spec.readers, publish_every,
                             trials, /*seed=*/29);
    std::fprintf(stderr,
                 "rows=%d serialized=%.0f q/s (p99 %.0fus) "
                 "concurrent=%.0f q/s (p99 %.0fus) mixed_speedup=%.2fx "
                 "update_speedup=%.2fx match=%s\n",
                 r.rows, r.serialized.queries_per_sec, r.serialized.q_p99_us,
                 r.concurrent.queries_per_sec, r.concurrent.q_p99_us,
                 r.mixed_speedup, r.update_speedup,
                 r.exports_match ? "yes" : "NO");
    scales.push_back(r);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << ReportJson(scales, smoke);
  out.close();
  return Validate(out_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace squirrel

int main(int argc, char** argv) { return squirrel::bench::Main(argc, argv); }
