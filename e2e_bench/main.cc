// End-to-end benchmark of the default Squirrel mediator (ROADMAP item 1).
//
//   e2e_bench --workload <hybrid_updates|materialized_fanout|query_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One workload per process, driven from one thread as a closed loop: the
// benchmark commits one source transaction (or submits one query), then runs
// the discrete-event scheduler until the mediator has reflected that change
// (or answered that query). Virtual time does not slow down with the code,
// so an operation's wall time is the CPU time of every event it causes.
//
// The mediator runs with the default MediatorOptions except two settings a
// deployment would choose: durability on an in-memory MemLogDevice (a
// file device fsyncs every append and would time the disk) and no trace
// recording (with snapshot_repos the trace copies every repository at every
// commit — an observability aid, not the mediator's work).
//
// Every run checks its outputs against an independent oracle (oracle.h):
// a seeded sample of every query shape's answers, and the full exports at
// the end and after each crash/recover cycle. It also checks that atoms are
// conserved and that answer reflect vectors never move back, and a
// self-test corrupts one oracle row and one answer row and expects the
// comparison to catch both.
//
// --seconds sets the run's work, not its wall time: as many rounds of
// operations as a reference machine completes in that time, so that every
// run does the same work (see README.md). Reported times are rescaled to a
// nominal machine speed by a probe timed between rounds (SpeedProbe).
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// operation stream against the mediator's layers called directly (traced.h)
// and prints the per-layer metrics. The last stdout line is one JSON object.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "mediator/durability/serialize.h"
#include "mediator/mediator.h"
#include "oracle.h"
#include "record.h"
#include "relational/parser.h"
#include "traced.h"
#include "workload.h"

namespace squirrel {
namespace e2e_bench {
namespace {

/// Taken during static initialization: set-up time counts from here.
const Clock::time_point kProcessStart = Clock::now();

constexpr int kRoundOps = 40;        // one speed probe per round
constexpr double kMaxStretch = 3.0;  // wall-time cap, in --seconds
constexpr int kRecoveryCycles = 21;  // recovery_ms is their median
constexpr int kUpdatesPerCycle = 8;  // half the default checkpoint period
constexpr Time kOpGap = 1.0;         // virtual time between operations
constexpr Time kCommDelay = 0.5;     // one-way channel latency
constexpr Time kPollDelay = 0.2;     // source-side poll processing

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::cerr << "e2e_bench: " << msg << "\n"
            << "usage: e2e_bench --workload <hybrid_updates|"
               "materialized_fanout|query_mix> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  std::exit(2);
}

[[noreturn]] void Die(const std::string& msg) {
  std::cerr << "e2e_bench: " << msg << "\n";
  std::exit(1);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) {
        Usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// \brief Machine-speed probe: a fixed hash-map build and scan in a private
/// arena, timed once per round.
///
/// Shared 4-vCPU VMs drift by ±20% in speed over tens of seconds, which no
/// run length averages out. The probe slows down with the machine, so each
/// reported time is rescaled by kNominalMs / (the median probe time around
/// it): a time on a machine where one probe takes kNominalMs. The probe
/// allocates nothing from the process heap, so the mediator's own heap
/// state cannot slow it and be divided away. Raw times are printed too.
class SpeedProbe {
 public:
  /// The probe's time on the machine the bounds were set on.
  static constexpr double kNominalMs = 0.65;

  void Sample() {
    auto t0 = Clock::now();
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unordered_map<int64_t, int64_t> map(&arena);
    map.reserve(kKeys);
    uint64_t x = 0x5EED;
    for (int64_t i = 0; i < kKeys; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      map[static_cast<int64_t>(x >> 44)] += i;
    }
    int64_t sum = 0;
    for (const auto& kv : map) sum += kv.second;
    asm volatile("" : : "r"(sum) : "memory");
    ms_.push_back(MsBetween(t0, Clock::now()));
  }

  double MedianMs() const { return Percentile(ms_, 0.5); }
  /// Index of the latest sample.
  size_t Last() const { return ms_.empty() ? 0 : ms_.size() - 1; }
  /// Multiplier from raw to nominal-speed times around sample \p i: the
  /// machine's speed moves within a run, so each time is rescaled by the
  /// probe's median over the nearest samples (two on each side).
  double FactorAt(size_t i) const {
    if (ms_.empty()) return 1.0;
    size_t lo = i >= kWindow ? i - kWindow : 0;
    size_t hi = std::min(ms_.size(), i + kWindow + 1);
    double m = Percentile(
        std::vector<double>(ms_.begin() + static_cast<long>(lo),
                            ms_.begin() + static_cast<long>(hi)),
        0.5);
    return m > 0 ? kNominalMs / m : 1.0;
  }

 private:
  static constexpr int64_t kKeys = 20000;
  static constexpr size_t kWindow = 2;
  std::vector<char> arena_ = std::vector<char>(4 << 20);
  std::vector<double> ms_;
};

/// Operation times, each with the probe sample taken just before it.
struct Timings {
  std::vector<double> raw_ms;
  std::vector<size_t> probe;

  void Add(double ms, size_t probe_index) {
    raw_ms.push_back(ms);
    probe.push_back(probe_index);
  }
  size_t size() const { return raw_ms.size(); }
  std::vector<double> Rescaled(const SpeedProbe& p) const {
    std::vector<double> out;
    for (size_t i = 0; i < raw_ms.size(); ++i) {
      out.push_back(raw_ms[i] * p.FactorAt(probe[i]));
    }
    return out;
  }
};

/// One end-to-end run: the deployment, the timed loop, and every check.
class Run {
 public:
  Run(std::unique_ptr<Workload> w, bool trace)
      : w_(std::move(w)), trace_(trace) {}

  void Setup() {
    std::vector<Rows> initial_rows;
    auto t0 = Clock::now();
    w_->Populate();
    const auto& tables = w_->tables();
    for (const Table& t : tables) {
      schemas_.push_back(Must(ParseSchemaDecl(t.decl()), t.decl()).schema);
      auto db = std::make_unique<SourceDb>(t.db());
      Must(db->AddRelation(t.relation(), schemas_.back()), "declare");
      Rows seed = t.LiveRows();
      Must(db->Commit(0, Must(TxnDelta(t.relation(), schemas_.back(), {},
                                       seed),
                              "seed delta")),
           "seed");
      initial_rows.push_back(std::move(seed));
      dbs_.push_back(std::move(db));
    }
    auto t1 = Clock::now();
    std::vector<SourceSetup> setups;
    for (auto& db : dbs_) {
      setups.push_back({db.get(), kCommDelay, kPollDelay, /*announce=*/0.0});
    }
    MediatorOptions options;
    options.durability.device = &wal_;
    options.record_trace = false;
    options.snapshot_repos = false;
    med_ = Must(Mediator::Create(w_->vdp(), w_->annotation(), setups,
                                 &sched_, options),
                "create mediator");
    Must(med_->Start(), "start mediator");
    auto t2 = Clock::now();
    record_.seed_ms = MsBetween(t0, t1);
    record_.view_init_ms = MsBetween(t1, t2);
    setup_s_ = MsBetween(kProcessStart, t2) / 1000.0;
    if (trace_) {
      tracer_ = std::make_unique<TracedRun>(*w_);
      Must(tracer_->Setup(initial_rows), "traced run set-up");
    }
  }

  /// Runs round after round of operations: as many rounds as the
  /// workload's calibrated rate gives for \p seconds, so that every run does
  /// the same work whatever the machine's momentary speed, but stops early
  /// once kMaxStretch times \p seconds have passed.
  void TimedLoop(double seconds) {
    const uint64_t wal0 = med_->durability().bytes_logged();
    const uint64_t ckpt0 = med_->durability().checkpoints_written();
    const long rounds =
        std::max(1L, std::lround(seconds * w_->rounds_per_second()));
    auto start = Clock::now();
    for (long r = 0; r < rounds; ++r) {
      if (MsBetween(start, Clock::now()) > kMaxStretch * seconds * 1000.0) {
        break;
      }
      probe_.Sample();
      for (int i = 0; i < kRoundOps; ++i) {
        ExecutedOp e;
        e.op = w_->Next();
        if (e.op.is_query) {
          RunQuery(&e);
        } else {
          const uint64_t ev0 = sched_.EventsFired();
          if (Update(e.op.txn, &e.when, &e.wall_ms)) {
            update_.Add(e.wall_ms, probe_.Last());
            record_.update_wall_ms += e.wall_ms;
            record_.update_atoms += e.op.txn.Atoms();
            ++record_.update_txns;
            record_.update_events += sched_.EventsFired() - ev0;
          }
        }
        if (tracer_ != nullptr) {
          Status st = tracer_->Step(e);
          if (!st.ok()) Mismatch("traced run: " + st.ToString());
        }
      }
    }
    record_.loop_wal_bytes = med_->durability().bytes_logged() - wal0;
    record_.loop_checkpoints = med_->durability().checkpoints_written() - ckpt0;
    if (trace_) {
      for (const auto& node : med_->store().MaterializedNodes()) {
        BinaryWriter bw;
        EncodeRelation(&bw, **med_->store().Repo(node));
        record_.repos.emplace(node, bw.Take());
      }
      record_.polled_tuples = med_->stats().polled_tuples;
      record_.rules_fired = med_->stats().iup.rules_fired;
      record_.wal_bytes = med_->durability().bytes_logged();
      record_.store_bytes = med_->StoreBytes();
      record_.device = wal_;
    }
  }

  /// Crash/recover cycles at the end of the run, each after a few updates
  /// so that recovery replays a WAL suffix; exports are checked after each.
  void RecoveryCycles() {
    for (int c = 0; c < kRecoveryCycles; ++c) {
      for (int i = 0; i < kUpdatesPerCycle; ++i) {
        Time when = 0;
        double ms = 0;
        Update(w_->NextTxn(), &when, &ms);
      }
      ++attempted_;
      probe_.Sample();
      auto t0 = Clock::now();
      Status st = med_->CrashAndRecover();
      sched_.Run();
      auto t1 = Clock::now();
      if (!st.ok() || med_->busy() || med_->QueueSize() != 0) {
        ++failed_;
        Mismatch("crash/recover cycle " + std::to_string(c) + ": " +
                 st.ToString());
        continue;
      }
      recovery_.Add(MsBetween(t0, t1), probe_.Last());
      CheckExports("after recovery " + std::to_string(c));
    }
  }

  void FinalChecks() {
    CheckExports("at the end");
    if (med_->stats().iup.atoms_in != source_atoms_) {
      Mismatch("atoms not conserved: sources committed " +
               std::to_string(source_atoms_) + ", IUP consumed " +
               std::to_string(med_->stats().iup.atoms_in));
    }
    SelfTest();
  }

  void Traced() {
    std::string error;
    if (!tracer_->Finish(record_, &per_layer_, &error)) Mismatch(error);
  }

  void Print() const {
    std::vector<Metric> m;
    const std::vector<double> upd = update_.Rescaled(probe_);
    const std::vector<double> qry = query_.Rescaled(probe_);
    double upd_ms = 0;
    for (double ms : upd) upd_ms += ms;
    const double atoms = static_cast<double>(record_.update_atoms);
    const double raw_atoms_per_s =
        record_.update_wall_ms > 0 ? 1000.0 * atoms / record_.update_wall_ms
                                   : 0;
    if (trace_) {
      m = per_layer_;
    } else {
      m = {
          {"setup_s", setup_s_ * probe_.FactorAt(0), "s"},
          {"update_atoms_per_s", upd_ms > 0 ? 1000.0 * atoms / upd_ms : 0,
           "atoms/s"},
          {"update_p50_ms", Percentile(upd, 0.50), "ms"},
          {"update_p99_ms", Percentile(upd, 0.99), "ms"},
          {"query_p50_ms", Percentile(qry, 0.50), "ms"},
          {"query_p99_ms", Percentile(qry, 0.99), "ms"},
          {"recovery_ms", Percentile(recovery_.Rescaled(probe_), 0.50), "ms"},
          {"wal_bytes_per_atom",
           atoms > 0 ? static_cast<double>(record_.loop_wal_bytes) / atoms : 0,
           "bytes"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
      };
    }
    std::cout << "# raw (before speed rescaling): probe_ms="
              << probe_.MedianMs() << " setup_s=" << setup_s_
              << " update_atoms_per_s=" << raw_atoms_per_s
              << " update_p50_ms=" << Percentile(update_.raw_ms, 0.50)
              << " update_p99_ms=" << Percentile(update_.raw_ms, 0.99)
              << " query_p50_ms=" << Percentile(query_.raw_ms, 0.50)
              << " query_p99_ms=" << Percentile(query_.raw_ms, 0.99)
              << " recovery_ms=" << Percentile(recovery_.raw_ms, 0.50) << "\n";
    std::cout << "# recovery_samples_ms:";
    for (double r : recovery_.raw_ms) std::cout << " " << r;
    std::cout << "\n# phase_s: " << phases_ << "\n";
    std::cout << "# workload=" << w_->name()
              << " update_samples=" << update_.size()
              << " query_samples=" << query_.size()
              << " recovery_samples=" << recovery_.size()
              << " update_atoms=" << record_.update_atoms
              << " oracle_checked_answers=" << oracle_checks_
              << " checkpoints=" << record_.loop_checkpoints << "\n";
    for (const auto& [shape, ms] : shape_ms_) {
      std::cout << "# query_shape=" << w_->shapes()[shape].name
                << " samples=" << ms.size()
                << " p50_ms=" << Percentile(ms, 0.50) << "\n";
    }
    std::ostringstream js;
    js << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (size_t i = 0; i < m.size(); ++i) {
      char num[64];
      double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
      std::snprintf(num, sizeof(num), "%.17g", v);
      js << (i ? ", " : "") << "\"" << m[i].name << "\": {\"value\": " << num
         << ", \"unit\": \"" << m[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
  }

  void NotePhase(const char* name, double seconds) {
    phases_ += std::string(phases_.empty() ? "" : " ") + name + "=" +
               std::to_string(seconds);
  }

 private:
  /// Commits \p txn at its source and drives the scheduler until the
  /// mediator has committed the update transaction that reflects it.
  bool Update(const SourceTxn& txn, Time* when, double* wall_ms) {
    ++attempted_;
    const Table& t = w_->tables()[txn.table];
    MultiDelta md = Must(TxnDelta(t.relation(), schemas_[txn.table],
                                  txn.deletes, txn.inserts),
                         "delta");
    sched_.RunUntil(sched_.Now() + kOpGap);
    *when = sched_.Now();
    const uint64_t txns0 = med_->stats().update_txns;
    auto t0 = Clock::now();
    Status st = dbs_[txn.table]->Commit(*when, md);
    sched_.Run();
    auto t1 = Clock::now();
    *wall_ms = MsBetween(t0, t1);
    if (st.ok()) source_atoms_ += txn.Atoms();
    if (!st.ok() || med_->stats().update_txns != txns0 + 1 ||
        med_->busy() || med_->QueueSize() != 0) {
      ++failed_;
      std::cerr << "e2e_bench: update on " << t.relation()
                << " was not reflected: " << st.ToString() << "\n";
      return false;
    }
    return true;
  }

  /// Submits \p q and drives the scheduler until its callback fires.
  std::optional<Result<ViewAnswer>> Ask(const ViewQuery& q, double* wall_ms) {
    std::optional<Result<ViewAnswer>> got;
    auto t0 = Clock::now();
    med_->SubmitQuery(q, [&got](Result<ViewAnswer> a) {
      got.emplace(std::move(a));
    });
    sched_.Run();
    auto t1 = Clock::now();
    if (wall_ms != nullptr) *wall_ms = MsBetween(t0, t1);
    if (got.has_value() && got->ok()) CheckReflect((*got)->reflect);
    return got;
  }

  void RunQuery(ExecutedOp* e) {
    ++attempted_;
    const QueryShape& shape = w_->shapes()[e->op.query.shape];
    ViewQuery q = Must(ParseViewQuery(shape.text(e->op.query)), shape.name);
    sched_.RunUntil(sched_.Now() + kOpGap);
    e->when = sched_.Now();
    auto got = Ask(q, &e->wall_ms);
    if (!got.has_value() || !got->ok()) {
      ++failed_;
      std::cerr << "e2e_bench: query " << shape.name << " failed: "
                << (got.has_value() ? got->status().ToString() : "no answer")
                << "\n";
      return;
    }
    query_.Add(e->wall_ms, probe_.Last());
    shape_ms_[e->op.query.shape].push_back(e->wall_ms);
    ++record_.queries;
    const ViewAnswer& ans = **got;
    if (trace_) e->answer_digest = DigestRelation(ans.data);
    if (e->op.query.check) {
      ++oracle_checks_;
      Rows rows;
      std::string err;
      Rows expected = shape.oracle(w_->Oracle(), e->op.query);
      if (!ReadRows(ans.data, shape.attrs, &rows, &err) ||
          !SameRows(expected, rows, &err)) {
        Mismatch("query " + q.ToString() + ": " + err);
      }
    }
  }

  /// Answer reflect vectors never move back (paper §3 chronology).
  void CheckReflect(const TimeVector& r) {
    if (!last_reflect_.empty() && !TimeVectorLeq(last_reflect_, r)) {
      Mismatch("reflect vector " + TimeVectorToString(r) + " is behind " +
               TimeVectorToString(last_reflect_));
    }
    last_reflect_ = r;
  }

  /// Full export answers; nullopt (after reporting) when a query fails.
  std::optional<Rows> ExportRows(const std::string& name,
                                 Relation* data = nullptr) {
    ViewQuery q;
    q.relation = name;
    auto got = Ask(q, nullptr);
    if (!got.has_value() || !got->ok()) {
      Mismatch("export " + name + " query failed");
      return std::nullopt;
    }
    Rows rows;
    std::string err;
    if (!ReadRows((*got)->data, ExportAttrs(name), &rows, &err)) {
      Mismatch("export " + name + ": " + err);
      return std::nullopt;
    }
    if (data != nullptr) *data = (*got)->data;
    return rows;
  }

  std::vector<std::string> ExportAttrs(const std::string& name) const {
    return w_->vdp().Find(name)->schema.AttributeNames();
  }

  void CheckExports(const std::string& when) {
    auto oracle = w_->Oracle();
    for (const auto& name : w_->Exports()) {
      auto rows = ExportRows(name);
      std::string err;
      if (rows.has_value() && !SameRows(oracle.at(name), *rows, &err)) {
        Mismatch("export " + name + " " + when + ": " + err);
      }
    }
  }

  /// The checks must fail on a corrupted oracle row and on a corrupted
  /// answer row, so that no comparison passes vacuously.
  void SelfTest() {
    const std::string name = w_->Exports().front();
    Relation answer;
    auto rows = ExportRows(name, &answer);
    Rows expected = w_->Oracle().at(name);
    std::string err;
    if (!rows.has_value() || expected.empty()) {
      Mismatch("self-test: export " + name + " is empty or unreadable");
      return;
    }
    Rows bad_oracle = expected;
    bad_oracle[bad_oracle.size() / 2].back() += 1;
    if (SameRows(bad_oracle, *rows, &err)) {
      Mismatch("self-test: a corrupted oracle row went unnoticed");
    }
    Relation bad_answer(answer.schema(), answer.semantics());
    bool corrupted = false;
    answer.ForEach([&](const Tuple& t, int64_t count) {
      Tuple copy = t;
      if (!corrupted) {
        Value& v = copy.at(copy.size() - 1);
        v = Value(v.AsInt() + 1);
        corrupted = true;
      }
      Must(bad_answer.Insert(copy, count), "self-test insert");
    });
    Rows bad_rows;
    if (ReadRows(bad_answer, ExportAttrs(name), &bad_rows, &err) &&
        SameRows(expected, bad_rows, &err)) {
      Mismatch("self-test: a corrupted answer row went unnoticed");
    }
  }

  void Mismatch(const std::string& what) {
    correct_ = false;
    std::cerr << "e2e_bench: CHECK FAILED: " << what << "\n";
  }

  std::unique_ptr<Workload> w_;
  bool trace_;
  Scheduler sched_;
  MemLogDevice wal_;
  std::vector<Schema> schemas_;
  std::vector<std::unique_ptr<SourceDb>> dbs_;
  std::unique_ptr<Mediator> med_;
  std::unique_ptr<TracedRun> tracer_;  ///< set with --trace 1

  SpeedProbe probe_;
  std::string phases_;
  EndToEndRecord record_;
  std::vector<Metric> per_layer_;
  double setup_s_ = 0;
  Timings update_, query_, recovery_;
  std::map<size_t, std::vector<double>> shape_ms_;
  TimeVector last_reflect_;
  uint64_t source_atoms_ = 0;
  uint64_t attempted_ = 0, failed_ = 0, oracle_checks_ = 0;
  bool correct_ = true;
};

}  // namespace
}  // namespace e2e_bench
}  // namespace squirrel

int main(int argc, char** argv) {
  using namespace squirrel::e2e_bench;
  Args args = ParseArgs(argc, argv);
  auto w = Workload::Make(args.workload, args.seed);
  if (w == nullptr) Usage("unknown workload " + args.workload);
  Run run(std::move(w), args.trace);
  auto phase = [&run](const char* name, const std::function<void()>& fn) {
    auto t0 = Clock::now();
    fn();
    run.NotePhase(name, MsBetween(t0, Clock::now()) / 1000.0);
  };
  phase("setup", [&] { run.Setup(); });
  phase("loop", [&] { run.TimedLoop(args.seconds); });
  if (args.trace) {
    phase("traced", [&] { run.Traced(); });
  } else {
    phase("recovery", [&] { run.RecoveryCycles(); });
  }
  phase("checks", [&] { run.FinalChecks(); });
  run.Print();
  return 0;
}
