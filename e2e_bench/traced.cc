#include "traced.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "delta/delta_algebra.h"
#include "mediator/contributor.h"
#include "mediator/durability/durability.h"
#include "mediator/durability/serialize.h"
#include "mediator/iup.h"
#include "mediator/local_store.h"
#include "mediator/query_processor.h"
#include "mediator/resync.h"
#include "mediator/update_queue.h"
#include "mediator/vap.h"
#include "relational/operators.h"
#include "relational/parser.h"
#include "source/source_db.h"

namespace squirrel {
namespace e2e_bench {

Result<MultiDelta> TxnDelta(const std::string& relation, const Schema& schema,
                            const Rows& deletes, const Rows& inserts) {
  MultiDelta md;
  Delta* d = md.Mutable(relation, schema);
  auto tuple = [](const Row& r) {
    return Tuple(std::vector<Value>(r.begin(), r.end()));
  };
  for (const Row& r : deletes) SQ_RETURN_IF_ERROR(d->AddDelete(tuple(r)));
  for (const Row& r : inserts) SQ_RETURN_IF_ERROR(d->AddInsert(tuple(r)));
  return md;
}

uint64_t DigestRelation(const Relation& rel) {
  uint64_t sum = rel.DistinctSize();
  rel.ForEach([&sum](const Tuple& t, int64_t count) {
    uint64_t h = t.Hash() ^ (static_cast<uint64_t>(count) * 0x9E3779B97F4A7C15ULL);
    h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9ULL;
    sum += h ^ (h >> 29);
  });
  return sum;
}

namespace {

/// Wall time spent in one traced call site.
struct Span {
  double ms = 0;
  uint64_t calls = 0;
};

/// Runs \p fn, adding its wall time to \p span; returns its result.
template <typename Fn>
auto Timed(Span* span, Fn&& fn) {
  auto t0 = Clock::now();
  auto result = fn();
  span->ms += MsBetween(t0, Clock::now());
  ++span->calls;
  return result;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Per(double total, uint64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0;
}

}  // namespace

/// \brief The mediator's components wired by hand over replica sources.
class Replay {
 public:
  explicit Replay(const Workload& w)
      : w_(w), vdp_(w.vdp()), ann_(w.annotation()) {}

  Status Setup(const std::vector<Rows>& initial_rows);
  Status Update(const ExecutedOp& e);
  Status Query(const ExecutedOp& e);
  /// Compares the replay's end state with the end-to-end run's.
  Status Agree(const EndToEndRecord& rec) const;
  void Report(const EndToEndRecord& rec, std::vector<Metric>* out) const;
  /// Appends the recovery and checkpoint figures.
  Status Durability(const EndToEndRecord& rec,
                    std::vector<Metric>* out) const;

 private:
  struct Source {
    std::unique_ptr<SourceDb> db;
    std::string relation;
    Schema schema;
    uint64_t seq = 0;  ///< the announcer's sequence number
    uint64_t last_update_seq = 0;
    Time last_reflected_send = 0;
  };

  /// Polls answered by the replica source at its post-commit state.
  Vap::PollFn MakePoll(Span* span, uint64_t* tuples);
  /// Eager Compensation against the in-flight batch and the queue.
  Vap::CompensationFn MakeCompensation(
      const std::map<std::string, MultiDelta>* inflight, Span* span) const;
  HardState BuildHardState() const;

  const Workload& w_;
  Vdp vdp_;
  Annotation ann_;
  std::map<std::string, Source> sources_;
  std::vector<std::string> source_order_;
  std::unique_ptr<LocalStore> store_;
  std::unique_ptr<Vap> vap_;
  std::unique_ptr<Iup> iup_;
  std::unique_ptr<QueryProcessor> qp_;
  UpdateQueue queue_;
  ResyncManager resync_;
  MemLogDevice device_;
  DurabilityManager dur_;
  uint64_t next_txn_id_ = 1;
  uint64_t commits_since_checkpoint_ = 0;
  std::map<std::string, Delta> capture_;
  bool capturing_ = false;
  Status capture_status_ = Status::OK();

  // Update path (the timed loop's update operations).
  Span commit_, queue_span_, log_, prep_, plan_, exec_upd_, poll_upd_,
      comp_upd_, kernel_, resync_span_, checkpoint_;
  uint64_t poll_tuples_upd_ = 0, temps_ = 0, rules_ = 0, propagated_ = 0,
           export_atoms_ = 0, record_bytes_ = 0;
  // Query path.
  Span q_prepare_, q_answer_, exec_q_, poll_q_, comp_q_;
  uint64_t poll_tuples_q_ = 0, rows_ = 0;
  // Cross-path totals (MediatorStats::polled_tuples counts both paths).
  uint64_t polled_tuples_ = 0;
  uint64_t answer_mismatches_ = 0;
};

Status Replay::Setup(const std::vector<Rows>& initial_rows) {
  store_ = std::make_unique<LocalStore>(&vdp_, &ann_, /*enable_indexes=*/true);
  vap_ = std::make_unique<Vap>(&vdp_, &ann_, store_.get(), VapStrategy::kAuto);
  iup_ = std::make_unique<Iup>(&vdp_, &ann_, store_.get(), vap_.get());
  qp_ = std::make_unique<QueryProcessor>(&vdp_, &ann_, store_.get(),
                                         vap_.get());
  DurabilityOptions opts;
  opts.device = &device_;
  dur_ = DurabilityManager(opts);

  const auto& tables = w_.tables();
  for (size_t i = 0; i < tables.size(); ++i) {
    const Table& t = tables[i];
    SQ_ASSIGN_OR_RETURN(SchemaDecl decl, ParseSchemaDecl(t.decl()));
    Source& s = sources_[t.db()];
    s.db = std::make_unique<SourceDb>(t.db());
    s.relation = t.relation();
    s.schema = decl.schema;
    SQ_RETURN_IF_ERROR(s.db->AddRelation(t.relation(), s.schema));
    SQ_ASSIGN_OR_RETURN(MultiDelta seed, TxnDelta(t.relation(), s.schema, {},
                                                  initial_rows[i]));
    SQ_RETURN_IF_ERROR(s.db->Commit(0, seed));
    source_order_.push_back(t.db());
  }

  // Mirrors of every leaf-referenced relation of announcing sources, as
  // Mediator::Create registers them and Mediator::Start fills them.
  std::map<std::string, std::map<std::string, Schema>> mirrored;
  for (const auto& leaf_name : vdp_.LeafNames()) {
    const VdpNode* leaf = vdp_.Find(leaf_name);
    SQ_ASSIGN_OR_RETURN(Schema schema,
                        sources_.at(leaf->source_db)
                            .db->RelationSchema(leaf->source_relation));
    mirrored[leaf->source_db].emplace(leaf->source_relation, schema);
  }
  for (const auto& name : source_order_) {
    bool announces = MustAnnounce(ClassifyContributor(vdp_, ann_, name));
    resync_.Register(name, announces ? std::move(mirrored[name])
                                     : std::map<std::string, Schema>{});
    for (const auto& rel_name : resync_.Relations(name)) {
      SQ_ASSIGN_OR_RETURN(const Relation* rel,
                          sources_.at(name).db->Current(rel_name));
      SQ_RETURN_IF_ERROR(resync_.SetMirror(name, rel_name, *rel));
    }
  }

  // Initial load: the same recomputation Mediator::Start performs.
  std::map<std::string, Relation> full;
  for (const auto& name : vdp_.TopoOrder()) {
    const VdpNode* node = vdp_.Find(name);
    if (node->is_leaf) {
      SQ_ASSIGN_OR_RETURN(const Relation* rel,
                          sources_.at(node->source_db)
                              .db->Current(node->source_relation));
      SQ_ASSIGN_OR_RETURN(Relation narrowed,
                          OpProject(*rel, node->schema.AttributeNames(),
                                    Semantics::kBag));
      full.emplace(name, std::move(narrowed));
      continue;
    }
    NodeStateFn states =
        [&full](const std::string& child, const std::vector<std::string>&)
        -> Result<std::shared_ptr<const Relation>> {
      auto it = full.find(child);
      if (it == full.end()) return Status::Internal("missing child " + child);
      return std::shared_ptr<const Relation>(std::shared_ptr<void>(),
                                             &it->second);
    };
    SQ_ASSIGN_OR_RETURN(Relation contents, node->def->Evaluate(states));
    if (store_->HasRepo(name)) {
      SQ_ASSIGN_OR_RETURN(
          Relation projected,
          OpProject(contents, ann_.MaterializedAttrs(vdp_, name),
                    Semantics::kBag));
      if (node->semantics() == Semantics::kSet) projected = projected.ToSet();
      SQ_RETURN_IF_ERROR(store_->SetRepo(name, std::move(projected)));
    }
    full.emplace(name, std::move(contents));
  }

  store_->SetApplyListener(
      [this](const std::string& node, const Delta& narrowed) {
        if (!capturing_) return;
        if (vdp_.Find(node)->exported) export_atoms_ += narrowed.AtomCount();
        auto [it, inserted] = capture_.try_emplace(node, narrowed);
        if (!inserted) {
          Status s = it->second.SmashInPlace(narrowed);
          if (!s.ok()) capture_status_ = s;
        }
      });
  return dur_.WriteCheckpoint(BuildHardState());
}

Vap::PollFn Replay::MakePoll(Span* span, uint64_t* tuples) {
  return [this, span, tuples](const std::string& source,
                              const PollSpec& spec) -> Result<Relation> {
    Result<Relation> answer = Timed(span, [&] {
      return sources_.at(source).db->Query(spec.relation, spec.attrs,
                                           spec.cond);
    });
    if (answer.ok()) *tuples += static_cast<uint64_t>(answer->TotalSize());
    return answer;
  };
}

Vap::CompensationFn Replay::MakeCompensation(
    const std::map<std::string, MultiDelta>* inflight, Span* span) const {
  return [this, inflight, span](const std::string& source,
                                const std::string& relation,
                                const Schema& schema) -> Result<Delta> {
    return Timed(span, [&]() -> Result<Delta> {
      Delta total(schema);
      if (inflight != nullptr) {
        auto it = inflight->find(source);
        const Delta* d = it == inflight->end() ? nullptr
                                               : it->second.Find(relation);
        if (d != nullptr) SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
      }
      SQ_ASSIGN_OR_RETURN(MultiDelta pending, queue_.PendingFrom(source));
      const Delta* d = pending.Find(relation);
      if (d != nullptr) SQ_RETURN_IF_ERROR(total.SmashInPlace(*d));
      return total;
    });
  };
}

HardState Replay::BuildHardState() const {
  HardState hs;
  for (const auto& node : store_->MaterializedNodes()) {
    hs.repos.emplace(node, **store_->Repo(node));
  }
  hs.queue = queue_.Snapshot();
  for (const auto& [name, src] : sources_) {
    HardState::SourceState ss;
    ss.last_update_seq = src.last_update_seq;
    ss.last_reflected_send = src.last_reflected_send;
    ss.epoch = resync_.Epoch(name);
    ss.health = static_cast<uint8_t>(resync_.Health(name));
    hs.sources.emplace(name, ss);
    if (resync_.NeedsResync(name)) hs.mirrors.emplace(name, resync_.Mirror(name));
  }
  hs.next_txn_id = next_txn_id_;
  hs.snapshot_version = store_->SnapshotVersion();
  return hs;
}

Status Replay::Update(const ExecutedOp& e) {
  const SourceTxn& txn = e.op.txn;
  const Table& table = w_.tables()[txn.table];
  Source& src = sources_.at(table.db());
  SQ_ASSIGN_OR_RETURN(MultiDelta md, TxnDelta(src.relation, src.schema,
                                              txn.deletes, txn.inserts));
  SQ_RETURN_IF_ERROR(
      Timed(&commit_, [&] { return src.db->Commit(e.when, md); }));

  // The announcement the source's Announcer sends for this commit.
  UpdateMessage msg;
  msg.source = table.db();
  msg.send_time = e.when;
  msg.seq = ++src.seq;
  msg.epoch = src.db->epoch();
  msg.delta = std::move(md);
  msg.checksum = ChecksumUpdateMessage(msg);

  const uint64_t bytes0 = dur_.bytes_logged();
  SQ_RETURN_IF_ERROR(Timed(&log_, [&] {
    return dur_.LogEnqueue(msg, queue_.WouldCoalesce(msg));
  }));
  src.last_update_seq = msg.seq;
  std::vector<UpdateMessage> msgs = Timed(&queue_span_, [&] {
    queue_.Enqueue(std::move(msg));
    return queue_.Flush();
  });
  const uint64_t txn_id = next_txn_id_++;
  SQ_RETURN_IF_ERROR(
      Timed(&log_, [&] { return dur_.LogTxnBegin(txn_id, msgs.size()); }));

  // Leaf deltas, in-flight batch and reflect candidates, assembled as
  // Mediator::RunUpdateTxn does (untimed: this is mediator glue).
  std::map<std::string, Delta> leaf_deltas;
  std::map<std::string, MultiDelta> inflight;
  std::map<std::string, Time> reflect;
  for (const auto& m : msgs) {
    reflect[m.source] = m.send_time;
    SQ_RETURN_IF_ERROR(inflight[m.source].SmashInPlace(m.delta));
    for (const auto& rel : m.delta.RelationNames()) {
      const VdpNode* leaf = vdp_.FindLeaf(m.source, rel);
      if (leaf == nullptr) continue;
      SQ_ASSIGN_OR_RETURN(Delta narrowed,
                          DeltaProject(*m.delta.Find(rel),
                                       leaf->schema.AttributeNames()));
      auto it = leaf_deltas.try_emplace(leaf->name, Delta(leaf->schema)).first;
      SQ_RETURN_IF_ERROR(it->second.SmashInPlace(narrowed));
    }
  }

  // The transaction plans its temporaries once to decide whether to poll,
  // and again inside its commit step, as RunUpdateTxn does.
  SQ_ASSIGN_OR_RETURN(
      std::vector<TempRequest> requests,
      Timed(&prep_, [&] { return iup_->PrepareTempRequests(leaf_deltas); }));
  if (!requests.empty()) {
    SQ_RETURN_IF_ERROR(
        Timed(&plan_, [&] { return vap_->Plan(requests); }).status());
  }
  Vap::PollFn poll = MakePoll(&poll_upd_, &poll_tuples_upd_);
  Vap::CompensationFn comp = MakeCompensation(&inflight, &comp_upd_);
  auto run = [&]() -> Result<IupStats> {
    SQ_ASSIGN_OR_RETURN(
        std::vector<TempRequest> reqs,
        Timed(&prep_, [&] { return iup_->PrepareTempRequests(leaf_deltas); }));
    TempStore temps;
    if (!reqs.empty()) {
      SQ_ASSIGN_OR_RETURN(VapPlan plan,
                          Timed(&plan_, [&] { return vap_->Plan(reqs); }));
      SQ_ASSIGN_OR_RETURN(temps, Timed(&exec_upd_, [&] {
                            return vap_->Execute(plan, poll, comp);
                          }));
    }
    SQ_ASSIGN_OR_RETURN(
        IupStats stats,
        Timed(&kernel_, [&] { return iup_->RunKernel(leaf_deltas, &temps); }));
    stats.polled_tuples = temps.polled_tuples;
    stats.temps_built = temps.Count();
    return stats;
  };
  capture_.clear();
  capturing_ = true;
  Result<IupStats> stats = run();
  capturing_ = false;
  SQ_RETURN_IF_ERROR(stats.status());
  SQ_RETURN_IF_ERROR(capture_status_);
  rules_ += stats->rules_fired;
  propagated_ += stats->atoms_propagated;
  temps_ += stats->temps_built;
  polled_tuples_ += stats->polled_tuples;

  for (const auto& [source, send_time] : reflect) {
    Source& s = sources_.at(source);
    s.last_reflected_send = std::max(s.last_reflected_send, send_time);
  }
  SQ_RETURN_IF_ERROR(Timed(&resync_span_, [&]() -> Status {
    for (const auto& [source, delta] : inflight) {
      SQ_RETURN_IF_ERROR(resync_.Advance(source, delta));
    }
    return Status::OK();
  }));
  CommitPayload payload;
  payload.txn_id = txn_id;
  payload.consumed = msgs.size();
  payload.node_deltas = std::move(capture_);
  payload.reflect = reflect;
  payload.source_deltas = inflight;
  SQ_RETURN_IF_ERROR(Timed(&log_, [&] { return dur_.LogTxnCommit(payload); }));
  capture_.clear();
  record_bytes_ += dur_.bytes_logged() - bytes0;
  if (dur_.CheckpointDue(++commits_since_checkpoint_)) {
    SQ_RETURN_IF_ERROR(Timed(&checkpoint_, [&] {
      return dur_.WriteCheckpoint(BuildHardState());
    }));
    commits_since_checkpoint_ = 0;
  }
  return Status::OK();
}

Status Replay::Query(const ExecutedOp& e) {
  const QueryShape& shape = w_.shapes()[e.op.query.shape];
  SQ_ASSIGN_OR_RETURN(ViewQuery q, ParseViewQuery(shape.text(e.op.query)));
  SQ_ASSIGN_OR_RETURN(PreparedQuery pq,
                      Timed(&q_prepare_, [&] { return qp_->Prepare(q); }));
  SQ_ASSIGN_OR_RETURN(std::optional<VapPlan> plan,
                      Timed(&q_prepare_, [&] { return qp_->PlanFor(pq); }));
  QueryProcessor::LocalAnswer local;
  if (!plan.has_value()) {
    SQ_ASSIGN_OR_RETURN(local, Timed(&q_answer_, [&] {
                          return qp_->Answer(pq, nullptr, nullptr);
                        }));
  } else {
    Vap::PollFn poll = MakePoll(&poll_q_, &poll_tuples_q_);
    Vap::CompensationFn comp = MakeCompensation(nullptr, &comp_q_);
    SQ_ASSIGN_OR_RETURN(TempStore temps, Timed(&exec_q_, [&] {
                          return vap_->Execute(*plan, poll, comp);
                        }));
    SQ_ASSIGN_OR_RETURN(local, Timed(&q_answer_, [&] {
                          return qp_->AnswerWithTemps(pq, temps);
                        }));
    polled_tuples_ += temps.polled_tuples;
  }
  rows_ += static_cast<uint64_t>(local.data.TotalSize());
  if (DigestRelation(local.data) != e.answer_digest) ++answer_mismatches_;
  return Status::OK();
}

Status Replay::Agree(const EndToEndRecord& rec) const {
  size_t nodes = 0;
  for (const auto& node : store_->MaterializedNodes()) {
    BinaryWriter bw;
    EncodeRelation(&bw, **store_->Repo(node));
    auto it = rec.repos.find(node);
    if (it == rec.repos.end() || it->second != bw.bytes()) {
      return Status::Internal("traced repository " + node +
                              " differs from the end-to-end run's");
    }
    ++nodes;
  }
  if (nodes != rec.repos.size()) {
    return Status::Internal("traced run has a different repository set");
  }
  auto differ = [](const char* what, uint64_t traced, uint64_t e2e) {
    return Status::Internal(std::string("traced ") + what + " " +
                            std::to_string(traced) + " != end-to-end " +
                            std::to_string(e2e));
  };
  if (polled_tuples_ != rec.polled_tuples) {
    return differ("polled tuples", polled_tuples_, rec.polled_tuples);
  }
  if (rules_ != rec.rules_fired) {
    return differ("rules fired", rules_, rec.rules_fired);
  }
  if (dur_.bytes_logged() != rec.wal_bytes) {
    return differ("WAL bytes", dur_.bytes_logged(), rec.wal_bytes);
  }
  if (answer_mismatches_ > 0) {
    return Status::Internal(std::to_string(answer_mismatches_) +
                            " traced answers differ from the end-to-end run");
  }
  return Status::OK();
}

/// Recovery and checkpoint figures from copies of the end-to-end run's own
/// log device: ReadAll, Recover, then a checkpoint of the recovered hard
/// state onto a fresh device. Medians of a few repetitions.
Status Replay::Durability(const EndToEndRecord& rec,
                          std::vector<Metric>* out) const {
  constexpr int kReps = 5;
  std::vector<double> read_ms, recover_ms, checkpoint_ms;
  uint64_t checkpoint_bytes = 0;
  for (int i = 0; i < kReps; ++i) {
    MemLogDevice copy = rec.device;
    auto t0 = Clock::now();
    SQ_RETURN_IF_ERROR(copy.ReadAll().status());
    read_ms.push_back(MsBetween(t0, Clock::now()));
    DurabilityOptions opts;
    opts.device = &copy;
    DurabilityManager manager(opts);
    t0 = Clock::now();
    SQ_ASSIGN_OR_RETURN(RecoveredState recovered, manager.Recover());
    recover_ms.push_back(MsBetween(t0, Clock::now()));
    for (const auto& [node, rel] : recovered.state.repos) {
      BinaryWriter bw;
      EncodeRelation(&bw, rel);
      auto it = rec.repos.find(node);
      if (it == rec.repos.end() || it->second != bw.bytes()) {
        return Status::Internal("recovered repository " + node +
                                " differs from the live one");
      }
    }
    MemLogDevice fresh;
    DurabilityOptions fresh_opts;
    fresh_opts.device = &fresh;
    DurabilityManager writer(fresh_opts);
    t0 = Clock::now();
    SQ_RETURN_IF_ERROR(writer.WriteCheckpoint(recovered.state));
    checkpoint_ms.push_back(MsBetween(t0, Clock::now()));
    checkpoint_bytes = writer.bytes_logged();
  }
  const uint64_t atoms = rec.update_atoms;
  out->push_back({"durability.checkpoint_ms", Median(checkpoint_ms), "ms"});
  out->push_back({"durability.checkpoint_bytes",
                  static_cast<double>(checkpoint_bytes), "bytes"});
  out->push_back({"durability.checkpoints_per_1k_atoms",
                  Per(1000.0 * static_cast<double>(rec.loop_checkpoints),
                      atoms),
                  "count"});
  out->push_back({"durability.recover_ms", Median(recover_ms), "ms"});
  out->push_back({"durability.device_read_ms", Median(read_ms), "ms"});
  return Status::OK();
}

void Replay::Report(const EndToEndRecord& rec,
                    std::vector<Metric>* out) const {
  const uint64_t atoms = rec.update_atoms;
  const uint64_t txns = rec.update_txns;
  const uint64_t queries = rec.queries;
  const double vap_self_upd = exec_upd_.ms - poll_upd_.ms - comp_upd_.ms;
  const double vap_self_q = exec_q_.ms - poll_q_.ms - comp_q_.ms;

  // Update-path layers, each as a share of the end-to-end update wall time.
  const double source_ms = commit_.ms + poll_upd_.ms;
  const double vap_ms = plan_.ms + exec_upd_.ms - poll_upd_.ms;
  const double iup_ms = prep_.ms + kernel_.ms;
  const double durability_ms = log_.ms + checkpoint_.ms;
  const double traced_ms = source_ms + vap_ms + iup_ms + queue_span_.ms +
                           resync_span_.ms + durability_ms;
  const double wall = rec.update_wall_ms;
  auto share = [wall](double ms) { return wall > 0 ? 100.0 * ms / wall : 0; };
  size_t mirror_bytes = 0;
  for (const auto& name : source_order_) {
    for (const auto& [rel_name, rel] : resync_.Mirror(name)) {
      (void)rel_name;
      mirror_bytes += rel.ApproxBytes();
    }
  }

  *out = {
      {"source.commit_us_per_atom", Per(1000.0 * commit_.ms, atoms), "us"},
      {"source.poll_ms_per_atom", Per(poll_upd_.ms, atoms), "ms"},
      {"source.poll_tuples_per_atom",
       Per(static_cast<double>(poll_tuples_upd_), atoms), "count"},
      {"source.poll_ms_per_query", Per(poll_q_.ms, queries), "ms"},
      {"source.poll_tuples_per_query",
       Per(static_cast<double>(poll_tuples_q_), queries), "count"},
      {"vap.plan_us", Per(1000.0 * plan_.ms, plan_.calls), "us"},
      {"vap.execute_self_ms_per_atom", Per(vap_self_upd, atoms), "ms"},
      {"vap.compensate_ms_per_atom", Per(comp_upd_.ms, atoms), "ms"},
      {"vap.temps_per_txn", Per(static_cast<double>(temps_), txns), "count"},
      {"vap.poll_yield",
       Per(static_cast<double>(export_atoms_), poll_tuples_upd_), "ratio"},
      {"vap.execute_self_ms_per_query", Per(vap_self_q, queries), "ms"},
      {"iup.prep_us_per_txn", Per(1000.0 * prep_.ms, txns), "us"},
      {"iup.kernel_ms_per_atom", Per(kernel_.ms, atoms), "ms"},
      {"iup.rules_fired_per_txn", Per(static_cast<double>(rules_), txns),
       "count"},
      {"iup.atoms_propagated_per_atom",
       Per(static_cast<double>(propagated_), atoms), "count"},
      {"update_queue.us_per_txn", Per(1000.0 * queue_span_.ms, txns), "us"},
      {"resync.mirror_us_per_txn", Per(1000.0 * resync_span_.ms, txns), "us"},
      {"resync.mirror_bytes", static_cast<double>(mirror_bytes), "bytes"},
      {"local_store.bytes", static_cast<double>(rec.store_bytes), "bytes"},
      {"query_processor.prepare_us", Per(1000.0 * q_prepare_.ms, queries),
       "us"},
      {"query_processor.answer_self_ms", Per(q_answer_.ms, queries), "ms"},
      {"query_processor.rows_per_query",
       Per(static_cast<double>(rows_), queries), "count"},
      {"durability.log_us_per_txn", Per(1000.0 * log_.ms, txns), "us"},
      {"durability.record_bytes_per_atom",
       Per(static_cast<double>(record_bytes_), atoms), "bytes"},
      {"sim.events_per_atom",
       Per(static_cast<double>(rec.update_events), atoms), "count"},
      {"mediator.glue_ms_per_atom", Per(wall - traced_ms, atoms), "ms"},
      {"setup.seed_ms", rec.seed_ms, "ms"},
      {"setup.view_init_ms", rec.view_init_ms, "ms"},
      {"update_share.source", share(source_ms), "%"},
      {"update_share.vap", share(vap_ms), "%"},
      {"update_share.iup", share(iup_ms), "%"},
      {"update_share.update_queue", share(queue_span_.ms), "%"},
      {"update_share.resync", share(resync_span_.ms), "%"},
      {"update_share.durability", share(durability_ms), "%"},
      {"update_share.glue", share(wall - traced_ms), "%"},
  };
}

TracedRun::TracedRun(const Workload& w)
    : replay_(std::make_unique<Replay>(w)) {}

TracedRun::~TracedRun() = default;

Status TracedRun::Setup(const std::vector<Rows>& initial_rows) {
  return replay_->Setup(initial_rows);
}

Status TracedRun::Step(const ExecutedOp& e) {
  return e.op.is_query ? replay_->Query(e) : replay_->Update(e);
}

bool TracedRun::Finish(const EndToEndRecord& rec,
                       std::vector<Metric>* metrics, std::string* error) {
  Status st = replay_->Agree(rec);
  replay_->Report(rec, metrics);
  if (st.ok()) st = replay_->Durability(rec, metrics);
  if (!st.ok()) {
    *error = "traced run: " + st.ToString();
    return false;
  }
  return true;
}

}  // namespace e2e_bench
}  // namespace squirrel
