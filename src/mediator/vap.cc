#include "mediator/vap.h"

#include <algorithm>
#include <set>

#include "common/cancel.h"
#include "common/strings.h"
#include "delta/delta_algebra.h"
#include "relational/index.h"
#include "relational/operators.h"

namespace squirrel {

namespace {

/// Orders \p attrs by their position in \p schema (deterministic request
/// normal form).
std::vector<std::string> NormalizeAttrs(const Schema& schema,
                                        const std::set<std::string>& attrs) {
  std::vector<std::string> out;
  for (const auto& a : schema.attrs()) {
    if (attrs.count(a.name)) out.push_back(a.name);
  }
  return out;
}

/// Clauses of \p cond whose attributes are all within \p visible.
Expr::Ptr PushableClauses(const Expr::Ptr& cond,
                          const std::vector<std::string>& visible) {
  if (!cond || cond->IsTrueLiteral()) return Expr::True();
  std::vector<Expr::Ptr> pushed;
  for (const auto& clause : ConjunctiveClauses(cond)) {
    bool ok = true;
    for (const auto& a : clause->ReferencedAttrs()) {
      if (std::find(visible.begin(), visible.end(), a) == visible.end()) {
        ok = false;
        break;
      }
    }
    if (ok) pushed.push_back(clause);
  }
  return AndAll(pushed);
}

std::set<std::string> AttrsOf(const Expr::Ptr& e) {
  std::set<std::string> out;
  if (e) e->CollectAttrs(&out);
  return out;
}

bool ContainsAttr(const std::vector<std::string>& attrs,
                  const std::string& a) {
  return std::find(attrs.begin(), attrs.end(), a) != attrs.end();
}

}  // namespace

std::string TempRequest::ToString() const {
  std::string out = "(" + node + ", [" + Join(attrs, ",") + "]";
  if (cond && !cond->IsTrueLiteral()) out += ", " + cond->ToString();
  out += ")";
  return out;
}

void TempStore::Put(const std::string& node, Entry entry) {
  entries_[node] = std::move(entry);
}

const TempStore::Entry* TempStore::Find(const std::string& node) const {
  auto it = entries_.find(node);
  return it == entries_.end() ? nullptr : &it->second;
}

bool TempStore::Covers(const std::string& node,
                       const std::vector<std::string>& attrs) const {
  const Entry* e = Find(node);
  if (e == nullptr) return false;
  return std::all_of(attrs.begin(), attrs.end(), [&](const std::string& a) {
    return ContainsAttr(e->attrs, a);
  });
}

Status TempStore::ApplyNodeDelta(const std::string& node,
                                 const Delta& full_delta) {
  auto it = entries_.find(node);
  if (it == entries_.end()) return Status::OK();
  Entry& e = it->second;
  SQ_ASSIGN_OR_RETURN(
      Delta filtered,
      FilterDeltaToLeafParent(full_delta, e.cond ? e.cond : Expr::True(),
                              e.attrs));
  return ApplyDelta(&e.data, filtered);
}

size_t TempStore::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, e] : entries_) {
    (void)name;
    total += e.data.ApproxBytes();
  }
  return total;
}

std::vector<std::string> VapPlan::PolledSources() const {
  std::vector<std::string> out;
  for (const auto& p : polls) {
    if (std::find(out.begin(), out.end(), p.source) == out.end()) {
      out.push_back(p.source);
    }
  }
  return out;
}

bool Vap::RepoCovers(const std::string& node,
                     const std::vector<std::string>& attrs) const {
  if (!store_->HasRepo(node)) return false;
  auto mat = ann_->MaterializedAttrs(*vdp_, node);
  return std::all_of(attrs.begin(), attrs.end(), [&](const std::string& a) {
    return ContainsAttr(mat, a);
  });
}

Result<KeyBasedChoice> Vap::TryKeyBased(const VdpNode& node,
                                        const TempRequest& req) const {
  if (node.is_leaf || !node.def ||
      node.def->kind() != NodeDef::Kind::kSpj ||
      node.def->terms().size() < 2) {
    return Status::Unsupported("key-based: node is not a multi-term SPJ");
  }
  if (!store_->HasRepo(node.name)) {
    return Status::Unsupported("key-based: node has no repository");
  }
  auto mat = ann_->MaterializedAttrs(*vdp_, node.name);
  std::set<std::string> needed(req.attrs.begin(), req.attrs.end());
  for (const auto& a : AttrsOf(req.cond)) needed.insert(a);
  std::set<std::string> virt_needed;
  for (const auto& a : needed) {
    if (!ContainsAttr(mat, a)) virt_needed.insert(a);
  }
  if (virt_needed.empty()) {
    return Status::Unsupported("key-based: nothing virtual requested");
  }
  for (const auto& term : node.def->terms()) {
    bool supplies_all = std::all_of(
        virt_needed.begin(), virt_needed.end(), [&](const std::string& a) {
          return ContainsAttr(term.project, a);
        });
    if (!supplies_all) continue;
    SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
    const auto& key = child->schema.key();
    if (key.empty()) continue;
    bool key_ok = std::all_of(key.begin(), key.end(), [&](const std::string& k) {
      return ContainsAttr(term.project, k) && ContainsAttr(mat, k) &&
             node.schema.Contains(k);
    });
    if (!key_ok) continue;

    KeyBasedChoice choice;
    choice.child = term.child;
    choice.key = key;
    std::set<std::string> child_attrs(key.begin(), key.end());
    for (const auto& a : virt_needed) child_attrs.insert(a);
    for (const auto& a : AttrsOf(term.select)) child_attrs.insert(a);
    // Clauses of the request condition referencing only child-visible attrs
    // may also be pushed; include their attrs.
    for (const auto& a : AttrsOf(req.cond)) {
      if (child->schema.Contains(a)) child_attrs.insert(a);
    }
    choice.child_attrs = NormalizeAttrs(child->schema, child_attrs);
    std::set<std::string> own(key.begin(), key.end());
    for (const auto& a : needed) {
      if (ContainsAttr(mat, a)) own.insert(a);
    }
    choice.own_attrs = NormalizeAttrs(node.schema, own);
    return choice;
  }
  return Status::Unsupported(
      "key-based: no single child supplies all virtual attributes with a "
      "materialized key");
}

Result<std::vector<TempRequest>> Vap::DerivedFrom(
    const VdpNode& node, const TempRequest& req) const {
  if (!node.def) {
    return Status::InvalidArgument("derived_from on leaf node " + node.name);
  }
  const NodeDef& def = *node.def;
  std::vector<TempRequest> out;

  if (def.kind() == NodeDef::Kind::kSpj) {
    std::set<std::string> cond_attrs = AttrsOf(req.cond);
    std::set<std::string> outer_attrs = AttrsOf(def.outer_select());
    std::set<std::string> join_attrs;
    for (const auto& jc : def.join_conds()) {
      for (const auto& a : AttrsOf(jc)) join_attrs.insert(a);
    }
    for (const auto& term : def.terms()) {
      SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
      std::set<std::string> b;
      for (const auto& a : req.attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : join_attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : outer_attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : cond_attrs) {
        if (ContainsAttr(term.project, a)) b.insert(a);
      }
      for (const auto& a : AttrsOf(term.select)) b.insert(a);
      if (b.empty() && !term.project.empty()) {
        // The term still contributes join multiplicity; keep one attribute.
        b.insert(term.project[0]);
      }
      TempRequest child_req;
      child_req.node = term.child;
      child_req.attrs = NormalizeAttrs(child->schema, b);
      child_req.cond = Expr::And(term.SelectOrTrue(),
                                 PushableClauses(req.cond, term.project));
      out.push_back(std::move(child_req));
    }
    return out;
  }

  // Union / difference: terms project identical attribute lists C.
  for (const auto& term : def.terms()) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
    std::set<std::string> b;
    if (def.kind() == NodeDef::Kind::kDiff) {
      // Difference compares whole tuples: need all of C (paper case (4)).
      b.insert(term.project.begin(), term.project.end());
    } else {
      b.insert(req.attrs.begin(), req.attrs.end());
    }
    for (const auto& a : AttrsOf(req.cond)) b.insert(a);
    for (const auto& a : AttrsOf(term.select)) b.insert(a);
    TempRequest child_req;
    child_req.node = term.child;
    child_req.attrs = NormalizeAttrs(child->schema, b);
    // σ_f distributes over ∪ and − (both sides), so the request condition is
    // pushable in full; term.select composes with it.
    child_req.cond = Expr::And(term.SelectOrTrue(),
                               PushableClauses(req.cond, term.project));
    out.push_back(std::move(child_req));
  }
  return out;
}

Result<VapPlan> Vap::Plan(const std::vector<TempRequest>& input) const {
  // Topological index per node (children-first order in the VDP).
  std::map<std::string, size_t> topo_index;
  for (size_t i = 0; i < vdp_->TopoOrder().size(); ++i) {
    topo_index[vdp_->TopoOrder()[i]] = i;
  }

  // Pending requests keyed by topo index; processed highest (parents) first.
  std::map<size_t, TempRequest> pending;
  auto merge_into_pending = [&](TempRequest req) -> Status {
    SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(req.node));
    // Normalize: cond attrs must be covered by attrs.
    std::set<std::string> attrs(req.attrs.begin(), req.attrs.end());
    for (const auto& a : AttrsOf(req.cond)) attrs.insert(a);
    req.attrs = NormalizeAttrs(node->schema, attrs);
    if (!req.cond) req.cond = Expr::True();
    size_t idx = topo_index.at(req.node);
    auto it = pending.find(idx);
    if (it == pending.end()) {
      pending.emplace(idx, std::move(req));
      return Status::OK();
    }
    // Merge: union attrs, OR conditions (paper step 2b).
    std::set<std::string> merged(it->second.attrs.begin(),
                                 it->second.attrs.end());
    merged.insert(req.attrs.begin(), req.attrs.end());
    it->second.attrs = NormalizeAttrs(node->schema, merged);
    it->second.cond = Expr::Or(it->second.cond, req.cond);
    return Status::OK();
  };

  for (const auto& req : input) {
    SQ_RETURN_IF_ERROR(merge_into_pending(req));
  }

  VapPlan plan;
  std::vector<TempRequest> processed;          // parents-first
  std::vector<int> processed_key_based;        // index into kb_choices or -1
  std::vector<KeyBasedChoice> kb_choices;

  while (!pending.empty()) {
    auto it = std::prev(pending.end());  // highest topo index = parent-most
    TempRequest req = std::move(it->second);
    pending.erase(it);
    SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(req.node));

    if (node->is_leaf) {
      processed.push_back(std::move(req));
      processed_key_based.push_back(-1);
      continue;
    }
    if (RepoCovers(req.node, req.attrs)) {
      continue;  // served by the repository; no temp needed
    }

    int kb_index = -1;
    std::vector<TempRequest> children;
    if (strategy_ != VapStrategy::kChildBased) {
      auto kb = TryKeyBased(*node, req);
      if (kb.ok()) {
        bool use_kb = true;
        if (strategy_ == VapStrategy::kAuto) {
          // Benefit test: child-based needs temps for every term whose repo
          // does not cover it; key-based needs at most one.
          SQ_ASSIGN_OR_RETURN(std::vector<TempRequest> cb,
                              DerivedFrom(*node, req));
          size_t cb_cost = 0;
          for (const auto& c : cb) {
            if (!RepoCovers(c.node, c.attrs)) ++cb_cost;
          }
          size_t kb_cost = RepoCovers(kb->child, kb->child_attrs) ? 0 : 1;
          use_kb = kb_cost < cb_cost;
        }
        if (use_kb) {
          TempRequest child_req;
          child_req.node = kb->child;
          child_req.attrs = kb->child_attrs;
          SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(kb->child));
          (void)child;
          child_req.cond = PushableClauses(req.cond, kb->child_attrs);
          children.push_back(std::move(child_req));
          kb_choices.push_back(std::move(kb).value());
          kb_index = static_cast<int>(kb_choices.size()) - 1;
        }
      }
    }
    if (kb_index < 0) {
      SQ_ASSIGN_OR_RETURN(children, DerivedFrom(*node, req));
    }
    for (auto& c : children) {
      if (RepoCovers(c.node, c.attrs)) continue;
      SQ_RETURN_IF_ERROR(merge_into_pending(std::move(c)));
    }
    processed.push_back(std::move(req));
    processed_key_based.push_back(kb_index);
  }

  // Build order: children first.
  for (size_t i = processed.size(); i-- > 0;) {
    size_t out_idx = plan.build_order.size();
    const TempRequest& req = processed[i];
    const VdpNode* node = vdp_->Find(req.node);
    if (node->is_leaf) {
      VapPlan::LeafPoll poll;
      poll.request_index = out_idx;
      poll.source = node->source_db;
      poll.leaf_node = node->name;
      poll.spec.relation = node->source_relation;
      poll.spec.attrs = req.attrs;
      poll.spec.cond = req.cond;
      plan.polls.push_back(std::move(poll));
    } else if (processed_key_based[i] >= 0) {
      plan.key_based[out_idx] = kb_choices[processed_key_based[i]];
    }
    plan.build_order.push_back(req);
  }
  return plan;
}

Result<std::shared_ptr<const Relation>> Vap::ChildState(
    const std::string& child, const std::vector<std::string>& attrs,
    const TempStore& temps) const {
  // Non-owning aliases: the store and the temp store both outlive the
  // assembly that consumes the handle.
  if (RepoCovers(child, attrs)) {
    SQ_ASSIGN_OR_RETURN(const Relation* repo, store_->Repo(child));
    return std::shared_ptr<const Relation>(std::shared_ptr<void>(), repo);
  }
  const TempStore::Entry* e = temps.Find(child);
  if (e == nullptr || !temps.Covers(child, attrs)) {
    return Status::Internal("VAP: no state for node " + child +
                            " covering [" + Join(attrs, ",") +
                            "] (planning bug)");
  }
  return std::shared_ptr<const Relation>(std::shared_ptr<void>(), &e->data);
}

Result<Relation> Vap::Assemble(const TempRequest& req, const TempStore& temps,
                               const KeyBasedChoice* key_based) const {
  SQ_ASSIGN_OR_RETURN(const VdpNode* node, vdp_->Get(req.node));
  const NodeDef& def = *node->def;
  Expr::Ptr req_cond = req.cond ? req.cond : Expr::True();

  if (key_based != nullptr) {
    // Own materialized part.
    SQ_ASSIGN_OR_RETURN(const Relation* repo, store_->Repo(req.node));
    SQ_ASSIGN_OR_RETURN(
        Relation own,
        OpProject(*repo, key_based->own_attrs, Semantics::kBag));
    // Join own x child on the key, dropping the child's duplicate key cols.
    // The probe key follows the index's attribute order (which may differ
    // from key_based->key for a persistent index found by attr *set*).
    auto probe_join = [&](const HashIndex& index,
                          const Schema& probed_schema) -> Result<Relation> {
      std::vector<size_t> own_key_pos;
      for (const auto& k : index.attrs()) {
        own_key_pos.push_back(*own.schema().IndexOf(k));
      }
      std::vector<std::string> extra;  // child attrs not already in `own`
      std::vector<size_t> extra_pos;   // ... by position in probed_schema
      for (const auto& a : key_based->child_attrs) {
        if (!own.schema().Contains(a)) {
          extra.push_back(a);
          extra_pos.push_back(*probed_schema.IndexOf(a));
        }
      }
      std::vector<Attribute> out_attrs = own.schema().attrs();
      for (size_t p : extra_pos) out_attrs.push_back(probed_schema.attrs()[p]);
      Relation joined(Schema(std::move(out_attrs)), Semantics::kBag);
      Status st = Status::OK();
      own.ForEach([&](const Tuple& t, int64_t count) {
        if (!st.ok()) return;
        for (const auto& [ct, cc] : index.Probe(t.Project(own_key_pos))) {
          Tuple row = t;
          for (size_t p : extra_pos) row.Append(ct.at(p));
          st = joined.Insert(std::move(row), count * cc);
        }
      });
      if (!st.ok()) return st;
      return joined;
    };
    // Child part: prefer the store's persistent (child, key) index over
    // projecting the child state and building a throwaway hash table. The
    // persistent index holds full repository tuples; probing it and summing
    // per-tuple counts is equivalent to probing the bag projection, because
    // repository tuples that agree on the projected attrs produce identical
    // rows whose counts Relation::Insert accumulates.
    const HashIndex* repo_index = nullptr;
    const Relation* child_repo = nullptr;
    if (store_->indexes_enabled() &&
        RepoCovers(key_based->child, key_based->child_attrs)) {
      SQ_ASSIGN_OR_RETURN(child_repo, store_->Repo(key_based->child));
      repo_index = store_->indexes().Find(key_based->child, key_based->key);
      if (repo_index != nullptr &&
          repo_index->relation_attrs() !=
              child_repo->schema().AttributeNames()) {
        repo_index = nullptr;  // registration no longer matches; fall back
      }
    }
    auto child_based = [&]() -> Result<Relation> {
      SQ_ASSIGN_OR_RETURN(
          std::shared_ptr<const Relation> child,
          ChildState(key_based->child, key_based->child_attrs, temps));
      SQ_ASSIGN_OR_RETURN(
          Relation child_proj,
          OpProject(*child, key_based->child_attrs, Semantics::kBag));
      SQ_ASSIGN_OR_RETURN(HashIndex index,
                          HashIndex::Build(child_proj, key_based->key));
      return probe_join(index, child_proj.schema());
    };
    SQ_ASSIGN_OR_RETURN(Relation joined,
                        repo_index != nullptr
                            ? probe_join(*repo_index, child_repo->schema())
                            : child_based());
    SQ_ASSIGN_OR_RETURN(Relation selected, OpSelect(joined, req_cond));
    return OpProject(selected, req.attrs, Semantics::kBag);
  }

  // Child-based assembly per def kind.
  if (def.kind() == NodeDef::Kind::kSpj) {
    std::set<std::string> cond_attrs = AttrsOf(req_cond);
    std::set<std::string> outer_attrs = AttrsOf(def.outer_select());
    std::set<std::string> join_attrs;
    for (const auto& jc : def.join_conds()) {
      for (const auto& a : AttrsOf(jc)) join_attrs.insert(a);
    }
    std::vector<Relation> term_rels;
    for (const auto& term : def.terms()) {
      std::set<std::string> p;
      for (const auto& a : req.attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      for (const auto& a : join_attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      for (const auto& a : outer_attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      for (const auto& a : cond_attrs) {
        if (ContainsAttr(term.project, a)) p.insert(a);
      }
      if (p.empty() && !term.project.empty()) p.insert(term.project[0]);
      SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
      std::vector<std::string> proj = NormalizeAttrs(child->schema, p);
      std::set<std::string> b = p;
      for (const auto& a : AttrsOf(term.select)) b.insert(a);
      SQ_ASSIGN_OR_RETURN(
          std::shared_ptr<const Relation> state,
          ChildState(term.child, NormalizeAttrs(child->schema, b), temps));
      SQ_ASSIGN_OR_RETURN(Relation sel, OpSelect(*state, term.SelectOrTrue()));
      SQ_ASSIGN_OR_RETURN(Relation tr, OpProject(sel, proj, Semantics::kBag));
      term_rels.push_back(std::move(tr));
    }
    Relation acc = std::move(term_rels[0]);
    for (size_t i = 1; i < term_rels.size(); ++i) {
      SQ_ASSIGN_OR_RETURN(acc,
                          OpJoin(acc, term_rels[i], def.join_conds()[i - 1]));
    }
    SQ_ASSIGN_OR_RETURN(acc,
                        OpSelect(acc, Expr::And(def.outer_select(), req_cond)));
    return OpProject(acc, req.attrs, Semantics::kBag);
  }

  // Union / difference.
  std::vector<Relation> term_rels;
  for (const auto& term : def.terms()) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* child, vdp_->Get(term.child));
    std::set<std::string> b;
    if (def.kind() == NodeDef::Kind::kDiff) {
      b.insert(term.project.begin(), term.project.end());
    } else {
      b.insert(req.attrs.begin(), req.attrs.end());
    }
    for (const auto& a : AttrsOf(req_cond)) b.insert(a);
    std::vector<std::string> proj = NormalizeAttrs(node->schema, b);
    std::set<std::string> needed = b;
    for (const auto& a : AttrsOf(term.select)) needed.insert(a);
    SQ_ASSIGN_OR_RETURN(
        std::shared_ptr<const Relation> state,
        ChildState(term.child, NormalizeAttrs(child->schema, needed), temps));
    SQ_ASSIGN_OR_RETURN(
        Relation sel,
        OpSelect(*state, Expr::And(term.SelectOrTrue(), req_cond)));
    SQ_ASSIGN_OR_RETURN(Relation tr, OpProject(sel, proj, Semantics::kBag));
    term_rels.push_back(std::move(tr));
  }
  if (def.kind() == NodeDef::Kind::kUnion) {
    SQ_ASSIGN_OR_RETURN(Relation u,
                        OpUnion(term_rels[0], term_rels[1], Semantics::kBag));
    return OpProject(u, req.attrs, Semantics::kBag);
  }
  SQ_ASSIGN_OR_RETURN(Relation d,
                      OpDiff(term_rels[0].ToSet(), term_rels[1].ToSet()));
  return OpProject(d, req.attrs, Semantics::kBag);
}

Result<TempStore> Vap::Execute(const VapPlan& plan, const PollFn& poll,
                               const CompensationFn& comp) const {
  TempStore temps;
  // Map from request index to its poll, if any.
  std::map<size_t, const VapPlan::LeafPoll*> poll_at;
  for (const auto& p : plan.polls) poll_at[p.request_index] = &p;

  for (size_t i = 0; i < plan.build_order.size(); ++i) {
    // Step-boundary cancellation: each build step is a bounded unit of
    // work, so a cancelled query (deadline or memory budget) stops before
    // assembling the next temporary instead of finishing the whole plan.
    SQ_RETURN_IF_ERROR(CheckCancel());
    const TempRequest& req = plan.build_order[i];
    auto pit = poll_at.find(i);
    if (pit != poll_at.end()) {
      const VapPlan::LeafPoll& lp = *pit->second;
      if (!poll) {
        return Status::FailedPrecondition(
            "VAP plan requires polling source " + lp.source +
            " but no poll function was provided");
      }
      SQ_ASSIGN_OR_RETURN(Relation answer, poll(lp.source, lp.spec));
      ++temps.polls;
      if (comp) {
        SQ_ASSIGN_OR_RETURN(const VdpNode* leaf, vdp_->Get(lp.leaf_node));
        SQ_ASSIGN_OR_RETURN(
            Delta pending,
            comp(lp.source, lp.spec.relation, leaf->schema));
        if (!pending.Empty()) {
          // Eager Compensation: roll the answer back to the reflected state
          // by removing the pending (unreflected) updates.
          SQ_ASSIGN_OR_RETURN(
              Delta filtered,
              FilterDeltaToLeafParent(pending, lp.spec.cond, lp.spec.attrs));
          SQ_RETURN_IF_ERROR(ApplyDelta(&answer, filtered.Inverse()));
        }
      }
      temps.polled_tuples += static_cast<uint64_t>(answer.TotalSize());
      TempStore::Entry entry;
      entry.data = std::move(answer);
      entry.attrs = req.attrs;
      entry.cond = req.cond;
      temps.Put(req.node, std::move(entry));
      continue;
    }
    const KeyBasedChoice* kb = nullptr;
    auto kit = plan.key_based.find(i);
    if (kit != plan.key_based.end()) kb = &kit->second;
    SQ_ASSIGN_OR_RETURN(Relation data, Assemble(req, temps, kb));
    TempStore::Entry entry;
    entry.data = std::move(data);
    entry.attrs = req.attrs;
    entry.cond = req.cond;
    temps.Put(req.node, std::move(entry));
  }
  return temps;
}

Result<TempStore> Vap::Materialize(const std::vector<TempRequest>& input,
                                   const PollFn& poll,
                                   const CompensationFn& comp) const {
  SQ_ASSIGN_OR_RETURN(VapPlan plan, Plan(input));
  return Execute(plan, poll, comp);
}

}  // namespace squirrel
