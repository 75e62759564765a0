#include "mediator/iup.h"

#include <set>
#include <utility>

#include "common/strings.h"
#include "delta/delta_algebra.h"
#include "vdp/rules.h"

namespace squirrel {

void IupStats::Merge(const IupStats& other) {
  rules_fired += other.rules_fired;
  atoms_in += other.atoms_in;
  atoms_propagated += other.atoms_propagated;
  nodes_processed += other.nodes_processed;
  polls += other.polls;
  polled_tuples += other.polled_tuples;
  temps_built += other.temps_built;
  poll_retries += other.poll_retries;
}

namespace {

/// How many terms of \p def reference \p child.
size_t PositionsOf(const NodeDef& def, const std::string& child) {
  size_t n = 0;
  for (const auto& t : def.terms()) {
    if (t.child == child) ++n;
  }
  return n;
}

}  // namespace

Result<std::vector<TempRequest>> Iup::PrepareTempRequests(
    const std::map<std::string, Delta>& leaf_deltas) const {
  // Affected set: exact at leaf-parents (filter the actual deltas),
  // conservative above.
  std::set<std::string> affected;
  for (const auto& [leaf, delta] : leaf_deltas) {
    if (delta.Empty()) continue;
    for (const auto& parent_name : vdp_->Parents(leaf)) {
      SQ_ASSIGN_OR_RETURN(const VdpNode* parent, vdp_->Get(parent_name));
      for (const auto& term : parent->def->terms()) {
        if (term.child != leaf) continue;
        SQ_ASSIGN_OR_RETURN(
            Delta filtered,
            FilterDeltaToLeafParent(delta, term.SelectOrTrue(),
                                    term.project));
        if (!filtered.Empty()) {
          affected.insert(parent_name);
          break;
        }
      }
    }
  }
  for (const auto& name : vdp_->TopoOrder()) {
    const VdpNode* node = vdp_->Find(name);
    if (node->is_leaf || affected.count(name)) continue;
    for (const auto& child : node->def->Children()) {
      if (affected.count(child)) {
        affected.insert(name);
        break;
      }
    }
  }

  // For every affected parent p and affected child x, the kernel will fire
  // rules from x into p; those firings read the states of:
  //  - every term over a different child,
  //  - terms over x itself when p is a difference node (presence deltas) or
  //    x occurs at several positions (self-joins).
  std::vector<TempRequest> requests;
  for (const auto& parent_name : affected) {
    const VdpNode* parent = vdp_->Find(parent_name);
    if (parent->is_leaf) continue;
    const NodeDef& def = *parent->def;
    for (const auto& child : def.Children()) {
      bool child_affected =
          affected.count(child) > 0 || leaf_deltas.count(child) > 0;
      if (!child_affected) continue;
      bool self_needed = def.kind() == NodeDef::Kind::kDiff ||
                         PositionsOf(def, child) > 1;
      for (const auto& term : def.terms()) {
        bool needed = term.child != child || self_needed;
        if (!needed) continue;
        const VdpNode* term_child = vdp_->Find(term.child);
        if (term_child->is_leaf) continue;  // leaf states are never read
        auto attrs = term.NeededAttrs();
        if (vap_->RepoCovers(term.child, attrs)) continue;
        TempRequest req;
        req.node = term.child;
        req.attrs = attrs;
        req.cond = term.SelectOrTrue();
        requests.push_back(std::move(req));
      }
    }
  }
  // Dedup: a child read by several affected parents (or several terms with
  // the same select) produces identical requests; dropping them here keeps
  // Vap::Plan from OR-merging a condition with itself and re-expanding the
  // same subtree per duplicate.
  std::set<std::string> seen;
  std::vector<TempRequest> deduped;
  deduped.reserve(requests.size());
  for (auto& req : requests) {
    if (seen.insert(req.ToString()).second) deduped.push_back(std::move(req));
  }
  return deduped;
}

Result<IupStats> Iup::RunKernel(
    const std::map<std::string, Delta>& leaf_deltas, TempStore* temps) {
  NodeStateFn states =
      [this, temps](const std::string& node,
                    const std::vector<std::string>& attrs)
      -> Result<std::shared_ptr<const Relation>> {
    if (vap_->RepoCovers(node, attrs)) {
      SQ_ASSIGN_OR_RETURN(const Relation* repo, store_->Repo(node));
      // Non-owning alias; the store outlives the kernel run.
      return std::shared_ptr<const Relation>(std::shared_ptr<void>(), repo);
    }
    if (temps != nullptr && temps->Covers(node, attrs)) {
      return std::shared_ptr<const Relation>(std::shared_ptr<void>(),
                                             &temps->Find(node)->data);
    }
    return Status::Internal(
        "IUP kernel: no repository or temporary for node " + node +
        " covering [" + Join(attrs, ",") + "]");
  };

  // Serve the store's persistent indexes to the rule-firing machinery. Only
  // repository-backed state may be probed through an index (temps have no
  // persistent indexes), and FireSpj itself refuses indexed access to
  // new-state self-join occurrences, where the repository is stale.
  IndexProbeFn probes;
  if (store_->indexes_enabled()) {
    probes = [this](const std::string& node,
                    const std::vector<std::string>& attrs) -> IndexedState {
      IndexedState out;
      const HashIndex* index = store_->indexes().Find(node, attrs);
      if (index == nullptr) return out;
      auto repo = store_->Repo(node);
      if (!repo.ok()) return out;
      out.repo = *repo;
      out.index = index;
      return out;
    };
  }

  IupStats stats;

  // Pending deltas (the ΔR repositories of §6.4).
  std::map<std::string, Delta> pending;

  // Fires every rule out of \p node into its parents' pending deltas.
  auto fire_into_parents = [&](const std::string& node,
                               const Delta& delta) -> Status {
    for (const auto& parent_name : vdp_->Parents(node)) {
      const VdpNode* parent = vdp_->Find(parent_name);
      SQ_ASSIGN_OR_RETURN(Delta contribution,
                          FireEdgeRules(*parent, node, delta, states, probes));
      ++stats.rules_fired;
      stats.atoms_propagated += contribution.AtomCount();
      auto it = pending.try_emplace(parent_name, Delta(parent->schema)).first;
      SQ_RETURN_IF_ERROR(it->second.SmashInPlace(contribution));
    }
    return Status::OK();
  };

  // Initialization (step 1): fire all rules out of the changed leaves.
  for (const auto& [leaf, delta] : leaf_deltas) {
    if (delta.Empty()) continue;
    stats.atoms_in += delta.AtomCount();
    SQ_ASSIGN_OR_RETURN(const VdpNode* leaf_node, vdp_->Get(leaf));
    if (!leaf_node->is_leaf) {
      return Status::InvalidArgument("leaf delta for non-leaf node " + leaf);
    }
    SQ_RETURN_IF_ERROR(fire_into_parents(leaf, delta));
  }

  // Upward traversal (step 2): process non-leaf nodes children-first.
  for (const auto& name : vdp_->TopoOrder()) {
    const VdpNode* node = vdp_->Find(name);
    if (node->is_leaf) continue;
    auto pit = pending.find(name);
    if (pit == pending.end() || pit->second.Empty()) continue;
    const Delta& delta = pit->second;

    // Fire all rules out of this node before applying its delta.
    SQ_RETURN_IF_ERROR(fire_into_parents(name, delta));

    // Process the node: apply the delta to repository and temporary.
    if (store_->HasRepo(name)) {
      SQ_RETURN_IF_ERROR(store_->ApplyNodeDelta(name, delta));
    }
    if (temps != nullptr) {
      SQ_RETURN_IF_ERROR(temps->ApplyNodeDelta(name, delta));
    }
    ++stats.nodes_processed;
    pending.erase(pit);  // ΔR := ∅
  }
  return stats;
}

Result<IupStats> Iup::ProcessBatch(
    const std::map<std::string, Delta>& leaf_deltas, const Vap::PollFn& poll,
    const Vap::CompensationFn& comp) {
  SQ_ASSIGN_OR_RETURN(std::vector<TempRequest> requests,
                      PrepareTempRequests(leaf_deltas));
  TempStore temps;
  if (!requests.empty()) {
    SQ_ASSIGN_OR_RETURN(temps, vap_->Materialize(requests, poll, comp));
  }
  SQ_ASSIGN_OR_RETURN(IupStats stats, RunKernel(leaf_deltas, &temps));
  stats.polls = temps.polls;
  stats.polled_tuples = temps.polled_tuples;
  stats.temps_built = temps.Count();
  return stats;
}

}  // namespace squirrel
