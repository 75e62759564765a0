#include "mediator/local_store.h"

#include "delta/delta_algebra.h"
#include "vdp/rules.h"

namespace squirrel {

LocalStore::LocalStore(const Vdp* vdp, const Annotation* ann,
                       bool enable_indexes)
    : vdp_(vdp), ann_(ann), indexes_enabled_(enable_indexes) {
  for (const auto& name : vdp_->DerivedNames()) {
    const VdpNode* node = vdp_->Find(name);
    auto mat = ann_->MaterializedAttrs(*vdp_, name);
    if (mat.empty()) continue;
    auto schema = node->schema.Project(mat);
    // Node schemas were validated at VDP construction; projection onto a
    // subset of attrs cannot fail.
    repos_.emplace(name,
                   Relation(std::move(schema).value(), node->semantics()));
  }
  if (indexes_enabled_) {
    AdviseIndexes(*vdp_, *ann_, &indexes_);
    for (const auto& [name, rel] : repos_) {
      // Repos are empty here; this just instantiates the advised indexes.
      (void)indexes_.Rebuild(name, rel);
    }
  }
}

bool LocalStore::HasRepo(const std::string& node) const {
  return repos_.count(node) > 0;
}

Result<const Relation*> LocalStore::Repo(const std::string& node) const {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return &it->second;
}

Result<Relation*> LocalStore::MutableRepo(const std::string& node) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return &it->second;
}

Status LocalStore::SetRepo(const std::string& node, Relation contents) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  if (contents.schema().AttributeNames() !=
      it->second.schema().AttributeNames()) {
    return Status::InvalidArgument(
        "repository contents for " + node +
        " do not match the materialized attribute set");
  }
  it->second = std::move(contents);
  if (indexes_enabled_) {
    SQ_RETURN_IF_ERROR(indexes_.Rebuild(node, it->second));
  }
  return Status::OK();
}

Status LocalStore::RebuildIndexes(const std::string& node) {
  if (!indexes_enabled_) return Status::OK();
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  return indexes_.Rebuild(node, it->second);
}

Status LocalStore::ApplyNodeDelta(const std::string& node,
                                  const Delta& full_delta) {
  auto it = repos_.find(node);
  if (it == repos_.end()) {
    return Status::NotFound("no materialized repository for node: " + node);
  }
  const auto repo_attrs = it->second.schema().AttributeNames();
  if (full_delta.schema().AttributeNames() == repo_attrs) {
    SQ_RETURN_IF_ERROR(ApplyDelta(&it->second, full_delta));
    if (indexes_enabled_) {
      SQ_RETURN_IF_ERROR(indexes_.ApplyDelta(node, full_delta));
    }
    if (apply_listener_) apply_listener_(node, full_delta);
    return Status::OK();
  }
  SQ_ASSIGN_OR_RETURN(Delta narrowed, DeltaProject(full_delta, repo_attrs));
  SQ_RETURN_IF_ERROR(ApplyDelta(&it->second, narrowed));
  if (indexes_enabled_) {
    SQ_RETURN_IF_ERROR(indexes_.ApplyDelta(node, narrowed));
  }
  if (apply_listener_) apply_listener_(node, narrowed);
  return Status::OK();
}

std::vector<std::string> LocalStore::MaterializedNodes() const {
  std::vector<std::string> out;
  for (const auto& name : vdp_->TopoOrder()) {
    if (HasRepo(name)) out.push_back(name);
  }
  return out;
}

size_t LocalStore::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, rel] : repos_) {
    (void)name;
    total += rel.ApproxBytes();
  }
  return total;
}

}  // namespace squirrel
