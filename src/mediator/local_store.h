// The mediator's local store (paper §4): one repository per VDP node with at
// least one materialized attribute, holding the node's materialized
// projection π_mat(node contents) with the node's semantics (bag for SPJ/
// union nodes, set for difference nodes).

#ifndef SQUIRREL_MEDIATOR_LOCAL_STORE_H_
#define SQUIRREL_MEDIATOR_LOCAL_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/index.h"
#include "relational/relation.h"
#include "vdp/annotation.h"
#include "vdp/vdp.h"

namespace squirrel {

/// \brief Repositories for the materialized portion of an annotated VDP.
class LocalStore {
 public:
  /// Creates empty repositories per \p vdp and \p ann (neither owned; both
  /// must outlive the store). Leaves and fully virtual nodes get none.
  /// When \p enable_indexes is set, an index-advisor pass over the VDP's
  /// terms registers the equi-join attribute sets that rule firing and VAP
  /// key-based construction probe, and every registered index is kept in
  /// lock-step with its repository from then on.
  LocalStore(const Vdp* vdp, const Annotation* ann,
             bool enable_indexes = true);

  /// True iff \p node has a repository (>= 1 materialized attribute).
  bool HasRepo(const std::string& node) const;

  /// The repository of \p node; NotFound for virtual nodes/leaves.
  Result<const Relation*> Repo(const std::string& node) const;

  /// Mutable repository access (initial load). Direct mutation bypasses
  /// index maintenance; callers must RebuildIndexes(node) afterwards.
  Result<Relation*> MutableRepo(const std::string& node);

  /// Rebuilds every registered index on \p node from its repository.
  Status RebuildIndexes(const std::string& node);

  /// Replaces the repository contents of \p node. The relation's attribute
  /// names must equal the node's materialized attributes.
  Status SetRepo(const std::string& node, Relation contents);

  /// Applies a full-attribute node delta to the repository, narrowing it to
  /// the materialized attributes first (bag projection commutes with apply).
  /// For set nodes the delta must already be a presence delta.
  Status ApplyNodeDelta(const std::string& node, const Delta& full_delta);

  /// Observer invoked by ApplyNodeDelta after a successful apply with the
  /// NARROWED delta (the exact change the repository absorbed). The write-
  /// ahead log records these to make update commits replayable; replaying
  /// the narrowed delta against the pre-state reproduces the repository
  /// byte for byte.
  using ApplyListener =
      std::function<void(const std::string& node, const Delta& narrowed)>;

  /// Installs (or clears, with nullptr) the apply listener.
  void SetApplyListener(ApplyListener listener) {
    apply_listener_ = std::move(listener);
  }

  /// Names of nodes with repositories, in VDP topological order.
  std::vector<std::string> MaterializedNodes() const;

  /// Total approximate bytes across repositories (space measurements,
  /// experiments E2/E10).
  size_t ApproxBytes() const;

  /// The VDP this store serves.
  const Vdp& vdp() const { return *vdp_; }
  /// The annotation this store serves.
  const Annotation& annotation() const { return *ann_; }

  /// Whether persistent indexes are maintained.
  bool indexes_enabled() const { return indexes_enabled_; }
  /// The persistent index registry (empty when indexes are disabled).
  const IndexManager& indexes() const { return indexes_; }

  /// Always 0: the store keeps no versions. HardState (checkpoint format
  /// v3) still carries this field, so writers of checkpoints take it from
  /// here and stay byte-compatible with logs written when it counted
  /// published snapshots.
  uint64_t SnapshotVersion() const { return 0; }

 private:
  const Vdp* vdp_;
  const Annotation* ann_;
  bool indexes_enabled_;
  std::map<std::string, Relation> repos_;
  IndexManager indexes_;
  ApplyListener apply_listener_;
};

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_LOCAL_STORE_H_
