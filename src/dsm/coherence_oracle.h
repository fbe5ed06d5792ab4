// Cluster-global DSM coherence oracle (test harness; see DESIGN.md "Fault model and oracle").
//
// The oracle shadows every shared page with a reference copy plus a version counter and checks
// protocol invariants at each observable state transition (page serves, installs, ownership
// grants, invalidations) and at every globally quiescent point (the combining step of a
// tournament/central barrier, where every node has drained its outstanding fetches):
//
//  * single-writer / multiple-reader — at most one owner per page, ever; a write-granted page
//    implies no other valid copy (write-invalidate, migratory);
//  * version monotonicity — a node never installs an older version of a page than it last saw;
//  * no stale bytes after invalidation — under write-invalidate, installed read copies must be
//    byte-identical to the shadow (a copy that was invalidated in flight must be discarded, not
//    installed);
//  * barrier equality — at a quiescent point there is exactly one owner per page, no fetch is in
//    flight, every surviving copy is byte-identical to the owner's frame, and (write-invalidate)
//    every read-only holder is tracked in the owner's copyset.
//
// Implicit-invalidate deliberately allows stale read copies *within* an epoch (they die at the
// next sync point), so the per-install byte check is skipped under that protocol; the barrier
// sweep still demands that no copy survives the sync point and that frames agree.
//
// The diff protocol is multiple-writer by design, so its writable copies are tracked through
// dedicated hooks instead of the single-writer grant invariant: concurrent diff writers to
// *disjoint* byte ranges of a page are legal, but two merges from different senders in the same
// epoch whose runs overlap are a data race and are flagged. Every protocol check consults the
// per-page protocol (DsmNode::page_pcp), so adapted clusters mixing implicit-invalidate and diff
// groups are checked per group.
//
// Wiring: construct one CoherenceOracle, point ClusterConfig::coherence_oracle at it, and every
// DsmNode attaches itself and reports transitions through DFIL_ORACLE hooks, which cost one
// null-pointer check when no oracle is attached. Violations are recorded (capped) rather than
// aborting, so the fuzz driver can report the failing (scenario, seed) and keep sweeping.
#ifndef DFIL_DSM_COHERENCE_ORACLE_H_
#define DFIL_DSM_COHERENCE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/dsm_node.h"
#include "src/net/wire.h"

// Transition hook: calls `oracle->call` when an oracle is attached (`oracle` is non-null).
#define DFIL_ORACLE(oracle, call) \
  if ((oracle) == nullptr) {      \
  } else /* NOLINT */             \
    (oracle)->call

namespace dfil::dsm {

class CoherenceOracle {
 public:
  CoherenceOracle() = default;

  CoherenceOracle(const CoherenceOracle&) = delete;
  CoherenceOracle& operator=(const CoherenceOracle&) = delete;

  // Registers a node's DsmNode for live-state inspection. Called by DsmNode::AttachOracle; the
  // first attach fixes the layout and allocates the shadow region.
  void AttachNode(NodeId node, DsmNode* dsm);

  // --- Transition hooks (called from DsmNode via DFIL_ORACLE) ---
  // The owner served a read copy of `page`'s group to `to` (single-page or bulk path).
  void OnServeRead(NodeId server, NodeId to, PageId page);
  // The owner built an ownership-transfer reply for `to`; called before the server demotes.
  void OnServeTransfer(NodeId server, NodeId to, PageId page);
  // A lost transfer was re-served from the grant record (server must be a non-owner bystander).
  void OnServeGrantReserve(NodeId server, NodeId to, PageId page);
  // A read copy of `page`'s group was installed at `node` (state is kReadOnly).
  void OnInstallRead(NodeId node, PageId page);
  // `node` completed a write acquisition of `page`'s group (transfer install or in-place
  // upgrade); state is kReadWrite with ownership.
  void OnWriteGranted(NodeId node, PageId page);
  // `node` dropped its read copy of `page` on an explicit invalidation.
  void OnInvalidated(NodeId node, PageId page);
  // `node` discarded an in-flight install because the copy was invalidated before it landed.
  void OnDiscardedInstall(NodeId node, PageId page);
  // Diff protocol: `node` twinned `page` and promoted its non-owner copy to writable.
  void OnTwinWrite(NodeId node, PageId page);
  // Diff protocol: `node` installed a writable (unowned, twinned) copy of `page`'s group.
  void OnDiffWriteInstall(NodeId node, PageId page);
  // Diff protocol: home `home` merged `src`'s runs for `page` from its epoch-`epoch` flush.
  void OnDiffMergeApplied(NodeId home, NodeId src, PageId page, uint64_t epoch,
                          const std::vector<net::DiffRun>& runs);

  // Global sweep at a quiescent point: called by the barrier champion once every node has
  // contributed (and therefore drained its fetches and run AtSyncPoint).
  void AtQuiescentPoint();

  // Invoked once, the moment the first violation is recorded (the run keeps going afterwards).
  // Lets a harness snapshot flight-recorder rings at the failure point instead of at end of run,
  // when they may have wrapped past the interesting window. May be empty.
  std::function<void()> on_first_violation;

  // --- Results ---
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t checks_run() const { return checks_run_; }
  uint64_t quiescent_points() const { return quiescent_points_; }
  uint64_t installs_discarded() const { return installs_discarded_; }
  uint64_t version_of(PageId page) const { return version_[page]; }

 private:
  const PageEntry& Entry(NodeId node, PageId page) const;
  const std::byte* Frame(NodeId node, PageId page) const;
  // Folds the serving owner's frame into the shadow, bumping the version when the bytes changed
  // (the moment a private write burst becomes observable).
  void SyncShadow(NodeId owner, PageId page);
  bool FrameEqualsShadow(NodeId node, PageId page) const;
  void Violate(const std::string& what);

  const GlobalLayout* layout_ = nullptr;
  std::vector<DsmNode*> nodes_;
  std::vector<std::byte> shadow_;
  std::vector<uint64_t> version_;
  // version_[] value each node last installed, for the monotonicity check.
  std::vector<std::vector<uint64_t>> installed_version_;

  // Merge log for the overlapping-writer check: per page, the runs every sender merged in the
  // current epoch (older epochs are pruned as newer merges arrive — cross-epoch overlap is
  // ordinary sequential reuse, not a race).
  struct MergeRec {
    NodeId src;
    uint64_t epoch;
    std::vector<net::DiffRun> runs;
  };
  std::map<PageId, std::vector<MergeRec>> merge_log_;

  std::vector<std::string> violations_;
  uint64_t checks_run_ = 0;
  uint64_t quiescent_points_ = 0;
  uint64_t installs_discarded_ = 0;

  static constexpr size_t kMaxRecordedViolations = 64;
};

}  // namespace dfil::dsm

#endif  // DFIL_DSM_COHERENCE_ORACLE_H_
