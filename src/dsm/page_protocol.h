// The diff engine: the one page-consistency protocol whose algorithm does not fit in DsmNode's
// per-protocol fact table (dsm_node.cc, kPcpFacts).
//
// kDiff is multiple-writer, barrier-merged diffs (TreadMarks-style twins at user level). Ownership
// never moves: the home node serves writable *copies*, each writer twins the page on first write,
// and at the next synchronization point every writer run-length-encodes its twin/page delta and
// sends it to the home, which merges the runs into its frame. N false-sharing writers of one page
// exchange O(bytes changed) instead of N full-page transfers. Copies die at every sync point like
// implicit-invalidate, so the merged frame is re-fetched next epoch — correct for the same
// barrier-structured programs implicit-invalidate requires.
//
// DsmNode owns one DiffProtocol and calls it at the points only the diff protocol has: the first
// write to a diff copy (twin in place), a write fault answered with a diff copy, the sync-point
// flush, the home's merge service, and the sync-batch flush-set re-fetch. The engine reads and
// changes DsmNode state through friendship; DESIGN.md §10 describes the protocol.
#ifndef DFIL_DSM_PAGE_PROTOCOL_H_
#define DFIL_DSM_PAGE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/common/types.h"
#include "src/net/wire.h"

namespace dfil::dsm {

class DsmNode;

class DiffProtocol {
 public:
  explicit DiffProtocol(DsmNode& node) : node_(node) {}

  DiffProtocol(const DiffProtocol&) = delete;
  DiffProtocol& operator=(const DiffProtocol&) = delete;

  // Copies the page into a fresh twin and promotes the entry to kReadWrite in place (the first
  // write to a diff-tagged read copy: no messages at all).
  void TwinInPlace(PageId page);

  // Twins every page of `page`'s group from the just-installed bytes and promotes the group to a
  // writable (non-owner) diff copy; used when a write fault was answered with a diff-tagged copy.
  void InstallWritableCopy(PageId page);

  // Sync-batch mode: a fault on a page this node flushed last epoch re-fetches the whole
  // per-home flush set with bulk requests (one datagram per contiguous run) instead of paging it
  // back one RTT-chained request at a time. One-shot per flush set. Returns true when the
  // faulted page itself is now fetching.
  bool MaybeBulkRefetch(PageId page);

  // Synchronization point: advances the flush epoch and sends every twin's diff to its home.
  void FlushAtSyncPoint();

  // Home side: applies one kDiffMerge message (idempotently, keyed by (sender, epoch)). `gated`
  // (the kDiffMergeGated service) elides the ack: the barrier done broadcast stands in for it.
  std::optional<net::Payload> ServeMerge(NodeId src, net::WireReader body, bool gated = false);

  // --- Coalescing sync-batch support (DsmNode::sync_batch_) ---

  // Highest flush epoch applied from `src` (0 = none).
  uint64_t applied_epoch(NodeId src) const {
    const auto it = applied_epoch_.find(src);
    return it == applied_epoch_.end() ? 0 : it->second;
  }
  // Epoch of the gated merge still awaiting the barrier done signal (0 = none).
  uint64_t pending_gated_merge_epoch() const {
    return gated_merge_req_ != 0 ? gated_merge_epoch_ : 0;
  }
  // The done signal arrived: the parent has applied our gated merge, stop retransmitting it.
  void OnBarrierDone();

 private:
  // Encodes and sends all twins (one kDiffMerge per home node), then drops the flushed copies.
  void FlushTwins();

  DsmNode& node_;
  // Twinned pages, ordered so flush batches and message contents are deterministic.
  std::map<PageId, std::vector<std::byte>> twins_;
  // This node's sync-point counter, stamped into outgoing merges. Barriers are collective, so
  // the counter advances in lockstep across nodes and names the epoch a merge belongs to.
  uint64_t flush_epoch_ = 0;
  // Home side: last epoch applied per sender; retransmissions and delayed duplicates of an
  // already-applied flush are skipped (the empty ack is still rebuilt).
  std::map<NodeId, uint64_t> applied_epoch_;
  // Sync-batch mode: pages flushed at the last sync point, per home — the next epoch's expected
  // re-fetch footprint. Consumed (erased) by the first fault into each set.
  std::map<NodeId, std::set<PageId>> last_flush_sets_;
  // The request id, epoch and flow id of the gated merge sent to the barrier parent (request
  // 0 = none pending).
  uint64_t gated_merge_req_ = 0;
  uint64_t gated_merge_epoch_ = 0;
  uint64_t gated_merge_flow_ = 0;
};

}  // namespace dfil::dsm

#endif  // DFIL_DSM_PAGE_PROTOCOL_H_
