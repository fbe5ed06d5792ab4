// The diff engine (kDiff): twins, run-length-encoded merges, flush sets and gated merges. The
// single-writer protocols have no code of their own; DsmNode answers their two per-protocol
// questions from its fact table. DESIGN.md §10 describes the protocol.
#include "src/dsm/page_protocol.h"

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/dsm/coherence_oracle.h"
#include "src/dsm/dsm_node.h"
#include "src/net/packet.h"

namespace dfil::dsm {

bool DiffProtocol::MaybeBulkRefetch(PageId page) {
  if (!node_.sync_batch_ || last_flush_sets_.empty()) {
    return false;
  }
  for (auto it = last_flush_sets_.begin(); it != last_flush_sets_.end(); ++it) {
    const std::set<PageId>& pages = it->second;
    if (pages.count(page) == 0) {
      continue;
    }
    // The whole set this node flushed to `it->first` last epoch is about to be re-read; fetch it
    // back in maximal contiguous runs (std::set iterates sorted). StartBulkFetch skips pages that
    // are present, fetching, grouped, or owned here, so overlap with other traffic is safe.
    std::vector<PageId> sorted(pages.begin(), pages.end());
    size_t i = 0;
    while (i < sorted.size()) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) {
        ++j;
      }
      node_.StartBulkFetch(sorted[i], static_cast<int>(j - i));
      i = j;
    }
    last_flush_sets_.erase(it);  // one-shot: a second fault must not re-issue the sweep
    node_.stats_.diff_bulk_refetches++;
    return node_.table_[page].fetching;
  }
  return false;
}

void DiffProtocol::TwinInPlace(PageId page) {
  PageEntry& e = node_.table_[page];
  const size_t ps = node_.layout_->page_size();
  const std::byte* cur = node_.PageBytes(page);
  twins_[page].assign(cur, cur + ps);
  e.state = PageState::kReadWrite;
  node_.stats_.diff_twins_created++;
  node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_twin_copy);
  DFIL_ORACLE(node_.oracle_, OnTwinWrite(node_.self_, page));
}

void DiffProtocol::InstallWritableCopy(PageId page) {
  // OnPageReply already copied the group's bytes into the replica; twin every page of the group
  // (a write anywhere in it must be tracked) and finish the fetch writable but unowned. Under
  // adaptation the local mode must say diff BEFORE the first twin exists (FinishFetch would sync
  // it anyway, but by then the twins are already live).
  if (node_.config_.adapt_protocols) {
    DsmNode::AdaptState& st = node_.adapt_[node_.GroupRoot(page)];
    st.mode = Pcp::kDiff;
    st.calm = 0;
  }
  for (PageId p : node_.layout_->GroupPagesOf(page)) {
    TwinInPlace(p);
  }
  node_.FinishFetch(page, PageState::kReadWrite, /*ownership=*/false, /*diff_copy=*/true);
}

void DiffProtocol::FlushAtSyncPoint() {
  ++flush_epoch_;
  FlushTwins();
}

void DiffProtocol::FlushTwins() {
  if (twins_.empty()) {
    return;
  }
  TraceSpan flush_span(&node_.host_->tracer(), "dsm", "diff_flush e", flush_epoch_);
  const size_t ps = node_.layout_->page_size();
  // Encode every twin and batch the non-empty diffs by home node. std::map ordering makes both
  // the target sequence and each message's page order deterministic.
  struct PageDiff {
    PageId page;
    std::vector<net::DiffRun> runs;
  };
  std::map<NodeId, std::vector<PageDiff>> by_home;
  for (const auto& [p, twin] : twins_) {
    const std::byte* cur = node_.PageBytes(p);
    node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_encode_page);
    std::vector<net::DiffRun> runs = net::DiffPageRuns(twin.data(), cur, ps);
    if (runs.empty()) {
      continue;  // the twin was never actually changed; nothing to merge
    }
    const NodeId home = node_.table_[p].probable_owner;
    DFIL_CHECK_NE(home, node_.self_) << "diff twin of a page we own (page " << p << ")";
    by_home[home].push_back(PageDiff{p, std::move(runs)});
  }
  struct Merge {
    NodeId home;
    net::Payload payload;
    uint64_t flow;
  };
  std::vector<Merge> merges;
  for (auto& [home, pages] : by_home) {
    net::WireWriter w;
    w.Put(net::DiffMergeHeader{flush_epoch_, static_cast<uint16_t>(pages.size())});
    for (const PageDiff& d : pages) {
      w.Put(net::DiffPageHeader{d.page, static_cast<uint16_t>(d.runs.size())});
      const std::byte* cur = node_.PageBytes(d.page);
      for (const net::DiffRun& run : d.runs) {
        w.Put(run);
        w.PutBytes(cur + run.offset, run.len);
        node_.stats_.diff_bytes_sent += run.len;
        node_.stats_.page_data_bytes += run.len;
      }
      node_.stats_.diff_pages_flushed++;
    }
    const uint64_t flow = node_.host_->tracer().NewTraceId();
    merges.push_back(Merge{home, w.Take(), flow});
  }
  // Sync-batch mode: remember what was flushed where — the next epoch's first fault into a set
  // re-fetches the whole set with bulk requests instead of RTT-chained single-page faults.
  if (node_.sync_batch_) {
    last_flush_sets_.clear();
    for (const auto& [p, twin] : twins_) {
      last_flush_sets_[node_.table_[p].probable_owner].insert(p);
    }
  }
  // The merge to the barrier parent goes out gated: its ack is elided (the done broadcast stands
  // in), it does not count as an outstanding fetch, and the transport holds its frame so it packs
  // with the reduce-up of the same sync point.
  auto is_gated = [&](const Merge& m) { return m.home == node_.gate_parent_; };
  // Count every acked merge as an outstanding fetch BEFORE sending any: a send's time charge can
  // dispatch pending events (even this flush's own ack), and a premature zero crossing would
  // release the barrier's drain wait while merges are still unacknowledged.
  int acked_merges = 0;
  for (const Merge& m : merges) {
    if (!is_gated(m)) {
      ++acked_merges;
    }
  }
  node_.pending_fetches_ += acked_merges;
  const uint64_t epoch = flush_epoch_;
  for (Merge& m : merges) {
    node_.stats_.diff_merges_sent++;
    if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
      tr->Flow(kFlowStart, "dsm", "diff e" + std::to_string(epoch), m.flow);
    }
    TraceContext trace_ctx(&node_.host_->tracer(), m.flow);
    if (is_gated(m)) {
      DFIL_CHECK_EQ(gated_merge_req_, uint64_t{0})
          << "gated merge of epoch " << gated_merge_epoch_ << " still pending";
      gated_merge_epoch_ = epoch;
      gated_merge_flow_ = m.flow;
      gated_merge_req_ = node_.packet_->SendRequest(m.home, net::Service::kDiffMergeGated,
                                                    std::move(m.payload), /*on_reply=*/nullptr,
                                                    TimeCategory::kDataTransfer);
      continue;
    }
    node_.packet_->SendRequest(
        m.home, net::Service::kDiffMerge, std::move(m.payload),
        [this, epoch, flow = m.flow](net::Payload) {
          if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
            tr->Flow(kFlowEnd, "dsm", "diff e" + std::to_string(epoch), flow);
          }
          node_.RetireFetch();
        },
        TimeCategory::kDataTransfer);
  }
  // The flushed copies die like any sync-point copy; the home's frame is now authoritative.
  for (const auto& [p, twin] : twins_) {
    PageEntry& e = node_.table_[p];
    e.state = PageState::kInvalid;
    e.diff_copy = false;
    node_.stats_.implicit_invalidations++;
    node_.NotePageDiscarded(e);
  }
  twins_.clear();
}

std::optional<net::Payload> DiffProtocol::ServeMerge(NodeId src, net::WireReader body,
                                                     bool gated) {
  const auto h = body.Get<net::DiffMergeHeader>();
  TraceSpan apply_span(&node_.host_->tracer(), "dsm", "diff_apply e", h.epoch);
  if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
    tr->Flow(kFlowStep, "dsm", "diff e" + std::to_string(h.epoch), tr->current());
  }
  // A gated merge's first ack is elided: the sender treats the barrier done broadcast (which this
  // node only sends after applying the merge) as the acknowledgment. A retransmission is acked.
  if (gated) {
    node_.packet_->ElideCurrentReply();
  }
  const auto it = applied_epoch_.find(src);
  if (it != applied_epoch_.end() && h.epoch <= it->second) {
    // A retransmission (or delayed duplicate) of a flush we already merged; re-ack without
    // re-applying, so a lost ack can never double-apply runs.
    node_.stats_.diff_stale_merges_ignored++;
    return net::Payload{};
  }
  applied_epoch_[src] = h.epoch;
  std::vector<std::byte> scratch(node_.layout_->page_size());
  bool applied_any = false;
  for (uint16_t i = 0; i < h.npages; ++i) {
    const auto ph = body.Get<net::DiffPageHeader>();
    // Every diff copy this home serves and every merge it applies counts as adapter traffic, so
    // the group cannot flip back (and ownership cannot move) while a copy is live: a merge always
    // finds its home. Landing anywhere else would lose the runs, which the oracle flags.
    const bool own = node_.table_[ph.page].owner;
    std::byte* frame = node_.PageBytes(ph.page);
    std::vector<net::DiffRun> runs;
    runs.reserve(ph.nruns);
    for (uint16_t r = 0; r < ph.nruns; ++r) {
      const auto run = body.Get<net::DiffRun>();
      body.GetBytes(own ? frame + run.offset : scratch.data(), run.len);
      runs.push_back(run);
    }
    if (!own) {
      DFIL_ORACLE(node_.oracle_, OnMergeAtNonOwner(node_.self_, src, ph.page, h.epoch));
      continue;
    }
    node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_apply_page);
    node_.stats_.diff_pages_merged++;
    if (node_.config_.adapt_protocols) {
      node_.NoteAdaptTraffic(ph.page);  // incoming merges keep the group hot (and pinned)
    }
    applied_any = true;
    DFIL_ORACLE(node_.oracle_, OnDiffMergeApplied(node_.self_, src, ph.page, h.epoch, runs));
  }
  if (applied_any) {
    node_.stats_.diff_merges_applied++;
  }
  return net::Payload{};  // empty ack; the sender's barrier drain waits on it
}

void DiffProtocol::OnBarrierDone() {
  if (gated_merge_req_ != 0) {
    // The done broadcast proves the parent applied (or durably recorded) our gated merge; stop
    // retransmitting it. The done stands in for the ack, so it also ends the merge's flow arc.
    node_.packet_->CancelRequest(gated_merge_req_);
    gated_merge_req_ = 0;
    if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
      tr->Flow(kFlowEnd, "dsm", "diff e" + std::to_string(gated_merge_epoch_), gated_merge_flow_);
    }
  }
}

}  // namespace dfil::dsm
