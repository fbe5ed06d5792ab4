#include "src/dsm/coherence_oracle.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/common/check.h"
#include "src/common/log.h"

namespace dfil::dsm {

void CoherenceOracle::AttachNode(NodeId node, DsmNode* dsm) {
  if (layout_ == nullptr) {
    layout_ = &dsm->layout();
    shadow_.assign(layout_->region_bytes(), std::byte{0});
    version_.assign(layout_->num_pages(), 0);
  } else {
    DFIL_CHECK_EQ(layout_, &dsm->layout()) << "oracle attached across clusters";
  }
  if (nodes_.size() <= static_cast<size_t>(node)) {
    nodes_.resize(node + 1, nullptr);
    installed_version_.resize(node + 1);
  }
  nodes_[node] = dsm;
  installed_version_[node].assign(layout_->num_pages(), 0);
}

const PageEntry& CoherenceOracle::Entry(NodeId node, PageId page) const {
  return nodes_[node]->page(page);
}

const std::byte* CoherenceOracle::Frame(NodeId node, PageId page) const {
  return nodes_[node]->raw_replica(static_cast<GlobalAddr>(page) << layout_->page_shift());
}

bool CoherenceOracle::FrameEqualsShadow(NodeId node, PageId page) const {
  const GlobalAddr off = static_cast<GlobalAddr>(page) << layout_->page_shift();
  return std::memcmp(Frame(node, page), shadow_.data() + off, layout_->page_size()) == 0;
}

void CoherenceOracle::SyncShadow(NodeId owner, PageId page) {
  if (!FrameEqualsShadow(owner, page)) {
    const GlobalAddr off = static_cast<GlobalAddr>(page) << layout_->page_shift();
    std::memcpy(shadow_.data() + off, Frame(owner, page), layout_->page_size());
    ++version_[page];
  }
}

void CoherenceOracle::Violate(const std::string& what) {
  DFIL_LOG(kError, "oracle") << "violation: " << what;
  const bool first = violations_.empty();
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(what);
  }
  if (first && on_first_violation) {
    // Snapshot hook fires at the failure point, while the flight-recorder rings still hold the
    // events leading up to it — by end of run they may have wrapped past the interesting window.
    on_first_violation();
  }
}

void CoherenceOracle::OnServeRead(NodeId server, NodeId to, PageId page) {
  for (PageId p : layout_->GroupPagesOf(page)) {
    ++checks_run_;
    const PageEntry& e = Entry(server, p);
    if (!e.owner) {
      std::ostringstream os;
      os << "node " << server << " served a read copy of page " << p << " without owning it";
      Violate(os.str());
      continue;
    }
    SyncShadow(server, p);
    if (nodes_[server]->page_pcp(p) == Pcp::kWriteInvalidate &&
        (e.copyset & (uint64_t{1} << to)) == 0) {
      std::ostringstream os;
      os << "node " << server << " served page " << p << " to " << to
         << " without tracking it in the copyset";
      Violate(os.str());
    }
  }
}

void CoherenceOracle::OnServeTransfer(NodeId server, NodeId to, PageId page) {
  (void)to;
  for (PageId p : layout_->GroupPagesOf(page)) {
    ++checks_run_;
    const PageEntry& e = Entry(server, p);
    if (!e.owner) {
      std::ostringstream os;
      os << "node " << server << " transferred page " << p << " without owning it";
      Violate(os.str());
      continue;
    }
    if (e.fetching) {
      std::ostringstream os;
      os << "node " << server << " transferred page " << p << " while its entry was in flux";
      Violate(os.str());
    }
    SyncShadow(server, p);
  }
}

void CoherenceOracle::OnServeGrantReserve(NodeId server, NodeId to, PageId page) {
  (void)to;
  for (PageId p : layout_->GroupPagesOf(page)) {
    ++checks_run_;
    const PageEntry& e = Entry(server, p);
    if (e.owner || e.state != PageState::kInvalid) {
      std::ostringstream os;
      os << "node " << server << " re-served a grant of page " << p
         << " while holding a live copy (owner=" << e.owner
         << " state=" << static_cast<int>(e.state) << ")";
      Violate(os.str());
    }
    // No shadow sync: a grant re-reply ships the frame frozen at grant time, which is still the
    // latest version — ownership is parked at the requester until the transfer lands.
  }
}

void CoherenceOracle::OnInstallRead(NodeId node, PageId page) {
  for (PageId p : layout_->GroupPagesOf(page)) {
    ++checks_run_;
    const PageEntry& e = Entry(node, p);
    if (e.state != PageState::kReadOnly || e.owner) {
      std::ostringstream os;
      os << "node " << node << " read-install of page " << p << " left state "
         << static_cast<int>(e.state) << " owner=" << e.owner;
      Violate(os.str());
    }
    // Write-invalidate promises no stale read copies: a copy invalidated while the bytes were in
    // flight must be discarded, never installed. (Implicit-invalidate and diff tolerate
    // intra-epoch staleness by design, so the byte check applies only at sync points there.)
    if (nodes_[node]->page_pcp(p) == Pcp::kWriteInvalidate && !FrameEqualsShadow(node, p)) {
      std::ostringstream os;
      os << "node " << node << " installed stale bytes for page " << p << " (shadow v"
         << version_[p] << ")";
      Violate(os.str());
    }
    if (version_[p] < installed_version_[node][p]) {
      std::ostringstream os;
      os << "node " << node << " installed page " << p << " v" << version_[p]
         << " after already holding v" << installed_version_[node][p];
      Violate(os.str());
    }
    installed_version_[node][p] = version_[p];
  }
}

void CoherenceOracle::OnWriteGranted(NodeId node, PageId page) {
  for (PageId p : layout_->GroupPagesOf(page)) {
    ++checks_run_;
    const PageEntry& e = Entry(node, p);
    if (e.state != PageState::kReadWrite || !e.owner) {
      std::ostringstream os;
      os << "node " << node << " write grant of page " << p << " left state "
         << static_cast<int>(e.state) << " owner=" << e.owner;
      Violate(os.str());
    }
    if (!FrameEqualsShadow(node, p)) {
      std::ostringstream os;
      os << "node " << node << " acquired page " << p << " for writing with stale bytes (shadow v"
         << version_[p] << ")";
      Violate(os.str());
    }
    if (version_[p] < installed_version_[node][p]) {
      std::ostringstream os;
      os << "node " << node << " write-acquired page " << p << " v" << version_[p]
         << " after already holding v" << installed_version_[node][p];
      Violate(os.str());
    }
    installed_version_[node][p] = version_[p];
    // Single-writer: no second owner, and under the invalidating protocols no other valid copy.
    // (Implicit-invalidate copies die at the next sync point instead, and diff is multiple-writer
    // by design, so both tolerate other valid copies here.)
    const Pcp pcp = nodes_[node]->page_pcp(p);
    for (NodeId m = 0; m < static_cast<NodeId>(nodes_.size()); ++m) {
      if (m == node || nodes_[m] == nullptr) {
        continue;
      }
      const PageEntry& other = Entry(m, p);
      if (other.owner) {
        std::ostringstream os;
        os << "two owners of page " << p << ": " << node << " and " << m;
        Violate(os.str());
      }
      if (pcp != Pcp::kImplicitInvalidate && pcp != Pcp::kDiff &&
          other.state != PageState::kInvalid) {
        std::ostringstream os;
        os << "node " << node << " acquired page " << p << " for writing while node " << m
           << " still holds a valid copy";
        Violate(os.str());
      }
    }
  }
}

void CoherenceOracle::OnInvalidated(NodeId node, PageId page) {
  ++checks_run_;
  const PageEntry& e = Entry(node, page);
  if (e.owner || e.state != PageState::kInvalid) {
    std::ostringstream os;
    os << "node " << node << " invalidation of page " << page << " left state "
       << static_cast<int>(e.state) << " owner=" << e.owner;
    Violate(os.str());
  }
}

void CoherenceOracle::OnTwinWrite(NodeId node, PageId page) {
  ++checks_run_;
  const PageEntry& e = Entry(node, page);
  if (e.state != PageState::kReadWrite || e.owner) {
    std::ostringstream os;
    os << "node " << node << " twin-write of page " << page << " left state "
       << static_cast<int>(e.state) << " owner=" << e.owner;
    Violate(os.str());
  }
  if (nodes_[node]->page_pcp(page) != Pcp::kDiff) {
    std::ostringstream os;
    os << "node " << node << " twinned page " << page << " outside the diff protocol";
    Violate(os.str());
  }
}

void CoherenceOracle::OnDiffWriteInstall(NodeId node, PageId page) {
  for (PageId p : layout_->GroupPagesOf(page)) {
    ++checks_run_;
    const PageEntry& e = Entry(node, p);
    if (e.state != PageState::kReadWrite || e.owner || !e.diff_copy) {
      std::ostringstream os;
      os << "node " << node << " diff write-install of page " << p << " left state "
         << static_cast<int>(e.state) << " owner=" << e.owner << " diff=" << e.diff_copy;
      Violate(os.str());
    }
    // Like implicit-invalidate reads, the installed bytes may trail the shadow within the epoch
    // (the home can merge other writers after serving us); only version monotonicity is checked.
    if (version_[p] < installed_version_[node][p]) {
      std::ostringstream os;
      os << "node " << node << " diff-installed page " << p << " v" << version_[p]
         << " after already holding v" << installed_version_[node][p];
      Violate(os.str());
    }
    installed_version_[node][p] = version_[p];
  }
}

void CoherenceOracle::OnDiffMergeApplied(NodeId home, NodeId src, PageId page, uint64_t epoch,
                                         const std::vector<net::DiffRun>& runs) {
  ++checks_run_;
  const PageEntry& e = Entry(home, page);
  if (!e.owner) {
    std::ostringstream os;
    os << "node " << home << " merged a diff for page " << page << " without owning it";
    Violate(os.str());
  }
  // Concurrent diff writers are legal only on disjoint byte ranges: two same-epoch merges from
  // different senders whose runs overlap mean both wrote the same bytes between the same pair of
  // barriers — a data race the merge order would silently resolve.
  std::vector<MergeRec>& log = merge_log_[page];
  std::erase_if(log, [epoch](const MergeRec& rec) { return rec.epoch < epoch; });
  for (const MergeRec& rec : log) {
    if (rec.src == src || rec.epoch != epoch) {
      continue;
    }
    for (const net::DiffRun& a : rec.runs) {
      for (const net::DiffRun& b : runs) {
        const uint16_t lo = std::max(a.offset, b.offset);
        const uint32_t hi = std::min<uint32_t>(a.offset + a.len, b.offset + b.len);
        if (lo < hi) {
          std::ostringstream os;
          os << "overlapping diff merges on page " << page << " epoch " << epoch << ": nodes "
             << rec.src << " and " << src << " both wrote bytes [" << lo << "," << hi << ")";
          Violate(os.str());
        }
      }
    }
  }
  log.push_back(MergeRec{src, epoch, runs});
  // The merge made src's write burst observable in the home frame; fold it into the shadow.
  SyncShadow(home, page);
}

void CoherenceOracle::OnMergeAtNonOwner(NodeId node, NodeId src, PageId page, uint64_t epoch) {
  ++checks_run_;
  std::ostringstream os;
  os << "merge at non-owner: node " << node << " received node " << src << "'s epoch " << epoch
     << " diff of page " << page << " without owning it; the writes are lost";
  Violate(os.str());
}

void CoherenceOracle::AtQuiescentPoint() {
  ++quiescent_points_;
  for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
    if (nodes_[n] == nullptr) {
      continue;
    }
    if (nodes_[n]->pending_fetches() != 0) {
      std::ostringstream os;
      os << "node " << n << " has " << nodes_[n]->pending_fetches()
         << " fetches in flight at a quiescent point";
      Violate(os.str());
    }
  }
  for (PageId p = 0; p < static_cast<PageId>(version_.size()); ++p) {
    ++checks_run_;
    NodeId owner = kNoNode;
    int owners = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
      if (nodes_[n] != nullptr && Entry(n, p).owner) {
        owner = n;
        ++owners;
      }
    }
    if (owners != 1) {
      std::ostringstream os;
      os << owners << " owners of page " << p << " at a quiescent point";
      Violate(os.str());
      continue;
    }
    SyncShadow(owner, p);
    // The owner's view of the page's protocol governs the sweep (under adaptation the owner is
    // the node that decides the group's mode).
    const Pcp pcp = nodes_[owner]->page_pcp(p);
    for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
      if (nodes_[n] == nullptr) {
        continue;
      }
      const PageEntry& e = Entry(n, p);
      if (e.fetching) {
        std::ostringstream os;
        os << "node " << n << " still marked fetching page " << p << " at a quiescent point";
        Violate(os.str());
      }
      if (n == owner || e.state == PageState::kInvalid) {
        continue;
      }
      // A surviving non-owner copy: legal only under write-invalidate (read replication with
      // copyset tracking). Migratory keeps a single copy; implicit-invalidate drops every read
      // copy — and diff additionally flushes every twinned copy — at the sync point that
      // precedes this quiescent point.
      if (pcp != Pcp::kWriteInvalidate) {
        std::ostringstream os;
        os << "node " << n << " holds a copy of page " << p << " at a quiescent point under "
           << PcpName(pcp);
        Violate(os.str());
      } else if ((Entry(owner, p).copyset & (uint64_t{1} << n)) == 0) {
        std::ostringstream os;
        os << "node " << n << " holds page " << p << " untracked by owner " << owner
           << "'s copyset";
        Violate(os.str());
      }
      if (!FrameEqualsShadow(n, p)) {
        std::ostringstream os;
        os << "node " << n << "'s copy of page " << p << " diverges from owner " << owner
           << "'s frame at a quiescent point";
        Violate(os.str());
      }
    }
  }
}

}  // namespace dfil::dsm
