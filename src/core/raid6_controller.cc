#include "core/raid6_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "array/gf256.h"

namespace afraid {

std::string Raid6ModeName(Raid6Mode mode) {
  switch (mode) {
    case Raid6Mode::kSynchronous:
      return "RAID6";
    case Raid6Mode::kDeferQ:
      return "RAID6-deferQ";
    case Raid6Mode::kDeferBoth:
      return "RAID6-AFRAID";
  }
  return "unknown";
}

Raid6Controller::Raid6Controller(Simulator* sim, const ArrayConfig& config,
                                 Raid6Mode mode, Probe probe)
    : ArrayEngine(sim, config, MakeStripedLayout(config, /*parity_blocks=*/2),
                  /*content_parity_slots=*/2, /*stale_slots=*/2, probe),
      mode_(mode),
      q_only_stale_(sim->Now()),
      both_stale_(sim->Now()) {
  assert(cfg_.num_disks >= 4);
}

Raid6Controller::~Raid6Controller() = default;

uint64_t Raid6Controller::QOfData(const ContentModel& content, int64_t stripe,
                                  int32_t data_blocks, int32_t sector) {
  uint64_t q = 0;
  for (int32_t j = 0; j < data_blocks; ++j) {
    q ^= Gf256::MulWord(content.GetData(stripe, j, sector), Gf256::Pow2(j));
  }
  return q;
}

bool Raid6Controller::StripeFullyConsistent(int64_t stripe) const {
  assert(content_ != nullptr);
  const int32_t n = layout_->data_blocks_per_stripe();
  for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
    if (content_->GetParity(stripe, s, 0) != content_->XorOfData(stripe, s)) {
      return false;
    }
    if (content_->GetParity(stripe, s, 1) != QOfData(*content_, stripe, n, s)) {
      return false;
    }
  }
  return true;
}

void Raid6Controller::UpdateExposure() {
  const double stripe_bytes =
      static_cast<double>(layout_->data_blocks_per_stripe()) *
      static_cast<double>(layout_->stripe_unit());
  const double both = static_cast<double>(stale_p_) * stripe_bytes;
  const double q_only = static_cast<double>(stale_q_ - stale_p_) * stripe_bytes;
  both_stale_.Set(sim_->Now(), both);
  q_only_stale_.Set(sim_->Now(), q_only);
}

void Raid6Controller::SetParityStale(int64_t stripe, int32_t which, bool stale) {
  const int64_t key = stripe * 2 + which;
  if (stale ? MarkStale(key) : ClearStale(key)) {
    (which == 0 ? stale_p_ : stale_q_) += stale ? 1 : -1;
  }
}

int32_t Raid6Controller::DegradedReadParity(int64_t stripe, bool* lost) const {
  const bool p_fresh = !ParityStale(stripe, 0);
  const bool q_fresh = !ParityStale(stripe, 1);
  // Reconstruct through P when it is live, through Q when only P is stale
  // (same I/O count either way). With both stale the bytes returned are not
  // what the client wrote; P is still read to model the attempt's traffic.
  *lost = !p_fresh && !q_fresh;
  return (p_fresh || !q_fresh) ? 0 : 1;
}

void Raid6Controller::WriteStripeGroup(uint64_t request_id, int64_t stripe,
                                       Span<Segment> segs, JoinBlock* group_join) {
  if (failed_disk_ >= 0 || recovering_disk_ >= 0) {
    DegradedWriteStripe(request_id, stripe, segs, group_join);
    return;
  }
  if (mode_ == Raid6Mode::kSynchronous) {
    ++sync_mode_writes_;
  } else {
    ++deferred_mode_writes_;
  }
  // For clarity this controller serialises all work on a stripe (writes and
  // rebuilds alike take the stripe exclusively); cross-stripe parallelism is
  // untouched. The RAID 5-family controller models the finer shared locking.
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs,
                                                group_join] {
    const int32_t sector = cfg_.disk_spec.sector_bytes;
    const int64_t unit = layout_->stripe_unit();

    // Parity deltas over the touched span (valid because of the exclusive
    // lock): dP = old ^ new; dQ = g^j * (old ^ new). Pooled buffers,
    // released when the write phase's join fires.
    int32_t span_lo = INT32_MAX;
    int32_t span_hi = 0;
    for (const Segment& seg : segs) {
      span_lo = std::min(span_lo, seg.offset_in_block);
      span_hi = std::max(span_hi, seg.offset_in_block + seg.length);
    }
    const int32_t first_sector = span_lo / sector;
    const int32_t span_sectors = (span_hi - span_lo) / sector;
    std::vector<uint64_t>* dp = nullptr;
    std::vector<uint64_t>* dq = nullptr;
    if (content_ != nullptr) {
      dp = u64_pool_.Acquire();
      dq = u64_pool_.Acquire();
      dp->assign(static_cast<size_t>(span_sectors), 0);
      dq->assign(static_cast<size_t>(span_sectors), 0);
      for (const Segment& seg : segs) {
        const int32_t first = seg.offset_in_block / sector;
        const int32_t count = seg.length / sector;
        const int64_t logical_first = seg.logical_offset / sector;
        for (int32_t i = 0; i < count; ++i) {
          const uint64_t old_v =
              content_->GetData(stripe, seg.block_in_stripe, first + i);
          const uint64_t new_v = ContentModel::MixTag(request_id, logical_first + i);
          const uint64_t delta = old_v ^ new_v;
          (*dp)[static_cast<size_t>(first + i - first_sector)] ^= delta;
          (*dq)[static_cast<size_t>(first + i - first_sector)] ^=
              Gf256::MulWord(delta, Gf256::Pow2(seg.block_in_stripe));
        }
      }
    }

    const bool update_p = mode_ != Raid6Mode::kDeferBoth;
    const bool update_q = mode_ == Raid6Mode::kSynchronous;

    auto write_phase = [this, request_id, stripe, segs, span_lo, span_hi,
                        first_sector, sector, unit, update_p, update_q, dp, dq,
                        group_join](bool) {
      const int32_t writes =
          segs.count + (update_p ? 1 : 0) + (update_q ? 1 : 0);
      JoinBlock* join = joins_.Make(writes, [this, stripe, dp, dq,
                                             group_join](bool) {
        if (dp != nullptr) {
          u64_pool_.Release(dp);
          u64_pool_.Release(dq);
        }
        locks_.Release(stripe, LockMode::kExclusive);
        group_join->Dec(true);
      });
      for (const Segment& seg : segs) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                    /*is_write=*/true, DiskOpPurpose::kClientWrite,
                    [this, request_id, seg, join](bool ok) {
                      if (ok) {
                        ApplyWriteContent(request_id, seg);
                      }
                      join->Dec(true);
                    });
      }
      if (update_p) {
        const BlockLoc pl = layout_->ParityLocation(stripe, 0);
        IssueDiskOp(pl.disk, pl.byte_offset + span_lo,
                    span_hi - span_lo, /*is_write=*/true, DiskOpPurpose::kParityWrite,
                    [this, stripe, first_sector, dp, join](bool ok) {
                      if (ok && content_ != nullptr) {
                        for (size_t i = 0; i < dp->size(); ++i) {
                          const auto s = first_sector + static_cast<int32_t>(i);
                          content_->SetParity(
                              stripe, s, content_->GetParity(stripe, s, 0) ^ (*dp)[i],
                              0);
                        }
                      }
                      join->Dec(true);
                    });
      }
      if (update_q) {
        const BlockLoc ql = layout_->ParityLocation(stripe, 1);
        IssueDiskOp(ql.disk, ql.byte_offset + span_lo,
                    span_hi - span_lo, /*is_write=*/true, DiskOpPurpose::kParityWrite,
                    [this, stripe, first_sector, dq, join](bool ok) {
                      if (ok && content_ != nullptr) {
                        for (size_t i = 0; i < dq->size(); ++i) {
                          const auto s = first_sector + static_cast<int32_t>(i);
                          content_->SetParity(
                              stripe, s, content_->GetParity(stripe, s, 1) ^ (*dq)[i],
                              1);
                        }
                      }
                      join->Dec(true);
                    });
      }
    };

    // Staleness marking happens before data hits the disk.
    if (mode_ != Raid6Mode::kSynchronous) {
      if (mode_ == Raid6Mode::kDeferBoth) {
        SetParityStale(stripe, 0, true);
      }
      SetParityStale(stripe, 1, true);
      max_stale_stripes_ = std::max(max_stale_stripes_, stale_q_);
      UpdateExposure();
    }

    // Pre-read phase: old data for every written segment, plus old P/Q spans
    // when the corresponding parity is updated in place. A parity that is
    // already stale needs no pre-read (the rebuild recomputes from scratch).
    int32_t reads = 0;
    if (update_p || update_q) {
      reads += static_cast<int32_t>(segs.size());
    }
    if (update_p) {
      ++reads;
    }
    if (update_q) {
      ++reads;
    }
    if (reads == 0) {
      write_phase(true);
      return;
    }
    JoinBlock* read_join = joins_.Make(reads, write_phase);
    if (update_p || update_q) {
      for (const Segment& seg : segs) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                    /*is_write=*/false, DiskOpPurpose::kOldDataRead,
                    [read_join](bool) { read_join->Dec(true); });
      }
    }
    if (update_p) {
      const BlockLoc pl = layout_->ParityLocation(stripe, 0);
      IssueDiskOp(pl.disk, pl.byte_offset + span_lo,
                  span_hi - span_lo, /*is_write=*/false, DiskOpPurpose::kOldParityRead,
                  [read_join](bool) { read_join->Dec(true); });
    }
    if (update_q) {
      const BlockLoc ql = layout_->ParityLocation(stripe, 1);
      IssueDiskOp(ql.disk, ql.byte_offset + span_lo,
                  span_hi - span_lo, /*is_write=*/false, DiskOpPurpose::kOldParityRead,
                  [read_join](bool) { read_join->Dec(true); });
    }
  });
}

void Raid6Controller::RefreshKey(int64_t key, Step* step) {
  const int64_t stripe = key / 2;
  const bool p_needed = ParityStale(stripe, 0);
  const BlockLoc* units = MapStripe(stripe);
  const int32_t n = layout_->data_blocks_per_stripe();
  AddPeerReads(units, -1, 0, step);
  if (p_needed) {
    step->writes.push_back(units[n]);
  }
  step->writes.push_back(units[n + 1]);
  step->finish = [this, stripe, p_needed] {
    RecomputeParities(stripe, p_needed, true);
    SetParityStale(stripe, 0, false);
    SetParityStale(stripe, 1, false);
    UpdateExposure();
  };
}

void Raid6Controller::RecomputeParities(int64_t stripe, bool p, bool q) {
  if (p) {
    RecomputeXorParity(stripe);
  }
  if (q && content_ != nullptr) {
    const int32_t n = layout_->data_blocks_per_stripe();
    for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
      content_->SetParity(stripe, s, QOfData(*content_, stripe, n, s), 1);
    }
  }
}

// --- Degraded writes and the sweep step -------------------------------------------

void Raid6Controller::DegradedWriteStripe(uint64_t request_id, int64_t stripe,
                                          Span<Segment> segs,
                                          JoinBlock* group_join) {
  // Degraded analogue of AFRAID's forced-RAID 5 mode: with a disk out,
  // deferring parity would leave the new data unprotected against the failure
  // already in progress, so the write becomes a synchronous reconstruct-write:
  // read the surviving untouched data blocks, write the data, and rewrite both
  // live parities from scratch.
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs,
                                                group_join] {
    const int32_t n = layout_->data_blocks_per_stripe();
    const int64_t unit = layout_->stripe_unit();
    const BlockLoc p_loc = layout_->ParityLocation(stripe, 0);
    const BlockLoc q_loc = layout_->ParityLocation(stripe, 1);
    const bool p_avail = !DiskUnavailable(p_loc.disk, stripe);
    const bool q_avail = !DiskUnavailable(q_loc.disk, stripe);

    assert(n <= 62);
    uint64_t written = 0;
    for (const Segment& seg : segs) {
      written |= 1ull << seg.block_in_stripe;
    }

    // If the unavailable disk holds a data block this group does not rewrite
    // and both parities were stale when the disk died, the recompute below
    // enshrines a value nobody can vouch for: that block's old bytes are lost
    // (Section 3.2's small-loss mode, RAID 6 flavour).
    if (ParityStale(stripe, 0) && ParityStale(stripe, 1)) {
      for (int32_t j = 0; j < n; ++j) {
        if ((written & (1ull << j)) != 0) {
          continue;
        }
        if (DiskUnavailable(layout_->DataDisk(stripe, j), stripe)) {
          RecordLoss(LossCause::kStaleParityReconstruction, stripe, unit);
        }
      }
    }

    // Logical state first (the exclusive lock spans the whole exchange, so
    // content may lead the timing ops): data tags, then fresh P and Q. A
    // parity on the unavailable disk stays stale-marked; the reconstruction
    // sweep rewrites it.
    for (const Segment& seg : segs) {
      ApplyWriteContent(request_id, seg);
    }
    RecomputeParities(stripe, p_avail, q_avail);
    if (p_avail) {
      SetParityStale(stripe, 0, false);
    }
    // Stale Q slots must stay a superset of stale P slots (UpdateExposure's
    // subtraction relies on it), so Q only goes fresh once P is fresh too.
    if (q_avail && !ParityStale(stripe, 0)) {
      SetParityStale(stripe, 1, false);
    }
    UpdateExposure();
    ++sync_mode_writes_;

    // Timing: read surviving untouched data blocks, then write data and the
    // live parities. Ops aimed at the unavailable disk produce no traffic;
    // their join slots resolve through a zero-delay event.
    int32_t reads = 0;
    for (int32_t j = 0; j < n; ++j) {
      if ((written & (1ull << j)) != 0 ||
          DiskUnavailable(layout_->DataDisk(stripe, j), stripe)) {
        continue;
      }
      ++reads;
    }
    const int32_t writes = segs.count + (p_avail ? 1 : 0) + (q_avail ? 1 : 0);
    auto write_phase = [this, stripe, segs, unit, writes, p_avail, q_avail,
                        p_loc, q_loc, group_join](bool) {
      JoinBlock* join = joins_.Make(writes, [this, stripe, group_join](bool) {
        locks_.Release(stripe, LockMode::kExclusive);
        group_join->Dec(true);
      });
      for (const Segment& seg : segs) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        if (DiskUnavailable(dl.disk, stripe)) {
          sim_->After(0, [join] { join->Dec(true); });
          continue;
        }
        IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                    /*is_write=*/true, DiskOpPurpose::kClientWrite,
                    [join](bool) { join->Dec(true); });
      }
      if (p_avail) {
        IssueDiskOp(p_loc.disk, p_loc.byte_offset, unit, /*is_write=*/true,
                    DiskOpPurpose::kParityWrite, [join](bool) { join->Dec(true); });
      }
      if (q_avail) {
        IssueDiskOp(q_loc.disk, q_loc.byte_offset, unit, /*is_write=*/true,
                    DiskOpPurpose::kParityWrite, [join](bool) { join->Dec(true); });
      }
    };
    if (reads == 0) {
      write_phase(true);
      return;
    }
    JoinBlock* read_join = joins_.Make(reads, std::move(write_phase));
    for (int32_t j = 0; j < n; ++j) {
      if ((written & (1ull << j)) != 0) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      if (DiskUnavailable(dl.disk, stripe)) {
        continue;
      }
      IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kReconstructRead,
                  [read_join](bool) { read_join->Dec(true); });
    }
  });
}

void Raid6Controller::ReconstructStripe(int64_t stripe, int32_t target, Step* step) {
  const int32_t n = layout_->data_blocks_per_stripe();
  const int64_t unit = layout_->stripe_unit();
  const BlockLoc* units = MapStripe(stripe);
  const int32_t u = UnitOn(units, target);
  assert(u >= 0);
  const int32_t j_target = u < n ? u : -1;
  const int32_t parity_target = u < n ? -1 : u - n;
  const bool p_stale = ParityStale(stripe, 0);
  const bool q_stale = ParityStale(stripe, 1);
  // The sweep leaves every stripe behind the frontier fully redundant: it
  // rewrites the replaced disk's block plus any parity that was stale.
  const bool write_p = parity_target == 0 || p_stale;
  const bool write_q = parity_target == 1 || q_stale;

  if (j_target >= 0 && p_stale && q_stale) {
    // Both parities were stale when the disk died: nothing vouches for the
    // lost block. What lands on the replacement is the xor of the
    // survivors against the stale P (the Section 3.2 small-loss mode).
    RecordLoss(LossCause::kStaleParityReconstruction, stripe, unit);
  }

  // Logical recovery first, at step start, in dependency order: the data
  // block from a live parity, then the parities from the data.
  if (j_target >= 0 && !(p_stale && !q_stale)) {
    RestoreXorUnit(stripe, j_target);
  } else if (j_target >= 0 && content_ != nullptr) {
    // Only Q is live: D_j = g^-j (Q ^ sum_{i != j} g^i D_i).
    const uint8_t inv = Gf256::Inv(Gf256::Pow2(j_target));
    for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
      uint64_t acc = content_->GetParity(stripe, s, 1);
      for (int32_t i = 0; i < n; ++i) {
        if (i != j_target) {
          acc ^= Gf256::MulWord(content_->GetData(stripe, i, s), Gf256::Pow2(i));
        }
      }
      content_->SetData(stripe, j_target, s, Gf256::MulWord(acc, inv));
    }
  }
  RecomputeParities(stripe, write_p, write_q);

  // Timing: n reads either way (n-1 survivors + a live parity for a data
  // target; all n data blocks for a parity target), then the target write
  // plus any refreshed parity.
  AddPeerReads(units, j_target, (!p_stale || q_stale) ? 0 : 1, step);
  if (j_target >= 0) {
    step->writes.push_back(units[j_target]);
  }
  if (write_p) {
    step->writes.push_back(units[n]);
  }
  if (write_q) {
    step->writes.push_back(units[n + 1]);
  }
  step->finish = [this, stripe, write_p, write_q] {
    if (write_p) {
      SetParityStale(stripe, 0, false);
    }
    if (write_q) {
      SetParityStale(stripe, 1, false);
    }
    UpdateExposure();
  };
}

// --- ArrayScheme snapshots --------------------------------------------------------

const char* Raid6Controller::SchemeName() const {
  switch (mode_) {
    case Raid6Mode::kSynchronous:
      return "raid6";
    case Raid6Mode::kDeferQ:
      return "raid6-deferQ";
    case Raid6Mode::kDeferBoth:
      return "raid6-deferPQ";
  }
  return "raid6";
}

SchemeState Raid6Controller::State() const {
  SchemeState st = ArrayEngine::State();
  st.parity_lag_bytes = both_stale_.Current();
  return st;
}

SchemeStats Raid6Controller::Stats() const {
  SchemeStats s = ArrayEngine::Stats();
  s.mean_parity_lag_bytes = MeanFullyExposedBytes();
  s.t_unprot_fraction = TBothStaleFraction();
  s.max_dirty_stripes = max_stale_stripes_;
  s.stripes_rebuilt = StripesRebuilt();
  s.afraid_mode_writes = deferred_mode_writes_;
  s.raid5_mode_writes = sync_mode_writes_;
  return s;
}

}  // namespace afraid
