#include "core/afraid_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace afraid {

AfraidController::AfraidController(Simulator* sim, const ArrayConfig& config,
                                   std::unique_ptr<ParityPolicy> policy,
                                   const AvailabilityParams& avail_params, Probe probe)
    : ArrayEngine(sim, config, MakeStripedLayout(config, config.parity_blocks),
                  config.parity_blocks, config.marks_per_stripe, probe),
      policy_(std::move(policy)),
      avail_params_(avail_params),
      read_cache_(config.read_cache_bytes, config.stripe_unit_bytes),
      staging_(config.write_staging_bytes, config.stripe_unit_bytes),
      start_time_(sim->Now()),
      unprot_bytes_(sim->Now()) {
  assert(cfg_.parity_blocks == 1);  // RAID 6 lives in Raid6Controller.
  assert(cfg_.stripe_unit_bytes % cfg_.disk_spec.sector_bytes == 0);
  assert(cfg_.marks_per_stripe >= 1);
  // Bands must be sector-aligned on every block.
  assert((cfg_.stripe_unit_bytes / cfg_.disk_spec.sector_bytes) %
             cfg_.marks_per_stripe ==
         0);
}

AfraidController::~AfraidController() = default;

std::string AfraidController::PolicyLabel() const { return policy_->Name(); }

SchemeState AfraidController::State() const {
  SchemeState st = ArrayEngine::State();
  st.parity_lag_bytes = CurrentParityLagBytes();
  st.last_write_raid5 = last_write_raid5_;
  return st;
}

SchemeStats AfraidController::Stats() const {
  SchemeStats s = ArrayEngine::Stats();
  s.mean_parity_lag_bytes = MeanParityLagBytes();
  s.t_unprot_fraction = TUnprotFraction();
  s.max_dirty_stripes = MaxDirtyStripes();
  s.stripes_rebuilt = StripesRebuilt();
  s.rebuild_passes = RebuildPasses();
  s.afraid_mode_writes = afraid_mode_writes_;
  s.raid5_mode_writes = raid5_mode_writes_;
  s.disk_ops_rebuild = DiskOps(DiskOpPurpose::kRebuildRead) +
                       DiskOps(DiskOpPurpose::kRebuildWrite);
  s.disk_ops_parity = DiskOps(DiskOpPurpose::kParityWrite) +
                      DiskOps(DiskOpPurpose::kOldDataRead) +
                      DiskOps(DiskOpPurpose::kOldParityRead);
  s.cache_hits = CacheHits();
  s.idle_fraction = IdleFraction();
  return s;
}

PolicyContext AfraidController::MakePolicyContext() const {
  PolicyContext ctx;
  ctx.now = sim_->Now();
  ctx.elapsed = sim_->Now() - start_time_;
  ctx.dirty_stripes = nvram_.DirtyCount();
  ctx.t_unprot_fraction = TUnprotFraction();
  ctx.mean_parity_lag_bytes = MeanParityLagBytes();
  ctx.idle_fraction = IdleFraction();
  ctx.array_busy = ArrayBusy();
  ctx.avail = &avail_params_;
  return ctx;
}

// --- Bookkeeping helpers ------------------------------------------------------

void AfraidController::OnArrayBusy() {
  // The idle period that just ended is a predictor observation -- but only
  // if it outlived the detector delay: the prediction is consumed at
  // detector-fire time, so the relevant population is the periods that got
  // that far (inter-request micro-gaps would otherwise swamp the mean).
  const SimDuration period = sim_->Now() - idle_started_at_;
  if (period >= cfg_.idle_delay && period > 0) {
    idle_predictor_.ObserveIdlePeriod(period);
  }
}

bool AfraidController::WantRefresh(RefreshCue cue) {
  if (scrub_active_ || nvram_.failed()) {
    return false;
  }
  const PolicyContext ctx = MakePolicyContext();
  switch (cue) {
    case RefreshCue::kIdle:
      // The array has been completely idle for the configured delay.
      if (cfg_.use_idle_predictor) {
        // [Golding95]: skip gaps predicted too short for even one rebuild
        // step -- starting one would only collide with the next burst.
        const SimDuration predicted = idle_predictor_.PredictRemaining(cfg_.idle_delay);
        if (idle_predictor_.Observations() >= 4 &&
            static_cast<double>(predicted) < rebuild_step_estimate_ns_) {
          ++predictor_skips_;
          return false;
        }
      }
      return policy_->RebuildOnIdle(ctx);
    case RefreshCue::kActivity:
    case RefreshCue::kRecovered:
      return policy_->ForceRebuild(ctx);
    case RefreshCue::kStep:
      return policy_->ForceRebuild(ctx) || (!ArrayBusy() && policy_->RebuildOnIdle(ctx));
  }
  return false;
}

std::pair<int32_t, int32_t> AfraidController::BandsOfRange(int32_t offset_in_block,
                                                           int32_t length) const {
  const int64_t band_height = layout_->stripe_unit() / cfg_.marks_per_stripe;
  const auto first = static_cast<int32_t>(offset_in_block / band_height);
  const auto last = static_cast<int32_t>((offset_in_block + length - 1) / band_height);
  return {first, last};
}

void AfraidController::MarkBands(int64_t stripe, int32_t first_band,
                                 int32_t last_band) {
  assert(!nvram_.failed());
  assert(first_band >= 0 && last_band < cfg_.marks_per_stripe);
  for (int32_t b = first_band; b <= last_band; ++b) {
    if (MarkStale(stripe * cfg_.marks_per_stripe + b)) {
      unprot_bytes_.Add(sim_->Now(), static_cast<double>(BandBytesPerStripe()));
      max_dirty_ = std::max(max_dirty_, nvram_.DirtyCount());
    }
  }
}

void AfraidController::ClearBandKey(int64_t key) {
  // Exposure first: ClearStale may run a quiesce's done callback.
  if (nvram_.IsDirty(key)) {
    unprot_bytes_.Add(sim_->Now(), -static_cast<double>(BandBytesPerStripe()));
  } else if (!Quiescing()) {
    return;  // Nothing to clear, and no quiesce waits on the key.
  }
  ClearStale(key);
}

void AfraidController::ClearAllBands(int64_t stripe) {
  for (int32_t b = 0; b < cfg_.marks_per_stripe; ++b) {
    ClearBandKey(stripe * cfg_.marks_per_stripe + b);
  }
}

bool AfraidController::RangeDirty(int64_t stripe, int32_t offset_in_block,
                                  int32_t length) const {
  const auto [first, last] = BandsOfRange(offset_in_block, length);
  for (int32_t b = first; b <= last; ++b) {
    if (nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
      return true;
    }
  }
  return false;
}

bool AfraidController::WantRaid5Write() {
  if (nvram_.failed()) {
    return true;  // Without marking memory, deferring parity is unsafe.
  }
  return policy_->UseRaid5Write(MakePolicyContext());
}

// --- Reads ----------------------------------------------------------------------

void AfraidController::ReadSegment(const Segment& seg, JoinBlock* join) {
  const int32_t disk = layout_->DataDisk(seg.stripe, seg.block_in_stripe);
  if (DiskUnavailable(disk, seg.stripe)) {
    AfraidDegradedRead(seg, join);
    return;
  }
  const int64_t key = BlockKey(seg.stripe, seg.block_in_stripe);
  if (read_cache_.Lookup(key) || staging_.Lookup(key)) {
    sim_->After(cfg_.cache_hit_time, [join] { join->Dec(true); });
    return;
  }
  const int64_t disk_off =
      layout_->DataLocation(seg.stripe, seg.block_in_stripe).byte_offset +
      seg.offset_in_block;
  IssueDiskOp(disk, disk_off, seg.length, /*is_write=*/false,
              DiskOpPurpose::kClientRead, [this, seg, key, join](bool ok) {
                if (ok) {
                  if (seg.length == layout_->stripe_unit()) {
                    read_cache_.Insert(key);
                  }
                  join->Dec(true);
                } else {
                  // The disk died mid-flight: recover via parity.
                  AfraidDegradedRead(seg, join);
                }
              });
}

void AfraidController::AfraidDegradedRead(const Segment& seg, JoinBlock* parent) {
  const int64_t stripe = seg.stripe;
  locks_.Acquire(stripe, LockMode::kExclusive, [this, seg, stripe, parent] {
    const int32_t n = layout_->data_blocks_per_stripe();
    auto finish = [this, seg, stripe, parent](bool) {
      if (RangeDirty(stripe, seg.offset_in_block, seg.length)) {
        // Parity was stale for this band when the disk died: the
        // reconstructed bytes are not the data the client wrote. Record the
        // loss (Section 3.2).
        RecordLoss(LossCause::kStaleParityDegradedRead, stripe, seg.length);
      }
      locks_.Release(stripe, LockMode::kExclusive);
      parent->Dec(true);
    };
    JoinBlock* join = joins_.Make(n, finish);  // n-1 data reads + parity.
    for (int32_t j = 0; j < n; ++j) {
      if (j == seg.block_in_stripe) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      const int64_t off = dl.byte_offset + seg.offset_in_block;
      IssueDiskOp(dl.disk, off, seg.length, /*is_write=*/false,
                  DiskOpPurpose::kReconstructRead, [join](bool ok) { join->Dec(ok); });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe);
    const int64_t poff = pl.byte_offset + seg.offset_in_block;
    IssueDiskOp(pl.disk, poff, seg.length, /*is_write=*/false,
                DiskOpPurpose::kReconstructRead, [join](bool ok) { join->Dec(ok); });
  });
}

// --- Writes ---------------------------------------------------------------------

void AfraidController::RunStripeWriteGroup(uint64_t request_id, int64_t stripe,
                                           Span<Segment> segs, int32_t attempt,
                                           JoinBlock* group_join) {
  const bool degraded = StripeDegraded(stripe);
  // Per-region redundancy classes (Section 5) override the policy.
  const RedundancyClass cls = RegionClassOf(stripe);
  if (!degraded && cls == RedundancyClass::kAlwaysAfraid) {
    ++afraid_mode_writes_;
    AfraidWriteGroup(request_id, stripe, segs, attempt, group_join);
    return;
  }
  if (!degraded && cls == RedundancyClass::kNeverParity) {
    // RAID 0-style region: mark-and-forget (the rebuilder skips it).
    ++afraid_mode_writes_;
    AfraidWriteGroup(request_id, stripe, segs, attempt, group_join);
    return;
  }
  const bool forced_raid5 = cls == RedundancyClass::kAlwaysRaid5;
  // RAID 5 mode exists to avoid *adding* exposure. A write whose bands are
  // all already stale adds none -- they are unprotected either way until the
  // background rebuild reaches them -- so it can take the cheap AFRAID path
  // even in RAID 5 mode. (Degraded operation is the exception: parity must
  // be kept current to stand in for the missing disk.)
  bool already_exposed = !degraded && !forced_raid5;
  if (already_exposed) {
    for (const Segment& seg : segs) {
      const auto [first, last] = BandsOfRange(seg.offset_in_block, seg.length);
      for (int32_t b = first; b <= last; ++b) {
        if (!nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
          already_exposed = false;
          break;
        }
      }
      if (!already_exposed) {
        break;
      }
    }
  }
  // Evaluation order matters: WantRaid5Write() consults (and may advance)
  // the policy, so it must stay short-circuited exactly as before.
  const bool use_raid5 = degraded || forced_raid5 || (!already_exposed && WantRaid5Write());
  if (ctrl_probe_ && use_raid5 != last_write_raid5_) {
    ctrl_probe_.Instant(use_raid5 ? "mode: RAID5" : "mode: AFRAID", sim_->Now());
  }
  last_write_raid5_ = use_raid5;
  if (use_raid5) {
    ++raid5_mode_writes_;
    Raid5WriteGroup(request_id, stripe, segs, attempt, group_join);
  } else {
    ++afraid_mode_writes_;
    AfraidWriteGroup(request_id, stripe, segs, attempt, group_join);
  }
}

void AfraidController::AfraidWriteGroup(uint64_t request_id, int64_t stripe,
                                        Span<Segment> segs, int32_t attempt,
                                        JoinBlock* group_join) {
  locks_.Acquire(stripe, LockMode::kShared, [this, request_id, stripe, segs,
                                             attempt, group_join] {
    // Mark first: the bands must read as unredundant before any new data is
    // on disk, or a crash window would hide the stale parity.
    for (const Segment& seg : segs) {
      const auto [first, last] = BandsOfRange(seg.offset_in_block, seg.length);
      MarkBands(stripe, first, last);
    }
    TriggerRefresh(RefreshCue::kActivity);
    Step* step = NewWriteStep();
    DescribeRmw(request_id, stripe, segs, /*k=*/0, step);
    step->end = [this, request_id, stripe, segs, attempt, group_join](bool ok) {
      EndWriteGroup(request_id, stripe, segs, attempt, LockMode::kShared, ok, group_join);
    };
    IssueStep(step);
  });
}

void AfraidController::EndWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                                     int32_t attempt, LockMode mode, bool ok,
                                     JoinBlock* group_join) {
  locks_.Release(stripe, mode);
  if (!ok && attempt < 2) {
    // A disk died under us: rerun this group through the (now degraded)
    // RAID 5 path, which routes around the failed mechanism.
    RunStripeWriteGroup(request_id, stripe, segs, attempt + 1, group_join);
    return;
  }
  group_join->Dec(true);
}

void AfraidController::OnDataWritten(uint64_t request_id, const Segment& seg) {
  const int64_t key = BlockKey(seg.stripe, seg.block_in_stripe);
  if (seg.length == layout_->stripe_unit()) {
    staging_.Insert(key);
    read_cache_.Invalidate(key);
  } else {
    // Partial overwrite: any cached full-block copy is stale.
    staging_.Invalidate(key);
    read_cache_.Invalidate(key);
  }
  ApplyWriteContent(request_id, seg);
}

void AfraidController::Raid5WriteGroup(uint64_t request_id, int64_t stripe,
                                       Span<Segment> segs, int32_t attempt,
                                       JoinBlock* group_join) {
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs,
                                                attempt, group_join] {
    const int32_t n = layout_->data_blocks_per_stripe();
    // A stale band under any written range forces a from-scratch parity
    // recompute; stale bands *outside* the written ranges do not (per-band
    // parity validity is exactly what sub-stripe marking buys). So does a
    // degraded stripe (a pre-read might need the dead or not yet
    // reconstructed disk), and a group covering more than the configured
    // fraction of the stripe; the rest read-modify-write.
    bool dirty = false;
    int32_t fully_covered = 0;
    for (const Segment& seg : segs) {
      dirty = dirty || RangeDirty(stripe, seg.offset_in_block, seg.length);
      fully_covered += seg.length == layout_->stripe_unit() ? 1 : 0;
    }
    const bool rewrite =
        fully_covered == n || dirty || StripeDegraded(stripe) ||
        static_cast<double>(segs.count) > cfg_.reconstruct_write_fraction * static_cast<double>(n);
    Step* step = NewWriteStep();
    if (rewrite) {
      DescribeReconstructWrite(request_id, stripe, segs, /*k=*/1, failed_disk_,
                               /*read_partial=*/true, step);
    } else {
      DescribeRmw(request_id, stripe, segs, /*k=*/1, step);
    }
    step->end = [this, request_id, stripe, segs, attempt, rewrite, group_join](bool ok) {
      if (ok && rewrite) {
        ClearAllBands(stripe);  // The full parity unit is fresh again.
      }
      EndWriteGroup(request_id, stripe, segs, attempt, LockMode::kExclusive, ok, group_join);
    };
    IssueStep(step);
  });
}

bool AfraidController::OldDataCached(int64_t stripe, int32_t j) {
  const int64_t key = BlockKey(stripe, j);
  return read_cache_.Lookup(key) || staging_.Lookup(key);
}

void AfraidController::SetRegionClass(int64_t offset, int64_t length,
                                      RedundancyClass cls) {
  assert(length > 0);
  assert(offset >= 0 && offset + length <= layout_->data_capacity_bytes());
  Region r;
  r.first_stripe = layout_->StripeOfOffset(offset);
  r.last_stripe = layout_->StripeOfOffset(offset + length - 1);
  r.cls = cls;
  // Newest-first precedence: prepend.
  regions_.insert(regions_.begin(), r);
}

AfraidController::RedundancyClass AfraidController::RegionClassOf(
    int64_t stripe) const {
  for (const Region& r : regions_) {
    if (stripe >= r.first_stripe && stripe <= r.last_stripe) {
      return r.cls;
    }
  }
  return RedundancyClass::kPolicyDefault;
}

// --- Background parity rebuild and paritypoints ------------------------------------

void AfraidController::RefreshKey(int64_t key, Step* step) {
  const int64_t stripe = key / BandsPerStripe();
  // A racing RAID 5-mode write may have refreshed the parity while the step
  // waited for its lock: then the step is empty.
  const bool stale = nvram_.IsDirty(key);
  if (stale) {
    step->len = layout_->stripe_unit() / BandsPerStripe();
    step->rel = key % BandsPerStripe() * step->len;
    DescribeParityRewrite(stripe, step);
  }
  step->finish = [this, key, stripe, stale, start = step->start, rel = step->rel,
                  len = step->len] {
    if (stale) {
      RecomputeXorParity(stripe, rel, len);
      ClearBandKey(key);
    }
    // Keep the predictor's rebuild-quantum estimate fresh (EWMA).
    rebuild_step_estimate_ns_ +=
        0.2 * (static_cast<double>(sim_->Now() - start) - rebuild_step_estimate_ns_);
  };
}

void AfraidController::DescribeParityRewrite(int64_t stripe, Step* step) {
  const BlockLoc* units = MapStripe(stripe);
  AddPeerReads(units, -1, 0, step);
  step->Write(units[layout_->data_blocks_per_stripe()]);
}

void AfraidController::ParityPoint(int64_t offset, int64_t length,
                                   std::function<void()> done) {
  assert(length > 0);
  assert(offset >= 0 && offset + length <= layout_->data_capacity_bytes());
  const int64_t first = layout_->StripeOfOffset(offset);
  const int64_t last = layout_->StripeOfOffset(offset + length - 1);
  AwaitRefresh(first * BandsPerStripe(), (last + 1) * BandsPerStripe(), std::move(done));
}

// --- Recovery sweeps -------------------------------------------------------------------

void AfraidController::ReconstructStripe(int64_t stripe, int32_t target, Step* step) {
  // A replaced parity unit is recomputed from the data, losslessly even for
  // a dirty stripe. A replaced data block is the xor of the other data
  // blocks and the parity; if the parity was stale at failure time the xor
  // is *not* the lost data -- its stale bands are gone (the Section 3.2
  // small-loss mode): record it and move on.
  const int32_t j_target = DescribeXorRestore(stripe, target, step);
  int32_t dirty_bands = 0;
  for (int32_t b = 0; b < cfg_.marks_per_stripe; ++b) {
    if (nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
      ++dirty_bands;
    }
  }
  step->finish = [this, stripe, j_target, dirty_bands] {
    RestoreXorUnit(stripe, j_target);
    if (j_target >= 0 && dirty_bands > 0) {
      RecordLoss(LossCause::kStaleParityReconstruction, stripe,
                 dirty_bands * (layout_->stripe_unit() / cfg_.marks_per_stripe));
    }
    ClearAllBands(stripe);
  };
}

bool AfraidController::FailNvram() {
  nvram_.Fail();
  if (ctrl_probe_) {
    ctrl_probe_.Instant("nvram loss", sim_->Now());
  }
  return true;
}

bool AfraidController::StartFullScrub(std::function<void()> done) {
  // A failed or not yet reconstructed disk would fail stripes' reads or
  // parity write, yet the scrub would still end reporting full redundancy.
  if (scrub_active_ || RebuildInProgress() || failed_disk_ >= 0 || recovering_disk_ >= 0) {
    return false;
  }
  scrub_active_ = true;
  scrub_done_ = std::move(done);
  if (rebuild_probe_) {
    rebuild_probe_.AsyncBegin("scrub", 1, sim_->Now());
  }
  scrub_.next = 0;
  RunSteps(&scrub_, /*after_step=*/false);
  return true;
}

int64_t AfraidController::ScrubDriver::Next() {
  if (next < c_->layout_->num_stripes()) {
    return next++;
  }
  c_->scrub_active_ = false;
  if (c_->rebuild_probe_) {
    c_->rebuild_probe_.AsyncEnd("scrub", 1, c_->sim_->Now());
  }
  c_->nvram_.Repair();
  // Every stripe's parity is fresh: the true unprotected volume is zero
  // again (the marking bits lost in the NVRAM failure are irrelevant now).
  c_->unprot_bytes_.Set(c_->sim_->Now(), 0.0);
  auto done = std::move(c_->scrub_done_);
  if (done) {
    done();
  }
  return -1;
}

void AfraidController::ScrubDriver::Describe(int64_t stripe, Step* step) {
  c_->DescribeParityRewrite(stripe, step);
  step->finish = [this, stripe] { c_->RecomputeXorParity(stripe); };
}

// --- Functional read-back ------------------------------------------------------------

std::vector<uint64_t> AfraidController::ReadLogicalCurrent(int64_t offset,
                                                           int64_t length) const {
  assert(content_ != nullptr);
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  assert(offset % sector == 0 && length % sector == 0);
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(length / sector));
  layout_->SplitInto(offset, length, &read_back_scratch_);
  for (const Segment& seg : read_back_scratch_) {
    const bool degraded =
        DiskUnavailable(layout_->DataDisk(seg.stripe, seg.block_in_stripe), seg.stripe);
    const int32_t first = seg.offset_in_block / sector;
    const int32_t count = seg.length / sector;
    for (int32_t i = 0; i < count; ++i) {
      if (degraded) {
        out.push_back(content_->ReconstructData(seg.stripe, seg.block_in_stripe,
                                                first + i));
      } else {
        out.push_back(content_->GetData(seg.stripe, seg.block_in_stripe, first + i));
      }
    }
  }
  return out;
}

}  // namespace afraid
