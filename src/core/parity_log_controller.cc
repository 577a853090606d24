#include "core/parity_log_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace afraid {

ParityLogConfig ParityLogConfig::FittedTo(int64_t disk_capacity_bytes) const {
  ParityLogConfig fitted = *this;
  fitted.log_region_bytes =
      std::min(fitted.log_region_bytes, disk_capacity_bytes / 4);
  fitted.nvram_buffer_bytes =
      std::min(fitted.nvram_buffer_bytes, fitted.log_region_bytes / 4);
  return fitted;
}

ParityLogController::ParityLogController(Simulator* sim, const ArrayConfig& config,
                                         const ParityLogConfig& log_config, Probe probe)
    : ArrayEngine(sim, config,
                  MakeStripedLayout(config, /*parity_blocks=*/1,
                                    log_config.FittedTo(DiskCapacityBytes(config))
                                        .log_region_bytes),
                  /*content_parity_slots=*/1, /*stale_slots=*/0, probe),
      log_cfg_(log_config.FittedTo(DiskCapacityBytes(config))) {
  assert(log_cfg_.log_region_bytes > log_cfg_.nvram_buffer_bytes);
}

ParityLogController::~ParityLogController() = default;

void ParityLogController::WriteSegment(uint64_t request_id, const Segment& seg,
                                       JoinBlock* join) {
  if (log_used_ >= log_cfg_.log_region_bytes) {
    // The log is hard-full: "the pending parity updates must be applied
    // immediately, interrupting foreground processing to do so." The
    // write resumes as soon as a replay batch reclaims space.
    ++hard_stalls_;
    stalled_.push_back(StalledWrite{request_id, seg, join});
  } else {
    RunSegmentWrite(request_id, seg, join, 0);
  }
}

void ParityLogController::UpdateContentForWrite(uint64_t request_id,
                                                const Segment& seg) {
  if (content_ == nullptr) {
    return;
  }
  ApplyWriteContent(request_id, seg);
  // The images are durable, so the parity information is always live: the
  // content model tracks the post-replay parity directly.
  RecomputeXorParity(seg.stripe, seg.offset_in_block, seg.length);
}

void ParityLogController::RunSegmentWrite(uint64_t request_id, const Segment& seg,
                                          JoinBlock* join, int32_t attempt) {
  locks_.Acquire(seg.stripe, LockMode::kExclusive, [this, request_id, seg, join, attempt] {
    const int64_t stripe = seg.stripe;
    // Read-modify-write on the data block only; the parity-update image
    // (old xor new) goes to the NVRAM log buffer instead of the parity disk.
    // While the data disk is out, the new data exists only as its (durable)
    // image until the sweep restores the block: no physical RMW happens.
    const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
    const int64_t off = dl.byte_offset + seg.offset_in_block;
    const bool dead = DiskUnavailable(dl.disk, stripe);
    Step* step = NewWriteStep();
    if (!dead) {
      step->reads.emplace_back(dl.disk, off, seg.length, DiskOpPurpose::kOldDataRead);
    }
    step->writes.emplace_back(dl.disk, off, seg.length, DiskOpPurpose::kClientWrite, dead);
    step->end = [this, request_id, seg, join, attempt](bool ok) {
      EndSegmentWrite(request_id, seg, join, attempt, ok);
    };
    IssueStep(step);
  });
}

void ParityLogController::EndSegmentWrite(uint64_t request_id, const Segment& seg,
                                          JoinBlock* join, int32_t attempt, bool ok) {
  if (ok) {
    UpdateContentForWrite(request_id, seg);
    AppendImages(seg.length);
  }
  locks_.Release(seg.stripe, LockMode::kExclusive);
  if (!ok && attempt < 2) {
    RunSegmentWrite(request_id, seg, join, attempt + 1);
    return;
  }
  join->Dec(true);
}

void ParityLogController::AppendImages(int64_t bytes) {
  nvram_used_ += bytes;
  if (nvram_used_ >= log_cfg_.nvram_buffer_bytes) {
    FlushBuffer();
  }
}

void ParityLogController::FlushBuffer() {
  // One large sequential write of the buffered images into the log region
  // (this is where parity logging earns its efficiency: the per-image cost
  // is a fraction of a rotation instead of a full RMW).
  const int64_t flush_bytes = nvram_used_;
  nvram_used_ = 0;
  ++log_flushes_;
  const int64_t log_start = layout_->DiskDataBytes();
  const int64_t region_per_disk = log_cfg_.log_region_bytes;
  const int64_t offset_in_region =
      (log_used_ / cfg_.num_disks) % std::max<int64_t>(
          region_per_disk - flush_bytes, 1);
  int32_t disk = log_disk_cursor_;
  log_disk_cursor_ = (log_disk_cursor_ + 1) % cfg_.num_disks;
  if (disk == failed_disk_) {
    // Log segments rotate; the dead disk's slot just moves to the next one
    // (at most one failure at a time, so a single skip suffices).
    disk = log_disk_cursor_;
    log_disk_cursor_ = (log_disk_cursor_ + 1) % cfg_.num_disks;
  }
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const int64_t aligned = std::max<int64_t>(
      sector, (flush_bytes / sector) * sector);
  IssueDiskOp(disk, log_start + (offset_in_region / sector) * sector, aligned,
              /*is_write=*/true, DiskOpPurpose::kParityWrite, [](bool) {});
  log_used_ += flush_bytes;
  // Background replay starts at the high-water mark, well before the log is
  // hard-full, so foreground writes rarely stall outright.
  if (!replaying_ &&
      log_used_ >= static_cast<int64_t>(
                       kHighWater * static_cast<double>(log_cfg_.log_region_bytes))) {
    StartReplay();
  }
}

void ParityLogController::StartReplay() {
  replaying_ = true;
  ++log_replays_;
  ReplayNextBatch(log_used_);
}

void ParityLogController::ReplayNextBatch(int64_t remaining_bytes) {
  (void)remaining_bytes;
  // Stop once drained to the low-water mark: the array returns to pure
  // foreground service and the log refills before the next replay.
  if (log_used_ <= static_cast<int64_t>(
                       kLowWater * static_cast<double>(log_cfg_.log_region_bytes))) {
    replaying_ = false;
    return;
  }
  const int64_t unit = layout_->stripe_unit();
  const int64_t batch_bytes = std::min<int64_t>(
      log_used_, static_cast<int64_t>(log_cfg_.replay_batch_stripes) * unit);
  const int64_t log_start = layout_->DiskDataBytes();
  const int32_t sector = cfg_.disk_spec.sector_bytes;

  // One big sequential log read, then parity read+write pairs for each
  // affected stripe unit, spread over the disks round-robin. Foreground
  // requests share the disks FCFS -- this is the Section 2 "interference".
  const auto parity_units = static_cast<int32_t>((batch_bytes + unit - 1) / unit);
  auto after_log = [this, parity_units, unit, batch_bytes](bool) {
    JoinBlock* join = joins_.Make(parity_units, [this, batch_bytes](bool) {
      // The batch's log space is reclaimed: resume any hard-stalled writes.
      log_used_ = std::max<int64_t>(0, log_used_ - batch_bytes);
      runnable_scratch_.swap(stalled_);
      for (const StalledWrite& w : runnable_scratch_) {
        RunSegmentWrite(w.request_id, w.seg, w.join, 0);
      }
      runnable_scratch_.clear();
      ReplayNextBatch(log_used_);
    });
    for (int32_t i = 0; i < parity_units; ++i) {
      // Representative parity locations spread across stripes and disks.
      const int64_t stripe =
          (replay_position_ + i) % std::max<int64_t>(layout_->num_stripes(), 1);
      const BlockLoc pl = layout_->ParityLocation(stripe);
      if (pl.disk == failed_disk_) {
        // The stripe's parity lives on the dead disk; the image stays
        // applied only logically until the sweep rewrites the block.
        sim_->After(0, [join] { join->Dec(true); });
        continue;
      }
      IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kRebuildRead, [this, pl, unit, join](bool) {
                    IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/true,
                                DiskOpPurpose::kRebuildWrite,
                                [join](bool) { join->Dec(true); });
                  });
    }
    replay_position_ += parity_units;
  };
  const int64_t aligned = std::max<int64_t>(
      sector, (batch_bytes / sector) * sector);
  const int32_t log_disk = log_disk_cursor_ == failed_disk_
                               ? (log_disk_cursor_ + 1) % cfg_.num_disks
                               : log_disk_cursor_;
  IssueDiskOp(log_disk, log_start, aligned, /*is_write=*/false,
              DiskOpPurpose::kRebuildRead, std::move(after_log));
}

// --- Reconstruction sweep step ----------------------------------------------------

void ParityLogController::ReconstructStripe(int64_t stripe, int32_t target, Step* step) {
  // Logical recovery at step start. Parity is always live (the images are
  // durable), so both directions are exact: no loss mode.
  RestoreXorUnit(stripe, DescribeXorRestore(stripe, target, step));
}

SchemeState ParityLogController::State() const {
  SchemeState st = ArrayEngine::State();
  st.rebuild_active = replaying_;
  st.dirty_marks = PendingImagesBytes();
  st.parity_lag_bytes = 0.0;  // Full redundancy at all times.
  return st;
}

SchemeStats ParityLogController::Stats() const {
  SchemeStats s = ArrayEngine::Stats();
  s.rebuild_passes = log_replays_;
  s.stripes_rebuilt = stripes_reconstructed_;
  return s;
}

}  // namespace afraid
