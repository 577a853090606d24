#include "core/mirror_controller.h"

#include <cassert>
#include <utility>

namespace afraid {

// One "data" content slot per column for the primary copy and one "parity"
// slot per column for the twin, so copy divergence is observable.
MirrorController::MirrorController(Simulator* sim, const ArrayConfig& config,
                                   Probe probe)
    : ArrayEngine(sim, config,
                  std::make_unique<StripeLayout>(config.num_disks / 2,
                                                 config.stripe_unit_bytes,
                                                 DiskCapacityBytes(config),
                                                 /*parity_blocks=*/0),
                  /*content_parity_slots=*/config.num_disks / 2, /*stale_slots=*/0,
                  probe) {
  assert(cfg_.num_disks >= 2 && cfg_.num_disks % 2 == 0);
}

MirrorController::~MirrorController() = default;

int32_t MirrorController::ChooseReplica(int64_t stripe, int32_t primary,
                                        const DiskOp& op) const {
  const int32_t twin = primary + 1;
  const bool primary_ok = !DiskUnavailable(primary, stripe);
  const bool twin_ok = !DiskUnavailable(twin, stripe);
  if (!twin_ok) {
    return primary;
  }
  if (!primary_ok) {
    return twin;
  }
  const DiskModel& a = *disks_[static_cast<size_t>(primary)];
  const DiskModel& b = *disks_[static_cast<size_t>(twin)];
  // Fewest queued operations first (the strongest signal under load), then
  // the shorter positioning estimate from each arm's current cylinder, with
  // the lower disk id as the deterministic tie-break.
  if (a.QueueDepth() != b.QueueDepth()) {
    return a.QueueDepth() < b.QueueDepth() ? primary : twin;
  }
  int32_t end_cylinder = 0;
  const SimTime now = sim_->Now();
  const SimDuration ta =
      a.ComputeService(now, op, a.CurrentCylinder(), &end_cylinder).Total();
  const SimDuration tb =
      b.ComputeService(now, op, b.CurrentCylinder(), &end_cylinder).Total();
  return tb < ta ? twin : primary;
}

void MirrorController::ReadSegment(const Segment& seg, JoinBlock* join) {
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const int32_t col = layout_->DataDisk(seg.stripe, seg.block_in_stripe);
  const int32_t primary = 2 * col;
  const int64_t off = seg.stripe * layout_->stripe_unit() + seg.offset_in_block;
  DiskOp op;
  op.lba = off / sector;
  op.sectors = seg.length / sector;
  op.is_write = false;
  IssueDiskOp(ChooseReplica(seg.stripe, primary, op), off, seg.length, /*is_write=*/false,
              DiskOpPurpose::kClientRead, [join](bool) { join->Dec(true); });
}

void MirrorController::WriteSegment(uint64_t request_id, const Segment& seg,
                                    JoinBlock* join) {
  // The stripe lock serialises copy updates against the reconstruction
  // sweep's twin -> replacement copy, so the two halves cannot be observed
  // (or frozen) mid-divergence.
  locks_.Acquire(seg.stripe, LockMode::kExclusive, [this, request_id, seg, join] {
    const int32_t col = layout_->DataDisk(seg.stripe, seg.block_in_stripe);
    const int64_t off = seg.stripe * layout_->stripe_unit() + seg.offset_in_block;
    Step* step = NewWriteStep();
    for (int32_t side = 0; side < 2; ++side) {
      // With its twin out, one copy carries the write; the sweep recopies later.
      const int32_t d = 2 * col + side;
      step->writes.emplace_back(d, off, seg.length, DiskOpPurpose::kClientWrite,
                                DiskUnavailable(d, seg.stripe));
      if (content_ != nullptr) {
        step->wrote.emplace_back([this, request_id, seg, side] {
          const int32_t sector = cfg_.disk_spec.sector_bytes;
          const int32_t first = seg.offset_in_block / sector;
          const int64_t logical_first = seg.logical_offset / sector;
          for (int32_t i = 0; i < seg.length / sector; ++i) {
            const uint64_t v = ContentModel::MixTag(request_id, logical_first + i);
            if (side == 0) {
              content_->SetData(seg.stripe, seg.block_in_stripe, first + i, v);
            } else {
              content_->SetParity(seg.stripe, first + i, v, seg.block_in_stripe);
            }
          }
        });
      }
    }
    step->end = [this, stripe = seg.stripe, join](bool) {
      locks_.Release(stripe, LockMode::kExclusive);
      join->Dec(true);
    };
    IssueStep(step);
  });
}

// --- Replacement and the sweep step -----------------------------------------------

void MirrorController::BlankReplacedDisk(int32_t disk) {
  const int32_t col = disk / 2;
  const int32_t side = disk % 2;
  for (int64_t s : content_->TouchedStripes()) {
    const int32_t j = DataBlockOn(s, col);
    for (int32_t i = 0; i < content_->sectors_per_unit(); ++i) {
      if (side == 0) {
        content_->SetData(s, j, i, 0);
      } else {
        content_->SetParity(s, i, 0, j);
      }
    }
  }
}

void MirrorController::ReconstructStripe(int64_t stripe, int32_t target, Step* step) {
  const int32_t side = target % 2;
  const int32_t twin = side == 0 ? target + 1 : target - 1;
  const int64_t unit = layout_->stripe_unit();
  // Logical copy first, at step start: twin -> replacement, exact.
  if (content_ != nullptr) {
    // The column's block in this stripe (each column holds exactly one).
    const int32_t jb = DataBlockOn(stripe, target / 2);
    assert(jb >= 0);
    for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
      if (side == 0) {
        content_->SetData(stripe, jb, s, content_->GetParity(stripe, s, jb));
      } else {
        content_->SetParity(stripe, s, content_->GetData(stripe, jb, s), jb);
      }
    }
  }
  step->Read(BlockLoc{twin, stripe * unit});
  step->Write(BlockLoc{target, stripe * unit});
}

SchemeStats MirrorController::Stats() const {
  SchemeStats s = ArrayEngine::Stats();
  s.stripes_rebuilt = stripes_reconstructed_;
  return s;
}

}  // namespace afraid
