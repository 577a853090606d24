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

void Raid6Controller::EndWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                                    int32_t attempt, bool ok, JoinBlock* group_join) {
  locks_.Release(stripe, LockMode::kExclusive);
  if (!ok && attempt < 2) {
    // A disk died under the write: rerun the group, now degraded.
    RunWriteGroup(request_id, stripe, segs, attempt + 1, group_join);
    return;
  }
  group_join->Dec(true);
}

void Raid6Controller::RunWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                                    int32_t attempt, JoinBlock* group_join) {
  if (failed_disk_ >= 0 || recovering_disk_ >= 0) {
    DegradedWriteStripe(request_id, stripe, segs, attempt, group_join);
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
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs, attempt,
                                                group_join] {
    // A read-modify-write of the parities the mode keeps in the write's path.
    Step* step = NewWriteStep();
    DescribeRmw(request_id, stripe, segs, mode_ == Raid6Mode::kSynchronous ? 2
                                          : mode_ == Raid6Mode::kDeferQ  ? 1
                                                                         : 0,
                step);
    // Staleness marking happens before data hits the disk.
    if (mode_ != Raid6Mode::kSynchronous) {
      if (mode_ == Raid6Mode::kDeferBoth) {
        SetParityStale(stripe, 0, true);
      }
      SetParityStale(stripe, 1, true);
      max_stale_stripes_ = std::max(max_stale_stripes_, stale_q_);
      UpdateExposure();
    }
    step->end = [this, request_id, stripe, segs, attempt, group_join](bool ok) {
      EndWriteGroup(request_id, stripe, segs, attempt, ok, group_join);
    };
    IssueStep(step);
  });
}

void Raid6Controller::RefreshKey(int64_t key, Step* step) {
  const int64_t stripe = key / 2;
  const bool p_needed = ParityStale(stripe, 0);
  const BlockLoc* units = MapStripe(stripe);
  const int32_t n = layout_->data_blocks_per_stripe();
  AddPeerReads(units, -1, 0, step);
  if (p_needed) {
    step->Write(units[n]);
  }
  step->Write(units[n + 1]);
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
                                          Span<Segment> segs, int32_t attempt,
                                          JoinBlock* group_join) {
  // Degraded analogue of AFRAID's forced-RAID 5 mode: with a disk out,
  // deferring parity would leave the new data unprotected against the failure
  // already in progress, so the write becomes a synchronous reconstruct-write:
  // read the surviving untouched data blocks, write the data, and rewrite both
  // live parities from scratch.
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs, attempt,
                                                group_join] {
    const int32_t n = layout_->data_blocks_per_stripe();
    // The disk that cannot serve the stripe, if the sweep has not passed it.
    const int32_t dead = failed_disk_ >= 0                 ? failed_disk_
                         : stripe >= recovery_frontier_ ? recovering_disk_
                                                          : -1;
    const BlockLoc* units = MapStripe(stripe);
    const bool p_avail = units[n].disk != dead;
    const bool q_avail = units[n + 1].disk != dead;

    // If the unavailable disk holds a data block this group does not rewrite
    // and both parities were stale when the disk died, the recompute below
    // enshrines a value nobody can vouch for: that block's old bytes are lost
    // (Section 3.2's small-loss mode, RAID 6 flavour).
    if (ParityStale(stripe, 0) && ParityStale(stripe, 1)) {
      for (int32_t j = 0; j < n; ++j) {
        const bool written = std::any_of(segs.begin(), segs.end(), [j](const Segment& seg) {
          return seg.block_in_stripe == j;
        });
        if (!written && units[j].disk == dead) {
          RecordLoss(LossCause::kStaleParityReconstruction, stripe, layout_->stripe_unit());
        }
      }
    }

    // The exclusive lock spans the whole exchange, so the marks may lead the
    // writes. A parity on the unavailable disk stays stale-marked; the
    // reconstruction sweep rewrites it.
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

    // Ops aimed at the unavailable disk produce no traffic. The write leaves
    // partly written blocks unread, a modelling shortcut kept for its
    // outputs (AFRAID reads them).
    Step* step = NewWriteStep();
    DescribeReconstructWrite(request_id, stripe, segs, /*k=*/2, dead, /*read_partial=*/false,
                             step);
    step->end = [this, request_id, stripe, segs, attempt, group_join](bool ok) {
      EndWriteGroup(request_id, stripe, segs, attempt, ok, group_join);
    };
    IssueStep(step);
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
    step->Write(units[j_target]);
  }
  if (write_p) {
    step->Write(units[n]);
  }
  if (write_q) {
    step->Write(units[n + 1]);
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
