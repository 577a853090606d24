#include "disk/disk_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace afraid {

DiskModel::DiskModel(Simulator* sim, DiskSpec spec, int32_t disk_id, Probe probe)
    : sim_(sim),
      spec_(std::move(spec)),
      geometry_(spec_.zones, spec_.heads, spec_.sector_bytes),
      seek_model_(spec_.seek),
      disk_id_(disk_id),
      probe_(probe),
      rev_(spec_.RevolutionTime()),
      rev_d_(static_cast<double>(rev_)),
      rev_div_(rev_),
      busy_time_(sim->Now()) {
  // Freeze the seek curve into a per-distance table: the longest possible
  // move is TotalCylinders-1, so every SeekTime the mechanism can ask for
  // becomes a load instead of a sqrt. The table is exact (see seek_model.h).
  seek_model_.PrecomputeTable(geometry_.TotalCylinders() - 1);

  // Per-zone rotation tables: a slot's angular position and the media time
  // of every run length a track can hold, each filled with the expression
  // the per-track computation used, so lookups are bit-identical to it.
  // Both vectors are sized up front: each ZoneTiming points into them.
  size_t frac_size = 0;
  size_t media_size = 0;
  for (const DiskZone& z : spec_.zones) {
    frac_size += static_cast<size_t>(z.sectors_per_track);
    media_size += static_cast<size_t>(z.sectors_per_track) + 1;
  }
  slot_frac_.reserve(frac_size);
  media_.reserve(media_size);
  zones_.reserve(spec_.zones.size());
  for (const DiskZone& z : spec_.zones) {
    const int32_t spt = z.sectors_per_track;
    ZoneTiming zt;
    zt.skew = TrackSkew(spt);
    zt.skew_step = static_cast<int32_t>(zt.skew % spt);
    zt.sectors_per_track = spt;
    zt.track_div = FastDiv64(spt);
    zt.slot_frac = slot_frac_.data() + slot_frac_.size();
    for (int32_t slot = 0; slot < spt; ++slot) {
      slot_frac_.push_back(static_cast<double>(slot) / spt);
    }
    zt.media = media_.data() + media_.size();
    for (int32_t n = 0; n <= spt; ++n) {
      media_.push_back(static_cast<SimDuration>(rev_d_ * n / spt + 0.5));
    }
    zones_.push_back(zt);
  }
  if (probe_) {
    queue_counter_name_ = "disk" + std::to_string(disk_id_) + " queue";
  }
}

int32_t DiskModel::TrackSkew(int32_t sectors_per_track) const {
  // One skew value stands in for both track skew and cylinder skew: enough
  // sectors to hide the worst single-track move -- a head switch, or a
  // track-to-track seek plus write settle -- plus one sector of margin.
  // (Real disks use a smaller skew for head switches; the approximation
  // costs well under a millisecond per head switch.)
  const double worst_move = std::max<double>(
      static_cast<double>(spec_.head_switch),
      static_cast<double>(seek_model_.SeekTime(1) + spec_.write_settle));
  const double frac = worst_move / rev_d_;
  return static_cast<int32_t>(std::ceil(frac * sectors_per_track)) + 1;
}

SimDuration DiskModel::RotationalWait(SimTime now, const ZoneTiming& zone,
                                      int32_t slot) const {
  const double cur_frac = static_cast<double>(rev_div_.Mod(now)) / rev_d_;
  double wait_frac = zone.slot_frac[slot] - cur_frac;
  if (wait_frac < 0.0) {
    wait_frac += 1.0;
  }
  return static_cast<SimDuration>(wait_frac * rev_d_ + 0.5);
}

ServiceBreakdown DiskModel::ComputeService(SimTime start, const DiskOp& op,
                                           int32_t from_cylinder,
                                           int32_t* end_cylinder) const {
  assert(op.sectors > 0);
  assert(op.lba >= 0 && op.lba + op.sectors <= geometry_.TotalSectors());

  ServiceBreakdown bd;
  bd.overhead = spec_.controller_overhead;
  SimTime t = start + bd.overhead;

  Chs chs = geometry_.ToChs(op.lba);
  // Writes settle after every repositioning.
  const SimDuration settle = op.is_write ? spec_.write_settle : 0;
  bd.seek = seek_model_.SeekTime(chs.cylinder - from_cylinder) + settle;
  t += bd.seek;
  const SimDuration cylinder_step = seek_model_.SeekTime(1) + settle;

  // A sector's rotational slot is its index shifted by the skew accumulated
  // over every earlier track: (sector + skew * track_index) mod spt. The
  // shift of the current track is carried from track to track.
  const ZoneTiming* zone = &zones_[static_cast<size_t>(chs.zone)];
  int32_t track_shift = static_cast<int32_t>(zone->track_div.Mod(zone->skew * chs.track_index));
  int32_t slot = chs.sector + track_shift;
  if (slot >= zone->sectors_per_track) {
    slot -= zone->sectors_per_track;
  }
  int32_t remaining = op.sectors;
  int32_t on_track = std::min(remaining, zone->sectors_per_track - chs.sector);
  for (;;) {
    const SimDuration rot = RotationalWait(t, *zone, slot);
    bd.rotation += rot;
    t += rot;
    const SimDuration media = zone->media[on_track];
    bd.transfer += media;
    t += media;
    remaining -= on_track;
    if (remaining == 0) {
      break;
    }
    // Move to the next track: same cylinder -> head switch; otherwise a
    // one-cylinder seek.
    const int32_t prev_zone = chs.zone;
    geometry_.NextTrack(&chs);
    const SimDuration move = chs.head != 0 ? spec_.head_switch : cylinder_step;
    bd.transfer += move;
    t += move;
    if (chs.zone != prev_zone) {
      zone = &zones_[static_cast<size_t>(chs.zone)];
      track_shift = static_cast<int32_t>(zone->track_div.Mod(zone->skew * chs.track_index));
    } else {
      track_shift += zone->skew_step;
      if (track_shift >= zone->sectors_per_track) {
        track_shift -= zone->sectors_per_track;
      }
    }
    slot = track_shift;
    on_track = std::min(remaining, zone->sectors_per_track);
  }

  if (end_cylinder != nullptr) {
    // Arm finishes over the cylinder holding the final sector.
    *end_cylinder = chs.cylinder;
  }
  return bd;
}

int32_t DiskModel::AcquireSlot() {
  if (free_slots_.empty()) {
    const auto base = static_cast<int32_t>(slot_chunks_.size()) * kSlotChunk;
    slot_chunks_.push_back(std::make_unique<OpSlot[]>(kSlotChunk));
    for (int32_t i = kSlotChunk - 1; i >= 0; --i) {
      free_slots_.push_back(base + i);
    }
  }
  const int32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void DiskModel::Submit(const DiskOp& op, DiskOpCallback done) {
  assert(op.sectors > 0);
  const SimTime now = sim_->Now();
  const int32_t index = AcquireSlot();
  OpSlot& s = Slot(index);
  s.op = op;
  s.submitted = now;
  s.done = std::move(done);
  if (failed_) {
    s.service_start = now;
    sim_->After(0, [this, index] { FailSlot(index); });
    return;
  }
  queue_.push_back(index);
  if (probe_) {
    probe_.Counter(queue_counter_name_, now, static_cast<double>(QueueDepth()));
  }
  if (!busy_) {
    StartNext();
  }
}

void DiskModel::StartNext() {
  assert(!busy_);
  if (queue_.empty() || failed_) {
    return;
  }
  const int32_t index = queue_.front();
  queue_.pop_front();
  OpSlot& s = Slot(index);
  busy_ = true;
  const SimTime now = sim_->Now();
  busy_time_.Set(now, 1.0);

  s.service_start = now;
  s.generation = generation_;
  int32_t end_cylinder = current_cylinder_;
  s.bd = ComputeService(now, s.op, current_cylinder_, &end_cylinder);
  current_cylinder_ = end_cylinder;
  sim_->After(s.bd.Total(), [this, index] { CompleteSlot(index); });
}

void DiskModel::CompleteSlot(int32_t index) {
  OpSlot& s = Slot(index);
  const SimTime now = sim_->Now();
  busy_ = false;
  busy_time_.Set(now, 0.0);
  if (probe_) {
    probe_.Counter(queue_counter_name_, now, static_cast<double>(QueueDepth()));
  }

  DiskOpResult result;
  result.submitted = s.submitted;
  result.service_start = s.service_start;
  result.finish = now;
  if (failed_ || s.generation != generation_) {
    // The mechanism died mid-flight (and may since have been replaced);
    // report failure, do not count the op.
    result.ok = false;
  } else {
    result.ok = true;
    result.breakdown = s.bd;
    CountCompleted(s.service_start, now, s.op.sectors);
  }
  // The callback runs in place. It may re-enter Submit and start the next
  // operation; StartNext still runs afterwards (see ROADMAP), and the slot is
  // freed only once both are done.
  s.done(result);
  if (!failed_) {
    StartNext();
  }
  s.done.Reset();
  free_slots_.push_back(index);
}

void DiskModel::FailSlot(int32_t index) {
  OpSlot& s = Slot(index);
  DiskOpResult result;
  result.ok = false;
  result.submitted = s.submitted;
  result.service_start = s.service_start;
  result.finish = s.service_start;
  s.done(result);
  s.done.Reset();
  free_slots_.push_back(index);
}

void DiskModel::Fail() {
  if (failed_) {
    return;
  }
  failed_ = true;
  // Everything queued (not yet started) fails now. The in-flight op, if any,
  // will observe failed_ when its completion event fires.
  const SimTime now = sim_->Now();
  while (!queue_.empty()) {
    const int32_t index = queue_.front();
    queue_.pop_front();
    Slot(index).service_start = now;
    sim_->After(0, [this, index] { FailSlot(index); });
  }
}

void DiskModel::Replace() {
  assert(queue_.empty());
  // A new mechanism: an op still in flight on the old one completes with
  // ok=false (CompleteSlot compares generations).
  ++generation_;
  failed_ = false;
  current_cylinder_ = 0;
}

}  // namespace afraid
