// Zoned disk geometry and logical-block addressing.
//
// Models a multi-zone (zone-bit-recorded) disk: outer zones hold more sectors
// per track than inner ones, which is what gives modern disks their higher
// sustained transfer rate on outer cylinders. Logical blocks are mapped in
// the conventional order: zone (outer to inner), then cylinder, then head
// (surface), then sector within the track.

#ifndef AFRAID_DISK_GEOMETRY_H_
#define AFRAID_DISK_GEOMETRY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fast_div.h"

namespace afraid {

struct DiskZone {
  int32_t cylinders = 0;          // Number of cylinders in this zone.
  int32_t sectors_per_track = 0;  // Sectors on each track of this zone.
};

// Physical coordinates of a logical block.
struct Chs {
  int32_t zone = 0;
  int32_t cylinder = 0;        // Global cylinder index (0 = outermost).
  int32_t head = 0;            // Surface index.
  int32_t sector = 0;          // Sector index within the track.
  int64_t track_index = 0;     // Global track index = cylinder * heads + head.
  int32_t sectors_per_track = 0;
};

class DiskGeometry {
 public:
  DiskGeometry(std::vector<DiskZone> zones, int32_t heads, int32_t sector_bytes);

  int64_t TotalSectors() const { return total_sectors_; }
  int64_t CapacityBytes() const { return total_sectors_ * sector_bytes_; }
  int32_t Heads() const { return heads_; }
  int32_t SectorBytes() const { return sector_bytes_; }
  int32_t TotalCylinders() const { return total_cylinders_; }
  const std::vector<DiskZone>& Zones() const { return zones_; }

  // Maps a logical block address (sector number) to physical coordinates.
  // Precondition: 0 <= lba < TotalSectors(). Inline (below the class): the
  // disk model calls it once per op.
  Chs ToChs(int64_t lba) const;

  // Inverse of ToChs (used by tests to prove the mapping is a bijection).
  int64_t ToLba(const Chs& chs) const;

  // Steps `chs` to sector 0 of the next track in LBA order: the next head,
  // else the next cylinder, else the first cylinder of the next zone. The
  // result equals ToChs() of that track's first sector, without the
  // divisions. Precondition: `chs` is not on the last track.
  void NextTrack(Chs* chs) const {
    chs->sector = 0;
    ++chs->track_index;
    if (++chs->head < heads_) {
      return;
    }
    chs->head = 0;
    ++chs->cylinder;
    const auto next_zone = static_cast<size_t>(chs->zone) + 1;
    if (chs->cylinder == zone_first_cylinder_[next_zone]) {
      assert(next_zone < zones_.size());
      chs->zone = static_cast<int32_t>(next_zone);
      chs->sectors_per_track = zones_[next_zone].sectors_per_track;
    }
  }

 private:
  std::vector<DiskZone> zones_;
  int32_t heads_;
  int32_t sector_bytes_;
  int32_t total_cylinders_ = 0;
  int64_t total_sectors_ = 0;
  // Precomputed per-zone cumulative values for O(#zones) lookup.
  std::vector<int64_t> zone_first_sector_;
  // One entry per zone plus a sentinel (TotalCylinders()), so entry z+1 is
  // always the end of zone z.
  std::vector<int32_t> zone_first_cylinder_;
  // Per-zone divisors for ToChs.
  struct ZoneDiv {
    FastDiv64 per_cylinder;  // By heads * sectors_per_track.
    FastDiv64 per_track;     // By sectors_per_track.
  };
  std::vector<ZoneDiv> zone_div_;
};

inline Chs DiskGeometry::ToChs(int64_t lba) const {
  assert(lba >= 0 && lba < total_sectors_);
  // Find the zone (few zones, so linear scan is fine and branch-predictable).
  size_t zi = zones_.size() - 1;
  for (size_t i = 0; i + 1 < zones_.size(); ++i) {
    if (lba < zone_first_sector_[i + 1]) {
      zi = i;
      break;
    }
  }
  const DiskZone& z = zones_[zi];
  const int64_t in_zone = lba - zone_first_sector_[zi];
  Chs chs;
  chs.zone = static_cast<int32_t>(zi);
  const ZoneDiv& div = zone_div_[zi];
  const int64_t cyl_in_zone = div.per_cylinder.Div(in_zone);
  chs.cylinder = zone_first_cylinder_[zi] + static_cast<int32_t>(cyl_in_zone);
  const int64_t in_cyl = in_zone - cyl_in_zone * div.per_cylinder.divisor();
  const int64_t head = div.per_track.Div(in_cyl);
  chs.head = static_cast<int32_t>(head);
  chs.sector = static_cast<int32_t>(in_cyl - head * z.sectors_per_track);
  chs.track_index = static_cast<int64_t>(chs.cylinder) * heads_ + chs.head;
  chs.sectors_per_track = z.sectors_per_track;
  return chs;
}

}  // namespace afraid

#endif  // AFRAID_DISK_GEOMETRY_H_
