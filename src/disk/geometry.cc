#include "disk/geometry.h"

#include <cstddef>

namespace afraid {

DiskGeometry::DiskGeometry(std::vector<DiskZone> zones, int32_t heads, int32_t sector_bytes)
    : zones_(std::move(zones)), heads_(heads), sector_bytes_(sector_bytes) {
  assert(!zones_.empty());
  assert(heads_ > 0);
  assert(sector_bytes_ > 0);
  for (const DiskZone& z : zones_) {
    assert(z.cylinders > 0 && z.sectors_per_track > 0);
    zone_first_sector_.push_back(total_sectors_);
    zone_first_cylinder_.push_back(total_cylinders_);
    zone_div_.push_back(
        {FastDiv64(static_cast<int64_t>(heads_) * z.sectors_per_track),
         FastDiv64(z.sectors_per_track)});
    total_sectors_ +=
        static_cast<int64_t>(z.cylinders) * heads_ * z.sectors_per_track;
    total_cylinders_ += z.cylinders;
  }
  zone_first_cylinder_.push_back(total_cylinders_);
}

int64_t DiskGeometry::ToLba(const Chs& chs) const {
  const auto zi = static_cast<size_t>(chs.zone);
  assert(zi < zones_.size());
  const DiskZone& z = zones_[zi];
  const int64_t cyl_in_zone = chs.cylinder - zone_first_cylinder_[zi];
  return zone_first_sector_[zi] +
         (cyl_in_zone * heads_ + chs.head) * static_cast<int64_t>(z.sectors_per_track) +
         chs.sector;
}

}  // namespace afraid
