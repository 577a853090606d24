// The disk model's table-driven hot path must be bit-identical to the
// per-track formulas it replaced. Those formulas live on here, verbatim, as
// the oracle: ToChs by plain division, the track skew recomputed with ceil on
// every track visit, the rotational slot and media time in doubles, and the
// analytic seek curve. Every ServiceBreakdown field and the end cylinder are
// compared exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "disk/disk_model.h"
#include "disk/disk_spec.h"
#include "disk/geometry.h"
#include "disk/seek_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

class OracleDisk {
 public:
  explicit OracleDisk(DiskSpec spec) : spec_(std::move(spec)), seek_(spec_.seek) {
    for (const DiskZone& z : spec_.zones) {
      zone_first_sector_.push_back(total_sectors_);
      zone_first_cylinder_.push_back(total_cylinders_);
      total_sectors_ += static_cast<int64_t>(z.cylinders) * spec_.heads * z.sectors_per_track;
      total_cylinders_ += z.cylinders;
    }
  }

  int64_t TotalSectors() const { return total_sectors_; }
  int32_t TotalCylinders() const { return total_cylinders_; }
  const std::vector<int64_t>& ZoneFirstSectors() const { return zone_first_sector_; }

  Chs ToChs(int64_t lba) const {
    size_t zi = spec_.zones.size() - 1;
    for (size_t i = 0; i + 1 < spec_.zones.size(); ++i) {
      if (lba < zone_first_sector_[i + 1]) {
        zi = i;
        break;
      }
    }
    const DiskZone& z = spec_.zones[zi];
    const int64_t in_zone = lba - zone_first_sector_[zi];
    const int64_t sectors_per_cyl = static_cast<int64_t>(spec_.heads) * z.sectors_per_track;
    Chs chs;
    chs.zone = static_cast<int32_t>(zi);
    const int64_t cyl_in_zone = in_zone / sectors_per_cyl;
    chs.cylinder = zone_first_cylinder_[zi] + static_cast<int32_t>(cyl_in_zone);
    const int64_t in_cyl = in_zone - cyl_in_zone * sectors_per_cyl;
    chs.head = static_cast<int32_t>(in_cyl / z.sectors_per_track);
    chs.sector = static_cast<int32_t>(in_cyl % z.sectors_per_track);
    chs.track_index = static_cast<int64_t>(chs.cylinder) * spec_.heads + chs.head;
    chs.sectors_per_track = z.sectors_per_track;
    return chs;
  }

  int32_t TrackSkew(int32_t sectors_per_track) const {
    const double rev = static_cast<double>(spec_.RevolutionTime());
    const double worst_move = std::max<double>(
        static_cast<double>(spec_.head_switch),
        static_cast<double>(seek_.AnalyticSeekTime(1) + spec_.write_settle));
    const double frac = worst_move / rev;
    return static_cast<int32_t>(std::ceil(frac * sectors_per_track)) + 1;
  }

  SimDuration RotationalWait(SimTime now, const Chs& chs) const {
    const int64_t rev = spec_.RevolutionTime();
    const int32_t spt = chs.sectors_per_track;
    const int64_t skew = static_cast<int64_t>(TrackSkew(spt)) * chs.track_index;
    const int32_t slot = static_cast<int32_t>((chs.sector + skew) % spt);
    const double target_frac = static_cast<double>(slot) / spt;
    const double cur_frac = static_cast<double>(now % rev) / static_cast<double>(rev);
    double wait_frac = target_frac - cur_frac;
    if (wait_frac < 0.0) {
      wait_frac += 1.0;
    }
    return static_cast<SimDuration>(wait_frac * static_cast<double>(rev) + 0.5);
  }

  ServiceBreakdown ComputeService(SimTime start, const DiskOp& op,
                                  int32_t from_cylinder, int32_t* end_cylinder,
                                  int32_t* tracks_visited) const {
    ServiceBreakdown bd;
    bd.overhead = spec_.controller_overhead;
    SimTime t = start + bd.overhead;
    Chs chs = ToChs(op.lba);
    bd.seek = seek_.AnalyticSeekTime(chs.cylinder - from_cylinder);
    if (op.is_write) {
      bd.seek += spec_.write_settle;
    }
    t += bd.seek;
    const int64_t rev = spec_.RevolutionTime();
    int64_t lba = op.lba;
    int32_t remaining = op.sectors;
    bool first_track = true;
    *tracks_visited = 0;
    while (remaining > 0) {
      if (!first_track) {
        const Chs next = ToChs(lba);
        SimDuration move = 0;
        if (next.cylinder == chs.cylinder) {
          move = spec_.head_switch;
        } else {
          move = seek_.AnalyticSeekTime(next.cylinder - chs.cylinder);
          if (op.is_write) {
            move += spec_.write_settle;
          }
        }
        bd.transfer += move;
        t += move;
        chs = next;
      }
      const SimDuration rot = RotationalWait(t, chs);
      bd.rotation += rot;
      t += rot;
      const int32_t on_track =
          std::min<int32_t>(remaining, chs.sectors_per_track - chs.sector);
      const auto media = static_cast<SimDuration>(
          static_cast<double>(rev) * on_track / chs.sectors_per_track + 0.5);
      bd.transfer += media;
      t += media;
      lba += on_track;
      remaining -= on_track;
      first_track = false;
      ++*tracks_visited;
    }
    *end_cylinder = ToChs(lba - 1).cylinder;
    return bd;
  }

 private:
  DiskSpec spec_;
  SeekModel seek_;
  int64_t total_sectors_ = 0;
  int32_t total_cylinders_ = 0;
  std::vector<int64_t> zone_first_sector_;
  std::vector<int32_t> zone_first_cylinder_;
};

void ExpectChsEq(const Chs& got, const Chs& want, int64_t lba) {
  ASSERT_EQ(got.zone, want.zone) << "lba " << lba;
  ASSERT_EQ(got.cylinder, want.cylinder) << "lba " << lba;
  ASSERT_EQ(got.head, want.head) << "lba " << lba;
  ASSERT_EQ(got.sector, want.sector) << "lba " << lba;
  ASSERT_EQ(got.track_index, want.track_index) << "lba " << lba;
  ASSERT_EQ(got.sectors_per_track, want.sectors_per_track) << "lba " << lba;
}

std::vector<DiskSpec> Presets() {
  return {DiskSpec::HpC3325Like(), DiskSpec::TinyTestDisk()};
}

// Walks every track of each preset: ToChs of a track's first and last
// sector matches the oracle, and NextTrack from anywhere on a track lands
// exactly where ToChs puts the next track's first sector.
TEST(DiskExactness, NextTrackMatchesToChsAtEveryBoundary) {
  for (const DiskSpec& spec : Presets()) {
    SCOPED_TRACE(spec.name);
    const DiskGeometry g(spec.zones, spec.heads, spec.sector_bytes);
    const OracleDisk oracle(spec);
    ASSERT_EQ(g.TotalSectors(), oracle.TotalSectors());
    int64_t tracks = 0;
    int32_t zone_steps = 0;
    for (int64_t lba = 0; lba < g.TotalSectors();) {
      const Chs first = g.ToChs(lba);
      ExpectChsEq(first, oracle.ToChs(lba), lba);
      const int64_t next_lba = lba + first.sectors_per_track;
      ExpectChsEq(g.ToChs(next_lba - 1), oracle.ToChs(next_lba - 1), next_lba - 1);
      ++tracks;
      if (next_lba == g.TotalSectors()) {
        break;
      }
      Chs stepped = g.ToChs(next_lba - 1);  // From the track's last sector.
      g.NextTrack(&stepped);
      ExpectChsEq(stepped, oracle.ToChs(next_lba), next_lba);
      Chs from_first = first;
      g.NextTrack(&from_first);
      ExpectChsEq(from_first, stepped, next_lba);
      zone_steps += stepped.zone != first.zone ? 1 : 0;
      lba = next_lba;
    }
    EXPECT_EQ(tracks, static_cast<int64_t>(g.TotalCylinders()) * g.Heads());
    EXPECT_EQ(zone_steps, static_cast<int32_t>(spec.zones.size()) - 1);
  }
}

// Draws an op from a mix that covers every path of the track walk: short
// random ops, multi-track runs, ops straddling a cylinder or zone boundary,
// and ops ending at the last sector.
DiskOp RandomOp(Rng& rng, const DiskSpec& spec, const OracleDisk& oracle) {
  const int64_t total = oracle.TotalSectors();
  const int32_t max_spt = spec.zones.front().sectors_per_track;
  const int32_t cyl_sectors = max_spt * spec.heads;
  DiskOp op;
  op.is_write = rng.Bernoulli(0.5);
  int64_t boundary = 0;
  switch (rng.UniformInt(0, 4)) {
    case 0:  // Short op anywhere.
      op.sectors = static_cast<int32_t>(rng.UniformInt(1, 64));
      op.lba = rng.UniformInt(0, total - op.sectors);
      return op;
    case 1:  // Multi-track run of up to two cylinders.
      op.sectors = static_cast<int32_t>(rng.UniformInt(1, 2 * cyl_sectors));
      op.lba = rng.UniformInt(0, total - op.sectors);
      return op;
    case 2: {  // Straddles a cylinder boundary.
      const int64_t lba = rng.UniformInt(0, total - 1);
      const Chs c = oracle.ToChs(lba);
      boundary = lba - (static_cast<int64_t>(c.head) * c.sectors_per_track + c.sector);
      break;
    }
    case 3:  // Straddles a zone boundary (or the disk's first sector).
      boundary = oracle.ZoneFirstSectors()[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oracle.ZoneFirstSectors().size()) - 1))];
      break;
    default:  // Ends at the last sector.
      op.sectors = static_cast<int32_t>(rng.UniformInt(1, 2 * cyl_sectors));
      op.lba = total - op.sectors;
      return op;
  }
  const int64_t before = rng.UniformInt(0, 2 * max_spt);
  op.lba = std::max<int64_t>(0, boundary - before);
  op.sectors = static_cast<int32_t>(rng.UniformInt(1, 3 * max_spt));
  op.sectors = static_cast<int32_t>(std::min<int64_t>(op.sectors, total - op.lba));
  return op;
}

TEST(DiskExactness, ComputeServiceMatchesPerTrackOracle) {
  for (const DiskSpec& spec : Presets()) {
    SCOPED_TRACE(spec.name);
    Simulator sim;
    const DiskModel disk(&sim, spec, 0);
    const OracleDisk oracle(spec);
    ASSERT_EQ(disk.TotalSectors(), oracle.TotalSectors());
    Rng rng(20240611);
    int64_t multi_track = 0;
    int64_t cylinder_crossing = 0;
    int64_t zone_crossing = 0;
    int64_t ends_at_last = 0;
    for (int i = 0; i < 100'000; ++i) {
      const DiskOp op = RandomOp(rng, spec, oracle);
      // Mostly within a few simulated hours; sometimes far beyond, where the
      // platter phase takes the hardware-divide path.
      const SimTime start = rng.Bernoulli(0.9) ? rng.UniformInt(0, Hours(8))
                                               : rng.UniformInt(0, Hours(24 * 365));
      const auto from = static_cast<int32_t>(rng.UniformInt(0, oracle.TotalCylinders() - 1));
      int32_t want_end = -1;
      int32_t tracks = 0;
      const ServiceBreakdown want = oracle.ComputeService(start, op, from, &want_end, &tracks);
      int32_t got_end = -1;
      const ServiceBreakdown got = disk.ComputeService(start, op, from, &got_end);
      ASSERT_EQ(got.overhead, want.overhead) << "op " << i;
      ASSERT_EQ(got.seek, want.seek) << "op " << i;
      ASSERT_EQ(got.rotation, want.rotation) << "op " << i;
      ASSERT_EQ(got.transfer, want.transfer) << "op " << i;
      ASSERT_EQ(got_end, want_end) << "op " << i;
      const Chs first = oracle.ToChs(op.lba);
      const Chs last = oracle.ToChs(op.lba + op.sectors - 1);
      multi_track += tracks > 1 ? 1 : 0;
      cylinder_crossing += last.cylinder != first.cylinder ? 1 : 0;
      zone_crossing += last.zone != first.zone ? 1 : 0;
      ends_at_last += op.lba + op.sectors == oracle.TotalSectors() ? 1 : 0;
    }
    EXPECT_GT(multi_track, 10'000);
    EXPECT_GT(cylinder_crossing, 1'000);
    if (spec.zones.size() > 1) {
      EXPECT_GT(zone_crossing, 1'000);
    }
    EXPECT_GT(ends_at_last, 1'000);
  }
}

}  // namespace
}  // namespace afraid
