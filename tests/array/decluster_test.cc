// Placement invariants for the declustered layout, checked against the same
// properties the left-symmetric layout guarantees: every logical block maps
// to exactly one physical unit, no two blocks share a unit, the design tiles
// every disk perfectly, and -- when the compiled design is a 2-design -- the
// rebuild reads of a failed disk land on every survivor exactly equally.

#include "array/decluster.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace afraid {
namespace {

// Rebuild-read histogram: for every stripe that uses `failed`, one unit is
// read from each other member disk. This is exactly what the controllers'
// reconstruction sweeps issue (n-1 data + parity reads per affected stripe).
std::map<int32_t, int64_t> SurvivorReads(const ArrayLayout& lay,
                                         int32_t failed) {
  std::map<int32_t, int64_t> reads;
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    if (!lay.StripeUsesDisk(s, failed)) {
      continue;
    }
    for (int32_t w = 0; w < lay.parity_blocks(); ++w) {
      const int32_t d = lay.ParityDisk(s, w);
      if (d != failed) {
        ++reads[d];
      }
    }
    for (int32_t j = 0; j < lay.data_blocks_per_stripe(); ++j) {
      const int32_t d = lay.DataDisk(s, j);
      if (d != failed) {
        ++reads[d];
      }
    }
  }
  return reads;
}

// Every (disk, byte_offset) cell each layout touches, with multiplicity
// checked to be one. Shared by the per-layout invariant tests below.
void ExpectCollisionFreePerfectTiling(const ArrayLayout& lay) {
  std::set<std::pair<int32_t, int64_t>> cells;
  std::vector<int64_t> per_disk(static_cast<size_t>(lay.num_disks()), 0);
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    std::set<int32_t> in_stripe;
    for (int32_t w = 0; w < lay.parity_blocks(); ++w) {
      const BlockLoc pl = lay.ParityLocation(s, w);
      EXPECT_EQ(pl.disk, lay.ParityDisk(s, w));
      EXPECT_EQ(pl.byte_offset % lay.stripe_unit(), 0);
      EXPECT_LT(pl.byte_offset, lay.DiskDataBytes());
      EXPECT_TRUE(cells.insert({pl.disk, pl.byte_offset}).second)
          << "parity collision at stripe " << s;
      EXPECT_TRUE(in_stripe.insert(pl.disk).second);
      ++per_disk[static_cast<size_t>(pl.disk)];
    }
    for (int32_t j = 0; j < lay.data_blocks_per_stripe(); ++j) {
      const BlockLoc dl = lay.DataLocation(s, j);
      EXPECT_EQ(dl.disk, lay.DataDisk(s, j));
      EXPECT_EQ(dl.byte_offset % lay.stripe_unit(), 0);
      EXPECT_LT(dl.byte_offset, lay.DiskDataBytes());
      EXPECT_TRUE(cells.insert({dl.disk, dl.byte_offset}).second)
          << "data collision at stripe " << s << " block " << j;
      EXPECT_TRUE(in_stripe.insert(dl.disk).second)
          << "stripe " << s << " repeats a disk";
      ++per_disk[static_cast<size_t>(dl.disk)];
    }
    EXPECT_EQ(in_stripe.size(), static_cast<size_t>(lay.stripe_width()));
  }
  // Exactly num_stripes * k units, spread evenly: the design tiles each
  // disk's data region with no holes below DiskDataBytes.
  EXPECT_EQ(cells.size(),
            static_cast<size_t>(lay.num_stripes()) * lay.stripe_width());
  const int64_t units_per_disk = lay.DiskDataBytes() / lay.stripe_unit();
  for (int32_t d = 0; d < lay.num_disks(); ++d) {
    EXPECT_EQ(per_disk[static_cast<size_t>(d)], units_per_disk)
        << "disk " << d << " not perfectly tiled";
  }
}

TEST(Decluster, TabulatedDifferenceSetsAreTwoDesigns) {
  struct Case {
    int32_t c, k;
  };
  for (const auto& tc : {Case{7, 3}, Case{11, 5}, Case{13, 4}, Case{21, 5}}) {
    DeclusteredLayout lay(tc.c, 8192, 3000 * 8192, 1, tc.k);
    EXPECT_EQ(lay.blocks_per_rotation(), tc.c);
    EXPECT_TRUE(lay.pair_balanced()) << "(" << tc.c << "," << tc.k << ")";
    // 2-design identity: lambda * (C-1) = r * (k-1), with b = C so r = k.
    EXPECT_EQ(lay.pair_lambda() * (tc.c - 1), tc.k * (tc.k - 1));
  }
}

TEST(Decluster, CompleteDesignIsTwoDesign) {
  // No tabulated (10, 4); binom(10, 4) = 210 fits the table budget.
  DeclusteredLayout lay(10, 8192, 3000 * 8192, 1, 4);
  EXPECT_EQ(lay.blocks_per_rotation(), 210);
  EXPECT_TRUE(lay.pair_balanced());
  EXPECT_EQ(lay.pair_lambda(), 28);  // binom(C-2, k-2) = binom(8, 2).
}

TEST(Decluster, IntervalFallbackIsDeclusteredButNotBalanced) {
  // binom(24, 3) = 2024 exceeds the complete-design budget, no tabulated
  // set: the consecutive-interval fallback kicks in.
  DeclusteredLayout lay(24, 8192, 3000 * 8192, 1, 3);
  EXPECT_EQ(lay.blocks_per_rotation(), 24);
  EXPECT_FALSE(lay.pair_balanced());
  EXPECT_EQ(lay.pair_lambda(), 0);
  ExpectCollisionFreePerfectTiling(lay);
}

TEST(Decluster, CollisionFreePerfectTilingBothLayouts) {
  for (int32_t parity : {1, 2}) {
    StripeLayout stripe(8, 8192, 200 * 8192, parity);
    ExpectCollisionFreePerfectTiling(stripe);
    DeclusteredLayout decl(8, 8192, 200 * 8192, parity, 5);
    ExpectCollisionFreePerfectTiling(decl);
  }
  DeclusteredLayout fano(7, 8192, 500 * 8192, 1, 3);
  ExpectCollisionFreePerfectTiling(fano);
}

// UnitLocations writes the role ring a second time, as one loop from the
// anchor; every unit must equal the per-unit query for every stripe of at
// least one full placement period (`period` stripes).
void ExpectUnitLocationsMatchPerUnitQueries(const ArrayLayout& lay, int64_t period) {
  ASSERT_GE(lay.num_stripes(), period);
  const int32_t n = lay.data_blocks_per_stripe();
  std::vector<BlockLoc> units(static_cast<size_t>(lay.stripe_width()));
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    lay.UnitLocations(s, units.data());
    for (int32_t j = 0; j < n; ++j) {
      EXPECT_EQ(units[static_cast<size_t>(j)], lay.DataLocation(s, j))
          << "stripe " << s << " data block " << j;
    }
    for (int32_t w = 0; w < lay.parity_blocks(); ++w) {
      EXPECT_EQ(units[static_cast<size_t>(n + w)], lay.ParityLocation(s, w))
          << "stripe " << s << " parity " << w;
    }
  }
}

TEST(Decluster, UnitLocationsMatchPerUnitQueries) {
  // Left-symmetric with no parity (the mirror's columns), P, and P+Q.
  for (int32_t parity : {0, 1, 2}) {
    StripeLayout stripe(8, 8192, 50 * 8192, parity);
    ExpectUnitLocationsMatchPerUnitQueries(stripe, stripe.num_disks());
  }
  for (int32_t parity : {1, 2}) {
    DeclusteredLayout decl(8, 8192, 200 * 8192, parity, 5);
    ExpectUnitLocationsMatchPerUnitQueries(
        decl, int64_t{decl.blocks_per_rotation()} * decl.stripe_width());
    DeclusteredLayout plane(13, 8192, 100 * 8192, parity, 4);
    ExpectUnitLocationsMatchPerUnitQueries(
        plane, int64_t{plane.blocks_per_rotation()} * plane.stripe_width());
  }
}

TEST(Decluster, StripeUsesDiskMatchesMembership) {
  DeclusteredLayout lay(13, 8192, 1000 * 8192, 1, 4);
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    std::set<int32_t> members;
    members.insert(lay.ParityDisk(s));
    for (int32_t j = 0; j < lay.data_blocks_per_stripe(); ++j) {
      members.insert(lay.DataDisk(s, j));
    }
    for (int32_t d = 0; d < lay.num_disks(); ++d) {
      EXPECT_EQ(lay.StripeUsesDisk(s, d), members.count(d) > 0)
          << "stripe " << s << " disk " << d;
    }
  }
}

TEST(Decluster, RebuildReadsExactlyBalancedForTwoDesigns) {
  // Fano plane: lambda = 1, every survivor is read exactly once per
  // rotation. The left-symmetric reference reads every survivor on every
  // stripe -- the full array, which is exactly the imbalance-free but
  // unthrottled behavior declustering improves on.
  DeclusteredLayout lay(7, 8192, 700 * 8192, 1, 3);
  ASSERT_TRUE(lay.pair_balanced());
  for (int32_t failed : {0, 3, 6}) {
    const auto reads = SurvivorReads(lay, failed);
    ASSERT_EQ(reads.size(), static_cast<size_t>(lay.num_disks() - 1));
    for (const auto& [disk, count] : reads) {
      EXPECT_EQ(count, lay.pair_lambda() * lay.rotations())
          << "survivor " << disk << " after failing " << failed;
    }
  }
  // Work touched: lambda*(C-1) units per rotation out of r*C total, i.e.
  // the declustering ratio alpha = (k-1)/(C-1) of each survivor.
  const auto reads = SurvivorReads(lay, 0);
  const int64_t units_per_disk = lay.DiskDataBytes() / lay.stripe_unit();
  for (const auto& [disk, count] : reads) {
    EXPECT_DOUBLE_EQ(static_cast<double>(count) / units_per_disk,
                     lay.declustering_ratio());
  }
}

TEST(Decluster, NaiveIntervalMapperIsNotBalanced) {
  // The reference point for the 2-design guarantee: consecutive-interval
  // placement declusters (only k-1 survivors per affected stripe) but piles
  // rebuild reads onto the failed disk's near neighbors.
  DeclusteredLayout lay(24, 8192, 3000 * 8192, 1, 3);
  ASSERT_FALSE(lay.pair_balanced());
  const auto reads = SurvivorReads(lay, 5);
  int64_t lo = INT64_MAX;
  int64_t hi = 0;
  for (const auto& [disk, count] : reads) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  // Neighbors at distance 1 co-occur in two interval blocks per rotation,
  // distance 2 in one: a 2:1 skew a 2-design would never show.
  EXPECT_GT(hi, lo);
}

TEST(Decluster, LeftSymmetricUsesEveryDiskEveryStripe) {
  StripeLayout lay(8, 8192, 100 * 8192, 1);
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    for (int32_t d = 0; d < lay.num_disks(); ++d) {
      EXPECT_TRUE(lay.StripeUsesDisk(s, d));
    }
  }
}

TEST(Decluster, SplitIsExactCoverOverDeclusteredCapacity) {
  Rng rng(11);
  DeclusteredLayout lay(13, 8192, 4000 * 8192, 1, 4);
  const int64_t cap = lay.data_capacity_bytes();
  EXPECT_EQ(cap, lay.num_stripes() * 3 * 8192);  // k - parity data blocks.
  for (int i = 0; i < 1000; ++i) {
    const int64_t size = rng.UniformInt(1, 100 * 1024);
    const int64_t off = rng.UniformInt(0, cap - size);
    const auto segs = lay.Split(off, size);
    int64_t expect = off;
    int64_t total = 0;
    for (const Segment& seg : segs) {
      EXPECT_EQ(seg.logical_offset, expect);
      EXPECT_GT(seg.length, 0);
      EXPECT_LE(seg.offset_in_block + seg.length, 8192);
      EXPECT_LT(seg.block_in_stripe, lay.data_blocks_per_stripe());
      EXPECT_EQ(lay.LogicalOffsetOf(seg.stripe, seg.block_in_stripe) +
                    seg.offset_in_block,
                seg.logical_offset);
      expect += seg.length;
      total += seg.length;
    }
    EXPECT_EQ(total, size);
  }
}

TEST(Decluster, RotationsShiftParityAcrossMembers) {
  // Within one block of the design, the parity role must rotate across the
  // member disks as rotations advance (no fixed parity disk per block).
  DeclusteredLayout lay(7, 8192, 700 * 8192, 1, 3);
  ASSERT_GE(lay.rotations(), 3);
  const int64_t b = lay.blocks_per_rotation();
  std::set<int32_t> parity_disks;
  for (int64_t rot = 0; rot < 3; ++rot) {
    parity_disks.insert(lay.ParityDisk(rot * b));  // Block 0 each rotation.
  }
  EXPECT_EQ(parity_disks.size(), 3u);
}

TEST(Decluster, MakeLayoutSelectsAndFallsBack) {
  auto decl = MakeLayout(LayoutKind::kDeclustered, 13, 8192, 1000 * 8192, 1, 4);
  EXPECT_STREQ(decl->LayoutName(), "declustered");
  auto left = MakeLayout(LayoutKind::kLeftSymmetric, 13, 8192, 1000 * 8192, 1, 0);
  EXPECT_STREQ(left->LayoutName(), "left-symmetric");
  // Too few disks for any k with parity+2 <= k < C: degrade gracefully.
  auto tiny = MakeLayout(LayoutKind::kDeclustered, 3, 8192, 1000 * 8192, 1, 0);
  EXPECT_STREQ(tiny->LayoutName(), "left-symmetric");
  // Width 0 picks AutoWidth.
  auto autow = MakeLayout(LayoutKind::kDeclustered, 10, 8192, 1000 * 8192, 1, 0);
  EXPECT_STREQ(autow->LayoutName(), "declustered");
  EXPECT_EQ(autow->stripe_width(),
            DeclusteredLayout::AutoWidth(10, 1));
}

TEST(Decluster, AutoWidthStaysInRange) {
  for (int32_t parity : {1, 2}) {
    for (int32_t c = parity + 3; c <= 40; ++c) {
      const int32_t k = DeclusteredLayout::AutoWidth(c, parity);
      EXPECT_GE(k, parity + 2) << "C=" << c;
      EXPECT_LT(k, c) << "C=" << c;
    }
  }
}

TEST(Decluster, LayoutKindNamesRoundTrip) {
  LayoutKind kind = LayoutKind::kLeftSymmetric;
  EXPECT_TRUE(LayoutKindFromName("declustered", &kind));
  EXPECT_EQ(kind, LayoutKind::kDeclustered);
  EXPECT_TRUE(LayoutKindFromName("left-symmetric", &kind));
  EXPECT_EQ(kind, LayoutKind::kLeftSymmetric);
  EXPECT_FALSE(LayoutKindFromName("zigzag", &kind));
  EXPECT_STREQ(LayoutKindName(LayoutKind::kDeclustered), "declustered");
  EXPECT_STREQ(LayoutKindName(LayoutKind::kLeftSymmetric), "left-symmetric");
}

}  // namespace
}  // namespace afraid
