#include "array/decluster.h"

#include <algorithm>
#include <cassert>

namespace afraid {

namespace {

// Largest complete design compiled into tables; above this the construction
// falls back to the cyclic-interval design. binom(12,6) = 924 fits; the
// corresponding tables are a few tens of kilobytes.
constexpr int64_t kMaxCompleteBlocks = 1024;

int64_t Binomial(int32_t n, int32_t k) {
  if (k < 0 || k > n) {
    return 0;
  }
  k = std::min(k, n - k);
  int64_t result = 1;
  for (int32_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result > (int64_t{1} << 40)) {  // Plenty past kMaxCompleteBlocks.
      return result;
    }
  }
  return result;
}

// Cyclic difference sets D mod C: developing D (adding 0..C-1 to every
// element) yields a 2-design with b = C blocks and
// lambda = k*(k-1)/(C-1). The classics cover the small widths the
// projective-plane geometries exist for.
struct DifferenceSet {
  int32_t c;
  int32_t k;
  int32_t base[5];
};
constexpr DifferenceSet kDifferenceSets[] = {
    {7, 3, {0, 1, 3}},        // Fano plane, lambda = 1.
    {11, 5, {1, 3, 4, 5, 9}},  // Biplane, lambda = 2.
    {13, 4, {0, 1, 3, 9}},    // PG(2,3), lambda = 1.
    {21, 5, {0, 1, 6, 8, 18}},  // PG(2,4), lambda = 1.
};

}  // namespace

// Block design on num_disks points with block size stripe_width: `members`
// holds b sorted k-subsets, flattened.
struct DeclusteredLayout::Design {
  int32_t blocks = 0;
  std::vector<int32_t> members;  // [blocks * k], each block sorted.
};

DeclusteredLayout::Design DeclusteredLayout::BuildDesign(int32_t num_disks,
                                                         int32_t stripe_width) {
  Design design;
  const int32_t c = num_disks;
  const int32_t k = stripe_width;
  // 1. Tabulated cyclic difference set: b = C, smallest tables, 2-design.
  for (const DifferenceSet& ds : kDifferenceSets) {
    if (ds.c != c || ds.k != k) {
      continue;
    }
    design.blocks = c;
    design.members.reserve(static_cast<size_t>(c) * k);
    std::vector<int32_t> block(k);
    for (int32_t shift = 0; shift < c; ++shift) {
      for (int32_t i = 0; i < k; ++i) {
        const int32_t m = ds.base[i] + shift;
        block[i] = m >= c ? m - c : m;
      }
      std::sort(block.begin(), block.end());
      design.members.insert(design.members.end(), block.begin(), block.end());
    }
    return design;
  }
  // 2. Complete design (every k-subset): always a 2-design with
  // lambda = binom(C-2, k-2), when it fits the table budget.
  const int64_t complete_blocks = Binomial(c, k);
  if (complete_blocks <= kMaxCompleteBlocks) {
    design.blocks = static_cast<int32_t>(complete_blocks);
    design.members.reserve(static_cast<size_t>(complete_blocks) * k);
    std::vector<int32_t> subset(k);
    for (int32_t i = 0; i < k; ++i) {
      subset[i] = i;
    }
    while (true) {
      design.members.insert(design.members.end(), subset.begin(), subset.end());
      // Next k-subset in lexicographic order.
      int32_t i = k - 1;
      while (i >= 0 && subset[i] == c - k + i) {
        --i;
      }
      if (i < 0) {
        break;
      }
      ++subset[i];
      for (int32_t j = i + 1; j < k; ++j) {
        subset[j] = subset[j - 1] + 1;
      }
    }
    return design;
  }
  // 3. Cyclic consecutive intervals {i, .., i+k-1} mod C: b = C, r = k.
  // Declustered (every rebuild step reads only k-1 survivors) but not a
  // 2-design -- near neighbors of the failed disk absorb more rebuild reads
  // than distant ones.
  design.blocks = c;
  design.members.reserve(static_cast<size_t>(c) * k);
  std::vector<int32_t> block(k);
  for (int32_t start = 0; start < c; ++start) {
    for (int32_t i = 0; i < k; ++i) {
      const int32_t m = start + i;
      block[i] = m >= c ? m - c : m;
    }
    std::sort(block.begin(), block.end());
    design.members.insert(design.members.end(), block.begin(), block.end());
  }
  return design;
}

int64_t DeclusteredLayout::StripesFor(const Design& design, int32_t num_disks,
                                      int32_t stripe_width,
                                      int64_t disk_capacity_bytes,
                                      int64_t stripe_unit_bytes) {
  const int64_t units_per_disk = disk_capacity_bytes / stripe_unit_bytes;
  const int64_t r =
      static_cast<int64_t>(design.blocks) * stripe_width / num_disks;
  const int64_t rotations = units_per_disk / r;
  return rotations * design.blocks;
}

DeclusteredLayout::DeclusteredLayout(int32_t num_disks,
                                     int64_t stripe_unit_bytes,
                                     int64_t disk_capacity_bytes,
                                     int32_t parity_blocks,
                                     int32_t stripe_width)
    : DeclusteredLayout(num_disks, stripe_unit_bytes, disk_capacity_bytes,
                        parity_blocks, stripe_width,
                        BuildDesign(num_disks, stripe_width)) {}

DeclusteredLayout::DeclusteredLayout(int32_t num_disks,
                                     int64_t stripe_unit_bytes,
                                     int64_t disk_capacity_bytes,
                                     int32_t parity_blocks,
                                     int32_t stripe_width, Design design)
    : ArrayLayout(num_disks, stripe_unit_bytes, parity_blocks, stripe_width,
                  StripesFor(design, num_disks, stripe_width,
                             disk_capacity_bytes, stripe_unit_bytes)),
      blocks_(design.blocks),
      block_div_(design.blocks),
      period_div_(static_cast<int64_t>(design.blocks) * stripe_width) {
  assert(stripe_width < num_disks);
  assert(stripe_width >= parity_blocks + 1);
  // Every disk must appear in the same number of blocks (r); the generators
  // above guarantee it, this recomputes it from the tables.
  const int32_t c = num_disks;
  const int32_t k = stripe_width;
  assert(static_cast<int64_t>(blocks_) * k % c == 0);
  units_per_disk_per_rotation_ = static_cast<int32_t>(
      static_cast<int64_t>(blocks_) * k / c);
  rotations_ = num_stripes() / blocks_;
  assert(rotations_ > 0 &&
         "disk too small for one design rotation; use a smaller width or unit");

  member_disk_ = std::move(design.members);
  member_slot_.resize(member_disk_.size());
  uses_.assign(static_cast<size_t>(blocks_) * c, 0);
  std::vector<int32_t> used_so_far(c, 0);  // Blocks before t containing disk d.
  for (int32_t t = 0; t < blocks_; ++t) {
    for (int32_t pos = 0; pos < k; ++pos) {
      const int32_t d = member_disk_[static_cast<size_t>(t) * k + pos];
      assert(d >= 0 && d < c);
      assert(uses_[static_cast<size_t>(t) * c + d] == 0 &&
             "design block repeats a disk");
      uses_[static_cast<size_t>(t) * c + d] = 1;
      member_slot_[static_cast<size_t>(t) * k + pos] = used_so_far[d]++;
    }
  }
  for (int32_t d = 0; d < c; ++d) {
    assert(used_so_far[d] == units_per_disk_per_rotation_ &&
           "design is not disk-regular");
    (void)d;
  }

  // Role tables over the placement period b*k: stripe s sits in block
  // u mod b of rotation s / b, and the anchor parity position
  // (t + rot) mod k = (u mod b + u / b) mod k depends on s only through
  // u = s mod (b*k). Tabulating both turns every disk query into a single
  // FastDiv plus loads.
  const int64_t period = static_cast<int64_t>(blocks_) * k;
  u_to_t_.resize(period);
  anchor_pos_u_.resize(period);
  for (int64_t u = 0; u < period; ++u) {
    const auto t = static_cast<int32_t>(u % blocks_);
    const auto rot_mod_k = static_cast<int32_t>(u / blocks_);
    u_to_t_[u] = t;
    const int32_t p = t % k + rot_mod_k;  // < 2k.
    anchor_pos_u_[u] = p >= k ? p - k : p;
  }

  // Classify: 2-design iff every disk pair co-occurs in the same number of
  // blocks. Sets the balance guarantee tests and docs report.
  std::vector<int32_t> pair_count(static_cast<size_t>(c) * c, 0);
  for (int32_t t = 0; t < blocks_; ++t) {
    const int32_t* block = &member_disk_[static_cast<size_t>(t) * k];
    for (int32_t i = 0; i < k; ++i) {
      for (int32_t j = i + 1; j < k; ++j) {
        ++pair_count[static_cast<size_t>(block[i]) * c + block[j]];
      }
    }
  }
  pair_lambda_ = pair_count[1];  // Pair (0, 1).
  pair_balanced_ = true;
  for (int32_t i = 0; i < c && pair_balanced_; ++i) {
    for (int32_t j = i + 1; j < c; ++j) {
      if (pair_count[static_cast<size_t>(i) * c + j] != pair_lambda_) {
        pair_balanced_ = false;
        break;
      }
    }
  }
  if (!pair_balanced_) {
    pair_lambda_ = 0;
  }
}

int32_t DeclusteredLayout::ParityDisk(int64_t stripe, int32_t which) const {
  assert(which >= 0 && which < parity_blocks());
  const int64_t u = period_div_.Mod(stripe);
  // Parity fills the positions just left of the anchor (inclusive), data the
  // ones right of it -- the same role ring as the left-symmetric layout,
  // rotated by block index and rotation so every member disk takes every
  // role across a full k rotations.
  int32_t pos = AnchorPosAt(u) - (parity_blocks() - 1 - which);
  if (pos < 0) {
    pos += stripe_width();
  }
  return member_disk_[static_cast<size_t>(u_to_t_[u]) * stripe_width() + pos];
}

int32_t DeclusteredLayout::DataDisk(int64_t stripe, int32_t j) const {
  assert(j >= 0 && j < data_blocks_per_stripe());
  const int64_t u = period_div_.Mod(stripe);
  int32_t pos = AnchorPosAt(u) + 1 + j;  // < 2k.
  if (pos >= stripe_width()) {
    pos -= stripe_width();
  }
  return member_disk_[static_cast<size_t>(u_to_t_[u]) * stripe_width() + pos];
}

BlockLoc DeclusteredLayout::DataLocation(int64_t stripe, int32_t j) const {
  assert(j >= 0 && j < data_blocks_per_stripe());
  const int64_t u = period_div_.Mod(stripe);
  const int64_t rot = block_div_.Div(stripe);
  int32_t pos = AnchorPosAt(u) + 1 + j;
  if (pos >= stripe_width()) {
    pos -= stripe_width();
  }
  return LocAt(u_to_t_[u], rot, pos);
}

BlockLoc DeclusteredLayout::ParityLocation(int64_t stripe, int32_t which) const {
  assert(which >= 0 && which < parity_blocks());
  const int64_t u = period_div_.Mod(stripe);
  const int64_t rot = block_div_.Div(stripe);
  int32_t pos = AnchorPosAt(u) - (parity_blocks() - 1 - which);
  if (pos < 0) {
    pos += stripe_width();
  }
  return LocAt(u_to_t_[u], rot, pos);
}

void DeclusteredLayout::UnitLocations(int64_t stripe, BlockLoc* units) const {
  // The positions right of the anchor in turn, wrapping: data, then parity.
  const int64_t u = period_div_.Mod(stripe);
  const int64_t rot = block_div_.Div(stripe);
  int32_t pos = AnchorPosAt(u);
  for (int32_t i = 0; i < stripe_width(); ++i) {
    pos = pos + 1 == stripe_width() ? 0 : pos + 1;
    units[i] = LocAt(u_to_t_[u], rot, pos);
  }
}

int32_t DeclusteredLayout::AutoWidth(int32_t num_disks, int32_t parity_blocks) {
  int32_t k = (num_disks + 2) / 2;
  k = std::max(k, parity_blocks + 2);
  k = std::min(k, num_disks - 1);
  return k;
}

std::unique_ptr<ArrayLayout> MakeLayout(LayoutKind kind, int32_t num_disks,
                                        int64_t stripe_unit_bytes,
                                        int64_t disk_capacity_bytes,
                                        int32_t parity_blocks,
                                        int32_t decluster_width) {
  if (kind == LayoutKind::kDeclustered) {
    const int32_t k = decluster_width > 0
                          ? decluster_width
                          : DeclusteredLayout::AutoWidth(num_disks, parity_blocks);
    if (k >= parity_blocks + 2 && k < num_disks) {
      return std::make_unique<DeclusteredLayout>(
          num_disks, stripe_unit_bytes, disk_capacity_bytes, parity_blocks, k);
    }
    // Too few disks to decluster (a k-unit stripe needs k < C): fall back.
  }
  return std::make_unique<StripeLayout>(num_disks, stripe_unit_bytes,
                                        disk_capacity_bytes, parity_blocks);
}

}  // namespace afraid
