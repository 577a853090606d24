#include "array/layout.h"

#include <algorithm>
#include <cstring>

namespace afraid {

const char* LayoutKindName(LayoutKind kind) {
  switch (kind) {
    case LayoutKind::kLeftSymmetric:
      return "left-symmetric";
    case LayoutKind::kDeclustered:
      return "declustered";
  }
  return "?";
}

bool LayoutKindFromName(const char* name, LayoutKind* kind) {
  if (std::strcmp(name, "left-symmetric") == 0) {
    *kind = LayoutKind::kLeftSymmetric;
    return true;
  }
  if (std::strcmp(name, "declustered") == 0) {
    *kind = LayoutKind::kDeclustered;
    return true;
  }
  return false;
}

ArrayLayout::ArrayLayout(int32_t num_disks, int64_t stripe_unit_bytes,
                         int32_t parity_blocks, int32_t stripe_width,
                         int64_t num_stripes)
    : num_disks_(num_disks),
      stripe_unit_(stripe_unit_bytes),
      parity_blocks_(parity_blocks),
      stripe_width_(stripe_width),
      num_stripes_(num_stripes) {
  // 0 parity blocks = a pure rotated striping layout (mirrored arrays use it
  // for their column space; ParityDisk is never asked for).
  assert(parity_blocks_ >= 0 && parity_blocks_ <= 2);
  assert(stripe_width_ >= parity_blocks_ + 1);
  assert(stripe_width_ <= num_disks_);
  assert(stripe_unit_ > 0);
  assert(num_stripes_ > 0);
  unit_div_ = FastDiv64(stripe_unit_);
  data_div_ = FastDiv64(data_blocks_per_stripe());
  stripe_bytes_div_ = FastDiv64(stripe_unit_ * data_blocks_per_stripe());
}

std::vector<Segment> ArrayLayout::Split(int64_t logical_offset, int64_t length) const {
  std::vector<Segment> segments;
  SplitInto(logical_offset, length, &segments);
  return segments;
}

void ArrayLayout::SplitInto(int64_t logical_offset, int64_t length,
                            std::vector<Segment>* segments) const {
  assert(logical_offset >= 0);
  assert(length > 0);
  assert(logical_offset + length <= data_capacity_bytes());
  segments->clear();
  int64_t off = logical_offset;
  int64_t remaining = length;
  while (remaining > 0) {
    const int64_t unit_index = unit_div_.Div(off);  // Global data-block index.
    const auto in_block = static_cast<int32_t>(off - unit_index * stripe_unit_);
    const auto len = static_cast<int32_t>(
        std::min<int64_t>(remaining, stripe_unit_ - in_block));
    const int64_t stripe = data_div_.Div(unit_index);
    Segment seg;
    seg.stripe = stripe;
    seg.block_in_stripe = static_cast<int32_t>(
        unit_index - stripe * data_blocks_per_stripe());
    seg.logical_offset = off;
    seg.offset_in_block = in_block;
    seg.length = len;
    segments->push_back(seg);
    off += len;
    remaining -= len;
  }
}

StripeLayout::StripeLayout(int32_t num_disks, int64_t stripe_unit_bytes,
                           int64_t disk_capacity_bytes, int32_t parity_blocks)
    : ArrayLayout(num_disks, stripe_unit_bytes, parity_blocks,
                  /*stripe_width=*/num_disks,
                  /*num_stripes=*/disk_capacity_bytes / stripe_unit_bytes),
      disks_div_(num_disks) {}

int32_t StripeLayout::ParityDisk(int64_t stripe, int32_t which) const {
  assert(which >= 0 && which < parity_blocks());
  // The "anchor" parity (Q when there are two) rotates right-to-left; P sits
  // immediately to its left (mod num_disks). With one parity block, the
  // anchor *is* P, giving the classic left-symmetric rotation.
  const int32_t anchor = AnchorDisk(stripe);
  if (which == parity_blocks() - 1) {
    return anchor;
  }
  const int32_t left = anchor + num_disks() - 1;  // < 2 * num_disks().
  return left >= num_disks() ? left - num_disks() : left;
}

int32_t StripeLayout::DataDisk(int64_t stripe, int32_t j) const {
  assert(j >= 0 && j < data_blocks_per_stripe());
  // Data blocks fill the slots just right of the anchor, wrapping; with two
  // parity blocks the slot at anchor-1 (i.e. anchor + num_disks - 1) is P,
  // which the range anchor+1 .. anchor+num_disks-2 never reaches.
  const int32_t slot = AnchorDisk(stripe) + 1 + j;  // < 2 * num_disks().
  return slot >= num_disks() ? slot - num_disks() : slot;
}

BlockLoc StripeLayout::DataLocation(int64_t stripe, int32_t j) const {
  return BlockLoc{DataDisk(stripe, j), stripe * stripe_unit()};
}

BlockLoc StripeLayout::ParityLocation(int64_t stripe, int32_t which) const {
  return BlockLoc{ParityDisk(stripe, which), stripe * stripe_unit()};
}

void StripeLayout::UnitLocations(int64_t stripe, BlockLoc* units) const {
  // The disks right of the anchor in turn, wrapping, are data blocks 0..N-1,
  // then P, then (with two parity blocks) the anchor, Q.
  const int64_t offset = stripe * stripe_unit();
  int32_t disk = AnchorDisk(stripe);
  for (int32_t u = 0; u < num_disks(); ++u) {
    disk = disk + 1 == num_disks() ? 0 : disk + 1;
    units[u] = BlockLoc{disk, offset};
  }
}

}  // namespace afraid
