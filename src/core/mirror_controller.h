// Mirrored striping (RAID 1/0): the paper's Section 2 baseline that "solves
// the small-write problem by brute force" -- every block lives on two disks,
// so a small write costs two parallel writes and no parity arithmetic at all,
// at the price of 50% space efficiency.
//
// The array pairs its disks into columns: column c is the mirror pair
// (2c, 2c+1), and client data rotates across columns through a parity-free
// StripeLayout. Reads exploit the duplicate: the dispatcher picks, per
// segment, the replica that will position fastest -- fewest queued operations
// first, then the shorter estimated positioning time from each arm's current
// cylinder (the classic shortest-positioning-time mirror read policy), with
// the lower disk id as the deterministic tie-break.
//
// Failure handling (on top of array/array_engine.h): with a disk out, reads
// simply fall to the surviving twin and writes update it alone, so degraded
// service is lossless and there is no exposure window at all. The sweep step
// copies twin -> replacement, after which the pair is redundant again.
// Exposure statistics are identically zero.

#ifndef AFRAID_CORE_MIRROR_CONTROLLER_H_
#define AFRAID_CORE_MIRROR_CONTROLLER_H_

#include <cstdint>
#include <string>

#include "array/array_engine.h"

namespace afraid {

// The layout is a parity-free StripeLayout over the columns, so every stripe
// uses every column and the engine's sweep visits every stripe.
class MirrorController : public ArrayEngine {
 public:
  // `config.num_disks` must be even (>= 2); the registry's Normalize rounds
  // odd widths down.
  MirrorController(Simulator* sim, const ArrayConfig& config, Probe probe = {});
  ~MirrorController() override;

  // --- ArrayScheme interface ---
  const char* SchemeName() const override { return "mirror"; }
  std::string PolicyLabel() const override { return "Mirror-SPTF"; }
  SchemeStats Stats() const override;

  // --- Introspection ---
  // Replica-choice core, exposed for the dispatch benchmark: picks the disk
  // (primary or twin) that serves `op` fastest right now.
  int32_t ChooseReplica(int64_t stripe, int32_t primary, const DiskOp& op) const;

 private:
  // --- Engine hooks ---
  // Serves the segment from the replica ChooseReplica picks.
  void ReadSegment(const Segment& seg, JoinBlock* join) override;
  void WriteSegment(uint64_t request_id, const Segment& seg, JoinBlock* join) override;
  // Copies the column's block twin -> replacement.
  void ReconstructStripe(int64_t stripe, int32_t target, Step* step) override;
  // Zeroes the replaced disk's copy: the data slot for the column's primary,
  // the twin slot for its secondary.
  void BlankReplacedDisk(int32_t disk) override;
};

}  // namespace afraid

#endif  // AFRAID_CORE_MIRROR_CONTROLLER_H_
