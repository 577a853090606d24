// The common lifecycle interface every array organization implements.
//
// An ArrayScheme is an ArrayController (it serves client requests) plus the
// management surface the rest of the system drives uniformly: single-disk
// failure injection, replacement and reconstruction, an optional NVRAM
// marking-memory loss drill, a degraded/rebuild state snapshot, a flat
// statistics block, and the data-loss observer hook. Experiment, the fleet
// volume manager, faultsim and the bench grids all construct schemes through
// the registry (src/core/scheme_registry.h) and talk only to this interface;
// no caller switches on the concrete controller type.
//
// Management calls return bool rather than asserting: `false` means the
// operation is refused in the current state (disk index out of range, no
// failure outstanding, capability not implemented) and the array state is
// unchanged. The fleet layer counts refusals per operation kind instead of
// crashing a shard on a mistimed management op.

#ifndef AFRAID_ARRAY_SCHEME_H_
#define AFRAID_ARRAY_SCHEME_H_

#include <cstdint>
#include <functional>
#include <string>

#include "array/controller.h"
#include "array/layout.h"
#include "sim/time.h"

namespace afraid {

class ContentModel;
class DiskModel;

// Why data was lost (Section 3.2's small-loss modes, as the controllers'
// failure machinery actually encounters them).
enum class LossCause : int32_t {
  // A degraded read reconstructed a range whose redundancy was stale when
  // the disk died: the bytes returned are not what the client wrote.
  kStaleParityDegradedRead = 0,
  // The replacement-disk sweep rebuilt a data block from stale redundancy:
  // the stale bands of that block are unrecoverable.
  kStaleParityReconstruction,
};

// One data-loss incident, as observed by a scheme's failure machinery.
// The Monte-Carlo fault-injection campaign (src/faultsim/) and the failure
// drill example consume these instead of re-deriving loss from counters.
struct LossEvent {
  SimTime time = 0;
  LossCause cause = LossCause::kStaleParityDegradedRead;
  int64_t stripe = -1;
  int64_t bytes = 0;
};

const char* LossCauseName(LossCause cause);

// Observer of data-loss incidents. At most one listener; pass nullptr to
// clear. Listeners fire synchronously from the simulation event that detects
// the loss, after the scheme's counters have been updated.
using LossListener = std::function<void(const LossEvent&)>;

// Instantaneous degraded/rebuild state, cheap enough to sample per metrics
// snapshot (plain loads, no allocation).
struct SchemeState {
  int32_t failed_disk = -1;       // -1 = all disks healthy.
  int32_t recovering_disk = -1;   // Replacement installed, sweep not finished.
  bool reconstruction_active = false;
  bool rebuild_active = false;    // Background redundancy-freshening pass.
  // Scheme-specific stale-redundancy marks currently outstanding (NVRAM
  // dirty bands for AFRAID, stale P+Q stripes for deferred RAID 6, buffered
  // parity-update images for the parity log, 0 for always-sync schemes).
  int64_t dirty_marks = 0;
  double parity_lag_bytes = 0.0;  // Bytes of data not currently redundant.
  bool last_write_raid5 = false;  // Mode gauge for deferred-parity schemes.
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
};

// Whole-run statistics block: every field the report harvest and the fleet
// shard reports consume. Schemes fill what applies and leave the rest zero.
struct SchemeStats {
  double mean_parity_lag_bytes = 0.0;
  double t_unprot_fraction = 0.0;
  int64_t max_dirty_stripes = 0;
  uint64_t stripes_rebuilt = 0;
  // Stripes the replacement-disk sweep restored (every scheme counts them
  // alike; AFRAID's stripes_rebuilt counts idle-time parity refreshes).
  uint64_t stripes_reconstructed = 0;
  uint64_t rebuild_passes = 0;
  uint64_t afraid_mode_writes = 0;
  uint64_t raid5_mode_writes = 0;
  uint64_t disk_ops_total = 0;
  uint64_t disk_ops_rebuild = 0;
  uint64_t disk_ops_parity = 0;
  uint64_t cache_hits = 0;
  double idle_fraction = 0.0;
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
};

class ArrayScheme : public ArrayController {
 public:
  // The registry name this instance was constructed under ("afraid",
  // "raid6-deferQ", "mirror", ...).
  virtual const char* SchemeName() const = 0;
  // The per-run label reports print in their policy column (the parity
  // policy's name for AFRAID, the mode/scheme label otherwise).
  virtual std::string PolicyLabel() const = 0;

  // The logical-to-physical layout client offsets are resolved through.
  // Request plans must be compiled against this exact layout.
  virtual const ArrayLayout& layout() const = 0;
  virtual int32_t num_disks() const = 0;
  virtual DiskModel& disk(int32_t d) = 0;
  // Functional content tracking, if enabled; nullptr otherwise.
  virtual const ContentModel* content() const { return nullptr; }

  // --- Management -------------------------------------------------------------
  // Fails one disk (at most one failure is tolerated at a time).
  virtual bool FailDisk(int32_t disk) = 0;
  // Installs a blank replacement for the previously failed disk.
  virtual bool ReplaceDisk(int32_t disk) = 0;
  // Rebuilds the replaced disk's contents stripe by stripe, concurrent with
  // client I/O; `done` fires when the array is fully redundant again.
  virtual bool StartReconstruction(std::function<void()> done) = 0;
  // NVRAM marking-memory loss + conservative whole-array scrub. Only
  // meaningful for schemes that keep deferred-redundancy marks.
  virtual bool FailNvram() { return false; }
  virtual bool StartFullScrub(std::function<void()> done) {
    (void)done;
    return false;
  }

  // --- Introspection ----------------------------------------------------------
  virtual SchemeState State() const = 0;
  virtual SchemeStats Stats() const = 0;
  virtual void SetLossListener(LossListener listener) { (void)listener; }
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_SCHEME_H_
