// An event-driven model of a single disk mechanism.
//
// Timing follows [Ruemmler94]: per-command controller overhead, a
// distance-dependent seek (plus write settle on writes), rotational latency
// against a continuously spinning platter, and zone-dependent media transfer
// with head-switch and track-switch costs. Tracks are skewed so that
// sequential transfers crossing a track boundary lose only the switch time,
// not a full revolution.
//
// The disk services its queue FCFS (the paper's arrays used FCFS at the
// back-end device drivers) and is non-preemptive: once started, an operation
// runs to completion. Spin-synchronisation across an array falls out of the
// model for free: all disks share the simulator clock and have the same RPM,
// so their angular positions are identical at all times.

#ifndef AFRAID_DISK_DISK_MODEL_H_
#define AFRAID_DISK_DISK_MODEL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"

#include "disk/disk_spec.h"
#include "disk/geometry.h"
#include "disk/seek_model.h"
#include "obs/probe.h"
#include "sim/fast_div.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/streaming.h"
#include "stats/time_weighted.h"

namespace afraid {

// One contiguous sector-level operation against a disk.
struct DiskOp {
  int64_t lba = 0;        // First sector.
  int32_t sectors = 0;    // Number of sectors (> 0).
  bool is_write = false;
};

// Where the service time went, for tests and analysis.
struct ServiceBreakdown {
  SimDuration overhead = 0;
  SimDuration seek = 0;      // Includes write settle for writes.
  SimDuration rotation = 0;  // Rotational latency plus mid-transfer realigns.
  SimDuration transfer = 0;  // Media time moving sectors, plus head switches.

  SimDuration Total() const { return overhead + seek + rotation + transfer; }
};

struct DiskOpResult {
  bool ok = true;                 // False if the disk failed.
  SimTime submitted = 0;          // When Submit() was called.
  SimTime service_start = 0;      // When the mechanism picked the op up.
  SimTime finish = 0;             // Completion time.
  ServiceBreakdown breakdown;     // Zero for failed ops.
};

// Sized for the controllers' completion continuations (the probe-wrapped
// purpose-labelled span emitter carrying a DiskDone is the fattest capture
// today, at 104 bytes).
using DiskOpCallback = SmallCallback<void(const DiskOpResult&), 112>;

class DiskModel {
 public:
  // `probe`, when non-null, should be bound to this disk's trace track; the
  // model emits a queue-depth counter timeline on it (array-level code emits
  // the purpose-labelled service spans).
  DiskModel(Simulator* sim, DiskSpec spec, int32_t disk_id, Probe probe = {});
  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  // Enqueues an operation. The callback fires at completion time; if the disk
  // is (or becomes) failed, it fires with ok=false.
  void Submit(const DiskOp& op, DiskOpCallback done);

  // Marks the disk failed. The in-flight operation and everything queued
  // complete immediately with ok=false; later Submits fail at submit time.
  void Fail();

  // Installs a fresh (replacement) mechanism: clears the failure, resets the
  // arm to cylinder 0. Queue must be empty (callers drain by failing first).
  // An op still in flight belonged to the failed mechanism: it completes with
  // ok=false at its scheduled time and is not counted.
  void Replace();

  bool failed() const { return failed_; }
  int32_t disk_id() const { return disk_id_; }
  const DiskSpec& spec() const { return spec_; }
  const DiskGeometry& geometry() const { return geometry_; }
  int64_t TotalSectors() const { return geometry_.TotalSectors(); }

  // True when no operation is in flight or queued.
  bool Idle() const { return !busy_ && queue_.empty(); }
  size_t QueueDepth() const { return queue_.size() + (busy_ ? 1 : 0); }

  // Where the arm currently rests (the position a replica-choice dispatcher
  // estimates positioning cost from; see core/mirror_controller.h).
  int32_t CurrentCylinder() const { return current_cylinder_; }

  // Pure timing query: what would servicing `op` cost if started at `start`
  // with the arm at cylinder `from_cylinder`? Does not disturb disk state.
  // Also reports the cylinder where the arm ends up.
  ServiceBreakdown ComputeService(SimTime start, const DiskOp& op,
                                  int32_t from_cylinder, int32_t* end_cylinder) const;

  // Inline service of one op on an idle disk, for a caller that timed it
  // with ComputeService and knows no event can run before it finishes
  // (ArrayEngine's in-place steps, DESIGN.md §17): the state and statistics
  // updates Submit + StartNext and then CompleteSlot make, in their order,
  // without the events. The arm moves to `end_cylinder`.
  void ServeInline(SimTime start, SimTime finish, int32_t end_cylinder, int32_t sectors) {
    assert(Idle() && !failed_);
    busy_time_.Set(start, 1.0);
    current_cylinder_ = end_cylinder;
    busy_time_.Set(finish, 0.0);
    CountCompleted(start, finish, sectors);
  }
  // A traced caller's queue-depth sample for an inline op: 1 where Submit
  // emits it, 0 where CompleteSlot does.
  void TraceInline(SimTime time, double depth) {
    if (probe_) {
      probe_.Counter(queue_counter_name_, time, depth);
    }
  }

  // Lifetime statistics.
  uint64_t OpsCompleted() const { return ops_completed_; }
  int64_t SectorsTransferred() const { return sectors_transferred_; }
  double UtilizationTo(SimTime now) const { return busy_time_.PositiveFractionTo(now); }
  const StreamingStats& ServiceTimes() const { return service_times_; }

 private:
  // One submitted op, stored once from Submit until its callback has run.
  // Slots live in fixed-size chunks, so a slot never moves while its callback
  // runs (even if that callback re-enters Submit and the pool grows); only
  // the slot index travels through the FCFS queue and the completion event.
  struct OpSlot {
    DiskOp op;
    SimTime submitted = 0;
    SimTime service_start = 0;  // Failure time for ops failed before service.
    ServiceBreakdown bd;
    uint64_t generation = 0;    // Mechanism the op started on (see Replace).
    DiskOpCallback done;
  };
  static constexpr int32_t kSlotChunk = 8;

  // Rotation and media constants of one recording zone, fixed at
  // construction. Each table entry is the per-track formula it replaces,
  // evaluated once, so the tabulated model is bit-identical to it.
  struct ZoneTiming {
    int64_t skew = 0;              // Track skew, in sectors (TrackSkew).
    int32_t skew_step = 0;         // skew % sectors_per_track.
    int32_t sectors_per_track = 0;
    FastDiv64 track_div;           // By sectors_per_track.
    const double* slot_frac = nullptr;     // [s] = s / sectors_per_track.
    const SimDuration* media = nullptr;    // [n] = media time of n sectors.
  };

  OpSlot& Slot(int32_t index) {
    return slot_chunks_[static_cast<size_t>(index / kSlotChunk)][index % kSlotChunk];
  }
  int32_t AcquireSlot();
  void StartNext();
  // Completion event of a started op.
  void CompleteSlot(int32_t index);
  // The statistics of an op that completed on the live mechanism.
  void CountCompleted(SimTime start, SimTime finish, int32_t sectors) {
    ++ops_completed_;
    sectors_transferred_ += sectors;
    service_times_.Add(ToMilliseconds(finish - start));
  }
  // Completion event of an op failed before service (queued at Fail(), or
  // submitted to a failed disk).
  void FailSlot(int32_t index);
  // Time from `now` until rotational slot `slot` of a track in `zone` passes
  // under the head.
  SimDuration RotationalWait(SimTime now, const ZoneTiming& zone, int32_t slot) const;
  // Skew, in sectors, applied per global track index in the given zone.
  int32_t TrackSkew(int32_t sectors_per_track) const;

  Simulator* sim_;
  DiskSpec spec_;
  DiskGeometry geometry_;
  SeekModel seek_model_;
  int32_t disk_id_;
  Probe probe_;
  std::string queue_counter_name_;  // Built once; empty when probe_ is null.

  SimDuration rev_;       // Revolution time.
  double rev_d_;          // rev_ as a double.
  FastDiv64 rev_div_;     // By rev_: angular phase of the platters.
  std::vector<ZoneTiming> zones_;
  std::vector<double> slot_frac_;   // Backing store of every zone's tables.
  std::vector<SimDuration> media_;

  RingQueue<int32_t> queue_;  // Slot indices, FCFS.
  std::vector<std::unique_ptr<OpSlot[]>> slot_chunks_;
  std::vector<int32_t> free_slots_;
  uint64_t generation_ = 0;  // Bumped by Replace().
  bool busy_ = false;
  bool failed_ = false;
  int32_t current_cylinder_ = 0;

  uint64_t ops_completed_ = 0;
  int64_t sectors_transferred_ = 0;
  TimeWeightedValue busy_time_;
  StreamingStats service_times_;  // Milliseconds.
};

}  // namespace afraid

#endif  // AFRAID_DISK_DISK_MODEL_H_
