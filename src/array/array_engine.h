// The array engine: the machinery every redundancy scheme shares.
//
// AFRAID is RAID 5 with the parity write deferred, so it needs exactly the
// request splitting, stripe locks, degraded reads and replacement sweep that
// RAID 5/6, parity logging and mirroring need; the schemes differ only in
// how redundancy is computed and when it is written. ArrayEngine owns the
// common part once:
//
//   * the disks (one "disk<N>" trace track each, plus "controller" and
//     "rebuild" tracks), the layout, the content model, the stripe locks and
//     the request-path pools;
//   * IssueDiskOp: per-purpose op counters and purpose-labelled disk spans;
//   * Submit: plan-or-split, the request join, and the per-stripe grouping
//     of write segments;
//   * the step executor: every background step (sweep, refresh, AFRAID's
//     scrub) and every client write is a description -- reads, writes once
//     the reads are in, hooks -- that the engine runs through events, and a
//     background step in place, without events or a lock, while nothing
//     else is active; drivers pick and describe the background steps, and
//     the k-parity describers (read-modify-write, reconstruct-write) serve
//     the schemes' writes;
//   * the FailDisk / ReplaceDisk state machine and the reconstruction sweep
//     driver (skip stripes off the replaced disk, advance the frontier, fire
//     the done callback);
//   * loss accounting (counters, listener, controller-track instant) and the
//     common State/Stats fields;
//   * deferred redundancy, for schemes that keep stale slots (AFRAID's bands,
//     deferred RAID 6's P and Q): one NVRAM stale-mark store, the client
//     count and idle trigger, the refresh-pass driver (cursor, passes,
//     rebuild-track spans, refreshed-stripe count) and the quiesce watchers.
//
// A controller derives from the engine and supplies only its redundancy
// logic through a few hooks, each fired at most once per request, segment,
// stripe or refresh step -- never per disk op: array busy/idle, read a
// segment, write a stripe group (or a segment), describe one swept
// stripe's step, and for deferred schemes which key to refresh next,
// describe its refresh step and whether to start or keep going. DESIGN.md
// §17 explains why degraded reads and write decisions stay per scheme.

#ifndef AFRAID_ARRAY_ARRAY_ENGINE_H_
#define AFRAID_ARRAY_ARRAY_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "array/content.h"
#include "array/idle_detector.h"
#include "array/layout.h"
#include "array/nvram.h"
#include "array/scheme.h"
#include "array/stripe_lock.h"
#include "core/array_config.h"
#include "disk/disk_model.h"
#include "obs/probe.h"
#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "stats/time_weighted.h"

namespace afraid {

// What each disk I/O was for (statistics; also drives Figure 1's I/O counts
// and names the per-disk trace spans).
enum class DiskOpPurpose : uint8_t {
  kClientRead = 0,
  kClientWrite,
  kOldDataRead,      // Read-modify-write pre-read.
  kOldParityRead,    // Read-modify-write pre-read.
  kParityWrite,      // Parity (or parity-log) write in the client's path.
  kReconstructRead,  // Reconstruct-write / degraded-mode companion reads.
  kRebuildRead,      // Background redundancy refresh (or log replay).
  kRebuildWrite,
  kRecoveryRead,     // Failed-disk reconstruction sweep.
  kRecoveryWrite,
  kNumPurposes,
};

// Human-readable purpose label (trace span names, reports).
const char* DiskOpPurposeName(DiskOpPurpose purpose);

class ArrayEngine : public ArrayScheme {
 public:
  // Disk and lock callbacks capture `this`.
  ArrayEngine(const ArrayEngine&) = delete;
  ArrayEngine& operator=(const ArrayEngine&) = delete;

  // --- ArrayController / ArrayScheme ------------------------------------------
  void Submit(const ClientRequest& request, RequestDone done) final;
  int64_t DataCapacityBytes() const final { return layout_->data_capacity_bytes(); }
  const ArrayLayout& layout() const final { return *layout_; }
  int32_t num_disks() const final { return cfg_.num_disks; }
  DiskModel& disk(int32_t d) final { return *disks_[static_cast<size_t>(d)]; }
  const ContentModel* content() const final { return content_.get(); }
  bool FailDisk(int32_t disk) final;
  bool ReplaceDisk(int32_t disk) final;
  bool StartReconstruction(std::function<void()> done) final;
  // The common fields; schemes add their redundancy state on top.
  SchemeState State() const override;
  SchemeStats Stats() const override;
  void SetLossListener(LossListener listener) final {
    loss_listener_ = std::move(listener);
  }

  // --- Introspection -----------------------------------------------------------
  int32_t recovering_disk() const { return recovering_disk_; }
  uint64_t DiskOps(DiskOpPurpose p) const {
    return disk_ops_[static_cast<size_t>(p)];
  }
  uint64_t TotalDiskOps() const;
  uint64_t LossEvents() const { return loss_events_; }
  int64_t BytesLost() const { return bytes_lost_; }
  // The stale-mark store: key = stripe * slots + slot (empty without slots).
  const NvramBitmap& nvram() const { return nvram_; }
  bool RebuildInProgress() const { return refreshing_; }
  uint64_t RebuildPasses() const { return refresh_passes_; }
  // Time-average client-idle fraction (no client requests in flight).
  double IdleFraction() const { return 1.0 - busy_clients_.PositiveFractionTo(sim_->Now()); }

  // Quiesce: `done` fires once every refreshable key stale now is fresh
  // (next event if none is). Refresh passes run until then.
  void RebuildAll(std::function<void()> done) {
    AwaitRefresh(0, nvram_.NumStripes(), std::move(done));
  }

  // Striped layout of `config` over each disk's capacity less
  // `reserved_bytes` at the end of the disk (scheme-private regions).
  static std::unique_ptr<ArrayLayout> MakeStripedLayout(const ArrayConfig& config,
                                                        int32_t parity_blocks,
                                                        int64_t reserved_bytes = 0);
  static int64_t DiskCapacityBytes(const ArrayConfig& config);

 protected:
  // `content_parity_slots`: redundancy slots per stripe in the content model
  // (the layout's parity blocks; one twin copy per column for mirroring).
  // `stale_slots`: deferred-redundancy marks per stripe; 0 builds neither the
  // stale-mark store nor the idle timer.
  ArrayEngine(Simulator* sim, const ArrayConfig& config,
              std::unique_ptr<ArrayLayout> layout, int32_t content_parity_slots,
              int32_t stale_slots, Probe probe);

  // Why the refresh driver asks WantRefresh.
  enum class RefreshCue {
    kIdle,       // The idle timer fired.
    kActivity,   // A client request ended, marks were added, or a quiesce began.
    kRecovered,  // The reconstruction sweep finished.
    kStep,       // A refresh step finished: keep going?
  };

  // --- Hooks ---------------------------------------------------------------------
  // When the first client request starts / the last one ends.
  virtual void OnArrayBusy() {}
  virtual void OnArrayIdle() {}
  // Once per read segment; runs `join->Dec(true)` when the data is in. The
  // default reads the data block, or reconstructs it (DegradedReadSegment)
  // when its disk cannot serve the stripe.
  virtual void ReadSegment(const Segment& seg, JoinBlock* join);
  // Once per stripe a write touches, in ascending stripe order; `segs` stays
  // valid until `group_join` fires, which the scheme runs exactly once. The
  // default fans the group out to WriteSegment.
  virtual void WriteStripeGroup(uint64_t request_id, int64_t stripe,
                                Span<Segment> segs, JoinBlock* group_join);
  // Once per segment, for schemes that keep the default WriteStripeGroup;
  // runs `join->Dec(true)` once. `seg` must be copied if retained.
  virtual void WriteSegment(uint64_t request_id, const Segment& seg, JoinBlock* join);
  // Client write steps: whether the old data of block `j` of `stripe` is
  // already in the controller, so a read-modify-write skips its pre-read.
  virtual bool OldDataCached(int64_t stripe, int32_t j) {
    (void)stripe;
    (void)j;
    return false;
  }
  // Client write steps: after a data write completes good. The default
  // stores the write's content tags.
  virtual void OnDataWritten(uint64_t request_id, const Segment& seg) {
    ApplyWriteContent(request_id, seg);
  }
  // Which parity (0 = P, 1 = Q) a degraded read reconstructs through, decided
  // once the stripe lock is held; sets *lost when no live redundancy vouches
  // for the result. The default: P, always live.
  virtual int32_t DegradedReadParity(int64_t stripe, bool* lost) const;
  // One step: a background step (sweep, refresh, scrub) or a client write.
  // Reads, then writes issued once every read is in; each op has its own
  // disk, byte range and purpose. An op marked dead cannot be served: its
  // slot in the phase's join resolves through a zero-delay event, at its
  // place in issue order. A failed op fails the step, and a failed read
  // skips the writes. A write may hook its own good completion (content,
  // caches). The event path ends in `end` (DESIGN.md §17). Cache-line
  // aligned, so the in-place path's fields sit on the same lines wherever a
  // driver's step lands in its engine.
  struct alignas(64) Step {
    struct Op {  // As small as a BlockLoc, for the in-place path.
      Op(int32_t on_disk, int64_t at, int64_t bytes, DiskOpPurpose why, bool is_dead = false)
          : offset(at),
            len(static_cast<int32_t>(bytes)),
            disk(static_cast<int16_t>(on_disk)),
            purpose(why),
            dead(is_dead) {}
      int64_t offset;  // Bytes on the disk.
      int32_t len;
      int16_t disk;
      DiskOpPurpose purpose;
      bool dead;
    };
    std::vector<Op> reads;
    std::vector<Op> writes;
    // Optional, by write index: runs when that write completes good.
    std::vector<SmallCallback<void(), 64>> wrote;
    // Background descriptions: Read and Write cover bytes [rel, rel + len)
    // of a stripe unit (the whole unit unless the description narrows it)
    // with the driver's purposes.
    int64_t rel = 0;
    int64_t len = 0;
    DiskOpPurpose read_purpose = DiskOpPurpose::kRebuildRead;
    DiskOpPurpose write_purpose = DiskOpPurpose::kRebuildWrite;
    SimTime start = 0;  // When the driver picked the step, before any lock wait.
    // Background steps: runs at the step's end if every op succeeded.
    SmallCallback<void(), 64> finish;
    // The event path's continuation, given whether every op succeeded: a
    // driver's EndStep, or a client write's own end (unlock, rerun, join).
    SmallCallback<void(bool), 128> end;
    // Client write steps: one content buffer per parity (its new value or
    // its delta over the written span).
    std::array<std::vector<uint64_t>, 2> parity;
    bool pooled = false;  // A client write step, back to the pool at its end.

    void Read(const BlockLoc& loc) {
      reads.emplace_back(loc.disk, loc.byte_offset + rel, len, read_purpose);
    }
    void Write(const BlockLoc& loc) {
      writes.emplace_back(loc.disk, loc.byte_offset + rel, len, write_purpose);
    }
  };
  // A source of background steps: the reconstruction sweep, the refresh
  // pass, or a scheme's own walk (AFRAID's scrub). RunSteps asks it for each
  // step's stripe, has it describe the step once nothing else uses the
  // stripe, runs the step and reports back. Each driver keeps its own step:
  // steps of different drivers can be in flight at once (a refresh step
  // across a fail and replace while the sweep starts, a scrub step across a
  // failure).
  class StepDriver {
   public:
    virtual ~StepDriver() = default;
    // The stripe of the next step, or -1 once the driver is done (it has
    // then wrapped up).
    virtual int64_t Next() = 0;
    // Describes into the empty `step` the step on `stripe`. Work due at step
    // start may happen here, work due at its end goes in the finish hook;
    // neither may start I/O.
    virtual void Describe(int64_t stripe, Step* step) = 0;
    // After the finish hook, before the step's stripe is unlocked.
    virtual void Settle(bool ok) { (void)ok; }
    // After the unlock: whether to run the next step.
    virtual bool Resume(bool ok) {
      (void)ok;
      return true;
    }

    Step step;  // Its purposes default to refresh ops.
  };
  // Runs `driver`'s steps until it is done, stops or waits for I/O. A step
  // runs in place only when it starts from the previous step's own
  // completion (`after_step`) and the array is quiescent; otherwise it takes
  // the stripe lock and the event path.
  void RunSteps(StepDriver* driver, bool after_step);
  // Once per swept stripe: describe into `step` how to restore the replaced
  // disk's unit of `stripe` (and any redundancy refreshed with it). Sweep
  // ops cannot fail: FailDisk refuses a second failure while a disk
  // recovers.
  virtual void ReconstructStripe(int64_t stripe, int32_t target, Step* step) = 0;
  // Zeroes the replaced disk's units in the content model (it is blank).
  virtual void BlankReplacedDisk(int32_t disk);
  // Deferred redundancy. Whether a pass should start, or for kStep go on
  // after a good step; the engine has checked the refresh gate (no disk
  // failed or recovering, some key stale) either way.
  // A waiting quiesce overrides a "no".
  virtual bool WantRefresh(RefreshCue cue) {
    (void)cue;
    return false;
  }
  // Whether refresh passes and quiesces cover `key`.
  virtual bool Refreshable(int64_t key) const {
    (void)key;
    return true;
  }
  // The next refreshable stale key at/after `from`, wrapping; -1 if none.
  virtual int64_t NextRefreshKey(int64_t from) const;
  // Describes the refresh step that makes `key` fresh.
  virtual void RefreshKey(int64_t key, Step* step) {
    (void)key;
    (void)step;
  }
  // Name of the per-step span on the rebuild track.
  virtual const char* RefreshStepName() const { return "band"; }

  // --- Client write steps ------------------------------------------------------------
  // A pooled, empty step. The scheme describes it on the locked stripe, sets
  // its `end` and runs it with IssueStep; it returns to the pool before its
  // end runs.
  Step* NewWriteStep();
  // Runs `step` through events: its reads, then its writes, then its end.
  void IssueStep(Step* step, bool writes = false);
  // The k-parity client writes (k = 0..2 parities from P) of the group `segs`
  // of request `request_id` on `stripe`; data writes run OnDataWritten.
  // Read-modify-write: when k > 0, pre-reads of the segments (less those
  // OldDataCached skips) and then of each parity's span, the union of the
  // segments' ranges; then the segment writes and the parity span writes,
  // each parity write applying its delta, dP = old ^ new and
  // dQ = g^j (old ^ new).
  void DescribeRmw(uint64_t request_id, int64_t stripe, Span<Segment> segs, int32_t k,
                   Step* step);
  // Reconstruct-write: full-unit reads of the data blocks the group leaves
  // untouched on disks other than `dead` (-1: none), counting a block the
  // group covers in part as untouched only if `read_partial`; then the
  // segment writes and full-unit parity writes, each parity write storing
  // the new parity. Writes to `dead` are dead ops; a dead data write stores
  // its content at once, for the sweep to restore. A group covering the
  // whole stripe reads nothing: the full-stripe write.
  void DescribeReconstructWrite(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                                int32_t k, int32_t dead, bool read_partial, Step* step);

  // --- Shared machinery ------------------------------------------------------------
  void IssueDiskOp(int32_t disk, int64_t byte_offset, int64_t length, bool is_write,
                   DiskOpPurpose purpose, DiskDone done);
  // Counts a data-loss incident and notifies the listener.
  void RecordLoss(LossCause cause, int64_t stripe, int64_t bytes);
  // True when `disk` cannot serve valid data for `stripe` right now.
  bool DiskUnavailable(int32_t disk, int64_t stripe) const {
    return disk == failed_disk_ ||
           (disk == recovering_disk_ && stripe >= recovery_frontier_);
  }
  // Index of the data block `disk` holds in `stripe`; -1 if it holds none.
  int32_t DataBlockOn(int64_t stripe, int32_t disk);
  // Every unit of `stripe` from one layout query: data blocks 0..N-1, then
  // parity blocks. Scratch, valid until the next call.
  const BlockLoc* MapStripe(int64_t stripe) {
    layout_->UnitLocations(stripe, unit_scratch_.data());
    return unit_scratch_.data();
  }
  // Index into a MapStripe result of the unit on `disk`; -1 if none.
  int32_t UnitOn(const BlockLoc* units, int32_t disk) const;
  // Reconstructs a read segment whose disk is out from the surviving blocks
  // and a live parity, under the stripe lock. If the sweep passed the stripe
  // while the lock was pending, a plain read. Runs `parent->Dec(true)`.
  void DegradedReadSegment(const Segment& seg, JoinBlock* parent);
  // Adds the step reads that restore data block `j_target` of the stripe
  // `units` maps through parity `parity` (the other data blocks plus that
  // parity), or a parity unit when `j_target` < 0 (every data block).
  void AddPeerReads(const BlockLoc* units, int32_t j_target, int32_t parity,
                    Step* step) const;
  // Describes the reads and the write that restore `target`'s unit of
  // `stripe` through P; returns its data block index, -1 for P.
  int32_t DescribeXorRestore(int64_t stripe, int32_t target, Step* step);
  // With content tracking on, sets the P parity of bytes [rel, rel + len)
  // of `stripe`'s units (len -1: the whole unit) to the xor of its data.
  void RecomputeXorParity(int64_t stripe, int64_t rel = 0, int64_t len = -1);
  // With content tracking on, restores data block `j_target` of `stripe`
  // from the other blocks and P, or P from the data when `j_target` < 0.
  void RestoreXorUnit(int64_t stripe, int32_t j_target);
  // With content tracking on, stores client write `request_id`'s tags in
  // the data sectors `seg` covers.
  void ApplyWriteContent(uint64_t request_id, const Segment& seg);
  // Stale-mark updates; true iff the mark changed. A cleared key counts
  // toward any quiesce waiting for it, changed or not.
  bool MarkStale(int64_t key) { return nvram_.Mark(key); }
  bool ClearStale(int64_t key);
  // Starts a refresh pass if the gate and the scheme (or a quiesce) allow.
  void TriggerRefresh(RefreshCue cue);
  // Quiesce over keys [first_key, end_key) that are stale and refreshable.
  void AwaitRefresh(int64_t first_key, int64_t end_key, std::function<void()> done);
  bool Quiescing() const { return !watchers_.empty(); }
  bool ArrayBusy() const { return outstanding_clients_ > 0; }

  Simulator* sim_;
  ArrayConfig cfg_;
  std::unique_ptr<ArrayLayout> layout_;
  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::unique_ptr<ContentModel> content_;
  StripeLockTable locks_;

  // Tracing handles (all null when observability is off).
  Probe ctrl_probe_;
  Probe rebuild_probe_;
  std::vector<Probe> disk_probes_;  // One per disk, same track as its DiskModel.

  // Request-path arena (see DESIGN.md, "Arena reuse contract"): pooled
  // joins, pooled per-request write segments (alive until the request's join
  // fires) and synchronous-only scratch; client write steps keep their
  // parity buffers (below).
  JoinPool joins_;
  VecPool<Segment> seg_pool_;
  std::vector<Segment> split_scratch_;    // Read splits (synchronous).
  std::vector<BlockLoc> unit_scratch_;    // MapStripe's.
  std::vector<uint64_t> parity_scratch_;  // Batched parity recompute.

  // Failure state machine: at most one failed or recovering disk. Stripes
  // below the frontier hold valid data on the recovering disk.
  int32_t failed_disk_ = -1;
  int32_t recovering_disk_ = -1;
  int64_t recovery_frontier_ = 0;
  bool reconstruction_active_ = false;
  uint64_t stripes_reconstructed_ = 0;
  uint64_t stripes_refreshed_ = 0;  // Refresh steps with ops, all of them good.

  // Deferred redundancy: the stale-mark store.
  NvramBitmap nvram_;

 private:
  // The reconstruction sweep: the stripes with a unit on the recovering
  // disk, in order, each step advancing the frontier.
  class SweepDriver final : public StepDriver {
   public:
    explicit SweepDriver(ArrayEngine* engine) : e_(engine) {
      step.read_purpose = DiskOpPurpose::kRecoveryRead;
      step.write_purpose = DiskOpPurpose::kRecoveryWrite;
    }
    int64_t Next() override;
    void Describe(int64_t stripe, Step* step) override {
      e_->ReconstructStripe(stripe, e_->recovering_disk_, step);
    }
    void Settle(bool ok) override;  // Sweep ops cannot fail.
    int64_t next = 0;  // The first stripe not yet swept.

   private:
    ArrayEngine* e_;
  };
  // The refresh pass: one stale key per step from the wrapping cursor, so a
  // foreground request preempts the pass between steps and adjacent stale
  // stripes coalesce; the start gate again after each step.
  class RefreshDriver final : public StepDriver {
   public:
    explicit RefreshDriver(ArrayEngine* engine) : e_(engine) {}
    int64_t Next() override;
    void Describe(int64_t stripe, Step* step) override {
      (void)stripe;
      e_->RefreshKey(key_, step);
    }
    void Settle(bool ok) override;
    bool Resume(bool ok) override;
    int64_t cursor = 0;

   private:
    ArrayEngine* e_;
    int64_t key_ = 0;  // The running step's.
  };

  // The event path of `driver`'s step on the locked `stripe`, ending in
  // EndStep and, if the driver goes on, its next step.
  void IssueDriverStep(StepDriver* driver, int64_t stripe);
  // Ends an issued step: back to the pool if pooled, then its `end`.
  void EndIssuedStep(Step* step, bool ok);
  // Adds the segment writes of a client write step; writes to `dead` are
  // dead ops, whose content is stored at once.
  void AddSegmentWrites(uint64_t request_id, int64_t stripe, Span<Segment> segs, int32_t dead,
                        Step* step);
  // Runs `driver`'s described step in place if the array is quiescent and
  // the step ends within the simulator's horizon; false leaves nothing
  // changed.
  bool RunStepInline(const Step& step);
  // Updates one phase of an in-place step as the event path would.
  void CommitInlinePhase(size_t first, size_t end, DiskOpPurpose purpose, int32_t sectors);
  // Ends `driver`'s step: the finish hook if `ok`, Settle, the unlock of
  // `locked` (-1: none), then Resume's answer.
  bool EndStep(StepDriver* driver, bool ok, int64_t locked);
  void EndClient();
  // The refresh gate, checked before a pass and after each step: no disk
  // failed or recovering, and some key stale.
  bool RefreshAllowed() const;
  // The refresh pass; refreshing_ only flips in Begin/End, so the
  // rebuild-track pass spans cannot drift from the driver's state.
  void BeginRefreshPass();
  void EndRefreshPass();

  std::function<void()> reconstruction_done_;
  SweepDriver sweep_{this};
  RefreshDriver refresh_{this};
  // An in-place op: its disk, issue order, service window, byte offset and
  // direction, and start and final arm positions.
  struct InlineOp {
    int32_t disk = 0;
    int32_t order = 0;
    SimTime start = 0;
    SimTime finish = 0;
    int64_t offset = 0;
    bool is_write = false;
    int32_t from = 0;
    int32_t cylinder = 0;
    // True when `next`, of the same step, is timed exactly as this op was.
    bool SameTiming(const InlineOp& next) const {
      return start == next.start && offset == next.offset && is_write == next.is_write &&
             from == next.from;
    }
  };
  std::vector<InlineOp> inline_ops_;  // Reads, then writes (scratch).
  // Client write steps: the pool, and the group's segment per data block
  // (synchronous scratch).
  std::vector<std::unique_ptr<Step>> step_store_;
  std::vector<Step*> free_steps_;
  std::vector<const Segment*> by_block_scratch_;
  std::array<uint64_t, static_cast<size_t>(DiskOpPurpose::kNumPurposes)> disk_ops_{};
  uint64_t loss_events_ = 0;
  int64_t bytes_lost_ = 0;
  LossListener loss_listener_;

  int32_t outstanding_clients_ = 0;
  std::unique_ptr<IdleDetector> idle_detector_;  // Only with stale slots.
  TimeWeightedValue busy_clients_;
  const int32_t stale_slots_;
  bool refreshing_ = false;
  uint64_t refresh_passes_ = 0;
  struct Watcher {
    std::set<int64_t> waiting;
    std::function<void()> done;
  };
  std::vector<Watcher> watchers_;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_ARRAY_ENGINE_H_
