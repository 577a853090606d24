#include "array/array_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "array/decluster.h"
#include "array/gf256.h"
#include "disk/geometry.h"

namespace afraid {

const char* DiskOpPurposeName(DiskOpPurpose purpose) {
  switch (purpose) {
    case DiskOpPurpose::kClientRead:
      return "client read";
    case DiskOpPurpose::kClientWrite:
      return "client write";
    case DiskOpPurpose::kOldDataRead:
      return "old-data read";
    case DiskOpPurpose::kOldParityRead:
      return "old-parity read";
    case DiskOpPurpose::kParityWrite:
      return "parity write";
    case DiskOpPurpose::kReconstructRead:
      return "reconstruct read";
    case DiskOpPurpose::kRebuildRead:
      return "rebuild read";
    case DiskOpPurpose::kRebuildWrite:
      return "rebuild write";
    case DiskOpPurpose::kRecoveryRead:
      return "recovery read";
    case DiskOpPurpose::kRecoveryWrite:
      return "recovery write";
    case DiskOpPurpose::kNumPurposes:
      break;
  }
  return "unknown";
}

const char* LossCauseName(LossCause cause) {
  switch (cause) {
    case LossCause::kStaleParityDegradedRead:
      return "stale-parity degraded read";
    case LossCause::kStaleParityReconstruction:
      return "stale-parity reconstruction";
  }
  return "unknown";
}

int64_t ArrayEngine::DiskCapacityBytes(const ArrayConfig& config) {
  return DiskGeometry(config.disk_spec.zones, config.disk_spec.heads,
                      config.disk_spec.sector_bytes)
      .CapacityBytes();
}

std::unique_ptr<ArrayLayout> ArrayEngine::MakeStripedLayout(const ArrayConfig& config,
                                                            int32_t parity_blocks,
                                                            int64_t reserved_bytes) {
  return MakeLayout(config.layout, config.num_disks, config.stripe_unit_bytes,
                    DiskCapacityBytes(config) - reserved_bytes, parity_blocks,
                    config.decluster_width);
}

ArrayEngine::ArrayEngine(Simulator* sim, const ArrayConfig& config,
                         std::unique_ptr<ArrayLayout> layout,
                         int32_t content_parity_slots, int32_t stale_slots, Probe probe)
    : sim_(sim),
      cfg_(config),
      layout_(std::move(layout)),
      unit_scratch_(static_cast<size_t>(layout_->stripe_width())),
      nvram_(layout_->num_stripes() * stale_slots),
      busy_clients_(sim->Now()),
      stale_slots_(stale_slots) {
  for (int32_t d = 0; d < cfg_.num_disks; ++d) {
    const Probe disk_probe = probe.NewTrack("disk" + std::to_string(d));
    disk_probes_.push_back(disk_probe);
    disks_.push_back(std::make_unique<DiskModel>(sim_, cfg_.disk_spec, d, disk_probe));
  }
  ctrl_probe_ = probe.NewTrack("controller");
  rebuild_probe_ = probe.NewTrack("rebuild");
  if (cfg_.track_content) {
    content_ = std::make_unique<ContentModel>(
        layout_->data_blocks_per_stripe(), content_parity_slots,
        static_cast<int32_t>(cfg_.stripe_unit_bytes / cfg_.disk_spec.sector_bytes));
  }
  // Only schemes with stale slots arm an idle timer: a trailing timer would
  // move the simulated end of every other scheme's run.
  if (stale_slots > 0) {
    idle_detector_ = std::make_unique<IdleDetector>(
        sim_, cfg_.idle_delay, [this] { TriggerRefresh(RefreshCue::kIdle); });
  }
}

uint64_t ArrayEngine::TotalDiskOps() const {
  uint64_t total = 0;
  for (uint64_t c : disk_ops_) {
    total += c;
  }
  return total;
}

SchemeState ArrayEngine::State() const {
  SchemeState st;
  st.failed_disk = failed_disk_;
  st.recovering_disk = recovering_disk_;
  st.reconstruction_active = reconstruction_active_;
  st.rebuild_active = refreshing_;
  st.dirty_marks = nvram_.DirtyCount();
  st.loss_events = loss_events_;
  st.bytes_lost = bytes_lost_;
  return st;
}

SchemeStats ArrayEngine::Stats() const {
  SchemeStats s;
  s.stripes_reconstructed = stripes_reconstructed_;
  s.disk_ops_total = TotalDiskOps();
  s.loss_events = loss_events_;
  s.bytes_lost = bytes_lost_;
  return s;
}

void ArrayEngine::RecordLoss(LossCause cause, int64_t stripe, int64_t bytes) {
  assert(bytes > 0);
  ++loss_events_;
  bytes_lost_ += bytes;
  if (ctrl_probe_) {
    ctrl_probe_.Instant(std::string("data loss: ") + LossCauseName(cause), sim_->Now());
  }
  if (loss_listener_) {
    LossEvent ev;
    ev.time = sim_->Now();
    ev.cause = cause;
    ev.stripe = stripe;
    ev.bytes = bytes;
    loss_listener_(ev);
  }
}

void ArrayEngine::IssueDiskOp(int32_t disk, int64_t byte_offset, int64_t length,
                              bool is_write, DiskOpPurpose purpose, DiskDone done) {
  assert(disk >= 0 && disk < cfg_.num_disks);
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  assert(byte_offset % sector == 0);
  assert(length > 0 && length % sector == 0);
  ++disk_ops_[static_cast<size_t>(purpose)];
  DiskOp op;
  op.lba = byte_offset / sector;
  op.sectors = static_cast<int32_t>(length / sector);
  op.is_write = is_write;
  const Probe disk_probe = disk_probes_[static_cast<size_t>(disk)];
  if (disk_probe) {
    disks_[static_cast<size_t>(disk)]->Submit(
        op,
        [disk_probe, purpose, done = std::move(done)](const DiskOpResult& r) mutable {
          if (r.ok) {
            // Emitted at completion, so per-track spans are ordered by finish
            // time (tests/obs asserts this invariant).
            disk_probe.Complete(DiskOpPurposeName(purpose), r.service_start, r.finish);
          }
          done(r.ok);
        });
  } else {
    disks_[static_cast<size_t>(disk)]->Submit(
        op, [done = std::move(done)](const DiskOpResult& r) mutable { done(r.ok); });
  }
}

int32_t ArrayEngine::DataBlockOn(int64_t stripe, int32_t disk) {
  const int32_t u = UnitOn(MapStripe(stripe), disk);
  return u < layout_->data_blocks_per_stripe() ? u : -1;
}

int32_t ArrayEngine::UnitOn(const BlockLoc* units, int32_t disk) const {
  for (int32_t u = 0; u < layout_->stripe_width(); ++u) {
    if (units[u].disk == disk) {
      return u;
    }
  }
  return -1;
}

// --- Client requests -------------------------------------------------------------

void ArrayEngine::Submit(const ClientRequest& r, RequestDone done) {
  assert(r.size > 0);
  assert(r.offset >= 0 && r.offset + r.size <= layout_->data_capacity_bytes());
  if (outstanding_clients_++ == 0) {
    busy_clients_.Set(sim_->Now(), 1.0);
    if (idle_detector_) {
      idle_detector_->NoteBusy();
    }
    OnArrayBusy();
  }
  // The client completion and EndClient are folded into the request's join
  // callback, so no intermediate wrapper is needed. Planned requests carry
  // their precompiled Split() (array/plan.h).
  if (!r.is_write) {
    // Read continuations capture their Segment by value, so an unplanned
    // split lives in scratch only for this synchronous loop.
    Span<Segment> segs{r.plan_segs, r.plan_seg_count};
    if (r.plan_segs == nullptr) {
      layout_->SplitInto(r.offset, r.size, &split_scratch_);
      segs = Span<Segment>{split_scratch_.data(),
                           static_cast<int32_t>(split_scratch_.size())};
    }
    JoinBlock* join = joins_.Make(segs.count, [this, done = std::move(done)](bool) mutable {
      done();
      EndClient();
    });
    for (const Segment& seg : segs) {
      ReadSegment(seg, join);
    }
    return;
  }
  // Write groups are spans into the segments, so those must stay in place
  // until the request's join fires: a planned request's live in the
  // RequestPlan, an unplanned one's in a pooled vector owned by the join.
  // Split emits nondecreasing stripe numbers, so grouping by stripe is a
  // contiguous-run scan, dispatched in ascending stripe order.
  std::vector<Segment>* pooled = nullptr;
  const Segment* base = r.plan_segs;
  auto count = static_cast<size_t>(r.plan_seg_count);
  if (base == nullptr) {
    pooled = seg_pool_.Acquire();
    layout_->SplitInto(r.offset, r.size, pooled);
    base = pooled->data();
    count = pooled->size();
  }
  int32_t n_groups = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i == 0 || base[i].stripe != base[i - 1].stripe) {
      ++n_groups;
    }
  }
  JoinBlock* join =
      joins_.Make(n_groups, [this, done = std::move(done), pooled](bool) mutable {
        if (pooled != nullptr) {
          seg_pool_.Release(pooled);
        }
        done();
        EndClient();
      });
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count && base[j].stripe == base[i].stripe) {
      ++j;
    }
    WriteStripeGroup(r.id, base[i].stripe,
                     Span<Segment>{base + i, static_cast<int32_t>(j - i)}, join);
    i = j;
  }
}

void ArrayEngine::EndClient() {
  assert(outstanding_clients_ > 0);
  if (--outstanding_clients_ == 0) {
    busy_clients_.Set(sim_->Now(), 0.0);
    if (idle_detector_) {
      idle_detector_->NoteIdle();
    }
    OnArrayIdle();
  }
  TriggerRefresh(RefreshCue::kActivity);
}

void ArrayEngine::ReadSegment(const Segment& seg, JoinBlock* join) {
  const BlockLoc dl = layout_->DataLocation(seg.stripe, seg.block_in_stripe);
  if (DiskUnavailable(dl.disk, seg.stripe)) {
    DegradedReadSegment(seg, join);
    return;
  }
  IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
              /*is_write=*/false, DiskOpPurpose::kClientRead,
              [join](bool) { join->Dec(true); });
}

void ArrayEngine::WriteStripeGroup(uint64_t request_id, int64_t stripe,
                                   Span<Segment> segs, JoinBlock* group_join) {
  (void)stripe;
  // Every segment completes the request join once, so widen it by the
  // group's extra segments first (its own count keeps it from firing early).
  group_join->remaining += segs.count - 1;
  for (const Segment& seg : segs) {
    WriteSegment(request_id, seg, group_join);
  }
}

void ArrayEngine::WriteSegment(uint64_t request_id, const Segment& seg,
                               JoinBlock* join) {
  (void)request_id;
  (void)seg;
  (void)join;
  assert(false && "schemes override WriteStripeGroup or WriteSegment");
}

int32_t ArrayEngine::DegradedReadParity(int64_t stripe, bool* lost) const {
  (void)stripe;
  *lost = false;
  return 0;
}

void ArrayEngine::DegradedReadSegment(const Segment& seg, JoinBlock* parent) {
  locks_.Acquire(seg.stripe, LockMode::kExclusive, [this, seg, parent] {
    const int64_t stripe = seg.stripe;
    const BlockLoc target = layout_->DataLocation(stripe, seg.block_in_stripe);
    if (!DiskUnavailable(target.disk, stripe)) {
      IssueDiskOp(target.disk, target.byte_offset + seg.offset_in_block, seg.length,
                  /*is_write=*/false, DiskOpPurpose::kClientRead,
                  [this, stripe, parent](bool) {
                    locks_.Release(stripe, LockMode::kExclusive);
                    parent->Dec(true);
                  });
      return;
    }
    bool lost = false;
    const int32_t which = DegradedReadParity(stripe, &lost);
    const int32_t n = layout_->data_blocks_per_stripe();
    JoinBlock* join = joins_.Make(n, [this, seg, lost, parent](bool) {  // n-1 data + parity.
      if (lost) {
        RecordLoss(LossCause::kStaleParityDegradedRead, seg.stripe, seg.length);
      }
      locks_.Release(seg.stripe, LockMode::kExclusive);
      parent->Dec(true);
    });
    for (int32_t j = 0; j < n; ++j) {
      if (j == seg.block_in_stripe) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                  /*is_write=*/false, DiskOpPurpose::kReconstructRead,
                  [join](bool) { join->Dec(true); });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe, which);
    IssueDiskOp(pl.disk, pl.byte_offset + seg.offset_in_block, seg.length,
                /*is_write=*/false, DiskOpPurpose::kReconstructRead,
                [join](bool) { join->Dec(true); });
  });
}

// --- Failure, replacement and the reconstruction sweep --------------------------------

bool ArrayEngine::FailDisk(int32_t disk) {
  if (disk < 0 || disk >= cfg_.num_disks || failed_disk_ >= 0 ||
      recovering_disk_ >= 0) {
    return false;
  }
  failed_disk_ = disk;
  disks_[static_cast<size_t>(disk)]->Fail();
  if (ctrl_probe_) {
    ctrl_probe_.Instant("fail disk" + std::to_string(disk), sim_->Now());
  }
  return true;
}

bool ArrayEngine::ReplaceDisk(int32_t disk) {
  if (disk != failed_disk_ || disk < 0) {
    return false;
  }
  disks_[static_cast<size_t>(disk)]->Replace();
  failed_disk_ = -1;
  recovering_disk_ = disk;
  recovery_frontier_ = 0;
  if (ctrl_probe_) {
    ctrl_probe_.Instant("replace disk" + std::to_string(disk), sim_->Now());
  }
  if (content_ != nullptr) {
    BlankReplacedDisk(disk);
  }
  return true;
}

void ArrayEngine::BlankReplacedDisk(int32_t disk) {
  const int32_t n = layout_->data_blocks_per_stripe();
  for (int64_t s : content_->TouchedStripes()) {
    // A stripe has at most one unit on any disk.
    const int32_t u = UnitOn(MapStripe(s), disk);
    for (int32_t i = 0; u >= 0 && i < content_->sectors_per_unit(); ++i) {
      if (u < n) {
        content_->SetData(s, u, i, 0);
      } else {
        content_->SetParity(s, i, 0, u - n);
      }
    }
  }
}

bool ArrayEngine::StartReconstruction(std::function<void()> done) {
  if (recovering_disk_ < 0 || reconstruction_active_) {
    return false;
  }
  reconstruction_active_ = true;
  reconstruction_done_ = std::move(done);
  if (rebuild_probe_) {
    rebuild_probe_.AsyncBegin("reconstruction", 1, sim_->Now());
  }
  sweep_.next = 0;
  RunSteps(&sweep_, /*after_step=*/false);
  return true;
}

int64_t ArrayEngine::SweepDriver::Next() {
  // Declustered layouts place only some stripes on any given disk; stripes
  // without a unit on the replaced disk need no work (and are not counted).
  // Left-symmetric layouts never skip.
  const ArrayLayout& layout = *e_->layout_;
  while (next < layout.num_stripes() && !layout.StripeUsesDisk(next, e_->recovering_disk_)) {
    ++next;
  }
  if (next < layout.num_stripes()) {
    return next++;
  }
  e_->reconstruction_active_ = false;
  e_->recovering_disk_ = -1;
  e_->recovery_frontier_ = 0;
  if (e_->rebuild_probe_) {
    e_->rebuild_probe_.AsyncEnd("reconstruction", 1, e_->sim_->Now());
  }
  auto done = std::move(e_->reconstruction_done_);
  e_->reconstruction_done_ = nullptr;
  if (done) {
    done();
  }
  e_->TriggerRefresh(RefreshCue::kRecovered);  // Deferred work may resume.
  return -1;
}

void ArrayEngine::SweepDriver::Settle(bool ok) {
  (void)ok;
  ++e_->stripes_reconstructed_;
  e_->recovery_frontier_ = next;
}

// --- The step executor -------------------------------------------------------------

void ArrayEngine::RunSteps(StepDriver* driver, bool after_step) {
  // A loop, not recursion, carries a driver from one in-place step to the
  // next.
  Step& step = driver->step;
  for (int64_t stripe = driver->Next(); stripe >= 0; stripe = driver->Next()) {
    step.rel = 0;
    step.len = layout_->stripe_unit();
    step.start = sim_->Now();
    // In place only from a step's own completion, with the lock table empty:
    // a step that waits for a lock, or is granted one inside another
    // caller's Release, runs through events. So does a step while a quiesce
    // waits, since its finish hook may run the quiesce's callback.
    if (!after_step || !locks_.Empty() || Quiescing()) {
      locks_.Acquire(stripe, LockMode::kExclusive, [this, driver, stripe] {
        driver->Describe(stripe, &driver->step);
        IssueDriverStep(driver, stripe);
      });
      return;
    }
    // An in-place step takes no lock: nothing can run before it ends, as it
    // schedules no event and its description and finish hook start no I/O
    // (DESIGN.md §17). A step that falls back to events takes the lock
    // first, granted on the spot as before.
    driver->Describe(stripe, &step);
    if (!RunStepInline(step)) {
      locks_.Acquire(stripe, LockMode::kExclusive, [] {});
      IssueDriverStep(driver, stripe);
      return;
    }
    if (!EndStep(driver, /*ok=*/true, /*locked=*/-1)) {
      return;
    }
    after_step = true;
  }
}

void ArrayEngine::IssueDriverStep(StepDriver* driver, int64_t stripe) {
  driver->step.end = [this, driver, stripe](bool ok) {
    // A step without an op ends within its lock's grant, so the next one
    // waits for its lock like a first step.
    const bool had_ops = !driver->step.reads.empty() || !driver->step.writes.empty();
    if (EndStep(driver, ok, stripe)) {
      RunSteps(driver, had_ops);
    }
  };
  IssueStep(&driver->step);
}

void ArrayEngine::IssueStep(Step* step, bool writes) {
  const std::vector<Step::Op>& ops = writes ? step->writes : step->reads;
  if (ops.empty()) {
    if (writes) {
      EndIssuedStep(step, /*ok=*/true);
    } else {
      IssueStep(step, /*writes=*/true);
    }
    return;
  }
  JoinBlock* join =
      joins_.Make(static_cast<int32_t>(ops.size()), [this, step, writes](bool ok) {
        if (ok && !writes) {
          IssueStep(step, /*writes=*/true);
        } else {
          EndIssuedStep(step, ok);
        }
      });
  for (size_t i = 0; i < ops.size(); ++i) {
    const Step::Op& op = ops[i];
    if (op.dead) {
      sim_->After(0, [join] { join->Dec(true); });
    } else if (writes && i < step->wrote.size() && step->wrote[i]) {
      IssueDiskOp(op.disk, op.offset, op.len, writes, op.purpose, [step, i, join](bool ok) {
        if (ok) {
          step->wrote[i]();
        }
        join->Dec(ok);
      });
    } else {
      IssueDiskOp(op.disk, op.offset, op.len, writes, op.purpose,
                  [join](bool ok) { join->Dec(ok); });
    }
  }
}

void ArrayEngine::EndIssuedStep(Step* step, bool ok) {
  auto end = std::move(step->end);
  if (step->pooled) {
    free_steps_.push_back(step);
  }
  end(ok);
}

bool ArrayEngine::RunStepInline(const Step& step) {
  // Only on a quiescent array: no client request or disk activity, and no
  // failed disk. Checked after Describe, whose step-start work (content,
  // loss) could start activity.
  if (outstanding_clients_ > 0) {
    return false;
  }
  for (const auto& d : disks_) {
    if (!d->Idle() || d->failed()) {
      return false;
    }
  }
  // Time both phases first: nothing changes unless the step ends strictly
  // before the next event and within the running deadline. Reads start now
  // on idle disks (a stripe's units sit on distinct disks); writes start
  // when the last read is in. Each op starts from wherever an earlier op of
  // this step left the same disk's arm.
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  DiskOp op;
  // A background step's ops all cover its byte range with its purposes.
  op.sectors = static_cast<int32_t>(step.len / sector);
  inline_ops_.clear();
  const auto time_op = [&](const Step::Op& o, SimTime start) {
    const DiskModel& disk = *disks_[static_cast<size_t>(o.disk)];
    int32_t from = disk.CurrentCylinder();
    for (const InlineOp& prev : inline_ops_) {
      if (prev.disk == o.disk) {
        from = prev.cylinder;
      }
    }
    // Built in place: pushing a copy would load the whole op back right
    // after its fields were stored one by one, which stalls the CPU's store
    // forwarding on the step's critical path (EXPERIMENTS.md).
    InlineOp& io = inline_ops_.emplace_back();
    io.disk = o.disk;
    io.order = static_cast<int32_t>(inline_ops_.size()) - 1;
    io.start = start;
    io.offset = o.offset;
    io.from = from;
    io.is_write = op.is_write;
    // Every disk has the one spec and the platters' phase is the global
    // clock's, so an op equal to the previous one in start, offset,
    // direction and arm position (the size is the step's) takes the same
    // time and ends on the same cylinder (DESIGN.md §17).
    const InlineOp* last = io.order > 0 ? &inline_ops_[static_cast<size_t>(io.order) - 1] : nullptr;
    if (last != nullptr && last->SameTiming(io)) {
      io.finish = last->finish;
      io.cylinder = last->cylinder;
    } else {
      op.lba = io.offset / sector;
      io.finish = start + disk.ComputeService(start, op, io.from, &io.cylinder).Total();
    }
    return io.finish;
  };
  SimTime reads_in = sim_->Now();
  op.is_write = false;
  for (const Step::Op& r : step.reads) {
    assert(r.len == step.len && r.purpose == step.read_purpose && !r.dead);
    reads_in = std::max(reads_in, time_op(r, sim_->Now()));
  }
  const size_t n_reads = inline_ops_.size();
  SimTime end = reads_in;
  op.is_write = true;
  for (const Step::Op& w : step.writes) {
    assert(w.len == step.len && w.purpose == step.write_purpose && !w.dead);
    end = std::max(end, time_op(w, reads_in));
  }
  if (end > sim_->Horizon()) {
    return false;
  }
  CommitInlinePhase(0, n_reads, step.read_purpose, op.sectors);
  CommitInlinePhase(n_reads, inline_ops_.size(), step.write_purpose, op.sectors);
  sim_->AdvanceTo(end);
  return true;
}

void ArrayEngine::CommitInlinePhase(size_t first, size_t end, DiskOpPurpose purpose,
                                    int32_t sectors) {
  const auto begin = inline_ops_.begin() + static_cast<ptrdiff_t>(first);
  const auto stop = inline_ops_.begin() + static_cast<ptrdiff_t>(end);
  disk_ops_[static_cast<size_t>(purpose)] += end - first;
  // A phase's ops sit on distinct disks, so serving each op whole keeps
  // every disk's own order of updates.
  for (auto it = begin; it != stop; ++it) {
    disks_[static_cast<size_t>(it->disk)]->ServeInline(it->start, it->finish, it->cylinder,
                                                       sectors);
  }
  // Every probe shares one tracer, so the rebuild track stands for all.
  if (!rebuild_probe_) {
    return;
  }
  // The event path's trace order: submits in issue order, then completions
  // by (finish, issue order), each the disk's queue counter, then its span.
  for (auto it = begin; it != stop; ++it) {
    disks_[static_cast<size_t>(it->disk)]->TraceInline(it->start, 1.0);
  }
  // Issue order is completion order unless finish times differ.
  const auto by_completion = [](const InlineOp& a, const InlineOp& b) {
    return a.finish != b.finish ? a.finish < b.finish : a.order < b.order;
  };
  if (!std::is_sorted(begin, stop, by_completion)) {
    std::sort(begin, stop, by_completion);
  }
  for (auto it = begin; it != stop; ++it) {
    disks_[static_cast<size_t>(it->disk)]->TraceInline(it->finish, 0.0);
    disk_probes_[static_cast<size_t>(it->disk)].Complete(DiskOpPurposeName(purpose),
                                                         it->start, it->finish);
  }
}

bool ArrayEngine::EndStep(StepDriver* driver, bool ok, int64_t locked) {
  Step& step = driver->step;
  if (step.finish) {
    auto finish = std::move(step.finish);
    if (ok) {
      finish();
    }
  }
  driver->Settle(ok);
  step.reads.clear();
  step.writes.clear();
  if (locked >= 0) {
    locks_.Release(locked, LockMode::kExclusive);
  }
  return driver->Resume(ok);
}

void ArrayEngine::AddPeerReads(const BlockLoc* units, int32_t j_target, int32_t parity,
                               Step* step) const {
  const int32_t n = layout_->data_blocks_per_stripe();
  for (int32_t j = 0; j < n; ++j) {
    if (j != j_target) {
      step->Read(units[j]);
    }
  }
  if (j_target >= 0) {
    step->Read(units[n + parity]);
  }
}

int32_t ArrayEngine::DescribeXorRestore(int64_t stripe, int32_t target, Step* step) {
  const BlockLoc* units = MapStripe(stripe);
  const int32_t u = UnitOn(units, target);
  assert(u >= 0);
  const int32_t j_target = u < layout_->data_blocks_per_stripe() ? u : -1;
  AddPeerReads(units, j_target, 0, step);
  step->Write(units[u]);
  return j_target;
}

void ArrayEngine::RecomputeXorParity(int64_t stripe, int64_t rel, int64_t len) {
  if (content_ == nullptr) {
    return;
  }
  // One batched sweep over the range's sectors.
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const auto first = static_cast<int32_t>(rel / sector);
  const auto count = static_cast<int32_t>(len < 0 ? content_->sectors_per_unit() : len / sector);
  parity_scratch_.resize(static_cast<size_t>(count));
  content_->XorOfDataRange(stripe, first, count, parity_scratch_.data());
  content_->SetParityRange(stripe, first, count, parity_scratch_.data());
}

void ArrayEngine::RestoreXorUnit(int64_t stripe, int32_t j_target) {
  if (j_target < 0) {
    RecomputeXorParity(stripe);
    return;
  }
  if (content_ != nullptr) {
    for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
      content_->SetData(stripe, j_target, s, content_->ReconstructData(stripe, j_target, s));
    }
  }
}

void ArrayEngine::ApplyWriteContent(uint64_t request_id, const Segment& seg) {
  if (content_ == nullptr) {
    return;
  }
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const int32_t first = seg.offset_in_block / sector;
  const int64_t logical_first = seg.logical_offset / sector;
  for (int32_t i = 0; i < seg.length / sector; ++i) {
    content_->SetData(seg.stripe, seg.block_in_stripe, first + i,
                      ContentModel::MixTag(request_id, logical_first + i));
  }
}

// --- Client write steps ------------------------------------------------------------

ArrayEngine::Step* ArrayEngine::NewWriteStep() {
  if (free_steps_.empty()) {
    step_store_.push_back(std::make_unique<Step>());
    step_store_.back()->pooled = true;
    free_steps_.push_back(step_store_.back().get());
  }
  Step* step = free_steps_.back();
  free_steps_.pop_back();
  step->reads.clear();
  step->writes.clear();
  step->wrote.clear();
  return step;
}

void ArrayEngine::AddSegmentWrites(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                                   int32_t dead, Step* step) {
  for (const Segment& seg : segs) {
    const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
    step->writes.emplace_back(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                              DiskOpPurpose::kClientWrite, dl.disk == dead);
    if (dl.disk == dead) {
      // A dead op never completes good, so its tags land now, under the
      // stripe lock: the new parities and any later write to the stripe
      // then cover them, and the sweep restores them.
      ApplyWriteContent(request_id, seg);
    }
    step->wrote.emplace_back(
        [this, request_id, seg = &seg] { OnDataWritten(request_id, *seg); });
  }
}

void ArrayEngine::DescribeRmw(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                              int32_t k, Step* step) {
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  // The parity span: parity changes exactly where data does.
  int32_t lo = INT32_MAX;
  int32_t hi = 0;
  for (const Segment& seg : segs) {
    lo = std::min(lo, seg.offset_in_block);
    hi = std::max(hi, seg.offset_in_block + seg.length);
  }
  // The deltas, from the data before the write: the stripe lock keeps it
  // until the writes land.
  if (content_ != nullptr && k > 0) {
    for (int32_t w = 0; w < k; ++w) {
      step->parity[static_cast<size_t>(w)].assign(static_cast<size_t>((hi - lo) / sector), 0);
    }
    for (const Segment& seg : segs) {
      const int32_t first = seg.offset_in_block / sector;
      const int64_t logical_first = seg.logical_offset / sector;
      for (int32_t i = 0; i < seg.length / sector; ++i) {
        const uint64_t delta = content_->GetData(stripe, seg.block_in_stripe, first + i) ^
                               ContentModel::MixTag(request_id, logical_first + i);
        const auto at = static_cast<size_t>(first + i - lo / sector);
        for (int32_t w = 0; w < k; ++w) {
          step->parity[static_cast<size_t>(w)][at] ^=
              w == 0 ? delta : Gf256::MulWord(delta, Gf256::Pow2(seg.block_in_stripe));
        }
      }
    }
  }
  if (k > 0) {
    for (const Segment& seg : segs) {
      if (!OldDataCached(stripe, seg.block_in_stripe)) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        step->reads.emplace_back(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                                 DiskOpPurpose::kOldDataRead);
      }
    }
    for (int32_t w = 0; w < k; ++w) {
      const BlockLoc pl = layout_->ParityLocation(stripe, w);
      step->reads.emplace_back(pl.disk, pl.byte_offset + lo, hi - lo,
                               DiskOpPurpose::kOldParityRead);
    }
  }
  AddSegmentWrites(request_id, stripe, segs, -1, step);
  for (int32_t w = 0; w < k; ++w) {
    const BlockLoc pl = layout_->ParityLocation(stripe, w);
    step->writes.emplace_back(pl.disk, pl.byte_offset + lo, hi - lo, DiskOpPurpose::kParityWrite);
    if (content_ != nullptr) {
      step->wrote.emplace_back([this, stripe, first = lo / sector, step, w] {
        const std::vector<uint64_t>& delta = step->parity[static_cast<size_t>(w)];
        for (size_t i = 0; i < delta.size(); ++i) {
          const auto s = first + static_cast<int32_t>(i);
          content_->SetParity(stripe, s, content_->GetParity(stripe, s, w) ^ delta[i], w);
        }
      });
    }
  }
}

void ArrayEngine::DescribeReconstructWrite(uint64_t request_id, int64_t stripe,
                                           Span<Segment> segs, int32_t k, int32_t dead,
                                           bool read_partial, Step* step) {
  const int32_t n = layout_->data_blocks_per_stripe();
  const int64_t unit = layout_->stripe_unit();
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const BlockLoc* units = MapStripe(stripe);
  by_block_scratch_.assign(static_cast<size_t>(n), nullptr);
  for (const Segment& seg : segs) {
    assert(by_block_scratch_[static_cast<size_t>(seg.block_in_stripe)] == nullptr);
    by_block_scratch_[static_cast<size_t>(seg.block_in_stripe)] = &seg;
  }
  // The new parities, from the data as the write leaves it: the stripe lock
  // keeps the rest until the writes land.
  if (content_ != nullptr) {
    const auto spu = static_cast<int32_t>(unit / sector);
    for (int32_t w = 0; w < k; ++w) {
      step->parity[static_cast<size_t>(w)].assign(static_cast<size_t>(spu), 0);
    }
    for (int32_t j = 0; j < n; ++j) {
      const Segment* seg = by_block_scratch_[static_cast<size_t>(j)];
      for (int32_t i = 0; i < spu; ++i) {
        uint64_t v = content_->GetData(stripe, j, i);
        if (seg != nullptr) {
          const int32_t first = seg->offset_in_block / sector;
          if (i >= first && i < first + seg->length / sector) {
            v = ContentModel::MixTag(request_id, seg->logical_offset / sector + (i - first));
          }
        }
        for (int32_t w = 0; w < k; ++w) {
          step->parity[static_cast<size_t>(w)][static_cast<size_t>(i)] ^=
              w == 0 ? v : Gf256::MulWord(v, Gf256::Pow2(j));
        }
      }
    }
  }
  for (int32_t j = 0; j < n; ++j) {
    const Segment* seg = by_block_scratch_[static_cast<size_t>(j)];
    const bool untouched = seg == nullptr || (read_partial && seg->length < unit);
    if (untouched && units[j].disk != dead) {
      step->reads.emplace_back(units[j].disk, units[j].byte_offset, unit,
                               DiskOpPurpose::kReconstructRead);
    }
  }
  AddSegmentWrites(request_id, stripe, segs, dead, step);
  for (int32_t w = 0; w < k; ++w) {
    const BlockLoc& pl = units[n + w];
    step->writes.emplace_back(pl.disk, pl.byte_offset, unit, DiskOpPurpose::kParityWrite,
                              pl.disk == dead);
    if (content_ != nullptr) {
      step->wrote.emplace_back([this, stripe, step, w] {
        const std::vector<uint64_t>& parity = step->parity[static_cast<size_t>(w)];
        content_->SetParityRange(stripe, 0, static_cast<int32_t>(parity.size()), parity.data(),
                                 w);
      });
    }
  }
}

// --- Deferred redundancy: stale marks, refresh passes and quiesce -------------------

bool ArrayEngine::ClearStale(int64_t key) {
  const bool changed = nvram_.Clear(key);
  for (size_t i = 0; i < watchers_.size();) {
    watchers_[i].waiting.erase(key);
    if (watchers_[i].waiting.empty()) {
      auto done = std::move(watchers_[i].done);
      watchers_.erase(watchers_.begin() + static_cast<ptrdiff_t>(i));
      done();
    } else {
      ++i;
    }
  }
  return changed;
}

bool ArrayEngine::RefreshAllowed() const {
  // While a disk is failed or being reconstructed, stale keys need the
  // failure machinery, not a recompute from missing or blank blocks.
  return failed_disk_ < 0 && recovering_disk_ < 0 && nvram_.DirtyCount() > 0;
}

void ArrayEngine::TriggerRefresh(RefreshCue cue) {
  if (refreshing_ || !RefreshAllowed()) {
    return;
  }
  if (Quiescing() || WantRefresh(cue)) {
    BeginRefreshPass();
    RunSteps(&refresh_, /*after_step=*/false);
  }
}

void ArrayEngine::BeginRefreshPass() {
  assert(!refreshing_);
  refreshing_ = true;
  ++refresh_passes_;
  if (rebuild_probe_) {
    rebuild_probe_.AsyncBegin("rebuild pass", refresh_passes_, sim_->Now());
  }
}

void ArrayEngine::EndRefreshPass() {
  assert(refreshing_);
  refreshing_ = false;
  if (rebuild_probe_) {
    rebuild_probe_.AsyncEnd("rebuild pass", refresh_passes_, sim_->Now());
  }
}

int64_t ArrayEngine::NextRefreshKey(int64_t from) const {
  // NextDirty wraps, so walking key+1 from the first hit visits every stale
  // key exactly once, in ascending order from `from`.
  const int64_t first = nvram_.NextDirty(from);
  if (first < 0) {
    return -1;
  }
  int64_t key = first;
  do {
    if (Refreshable(key)) {
      return key;
    }
    key = nvram_.NextDirty(key + 1);
  } while (key != first);
  return -1;
}

int64_t ArrayEngine::RefreshDriver::Next() {
  key_ = e_->NextRefreshKey(cursor);
  if (key_ < 0) {
    e_->EndRefreshPass();
    return -1;
  }
  return key_ / e_->stale_slots_;
}

void ArrayEngine::RefreshDriver::Settle(bool ok) {
  if (ok && !(step.reads.empty() && step.writes.empty())) {
    ++e_->stripes_refreshed_;
  }
}

bool ArrayEngine::RefreshDriver::Resume(bool ok) {
  cursor = key_ + 1;
  if (e_->rebuild_probe_) {
    e_->rebuild_probe_.Complete(e_->RefreshStepName(), step.start, e_->sim_->Now());
  }
  // The start gate again: a disk may have failed, or even been replaced,
  // while the step ran.
  if (ok && e_->RefreshAllowed() &&
      (e_->Quiescing() || e_->WantRefresh(RefreshCue::kStep))) {
    return true;
  }
  e_->EndRefreshPass();
  return false;
}

void ArrayEngine::AwaitRefresh(int64_t first_key, int64_t end_key,
                               std::function<void()> done) {
  Watcher w;
  for (int64_t key : nvram_.DirtyStripes()) {
    if (key >= end_key) {
      break;
    }
    if (key >= first_key && Refreshable(key)) {
      w.waiting.insert(key);
    }
  }
  if (w.waiting.empty()) {
    sim_->After(0, std::move(done));
    return;
  }
  w.done = std::move(done);
  watchers_.push_back(std::move(w));
  TriggerRefresh(RefreshCue::kActivity);
}

}  // namespace afraid
