// The streaming half of the compiled replay pipeline: compile each trace
// chunk into a recycled RequestPlan slot while the previous chunk replays.
//
// Lifetime is the crux. Controllers hold Span<Segment> views into a plan
// across asynchronous continuations (request.h), so a plan slot must not be
// recompiled while any request submitted from it is still in flight. The
// replayer therefore keeps every fed plan "live" until (a) all its records
// have been submitted and (b) all its submitted requests have completed --
// tracked via the driver's 1-based sequential completion ids, which the
// replayer mirrors because it is the driver's only submitter. Only then does
// the slot return to the ring for reuse. Under the paper's open-loop
// arrivals the in-flight window is tiny, so the ring converges to two or
// three slots: memory is O(chunk + outstanding window), independent of trace
// length.
//
// The replayer is the only replay driver: an in-memory trace is one plan fed
// once (ring-less), a trace file a chain of chunk plans. Trajectory
// equivalence between the two is by construction: arrivals are chained --
// each arrival event submits, then schedules the next arrival at
// max(record.time, now). When a chunk runs dry mid-event the replayer goes
// "starved"; the driving loop feeds the next chunk *before* stepping the
// simulator again, so the next arrival is inserted into the event queue at
// the same point in the event sequence as if the whole trace were one plan.
// Tests assert byte-identical latencies and reports on every workload.

#ifndef AFRAID_ARRAY_PLAN_STREAM_H_
#define AFRAID_ARRAY_PLAN_STREAM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "array/host_driver.h"
#include "array/layout.h"
#include "array/plan.h"
#include "sim/simulator.h"
#include "trace/trace_stream.h"

namespace afraid {

// A grow-on-demand pool of reusable RequestPlan slots. Acquire() prefers a
// released slot; the ring only grows while replay genuinely needs more
// chunks in flight at once.
class PlanSlotRing {
 public:
  RequestPlan* Acquire() {
    if (free_.empty()) {
      slots_.push_back(std::make_unique<RequestPlan>());
      return slots_.back().get();
    }
    RequestPlan* plan = free_.back();
    free_.pop_back();
    return plan;
  }

  void Release(const RequestPlan* plan) {
    // The ring owns the slots non-const; consumers only see const plans.
    free_.push_back(const_cast<RequestPlan*>(plan));
  }

  // Refresh the high-water mark of all slots' resident bytes. Call after
  // each Compile; capacity only changes there.
  void NotePeak() {
    size_t now = 0;
    for (const auto& slot : slots_) {
      now += slot->MemoryBytes();
    }
    if (now > peak_bytes_) {
      peak_bytes_ = now;
    }
  }

  int32_t slots() const { return static_cast<int32_t>(slots_.size()); }
  size_t peak_bytes() const { return peak_bytes_; }

 private:
  std::vector<std::unique_ptr<RequestPlan>> slots_;
  std::vector<RequestPlan*> free_;
  size_t peak_bytes_ = 0;
};

// Pulls chunks from a TraceChunkReader and compiles each into a ring slot.
// The caller must Release() plans back to ring() when replay retires them
// (StreamingPlanReplayer does this automatically).
class StreamingPlanCompiler {
 public:
  // `layout` must outlive the compiler (the owning controller does).
  StreamingPlanCompiler(TraceChunkReader* reader, const ArrayLayout& layout)
      : reader_(reader), layout_(&layout) {}

  // Compiles the next non-empty chunk; nullptr at end of trace or on error
  // (check status()).
  const RequestPlan* Next() {
    if (!reader_->Next()) {
      return nullptr;
    }
    RequestPlan* plan = ring_.Acquire();
    plan->Compile(reader_->chunk().records.data(),
                  reader_->chunk().records.size(), *layout_);
    ring_.NotePeak();
    return plan;
  }

  const TraceStatus& status() const { return reader_->status(); }
  PlanSlotRing* ring() { return &ring_; }

 private:
  TraceChunkReader* reader_;
  const ArrayLayout* layout_;
  PlanSlotRing ring_;
};

// Replays a sequence of fed plans through chained arrival events, retiring
// each plan's slot once fully submitted and completed. Push model: the
// driving loop alternates Feed(plan) with stepping the simulator until
// starved() (out of records) or Idle().
//
// The replayer must be the driver's only submitter, and the driver's
// completion listener must forward every completion id to OnComplete()
// (composing with any other listener work, e.g. per-request latency capture).
class StreamingPlanReplayer {
 public:
  StreamingPlanReplayer(Simulator* sim, HostDriver* driver, PlanSlotRing* ring)
      : sim_(sim), driver_(driver), ring_(ring) {}

  // Hands the replayer the next plan. If it was starved, the next arrival is
  // scheduled immediately (before any simulator step, preserving event
  // order). A destroyed replayer counts the plan's records as dropped and
  // releases the slot at once.
  void Feed(const RequestPlan* plan);

  // No more plans will arrive; after this, starved() means "trace done".
  void FinishFeeding() { feeding_done_ = true; }

  // Out of records to submit: the driving loop must Feed the next chunk (or
  // FinishFeeding and drain).
  bool starved() const { return starved_; }

  // Forward from the driver's completion listener.
  void OnComplete(uint64_t id);

  // Stop submitting (fleet mgmt "destroy"): cancels the pending arrival and
  // counts every unsubmitted record -- current and future feeds -- as
  // dropped. In-flight requests still complete and retire their slots.
  void Destroy();
  bool destroyed() const { return destroyed_; }

  uint64_t submitted() const { return submitted_; }
  uint64_t dropped() const { return dropped_; }
  int64_t submitted_read_bytes() const { return submitted_read_bytes_; }
  int64_t submitted_write_bytes() const { return submitted_write_bytes_; }

 private:
  struct LivePlan {
    const RequestPlan* plan = nullptr;
    uint64_t outstanding = 0;  // Submitted but not yet completed.
    uint64_t first_id = 0;     // Driver ids of this plan's submissions
    uint64_t last_id = 0;      // (0 = none submitted yet).
    bool exhausted = false;    // All records submitted (or dropped).
  };

  void ScheduleNext();
  void Fire();
  void TryRetire();

  Simulator* sim_;
  HostDriver* driver_;
  PlanSlotRing* ring_;
  std::deque<LivePlan> live_;
  size_t cur_ = 0;       // Index into live_ of the plan being submitted.
  size_t next_rec_ = 0;  // Next record within live_[cur_].
  uint64_t next_id_ = 1;  // Mirrors the driver's sequential id assignment.
  EventId pending_{};
  bool pending_valid_ = false;
  bool starved_ = true;
  bool feeding_done_ = false;
  bool destroyed_ = false;
  uint64_t submitted_ = 0;
  uint64_t dropped_ = 0;
  int64_t submitted_read_bytes_ = 0;
  int64_t submitted_write_bytes_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_PLAN_STREAM_H_
