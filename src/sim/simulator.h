// The discrete-event simulation driver: a clock plus an event queue.
//
// Components schedule callbacks against the Simulator; RunUntil()/RunToEnd()
// advance the clock to each event in order and invoke it. This mirrors the
// structure of the Pantheon simulator used in the AFRAID paper: everything in
// the modelled array (disk mechanics, controller state machines, idle
// detection, trace arrival processes) is expressed as events.

#ifndef AFRAID_SIM_SIMULATOR_H_
#define AFRAID_SIM_SIMULATOR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace afraid {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `when`, which must not be in the past.
  EventId At(SimTime when, EventQueue::Callback fn) {
    assert(when >= now_);
    return queue_.Schedule(when, std::move(fn));
  }

  // Schedules `fn` after a non-negative delay from now.
  EventId After(SimDuration delay, EventQueue::Callback fn) {
    assert(delay >= 0);
    return queue_.Schedule(now_ + delay, std::move(fn));
  }

  // Cancels a pending event; see EventQueue::Cancel.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs events until the queue is empty or the next event is after
  // `deadline`; the clock finishes at min(deadline, last event time) — i.e.
  // RunUntil leaves Now() at `deadline` if the queue drained earlier events.
  void RunUntil(SimTime deadline);

  // Runs until no events remain.
  void RunToEnd();

  // Executes exactly one event, if any; its handler may not advance the
  // clock past `deadline` (where the caller next looks at the state).
  // Returns false if the queue was empty.
  bool Step(SimTime deadline = kSimTimeNever);

  // True if no pending events remain.
  bool Idle() const { return queue_.Empty(); }

  // Number of pending events.
  size_t PendingEvents() const { return queue_.Size(); }

  // Total events executed since construction.
  uint64_t EventsProcessed() const { return events_processed_; }

  // Time of the next pending event (kSimTimeNever if none).
  SimTime NextEventTime() const { return queue_.NextTime(); }

  // The latest time an event handler may move the clock to with AdvanceTo:
  // strictly before the next pending event, and no later than the deadline
  // of the running RunUntil or Step (none under RunToEnd). A handler
  // that computes work in place of events it would otherwise schedule stays
  // within it, so no other event could have run in between.
  SimTime Horizon() const {
    const SimTime next = queue_.NextTime();
    return std::min(deadline_, next == kSimTimeNever ? next : next - 1);
  }

  // Moves the clock forward to `t`, which must not pass Horizon().
  void AdvanceTo(SimTime t) {
    assert(t >= now_ && t <= Horizon());
    now_ = t;
  }

  // Returns the simulator to its just-constructed state: clock at 0, no
  // pending events, counters cleared. Event-queue slot storage is retained,
  // so a reset simulator re-runs without reallocating — this is what lets a
  // campaign worker reuse one arena across lifetimes (faultsim/campaign.h).
  void Reset() {
    queue_.Clear();
    now_ = 0;
    events_processed_ = 0;
    deadline_ = kSimTimeNever;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  SimTime deadline_ = kSimTimeNever;  // Of the running RunUntil or Step.
  uint64_t events_processed_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_SIM_SIMULATOR_H_
