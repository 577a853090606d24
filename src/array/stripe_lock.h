// Per-stripe reader/writer locks for parity consistency.
//
// The paper: "Multiple writes to the same stripe were allowed to proceed in
// parallel, but would block if a parity-rebuild on that stripe was in
// progress." We generalise slightly: any operation that *recomputes* parity
// (an AFRAID background rebuild, or a RAID 5 read-modify-write /
// reconstruct-write group) takes the stripe exclusively; plain AFRAID data
// writes take the stripe shared. Reads take no lock at all (they never touch
// parity).
//
// Grants are FIFO within a stripe to avoid starvation; everything is
// single-threaded simulation code, so "lock" here means deferred-callback
// admission control, not a mutex.
//
// Storage is pooled for the allocation-free request path: stripe states are
// recycled through a free list (keeping their waiter-queue capacity), the map
// nodes come from a NodePool, and Pump's to-run scratch is a reused stack.

#ifndef AFRAID_ARRAY_STRIPE_LOCK_H_
#define AFRAID_ARRAY_STRIPE_LOCK_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"

namespace afraid {

enum class LockMode { kShared, kExclusive };

class StripeLockTable {
 public:
  // Sized for the controllers' lock-grant continuations (request id, stripe,
  // segment span, join pointer).
  using Grant = SmallCallback<void(), 64>;

  StripeLockTable() : stripes_(0, Hash(), std::equal_to<int64_t>(),
                               PoolAllocator<MapEntry>(&node_pool_)) {}

  // Requests the stripe in `mode`; `granted` runs immediately (re-entrantly)
  // if the lock is free, otherwise when predecessors release.
  void Acquire(int64_t stripe, LockMode mode, Grant granted);

  // Releases one previously granted hold (shared holds release once each).
  void Release(int64_t stripe, LockMode mode);

  // True if anyone holds or awaits the stripe (used by tests).
  bool Busy(int64_t stripe) const { return stripes_.contains(stripe); }

  // True if no stripe is held or awaited.
  bool Empty() const { return stripes_.empty(); }

  // True if an exclusive hold is active on the stripe.
  bool HeldExclusive(int64_t stripe) const {
    auto it = stripes_.find(stripe);
    return it != stripes_.end() && it->second->exclusive_held;
  }

 private:
  struct Waiter {
    LockMode mode = LockMode::kShared;
    Grant granted;
  };
  struct State {
    int32_t shared_held = 0;
    bool exclusive_held = false;
    RingQueue<Waiter> waiters;
  };
  using Hash = std::hash<int64_t>;
  using MapEntry = std::pair<const int64_t, State*>;

  // Admits as many waiters as compatible; erases the entry when idle.
  void Pump(int64_t stripe, State* st);

  State* AcquireState();

  NodePool node_pool_;
  std::vector<std::unique_ptr<State>> state_storage_;
  std::vector<State*> state_free_;  // Recycled states keep waiter capacity.
  std::unordered_map<int64_t, State*, Hash, std::equal_to<int64_t>,
                     PoolAllocator<MapEntry>>
      stripes_;
  // Reused grant scratch, used as a stack so re-entrant Pumps nest: each call
  // runs only the entries it pushed, then truncates back to its base.
  std::vector<Grant> pump_run_;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_STRIPE_LOCK_H_
