// RAID 6 + AFRAID (Section 5 extension).
//
// "A RAID 6 array keeps two parity blocks for each stripe, and thus pays an
// even higher penalty for doing small updates than does RAID 5. The AFRAID
// technique could be combined with the RAID 6 parity scheme to delay either
// or both parity-block updates: if only one was deferred, partial redundancy
// protection would be available immediately, and full redundancy once the
// parity-rebuild happened for the other parity block."
//
// This controller implements the three operating points:
//   kSynchronous -- classic RAID 6: a small write pre-reads old data, old P
//                   and old Q, then writes data, P and Q (6 I/Os).
//   kDeferQ      -- data + P synchronous (4 I/Os, like RAID 5), Q deferred
//                   to idle time: single-failure tolerance immediately, dual
//                   tolerance after the rebuild.
//   kDeferBoth   -- pure AFRAID write (1 I/O); both parities rebuilt in idle.
//
// P is the xor parity; Q is the GF(256) Reed-Solomon parity
// Q = sum_j g^j D_j (see array/gf256.h). Per-stripe staleness lives in the
// engine's one stale-mark store with two slots per stripe, P and Q (2 NVRAM
// bits per stripe, vs AFRAID's 1); Q is stale whenever P is. The engine's
// refresh driver runs the idle-time passes; this controller supplies the
// P+Q stripe step and the idle-only start rule.
//
// Failure handling on top of the engine (array/array_engine.h): degraded
// reads reconstruct through P when fresh, through Q when only P is stale;
// degraded writes switch to synchronous full-stripe parity recompute; the
// sweep step recomputes the target from P, Q, or the surviving data as the
// stripe's layout dictates. A stripe whose P *and* Q were both stale when
// the disk died is unrecoverable and is charged as a LossEvent.

#ifndef AFRAID_CORE_RAID6_CONTROLLER_H_
#define AFRAID_CORE_RAID6_CONTROLLER_H_

#include <cstdint>
#include <string>

#include "array/array_engine.h"
#include "stats/time_weighted.h"

namespace afraid {

enum class Raid6Mode {
  kSynchronous,  // Update P and Q in the write's critical path.
  kDeferQ,       // Update P synchronously; defer Q to idle periods.
  kDeferBoth,    // Defer P and Q (full AFRAID behaviour).
};

std::string Raid6ModeName(Raid6Mode mode);

class Raid6Controller : public ArrayEngine {
 public:
  Raid6Controller(Simulator* sim, const ArrayConfig& config, Raid6Mode mode,
                  Probe probe = {});
  ~Raid6Controller() override;

  // --- ArrayScheme interface ---
  const char* SchemeName() const override;
  std::string PolicyLabel() const override { return Raid6ModeName(mode_); }
  SchemeState State() const override;
  SchemeStats Stats() const override;

  // --- Introspection ---
  Raid6Mode mode() const { return mode_; }
  int64_t StaleP() const { return stale_p_; }
  int64_t StaleQ() const { return stale_q_; }
  // Background P+Q refreshes plus stripes restored by reconstruction sweeps.
  uint64_t StripesRebuilt() const { return stripes_refreshed_ + stripes_reconstructed_; }
  // Time-average bytes covered by fewer than 2 / fewer than 1 parities.
  double MeanSingleExposedBytes() const { return q_only_stale_.MeanTo(sim_->Now()); }
  double MeanFullyExposedBytes() const { return both_stale_.MeanTo(sim_->Now()); }
  double TQStaleFraction() const { return q_only_stale_.PositiveFractionTo(sim_->Now()); }
  double TBothStaleFraction() const { return both_stale_.PositiveFractionTo(sim_->Now()); }

  // True iff stripe's P (and Q) match the data per the content model.
  bool StripeFullyConsistent(int64_t stripe) const;

  // Pure Q algebra (exposed for tests): Q value of one sector position.
  static uint64_t QOfData(const ContentModel& content, int64_t stripe,
                          int32_t data_blocks, int32_t sector);

 private:
  // --- Engine hooks ---
  // The mode's write path; DegradedWriteStripe while a disk is out.
  void WriteStripeGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                        JoinBlock* group_join) override {
    RunWriteGroup(request_id, stripe, segs, 0, group_join);
  }
  // P when it is live, Q when only P is stale; lost when both are stale.
  int32_t DegradedReadParity(int64_t stripe, bool* lost) const override;
  void ReconstructStripe(int64_t stripe, int32_t target, Step* step) override;
  // Idle time only: a pass starts when the idle timer fires or the sweep
  // finishes, and yields to the next client request between stripes.
  bool WantRefresh(RefreshCue cue) override {
    return cue == RefreshCue::kStep ? !ArrayBusy() : cue != RefreshCue::kActivity;
  }
  // One step refreshes both slots of a stripe, so the cursor steps whole
  // stripes: hand out the stripe's Q key (Q is stale whenever P is).
  int64_t NextRefreshKey(int64_t from) const override {
    const int64_t key = ArrayEngine::NextRefreshKey(from);
    return key < 0 ? key : key | 1;
  }
  // Recomputes a stale P (if any) and Q from the data.
  void RefreshKey(int64_t key, Step* step) override;
  const char* RefreshStepName() const override { return "stripe"; }

  // Write attempt `attempt` of a stripe group. A failed pre-read issues no
  // write; a failed op fails the group, which reruns (AFRAID's rule).
  void RunWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                     int32_t attempt, JoinBlock* group_join);
  // Unlocks the stripe, then reruns a failed group or completes it.
  void EndWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                     int32_t attempt, bool ok, JoinBlock* group_join);
  // Degraded write: synchronous full-stripe P+Q recompute around the
  // unavailable disk (the RAID 6 analogue of AFRAID's forced RAID 5 mode).
  void DegradedWriteStripe(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                           int32_t attempt, JoinBlock* group_join);
  // Stale slots: key stripe * 2 + which (0 = P, 1 = Q).
  bool ParityStale(int64_t stripe, int32_t which) const {
    return nvram_.IsDirty(stripe * 2 + which);
  }
  // Marks or clears one parity's slot, keeping the per-parity counts; the
  // caller then runs UpdateExposure.
  void SetParityStale(int64_t stripe, int32_t which, bool stale);
  void UpdateExposure();
  // With content tracking on, recomputes P and/or Q of `stripe` from its data.
  void RecomputeParities(int64_t stripe, bool p, bool q);

  Raid6Mode mode_;
  int64_t stale_p_ = 0;
  int64_t stale_q_ = 0;
  int64_t max_stale_stripes_ = 0;

  uint64_t deferred_mode_writes_ = 0;  // Stripe writes with deferred parity.
  uint64_t sync_mode_writes_ = 0;      // Stripe writes with in-path parity.

  TimeWeightedValue q_only_stale_;  // Bytes protected by P only.
  TimeWeightedValue both_stale_;    // Bytes with no live parity.
};

}  // namespace afraid

#endif  // AFRAID_CORE_RAID6_CONTROLLER_H_
