// The AFRAID array controller.
//
// One controller class implements the whole family the paper compares --
// exactly as the paper did it: "almost all of the code was the same between
// the various array models ... we modelled RAID 0 as an AFRAID that simply
// never did parity updates." The injected ParityPolicy decides, per write,
// whether parity is updated synchronously (RAID 5 mode) or deferred (AFRAID
// mode), and when background rebuilds run.
//
// Write paths:
//   AFRAID mode:  take the stripe shared, write the data, mark the stripe
//                 unredundant in NVRAM. One disk I/O in the critical path.
//   RAID 5 mode:  take the stripe exclusively, then either
//                   - reconstruct-write (read untouched blocks, recompute
//                     parity from scratch) when most of the stripe changes
//                     (a full-stripe write reads nothing), when the stripe's
//                     parity is already stale or when it is degraded, or
//                   - read-modify-write (pre-read old data + old parity,
//                     xor-delta, write data + parity) for small updates --
//                 the classic 4-I/O small-update penalty of Section 1.
//                 Both are the engine's k-parity write steps with k = 1.
//
// Background parity rebuilds run on the engine's refresh driver, which sweeps
// the NVRAM dirty set in ascending order (adjacent dirty stripes coalesce
// into near-sequential disk access), one band per step, preemptable between
// steps. AFRAID supplies the band step, the kNeverParity skip and the start
// decision (policy, idle predictor, NVRAM and scrub state).
//
// On top of the engine's failure machinery (array/array_engine.h): degraded
// reads/writes and the replacement sweep's single-parity step, NVRAM
// marking-memory loss with the conservative whole-array parity scrub, and
// host-requested paritypoints (Section 5).

#ifndef AFRAID_CORE_AFRAID_CONTROLLER_H_
#define AFRAID_CORE_AFRAID_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/array_engine.h"
#include "array/cache.h"
#include "array/idle_predictor.h"
#include "avail/model.h"
#include "core/policy.h"
#include "stats/time_weighted.h"

namespace afraid {

class AfraidController : public ArrayEngine {
 public:
  // A non-null `probe` turns tracing on (the engine's disk, "controller" and
  // "rebuild" tracks); AFRAID adds mode flips and NVRAM loss to the
  // controller track and rebuild passes, band steps and scrubs to rebuild.
  AfraidController(Simulator* sim, const ArrayConfig& config,
                   std::unique_ptr<ParityPolicy> policy,
                   const AvailabilityParams& avail_params, Probe probe = {});
  ~AfraidController() override;

  // --- ArrayScheme interface ---------------------------------------------------
  const char* SchemeName() const override { return "afraid"; }
  std::string PolicyLabel() const override;
  SchemeState State() const override;
  SchemeStats Stats() const override;

  // --- NVRAM failure & recovery ------------------------------------------------
  // Loses the NVRAM marking memory (all dirty knowledge gone).
  bool FailNvram() override;
  // The conservative recovery from NVRAM loss: recompute parity everywhere.
  bool StartFullScrub(std::function<void()> done) override;

  // --- Section 5 refinements ---------------------------------------------------
  // Host-requested "paritypoint": force the given byte range redundant;
  // `done` fires once every stripe overlapping the range has fresh parity.
  // Stripes in a kNeverParity region are excluded (as from RebuildAll).
  void ParityPoint(int64_t offset, int64_t length, std::function<void()> done);

  // Per-region redundancy classes: "stripe-aligned subsets of an AFRAID's
  // storage space could be permanently flagged with different redundancy
  // properties, from full RAID 5 redundancy-preservation to zero-redundancy
  // RAID 0-style storage" (Section 5). Regions override the policy for the
  // stripes they cover; unflagged stripes follow the installed policy.
  enum class RedundancyClass {
    kPolicyDefault,  // Follow the installed ParityPolicy.
    kAlwaysRaid5,    // Synchronous parity, always.
    kAlwaysAfraid,   // Deferred parity, regardless of policy reversion.
    kNeverParity,    // RAID 0-style: parity never maintained.
  };
  // Flags the stripes overlapping [offset, offset+length). Later calls
  // override earlier ones where they overlap.
  void SetRegionClass(int64_t offset, int64_t length, RedundancyClass cls);
  RedundancyClass RegionClassOf(int64_t stripe) const;

  // --- Introspection -----------------------------------------------------------
  // Parity-lag accounting (Section 3.2). Mean over [start, now].
  double MeanParityLagBytes() const { return unprot_bytes_.MeanTo(sim_->Now()); }
  double TUnprotFraction() const { return unprot_bytes_.PositiveFractionTo(sim_->Now()); }
  double CurrentParityLagBytes() const { return unprot_bytes_.Current(); }

  uint64_t StripesRebuilt() const { return stripes_refreshed_; }
  // Idle windows the predictor judged too short to start a rebuild in.
  uint64_t PredictorSkips() const { return predictor_skips_; }
  const IdlePredictor& idle_predictor() const { return idle_predictor_; }
  uint64_t AfraidModeStripeWrites() const { return afraid_mode_writes_; }
  uint64_t Raid5ModeStripeWrites() const { return raid5_mode_writes_; }
  int64_t MaxDirtyStripes() const { return max_dirty_; }
  uint64_t CacheHits() const { return read_cache_.Hits() + staging_.Hits(); }
  const ParityPolicy& policy() const { return *policy_; }

  // Functional read-back of current logical content (content tracking only):
  // per-sector values, reconstructing across a failed disk where possible.
  std::vector<uint64_t> ReadLogicalCurrent(int64_t offset, int64_t length) const;

  // Builds the policy context snapshot (exposed for tests).
  PolicyContext MakePolicyContext() const;

 private:
  // --- Engine hooks ---
  void OnArrayBusy() override;
  void OnArrayIdle() override { idle_started_at_ = sim_->Now(); }
  void ReadSegment(const Segment& seg, JoinBlock* join) override;
  void WriteStripeGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                        JoinBlock* group_join) override {
    RunStripeWriteGroup(request_id, stripe, segs, 0, group_join);
  }
  void ReconstructStripe(int64_t stripe, int32_t target, Step* step) override;
  bool WantRefresh(RefreshCue cue) override;
  bool Refreshable(int64_t key) const override {
    return RegionClassOf(key / BandsPerStripe()) != RedundancyClass::kNeverParity;
  }
  // The band step: recomputes one dirty band's parity.
  void RefreshKey(int64_t key, Step* step) override;

  // --- Client paths ---
  // The write-path plumbing hands pooled storage around: `segs` spans point
  // into a seg_pool_ vector owned by the request's join, `group_join` is a
  // pooled join block, and the steps must not retain any of them past their
  // end (the arena reuse contract, see DESIGN.md).
  void RunStripeWriteGroup(uint64_t request_id, int64_t stripe,
                           Span<Segment> segs, int32_t attempt,
                           JoinBlock* group_join);
  // AFRAID mode: the data writes alone, under a shared lock.
  void AfraidWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                        int32_t attempt, JoinBlock* group_join);
  // RAID 5 mode: a read-modify-write or a reconstruct-write.
  void Raid5WriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                       int32_t attempt, JoinBlock* group_join);
  // Unlocks the stripe, then reruns a failed group or completes it.
  void EndWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs, int32_t attempt,
                     LockMode mode, bool ok, JoinBlock* group_join);
  // Cache hits skip a read-modify-write's old-data pre-read.
  bool OldDataCached(int64_t stripe, int32_t j) override;
  // Caches and content after one data-segment write.
  void OnDataWritten(uint64_t request_id, const Segment& seg) override;
  // Degraded read without a re-check after the lock: stale bands found at
  // completion are charged as loss. Runs `parent->Dec(true)`.
  void AfraidDegradedRead(const Segment& seg, JoinBlock* parent);

  // The band step's and the scrub step's body: reads of every data block
  // and the parity write, over the step's byte range.
  void DescribeParityRewrite(int64_t stripe, Step* step);

  // The NVRAM-loss scrub: every stripe's parity rewritten, in order. A
  // failed step leaves its stale parity to the next scrub.
  class ScrubDriver final : public StepDriver {
   public:
    explicit ScrubDriver(AfraidController* controller) : c_(controller) {}
    int64_t Next() override;
    void Describe(int64_t stripe, Step* step) override;
    int64_t next = 0;

   private:
    AfraidController* c_;
  };

  // --- Helpers ---

  // Sub-stripe marking (Section 5): the NVRAM bitmap is keyed by *band*,
  // band key = stripe * M + band, where band b covers byte range
  // [b*S/M, (b+1)*S/M) of every block in the stripe. M = 1 (the paper's
  // baseline) degenerates to one mark per stripe.
  int32_t BandsPerStripe() const { return cfg_.marks_per_stripe; }
  int64_t BandBytesPerStripe() const {
    return layout_->data_blocks_per_stripe() * layout_->stripe_unit() /
           cfg_.marks_per_stripe;
  }
  // Bands covered by a byte range within the stripe unit (inclusive).
  std::pair<int32_t, int32_t> BandsOfRange(int32_t offset_in_block,
                                           int32_t length) const;
  void MarkBands(int64_t stripe, int32_t first_band, int32_t last_band);
  void ClearBandKey(int64_t key);
  void ClearAllBands(int64_t stripe);
  bool RangeDirty(int64_t stripe, int32_t offset_in_block, int32_t length) const;
  // Data-block cache key: global data-block index.
  int64_t BlockKey(int64_t stripe, int32_t j) const {
    return stripe * layout_->data_blocks_per_stripe() + j;
  }
  // True while some stripe lacks valid data on every disk (a failure, or a
  // replacement the sweep has not reached yet).
  bool StripeDegraded(int64_t stripe) const {
    return failed_disk_ >= 0 || (recovering_disk_ >= 0 && stripe >= recovery_frontier_);
  }
  // True if writes must take the RAID 5 path right now (policy or degraded).
  bool WantRaid5Write();

  std::unique_ptr<ParityPolicy> policy_;
  AvailabilityParams avail_params_;

  BlockLruCache read_cache_;
  BlockLruCache staging_;

  // Synchronous-only scratch reused across calls.
  mutable std::vector<Segment> read_back_scratch_;   // ReadLogicalCurrent.

  SimTime start_time_;

  // Idleness prediction (optional; Section 4.1 / [Golding95]).
  IdlePredictor idle_predictor_;
  SimTime idle_started_at_ = 0;
  // EWMA of observed per-band rebuild step durations, used as the quantum
  // the predictor must fit. Seeded with a few revolutions' worth.
  double rebuild_step_estimate_ns_ = 35e6;
  uint64_t predictor_skips_ = 0;

  // NVRAM-loss scrub.
  bool scrub_active_ = false;
  std::function<void()> scrub_done_;
  ScrubDriver scrub_{this};

  // Redundancy-class regions, newest-first precedence.
  struct Region {
    int64_t first_stripe;
    int64_t last_stripe;  // Inclusive.
    RedundancyClass cls;
  };
  std::vector<Region> regions_;

  // Accounting.
  TimeWeightedValue unprot_bytes_;
  uint64_t afraid_mode_writes_ = 0;
  uint64_t raid5_mode_writes_ = 0;
  bool last_write_raid5_ = false;
  int64_t max_dirty_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_CORE_AFRAID_CONTROLLER_H_
