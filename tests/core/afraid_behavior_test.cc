// AFRAID-specific behaviour: marking, idle-triggered rebuilds, preemption,
// parity-lag accounting, paritypoints, and the policy machinery -- plus the
// engine's deferred-redundancy loop on every scheme that defers redundancy.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "array/host_driver.h"
#include "array/scheme.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "obs/probe.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

ArrayConfig TinyConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  cfg.track_content = true;
  return cfg;
}

class AfraidRig : public ::testing::Test {
 protected:
  void Build(PolicySpec spec, ArrayConfig cfg) {
    cfg_ = cfg;
    ctl_ = std::make_unique<AfraidController>(&sim_, cfg_, MakePolicy(spec),
                                              AvailabilityParamsFor(cfg_));
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), cfg_.MaxActive());
  }
  void Build(PolicySpec spec = PolicySpec::AfraidBaseline()) {
    Build(spec, TinyConfig());
  }

  ArrayConfig cfg_;
  Simulator sim_;
  std::unique_ptr<AfraidController> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_F(AfraidRig, WriteMarksAllTouchedStripes) {
  Build();
  driver_->Submit(3 * 8192, 3 * 8192, true);  // Last block of stripe 0 + 2 more.
  sim_.RunUntil(Milliseconds(50));
  EXPECT_TRUE(ctl_->nvram().IsDirty(0));
  EXPECT_TRUE(ctl_->nvram().IsDirty(1));
  EXPECT_EQ(ctl_->nvram().DirtyCount(), 2);
}

TEST_F(AfraidRig, ParityLagCountsWholeStripes) {
  // "Any write to a stripe unprotects it all": lag = N * S per dirty stripe.
  Build();
  driver_->Submit(0, 512, true);  // A single sector still exposes N blocks.
  sim_.RunUntil(Milliseconds(50));
  EXPECT_DOUBLE_EQ(ctl_->CurrentParityLagBytes(), 4.0 * 8192.0);
}

// The engine's refresh loop (stale marks, idle trigger, refresh passes) on
// every scheme that defers redundancy, seen only through SchemeState.
class DeferredRefreshTest : public ::testing::TestWithParam<std::string> {
 protected:
  void Build(const ArrayConfig& base) {
    const ArrayConfig cfg = SchemeRegistry::Normalize(GetParam(), base);
    SchemeContext ctx{&sim_, cfg, PolicySpec::AfraidBaseline(), AvailabilityParamsFor(cfg),
                      Probe()};
    ctl_ = SchemeRegistry::Create(GetParam(), ctx);
    ASSERT_NE(ctl_, nullptr);
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), cfg.MaxActive());
  }
  int64_t StripeBytes() const {
    return ctl_->layout().data_blocks_per_stripe() * ctl_->layout().stripe_unit();
  }
  void Drain() {
    while (!driver_->Drained()) {
      ASSERT_TRUE(sim_.Step());
    }
  }

  Simulator sim_;
  std::unique_ptr<ArrayScheme> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_P(DeferredRefreshTest, IdleRefreshAfterConfiguredDelay) {
  ArrayConfig cfg = TinyConfig();
  cfg.idle_delay = Milliseconds(250);
  Build(cfg);
  driver_->Submit(0, 8192, true);
  Drain();
  ASSERT_GT(ctl_->State().dirty_marks, 0);
  // Nothing refreshes until the array has been idle for the full delay.
  sim_.RunUntil(sim_.Now() + Milliseconds(249));
  EXPECT_GT(ctl_->State().dirty_marks, 0);
  EXPECT_FALSE(ctl_->State().rebuild_active);
  sim_.RunUntil(sim_.Now() + Milliseconds(2));
  EXPECT_TRUE(ctl_->State().rebuild_active);
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->State().dirty_marks, 0);
  EXPECT_FALSE(ctl_->State().rebuild_active);
  EXPECT_DOUBLE_EQ(ctl_->State().parity_lag_bytes, 0.0);
}

TEST_P(DeferredRefreshTest, RefreshPreemptedByForegroundBetweenSteps) {
  Build(TinyConfig());
  for (int i = 0; i < 12; ++i) {
    driver_->Submit(i * StripeBytes(), 8192, true);
  }
  Drain();
  const int64_t marked = ctl_->State().dirty_marks;
  ASSERT_GT(marked, 0);
  // The idle timer starts a pass; a queued burst of reads arrives during its
  // first step and keeps the array busy past that step's end...
  while (!ctl_->State().rebuild_active) {
    ASSERT_TRUE(sim_.Step());
  }
  for (int i = 0; i < 24; ++i) {
    driver_->Submit((100 + i) * StripeBytes(), 8192, false);
  }
  // ...so the pass yields at the step boundary with work left.
  while (ctl_->State().rebuild_active) {
    ASSERT_TRUE(sim_.Step());
  }
  EXPECT_FALSE(driver_->Drained());
  EXPECT_LT(ctl_->State().dirty_marks, marked);
  EXPECT_GT(ctl_->State().dirty_marks, 0);
  // The next idle period drains the rest.
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->State().dirty_marks, 0);
  EXPECT_FALSE(ctl_->State().rebuild_active);
}

// A drill fails and replaces a disk at one instant (ExposureModel::
// FailureDrill does), here while a refresh step is in flight. The pass must
// stop at that step: another step would read the blank replacement, rewrite
// redundancy from it and clear the stale marks the sweep needs. Every victim
// disk and several instants into the pass, so some step survives the
// failure with its own reads and writes intact. Stepping event by event
// reaches instants within the pass's first step (the later steps of a quiet
// pass run in place); running to a deadline reaches later steps too.
TEST_P(DeferredRefreshTest, RefreshPassStopsAtADiskReplacedMidStep) {
  int32_t trials = 0;
  for (int32_t victim = 0; victim < 5; ++victim) {
    for (int32_t events = 1; events <= 32; ++events) {
      Simulator sim;
      Tracer tracer;
      const ArrayConfig cfg = SchemeRegistry::Normalize(GetParam(), TinyConfig());
      SchemeContext ctx{&sim, cfg, PolicySpec::AfraidBaseline(),
                        AvailabilityParamsFor(cfg), Probe(&tracer)};
      std::unique_ptr<ArrayScheme> ctl = SchemeRegistry::Create(GetParam(), ctx);
      ASSERT_NE(ctl, nullptr);
      HostDriver driver(&sim, ctl.get(), cfg.MaxActive());
      const int64_t stripe_bytes =
          ctl->layout().data_blocks_per_stripe() * ctl->layout().stripe_unit();
      for (int i = 0; i < 12; ++i) {
        driver.Submit(i * stripe_bytes, 8192, true);
      }
      while (!ctl->State().rebuild_active) {
        ASSERT_TRUE(sim.Step());
      }
      if (events <= 16) {
        for (int32_t e = 0; e < events && ctl->State().rebuild_active; ++e) {
          ASSERT_TRUE(sim.Step());
        }
      } else {
        sim.RunUntil(sim.Now() + Milliseconds(5) * (events - 16));
      }
      if (!ctl->State().rebuild_active) {
        continue;
      }
      ASSERT_TRUE(ctl->FailDisk(victim));
      const SimTime replaced_at = sim.Now();
      ASSERT_TRUE(ctl->ReplaceDisk(victim));
      SimTime recovered_at = -1;
      ASSERT_TRUE(ctl->StartReconstruction([&] { recovered_at = sim.Now(); }));
      sim.RunToEnd();
      ASSERT_GE(recovered_at, replaced_at);
      ++trials;
      int32_t steps_during_recovery = 0;
      for (const TraceEvent& ev : tracer.events()) {
        steps_during_recovery +=
            ev.phase == 'X' && tracer.tracks()[static_cast<size_t>(ev.track)] == "rebuild" &&
            ev.ts > replaced_at && ev.ts <= recovered_at;
      }
      EXPECT_EQ(steps_during_recovery, 0)
          << "disk" << victim << " replaced at trial instant " << events;
    }
  }
  EXPECT_GT(trials, 0);
}

// A disk that fails, with no replacement, while a refresh step has an op
// pending on it: that op fails, so the step must write nothing once a read
// failed and clear no stale mark, change no exposure and count nothing
// unless every op succeeded. Nothing else refreshes with a disk failed, so
// the marks stay as they were at the failure. Every victim disk, at
// instants spread over several steps of the pass.
TEST_P(DeferredRefreshTest, RefreshStepThatLostAnOpClearsNoMark) {
  int32_t trials = 0;
  for (int32_t victim = 0; victim < 5; ++victim) {
    for (int32_t k = 0; k < 48; ++k) {
      Simulator sim;
      const ArrayConfig cfg = SchemeRegistry::Normalize(GetParam(), TinyConfig());
      SchemeContext ctx{&sim, cfg, PolicySpec::AfraidBaseline(),
                        AvailabilityParamsFor(cfg), Probe()};
      std::unique_ptr<ArrayScheme> ctl = SchemeRegistry::Create(GetParam(), ctx);
      ASSERT_NE(ctl, nullptr);
      HostDriver driver(&sim, ctl.get(), cfg.MaxActive());
      const int64_t stripe_bytes =
          ctl->layout().data_blocks_per_stripe() * ctl->layout().stripe_unit();
      for (int i = 0; i < 12; ++i) {
        driver.Submit(i * stripe_bytes, 8192, true);
      }
      while (!ctl->State().rebuild_active) {
        ASSERT_TRUE(sim.Step());
      }
      sim.RunUntil(sim.Now() + Microseconds(2500) * k);
      if (!ctl->State().rebuild_active || ctl->disk(victim).Idle()) {
        continue;  // No step has an op pending on the victim.
      }
      ASSERT_TRUE(ctl->FailDisk(victim));
      const int64_t marks = ctl->State().dirty_marks;
      sim.RunToEnd();
      ++trials;
      EXPECT_EQ(ctl->State().dirty_marks, marks)
          << "disk" << victim << " failed " << 2500 * k << " us into the pass";
    }
  }
  EXPECT_GT(trials, 20);
}

std::string SchemeParamName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(DeferredSchemes, DeferredRefreshTest,
                         ::testing::Values("afraid", "raid6-deferQ", "raid6-deferPQ"),
                         SchemeParamName);

TEST_F(AfraidRig, RebuildCoalescesAdjacentStripesInOrder) {
  Build();
  // Dirty stripes 5, 6, 7 and 20 out of order.
  driver_->Submit(20 * 4 * 8192, 8192, true);
  driver_->Submit(6 * 4 * 8192, 8192, true);
  driver_->Submit(5 * 4 * 8192, 8192, true);
  driver_->Submit(7 * 4 * 8192, 8192, true);
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->StripesRebuilt(), 4u);
  EXPECT_EQ(ctl_->nvram().DirtyCount(), 0);
}

TEST_F(AfraidRig, ConcurrentWritesToOneStripeProceedInParallel) {
  Build();
  // Two writes to different blocks of stripe 0 at the same instant: both
  // should finish within a single disk-op time of each other (shared lock).
  driver_->Submit(0, 8192, true);
  driver_->Submit(8192, 8192, true);
  sim_.RunUntil(Milliseconds(60));
  EXPECT_EQ(driver_->Completed(), 2u);
  const double spread = driver_->AllLatencies().Max() - driver_->AllLatencies().Min();
  EXPECT_LT(spread, 15.0);  // Not serialised behind each other.
}

TEST_F(AfraidRig, WriteBlocksBehindInProgressRebuildOfSameStripe) {
  Build();
  driver_->Submit(0, 8192, true);
  sim_.RunToEnd();  // Stripe 0 clean again; rebuild done.
  // Dirty it, wait for the rebuild to be mid-stripe, then write again.
  driver_->Submit(0, 8192, true);
  while (!driver_->Drained()) {
    sim_.Step();
  }
  sim_.RunUntil(sim_.Now() + Milliseconds(105));  // Idle fires at +100ms.
  ASSERT_TRUE(ctl_->RebuildInProgress());
  driver_->Submit(8192, 8192, true);  // Same stripe: must wait for the lock.
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), 3u);
  EXPECT_TRUE(ctl_->content()->StripeConsistent(0));
}

TEST_F(AfraidRig, ParityPointForcesRedundancy) {
  Build(PolicySpec::Raid0());  // Never rebuilds on its own.
  driver_->Submit(0, 8192, true);
  driver_->Submit(50 * 4 * 8192, 8192, true);
  sim_.RunToEnd();
  ASSERT_EQ(ctl_->nvram().DirtyCount(), 2);
  bool done = false;
  ctl_->ParityPoint(0, 8192, [&done] { done = true; });
  sim_.RunToEnd();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ctl_->nvram().IsDirty(0));
  EXPECT_TRUE(ctl_->content()->StripeConsistent(0));
}

TEST_F(AfraidRig, ParityPointOnCleanRangeCompletesImmediately) {
  Build();
  bool done = false;
  ctl_->ParityPoint(0, 4 * 8192, [&done] { done = true; });
  sim_.RunToEnd();
  EXPECT_TRUE(done);
}

TEST_F(AfraidRig, RebuildAllQuiesces) {
  Build(PolicySpec::Raid0());
  for (int i = 0; i < 5; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
  }
  sim_.RunToEnd();
  ASSERT_EQ(ctl_->nvram().DirtyCount(), 5);
  bool done = false;
  ctl_->RebuildAll([&done] { done = true; });
  sim_.RunToEnd();
  EXPECT_TRUE(done);
  EXPECT_EQ(ctl_->nvram().DirtyCount(), 0);
}

TEST_F(AfraidRig, TUnprotFractionTracksExposureWindow) {
  ArrayConfig cfg = TinyConfig();
  cfg.idle_delay = Milliseconds(100);
  Build(PolicySpec::AfraidBaseline(), cfg);
  driver_->Submit(0, 8192, true);
  sim_.RunToEnd();
  const SimTime end = sim_.Now();
  // Unprotected from the write start (~0) until the rebuild finished (end).
  // The fraction over [0, end] should be large (most of this short run).
  EXPECT_GT(ctl_->TUnprotFraction(), 0.5);
  // Now accrue protected time: the fraction decays.
  sim_.RunUntil(end * 10);
  EXPECT_LT(ctl_->TUnprotFraction(), 0.15);
}

TEST_F(AfraidRig, StripeThresholdPolicyForcesRebuildUnderLoad) {
  Build(PolicySpec::StripeThreshold(3));
  // Keep the array continuously busy while dirtying > 3 stripes.
  for (int i = 0; i < 8; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
  }
  sim_.RunUntil(Milliseconds(95));  // Before any idle firing.
  EXPECT_GT(ctl_->StripesRebuilt(), 0u);
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->nvram().DirtyCount(), 0);
}

TEST_F(AfraidRig, NvramFailureForcesRaid5ModeWrites) {
  Build();
  ctl_->FailNvram();
  driver_->Submit(0, 8192, true);
  sim_.RunToEnd();
  // No marking possible; the write must have updated parity synchronously.
  EXPECT_EQ(ctl_->Raid5ModeStripeWrites(), 1u);
  EXPECT_EQ(ctl_->AfraidModeStripeWrites(), 0u);
  EXPECT_TRUE(ctl_->content()->StripeConsistent(0));
}

TEST_F(AfraidRig, FullScrubRestoresConsistencyAfterNvramLoss) {
  ArrayConfig cfg = TinyConfig();
  Build(PolicySpec::Raid0(), cfg);
  driver_->Submit(0, 8192, true);
  driver_->Submit(9 * 4 * 8192, 8192, true);
  sim_.RunToEnd();
  ASSERT_FALSE(ctl_->content()->StripeConsistent(0));
  ASSERT_FALSE(ctl_->content()->StripeConsistent(9));
  ctl_->FailNvram();
  EXPECT_EQ(ctl_->nvram().DirtyCount(), 0);  // Knowledge lost.
  bool done = false;
  ctl_->StartFullScrub([&done] { done = true; });
  sim_.RunToEnd();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ctl_->nvram().failed());
  for (int64_t s : ctl_->content()->TouchedStripes()) {
    EXPECT_TRUE(ctl_->content()->StripeConsistent(s)) << "stripe " << s;
  }
  EXPECT_DOUBLE_EQ(ctl_->CurrentParityLagBytes(), 0.0);
}

TEST_F(AfraidRig, ScrubTimeMatchesPaperBallpark) {
  // Section 3.1: full-array parity rebuild "about ten minutes for an array
  // using 2GB disks that can read at a sustained rate of 5MB/s". Our tiny
  // test disk is 2 MiB, so the scrub should take roughly (2 MiB / disk rate)
  // with overheads -- just sanity-check it is tens of seconds, not hours.
  Build(PolicySpec::AfraidBaseline());
  bool done = false;
  const SimTime start = sim_.Now();
  ctl_->StartFullScrub([&done] { done = true; });
  sim_.RunToEnd();
  ASSERT_TRUE(done);
  const double secs = ToSeconds(sim_.Now() - start);
  // 256 stripes x ~5 I/Os x ~10 ms each, with parallel reads: O(10 s).
  EXPECT_GT(secs, 1.0);
  EXPECT_LT(secs, 60.0);
}

TEST_F(AfraidRig, MttdlPolicyRevertsUnderSustainedExposure) {
  Build(PolicySpec::MttdlTarget(3e6));
  // Hammer writes with no idle: exposure accrues and the policy must start
  // issuing RAID 5-mode writes.
  for (int i = 0; i < 60; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
  }
  sim_.RunToEnd();
  EXPECT_GT(ctl_->Raid5ModeStripeWrites(), 0u);
}

TEST_F(AfraidRig, PolicyContextReflectsState) {
  Build();
  driver_->Submit(0, 8192, true);
  sim_.RunUntil(Milliseconds(50));
  const PolicyContext ctx = ctl_->MakePolicyContext();
  EXPECT_EQ(ctx.dirty_stripes, 1);
  EXPECT_GT(ctx.t_unprot_fraction, 0.0);
  EXPECT_EQ(ctx.avail->num_data_disks, 4);
}

}  // namespace
}  // namespace afraid
