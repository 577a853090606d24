// One failure/repair exercise for EVERY registered array scheme, through the
// ArrayScheme interface alone: seed known content, quiesce, fail a data
// disk, serve degraded reads and writes, replace the disk, run the
// reconstruction sweep with no concurrent traffic, and check every
// reconstructed sector against the functional ContentModel, the sweep's
// stripe count and the trace tracks every scheme records. A scheme added to
// the registry is picked up automatically.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/content.h"
#include "array/host_driver.h"
#include "array/scheme.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "core/raid6_controller.h"
#include "core/scheme_registry.h"
#include "disk/disk_model.h"
#include "obs/probe.h"
#include "obs/tracer.h"
#include "sim/simulator.h"
#include "stats/streaming.h"

namespace afraid {
namespace {

constexpr int64_t kBlock = 8192;

ArrayConfig TinyConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;  // Mirror normalises to 4.
  cfg.stripe_unit_bytes = kBlock;
  cfg.track_content = true;
  return cfg;
}

// Parameters are "<scheme>" or "<scheme>+declustered": the latter runs the
// identical end-to-end exercise with the declustered parity layout. Sets
// `*scheme` to the registry name and returns the normalised configuration.
ArrayConfig ConfigFor(std::string param, std::string* scheme) {
  ArrayConfig base = TinyConfig();
  const auto plus = param.find('+');
  if (plus != std::string::npos) {
    EXPECT_EQ(param.substr(plus + 1), "declustered");
    base.layout = LayoutKind::kDeclustered;
    param = param.substr(0, plus);
  }
  *scheme = param;
  return SchemeRegistry::Normalize(param, base);
}

// One array of scheme-and-layout `param`, traced, behind a host driver.
// AFRAID keeps `marks_per_stripe` stale marks (bands) per stripe.
struct Rig {
  explicit Rig(const std::string& param, int32_t marks_per_stripe = 1,
               bool track_content = true) {
    cfg = ConfigFor(param, &scheme);
    cfg.marks_per_stripe = marks_per_stripe;
    cfg.track_content = track_content;
    SchemeContext ctx{&sim, cfg, PolicySpec::AfraidBaseline(), AvailabilityParamsFor(cfg),
                      Probe(&tracer)};
    ctl = SchemeRegistry::Create(scheme, ctx);
    if (ctl != nullptr) {
      driver = std::make_unique<HostDriver>(&sim, ctl.get(), 5);
    }
  }

  std::string scheme;  // Registry name, layout suffix stripped.
  ArrayConfig cfg;
  Simulator sim;
  Tracer tracer;
  std::unique_ptr<ArrayScheme> ctl;
  std::unique_ptr<HostDriver> driver;
};

class SchemeFailureTest : public ::testing::TestWithParam<std::string> {
 protected:
  void Build() {
    cfg_ = ConfigFor(GetParam(), &scheme_);
    SchemeContext ctx{&sim_, cfg_, PolicySpec::AfraidBaseline(),
                      AvailabilityParamsFor(cfg_), Probe(&tracer_)};
    ctl_ = SchemeRegistry::Create(scheme_, ctx);
    ASSERT_NE(ctl_, nullptr);
    if (cfg_.layout == LayoutKind::kDeclustered) {
      // 5 disks always admit a non-degenerate width; the declustered run
      // must not silently fall back.
      ASSERT_STREQ(ctl_->layout().LayoutName(), "declustered");
    }
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), 5);
  }

  // Writes one aligned block and quiesces (deferred redundancy settles via
  // the idle machinery); returns the driver-assigned tag.
  uint64_t WriteBlock(int64_t offset) {
    driver_->Submit(offset, kBlock, true);
    sim_.RunToEnd();
    return driver_->Accepted();
  }

  // Checks the stored content of the aligned block at `offset` against what
  // client write `tag` deposited, sector by sector.
  void ExpectBlock(int64_t offset, uint64_t tag) {
    const ArrayLayout& lay = ctl_->layout();
    const int64_t block_index = offset / lay.stripe_unit();
    const int64_t stripe = block_index / lay.data_blocks_per_stripe();
    const int32_t j =
        static_cast<int32_t>(block_index % lay.data_blocks_per_stripe());
    ASSERT_EQ(lay.LogicalOffsetOf(stripe, j), offset);
    const ContentModel* cm = ctl_->content();
    ASSERT_NE(cm, nullptr);
    const int64_t first = offset / cfg_.disk_spec.sector_bytes;
    for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
      EXPECT_EQ(cm->GetData(stripe, j, s), ContentModel::MixTag(tag, first + s))
          << GetParam() << ": sector " << s << " of block at " << offset;
    }
  }

  // Events on the named track with the given phase (and name, if non-empty).
  int64_t CountEvents(const std::string& track, char phase,
                      const std::string& name = "") const {
    int64_t n = 0;
    for (const TraceEvent& ev : tracer_.events()) {
      if (tracer_.tracks()[static_cast<size_t>(ev.track)] == track &&
          ev.phase == phase && (name.empty() || ev.name == name)) {
        ++n;
      }
    }
    return n;
  }

  std::string scheme_;  // Registry name, layout suffix stripped.
  ArrayConfig cfg_;
  Simulator sim_;
  Tracer tracer_;
  std::unique_ptr<ArrayScheme> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_P(SchemeFailureTest, FailDegradedRepairReconstructRoundTrip) {
  Build();

  // Phase 1: seed content across several stripes, fully quiesced.
  std::vector<std::pair<int64_t, uint64_t>> blocks;
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t offset = i * 4 * kBlock;
    blocks.emplace_back(offset, WriteBlock(offset));
  }
  // Plus stripe 0's second data block, so the seeded writes reach every
  // disk on every scheme (the blocks above all sit in mirror column 0).
  blocks.emplace_back(kBlock, WriteBlock(kBlock));

  // Phase 2: a data disk of stripe 0 dies. Exactly one concurrent failure.
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  EXPECT_TRUE(ctl_->FailDisk(victim));
  EXPECT_FALSE(ctl_->FailDisk((victim + 1) % cfg_.num_disks));
  EXPECT_EQ(ctl_->State().failed_disk, victim);

  // Degraded reads of everything seeded complete (dead-disk blocks are
  // served from the surviving redundancy).
  const uint64_t completed_before = driver_->Completed();
  for (const auto& [offset, tag] : blocks) {
    driver_->Submit(offset, kBlock, false);
  }
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), completed_before + blocks.size());

  // Degraded writes land new content, including onto the dead disk's block.
  blocks[0].second = WriteBlock(blocks[0].first);
  blocks[1].second = WriteBlock(blocks[1].first);

  // Phase 3: replacement + reconstruction sweep, no concurrent traffic.
  EXPECT_TRUE(ctl_->ReplaceDisk(victim));
  bool done = false;
  EXPECT_TRUE(ctl_->StartReconstruction([&done] { done = true; }));
  sim_.RunToEnd();
  ASSERT_TRUE(done);

  const SchemeState st = ctl_->State();
  EXPECT_EQ(st.failed_disk, -1);
  EXPECT_EQ(st.recovering_disk, -1);
  EXPECT_FALSE(st.reconstruction_active);
  // Everything was redundant at the failure (phase 1 quiesced), so the
  // round trip is loss-free on every scheme.
  EXPECT_EQ(st.loss_events, 0u);
  EXPECT_EQ(st.bytes_lost, 0);
  EXPECT_GT(ctl_->Stats().stripes_rebuilt, 0u);

  // The sweep restored exactly the stripes that place a unit on the victim.
  const ArrayLayout& lay = ctl_->layout();
  uint64_t on_victim = 0;
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    on_victim += lay.StripeUsesDisk(s, victim) ? 1 : 0;
  }
  EXPECT_EQ(ctl_->Stats().stripes_reconstructed, on_victim);

  // Every scheme traces: service spans on each disk's track, and the fail
  // and replace instants on the controller track.
  for (int32_t d = 0; d < cfg_.num_disks; ++d) {
    EXPECT_GT(CountEvents("disk" + std::to_string(d), 'X'), 0) << "disk" << d;
  }
  const std::string disk_name = "disk" + std::to_string(victim);
  EXPECT_EQ(CountEvents("controller", 'i', "fail " + disk_name), 1);
  EXPECT_EQ(CountEvents("controller", 'i', "replace " + disk_name), 1);

  // Every seeded block reads back exactly as written.
  for (const auto& [offset, tag] : blocks) {
    ExpectBlock(offset, tag);
  }

  // The rebuilt redundancy itself is coherent again.
  const ContentModel* cm = ctl_->content();
  for (int64_t stripe : cm->TouchedStripes()) {
    if (scheme_ == "mirror") {
      // Parity slot j holds the twin copy of data block j.
      for (int32_t j = 0; j < ctl_->layout().data_blocks_per_stripe(); ++j) {
        for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
          EXPECT_EQ(cm->GetParity(stripe, s, j), cm->GetData(stripe, j, s))
              << "stripe " << stripe;
        }
      }
    } else {
      EXPECT_TRUE(cm->StripeConsistent(stripe)) << "stripe " << stripe;
    }
  }
}

TEST_P(SchemeFailureTest, MistimedManagementOpsAreRefusedWithoutStateChange) {
  Build();
  EXPECT_FALSE(ctl_->ReplaceDisk(0));                 // Nothing failed.
  EXPECT_FALSE(ctl_->StartReconstruction([] {}));     // Nothing recovering.
  EXPECT_FALSE(ctl_->FailDisk(-1));
  EXPECT_FALSE(ctl_->FailDisk(cfg_.num_disks));
  EXPECT_EQ(ctl_->State().failed_disk, -1);

  EXPECT_TRUE(ctl_->FailDisk(0));
  EXPECT_FALSE(ctl_->FailDisk(1));   // One failure at a time.
  // A parity scrub over a dead or not yet reconstructed disk cannot restore
  // redundancy, so it must not claim to.
  EXPECT_FALSE(ctl_->StartFullScrub([] {}));
  EXPECT_FALSE(ctl_->ReplaceDisk(1));  // Wrong disk.
  EXPECT_TRUE(ctl_->ReplaceDisk(0));
  EXPECT_FALSE(ctl_->StartFullScrub([] {}));
  EXPECT_EQ(ctl_->State().recovering_disk, 0);
  bool done = false;
  EXPECT_TRUE(ctl_->StartReconstruction([&done] { done = true; }));
  EXPECT_FALSE(ctl_->StartReconstruction([] {}));  // Already sweeping.
  sim_.RunToEnd();
  EXPECT_TRUE(done);
  EXPECT_EQ(ctl_->State().failed_disk, -1);
  EXPECT_EQ(ctl_->State().recovering_disk, -1);
}

// A client write whose data disk dies while the write, or its pre-read, is
// on that disk: the failed op fails the stripe group, which reruns through
// the scheme's degraded path. Once the disk is replaced and swept, the block
// reads back as written and no loss is recorded.
TEST_P(SchemeFailureTest, WriteWhoseDiskDiesMidWriteSurvives) {
  for (uint64_t nth = 1; nth <= 2; ++nth) {
    SCOPED_TRACE("the disk dies during the write's op " + std::to_string(nth) + " on it");
    Rig rig(GetParam());
    ASSERT_NE(rig.ctl, nullptr);
    Simulator& sim = rig.sim;
    ArrayScheme& ctl = *rig.ctl;
    const ArrayLayout& lay = ctl.layout();
    ASSERT_EQ(lay.LogicalOffsetOf(0, 0), 0);
    // Seed the first stripes, each write quiesced.
    for (int64_t i = 0; i < 4; ++i) {
      rig.driver->Submit(i * kBlock, kBlock, true);
      sim.RunToEnd();
    }
    const int32_t victim = lay.DataDisk(0, 0);
    const DiskModel& disk = ctl.disk(victim);
    const uint64_t ops_before = disk.OpsCompleted();
    rig.driver->Submit(0, kBlock, true);
    const uint64_t tag = rig.driver->Accepted();
    while (!rig.driver->Drained() &&
           (disk.Idle() || disk.OpsCompleted() < ops_before + nth - 1)) {
      ASSERT_TRUE(sim.Step());
    }
    if (rig.driver->Drained()) {
      EXPECT_GT(nth, 1u) << "the write issued no op on its data disk";
      continue;  // The write has no second op on the disk.
    }
    ASSERT_TRUE(ctl.FailDisk(victim));
    sim.RunToEnd();
    ASSERT_TRUE(rig.driver->Drained());
    ASSERT_TRUE(ctl.ReplaceDisk(victim));
    bool done = false;
    ASSERT_TRUE(ctl.StartReconstruction([&done] { done = true; }));
    sim.RunToEnd();
    ASSERT_TRUE(done);

    EXPECT_EQ(ctl.State().loss_events, 0u);
    const ContentModel* cm = ctl.content();
    ASSERT_NE(cm, nullptr);
    for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
      EXPECT_EQ(cm->GetData(0, 0, s), ContentModel::MixTag(tag, s)) << "sector " << s;
    }
  }
}

// Two degraded writes to one stripe before the sweep: the first to the
// failed disk's block, the second to another block. The second write's
// redundancy must cover the first write's data, so the sweep restores it.
TEST_P(SchemeFailureTest, SecondDegradedWriteKeepsTheDeadBlocksWrite) {
  Rig rig(GetParam());
  ASSERT_NE(rig.ctl, nullptr);
  Simulator& sim = rig.sim;
  ArrayScheme& ctl = *rig.ctl;
  const ArrayLayout& lay = ctl.layout();
  const int32_t n = lay.data_blocks_per_stripe();
  ASSERT_GE(n, 2);
  ASSERT_EQ(lay.LogicalOffsetOf(0, 0), 0);
  for (int32_t j = 0; j < n; ++j) {
    rig.driver->Submit(lay.LogicalOffsetOf(0, j), kBlock, true);
    sim.RunToEnd();
  }
  const int32_t victim = lay.DataDisk(0, 0);
  ASSERT_TRUE(ctl.FailDisk(victim));
  rig.driver->Submit(lay.LogicalOffsetOf(0, 0), kBlock, true);
  sim.RunToEnd();
  const uint64_t dead_tag = rig.driver->Accepted();
  rig.driver->Submit(lay.LogicalOffsetOf(0, 1), kBlock, true);
  sim.RunToEnd();
  const uint64_t live_tag = rig.driver->Accepted();
  ASSERT_TRUE(ctl.ReplaceDisk(victim));
  bool done = false;
  ASSERT_TRUE(ctl.StartReconstruction([&done] { done = true; }));
  sim.RunToEnd();
  ASSERT_TRUE(done);

  EXPECT_EQ(ctl.State().loss_events, 0u);
  const ContentModel* cm = ctl.content();
  ASSERT_NE(cm, nullptr);
  const int64_t live_first = lay.LogicalOffsetOf(0, 1) / rig.cfg.disk_spec.sector_bytes;
  for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
    EXPECT_EQ(cm->GetData(0, 0, s), ContentModel::MixTag(dead_tag, s)) << "sector " << s;
    EXPECT_EQ(cm->GetData(0, 1, s), ContentModel::MixTag(live_tag, live_first + s))
        << "sector " << s;
  }
}

// What a fail/replace/sweep leaves behind, for comparing two runs of it.
struct SweepOutcome {
  SimTime recovered_at = -1;
  uint64_t sweep_events = 0;  // Simulator events from the replace to recovery.
  uint64_t stripes_reconstructed = 0;
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
  std::vector<uint64_t> disk_ops;
  std::vector<double> disk_stats;  // Utilization and service-time moments.
  std::vector<uint64_t> content;
  std::vector<std::pair<uint64_t, double>> client_ms;  // By completion.
  std::vector<SimTime> step_ends;  // When each step's last write ended.
  std::string trace;
};

// A client request that arrives during the sweep.
struct Arrival {
  SimTime at = 0;
  int64_t offset = 0;
  bool is_write = false;
};

// Seeds content, leaves the last writes' redundancy stale where the scheme
// defers it, then fails, replaces and sweeps a data disk of stripe 0 while
// the one-block `traffic` arrives. With `force_events` a no-op timer,
// re-armed every 50 us until the sweep is done, leaves no step room to run
// in place before the next event, so every step takes the event path.
SweepOutcome FailAndSweep(const std::string& param, bool force_events,
                          const std::vector<Arrival>& traffic = {}) {
  Rig rig(param);
  SweepOutcome out;
  if (rig.ctl == nullptr) {
    ADD_FAILURE() << "unknown scheme " << param;
    return out;
  }
  Simulator& sim = rig.sim;
  ArrayScheme& ctl = *rig.ctl;
  for (int64_t i = 0; i < 8; ++i) {
    rig.driver->Submit(i * 4 * kBlock, kBlock, true);
    sim.RunToEnd();
  }
  for (int64_t i = 0; i < 3; ++i) {
    rig.driver->Submit(i * 4 * kBlock + kBlock, kBlock, true);
  }
  while (!rig.driver->Drained()) {
    sim.Step();
  }
  const int32_t victim = ctl.layout().DataDisk(0, 0);
  EXPECT_TRUE(ctl.FailDisk(victim));
  EXPECT_TRUE(ctl.ReplaceDisk(victim));
  rig.driver->SetCompletionListener([&out](uint64_t id, double ms, bool) {
    out.client_ms.emplace_back(id, ms);
  });
  for (const Arrival& a : traffic) {
    sim.At(a.at, [&rig, a] { rig.driver->Submit(a.offset, kBlock, a.is_write); });
  }
  const uint64_t events_before = sim.EventsProcessed();
  bool done = false;
  EXPECT_TRUE(ctl.StartReconstruction([&] {
    done = true;
    out.recovered_at = sim.Now();
    out.sweep_events = sim.EventsProcessed() - events_before;
  }));
  std::function<void()> tick = [&] {
    if (!done) {
      sim.After(Microseconds(50), tick);
    }
  };
  if (force_events) {
    tick();
  }
  sim.RunToEnd();
  EXPECT_TRUE(done);

  const SchemeStats stats = ctl.Stats();
  out.stripes_reconstructed = stats.stripes_reconstructed;
  out.loss_events = stats.loss_events;
  out.bytes_lost = stats.bytes_lost;
  for (int32_t d = 0; d < ctl.num_disks(); ++d) {
    const DiskModel& disk = ctl.disk(d);
    out.disk_ops.push_back(disk.OpsCompleted());
    out.disk_ops.push_back(static_cast<uint64_t>(disk.SectorsTransferred()));
    const StreamingStats& st = disk.ServiceTimes();
    out.disk_stats.insert(out.disk_stats.end(),
                          {disk.UtilizationTo(out.recovered_at), static_cast<double>(st.Count()),
                           st.Mean(), st.Variance(), st.Min(), st.Max()});
  }
  const ContentModel* cm = ctl.content();
  const ArrayLayout& lay = ctl.layout();
  const int32_t n = lay.data_blocks_per_stripe();
  const int32_t slots = rig.scheme == "mirror" ? n : lay.parity_blocks();
  for (int64_t stripe : cm->TouchedStripes()) {
    for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
      for (int32_t j = 0; j < n; ++j) {
        out.content.push_back(cm->GetData(stripe, j, s));
      }
      for (int32_t w = 0; w < slots; ++w) {
        out.content.push_back(cm->GetParity(stripe, s, w));
      }
    }
  }
  // A step's writes all start when its last read is in.
  SimTime writes_start = -1;
  for (const TraceEvent& ev : rig.tracer.events()) {
    if (ev.phase == 'X' && ev.name == "recovery write") {
      if (ev.ts != writes_start) {
        writes_start = ev.ts;
        out.step_ends.push_back(ev.ts + ev.dur);
      }
      out.step_ends.back() = std::max(out.step_ends.back(), ev.ts + ev.dur);
    }
  }
  out.trace = rig.tracer.ToJson();
  return out;
}

void ExpectSameOutcome(const SweepOutcome& in_place, const SweepOutcome& events) {
  EXPECT_EQ(in_place.recovered_at, events.recovered_at);
  EXPECT_EQ(in_place.stripes_reconstructed, events.stripes_reconstructed);
  EXPECT_EQ(in_place.loss_events, events.loss_events);
  EXPECT_EQ(in_place.bytes_lost, events.bytes_lost);
  EXPECT_EQ(in_place.disk_ops, events.disk_ops);
  EXPECT_EQ(in_place.disk_stats, events.disk_stats);
  EXPECT_EQ(in_place.content, events.content);
  EXPECT_EQ(in_place.client_ms, events.client_ms);
  EXPECT_EQ(in_place.step_ends, events.step_ends);
  EXPECT_TRUE(in_place.trace == events.trace) << "trace events differ";
}

// Sweep steps on a quiescent array run in place, without events; the
// result must be exactly what the event path produces, down to every trace
// event, disk statistic and content sector.
TEST_P(SchemeFailureTest, InPlaceSweepMatchesEventPath) {
  const SweepOutcome in_place = FailAndSweep(GetParam(), false);
  const SweepOutcome events = FailAndSweep(GetParam(), true);
  ASSERT_GT(in_place.stripes_reconstructed, 0u);
  // Each event-path step takes at least a read and a write completion.
  EXPECT_GE(events.sweep_events, 2 * events.stripes_reconstructed);
  EXPECT_LT(in_place.sweep_events, in_place.stripes_reconstructed);

  ExpectSameOutcome(in_place, events);
}

// Client reads and writes that arrive during the sweep interleave with
// in-place steps: arrivals one tick after an in-place step ends, a write to
// the stripe then being swept, reads of stripes not yet swept, and later
// arrivals wherever the delayed sweep has got to. Steps run through events
// while clients are in flight and in place again once the array is quiet;
// the result must be exactly the all-events run's, client latencies
// included.
TEST_P(SchemeFailureTest, InPlaceSweepUnderClientTraffic) {
  const SweepOutcome quiet = FailAndSweep(GetParam(), false);
  const size_t steps = quiet.step_ends.size();
  ASSERT_GE(steps, 40u);
  ASSERT_TRUE(std::is_sorted(quiet.step_ends.begin(), quiet.step_ends.end()));

  // The stripes the sweep visits, in step order.
  Rig rig(GetParam());
  ASSERT_NE(rig.ctl, nullptr);
  const ArrayLayout& lay = rig.ctl->layout();
  const int32_t victim = lay.DataDisk(0, 0);
  std::vector<int64_t> swept;
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    if (lay.StripeUsesDisk(s, victim)) {
      swept.push_back(s);
    }
  }
  ASSERT_EQ(swept.size(), steps);
  const auto block = [&](size_t step, int32_t j) {
    return lay.LogicalOffsetOf(swept[step], j);
  };
  // Until the first arrival the run is the quiet one: in-place step 3 ends
  // at end[3], one tick before the first two arrivals, and step 4 -- which
  // no longer fits before them, so it takes events -- is being swept when
  // they come. The later times are taken from the quiet run and fall
  // between and within steps of the delayed sweep.
  const std::vector<SimTime>& end = quiet.step_ends;
  const std::vector<Arrival> traffic = {
      {end[3] + 1, block(4, 0), true},
      {end[3] + 1, block(30, 1), false},
      {(end[10] + end[11]) / 2, block(steps - 1, 0), false},
      {end[20] + 1, block(21, 1), true},
      {end[20] + 1, block(21, 0), false},
      {end[steps - 5] + 1, block(2, 0), false},
  };
  const SweepOutcome in_place = FailAndSweep(GetParam(), false, traffic);
  const SweepOutcome events = FailAndSweep(GetParam(), true, traffic);
  ASSERT_EQ(in_place.client_ms.size(), traffic.size());
  // The write to the stripe being swept (the first arrival, so the lowest
  // request id) waited for that step to end.
  const auto first = std::min_element(in_place.client_ms.begin(), in_place.client_ms.end());
  EXPECT_GE(first->second, ToMilliseconds(end[4] - end[3] - 1));
  EXPECT_EQ(in_place.stripes_reconstructed, steps);
  // Most steps still ran in place.
  EXPECT_LT(in_place.sweep_events, events.sweep_events / 4);
  ExpectSameOutcome(in_place, events);
}

// What refresh passes (and for AFRAID an NVRAM-loss scrub) leave behind,
// for comparing two runs of them.
struct RefreshOutcome {
  uint64_t drain_events = 0;  // Simulator events while the first passes drained.
  uint64_t drain_steps = 0;   // Refresh steps they ran.
  uint64_t scrub_events = 0;
  uint64_t scrub_steps = 0;
  int64_t passes = 0;
  int64_t steps = 0;
  int64_t dirty_marks = 0;
  uint64_t stripes_rebuilt = 0;
  std::vector<double> stats;  // Exposure, counters and op totals.
  std::vector<uint64_t> disk_ops;
  std::vector<double> disk_stats;
  std::vector<uint64_t> content;
  std::vector<std::pair<uint64_t, double>> client_ms;
  std::string trace;
};

// Dirties stripes (AFRAID: single bands of four per stripe), lets the idle
// refresh passes drain them, dirties more while client reads and writes
// arrive during the next pass, and for AFRAID then loses the NVRAM and
// scrubs the whole array. Each phase runs to a fixed deadline. With
// `force_events` a no-op timer, re-armed every 50 us, leaves no step room to
// run in place before the next event.
RefreshOutcome RefreshAndScrub(const std::string& param, bool force_events) {
  Rig rig(param, param.rfind("afraid", 0) == 0 ? 4 : 1);
  RefreshOutcome out;
  if (rig.ctl == nullptr) {
    ADD_FAILURE() << "unknown scheme " << param;
    return out;
  }
  Simulator& sim = rig.sim;
  ArrayScheme& ctl = *rig.ctl;
  const ArrayLayout& lay = ctl.layout();
  const int64_t stripe_bytes = lay.data_blocks_per_stripe() * lay.stripe_unit();
  const int32_t quarter = static_cast<int32_t>(kBlock / 4);
  rig.driver->SetCompletionListener([&out](uint64_t id, double ms, bool) {
    out.client_ms.emplace_back(id, ms);
  });
  std::function<void()> tick = [&] { sim.After(Microseconds(50), tick); };
  if (force_events) {
    tick();
  }
  const auto count_steps = [&] {
    int64_t n = 0;
    for (const TraceEvent& ev : rig.tracer.events()) {
      n += ev.phase == 'X' && (ev.name == "band" || ev.name == "stripe");
    }
    return n;
  };
  // Phase 1: 40 dirty stripes, drained by idle passes.
  for (int64_t i = 0; i < 40; ++i) {
    rig.driver->Submit(i * 3 * stripe_bytes + (i % 4) * quarter, quarter, true);
  }
  while (!rig.driver->Drained()) {
    EXPECT_TRUE(sim.Step());
  }
  const uint64_t events_before = sim.EventsProcessed();
  sim.RunUntil(Seconds(3));
  out.drain_events = sim.EventsProcessed() - events_before;
  out.drain_steps = static_cast<uint64_t>(count_steps());
  EXPECT_EQ(ctl.State().dirty_marks, 0);
  // Phase 2: more dirty stripes, then reads and writes during the pass.
  for (int64_t i = 0; i < 30; ++i) {
    sim.At(Seconds(3), [&rig, i, stripe_bytes, quarter] {
      rig.driver->Submit(i * 5 * stripe_bytes + quarter, 2 * quarter, true);
    });
  }
  for (int64_t k = 0; k < 12; ++k) {
    sim.At(Seconds(3) + Milliseconds(400 + 37 * k), [&rig, k, stripe_bytes] {
      rig.driver->Submit((k * 11 + 1) * stripe_bytes, kBlock, k % 3 == 0);
    });
  }
  sim.RunUntil(Seconds(6));
  // Phase 3, AFRAID only: NVRAM loss and the whole-array scrub.
  if (rig.scheme == "afraid") {
    EXPECT_TRUE(ctl.FailNvram());
    bool scrubbed = false;
    const uint64_t scrub_before = sim.EventsProcessed();
    EXPECT_TRUE(ctl.StartFullScrub([&] {
      scrubbed = true;
      out.scrub_events = sim.EventsProcessed() - scrub_before;
      out.scrub_steps = static_cast<uint64_t>(lay.num_stripes());
    }));
    sim.RunUntil(Seconds(30));
    EXPECT_TRUE(scrubbed);
  }
  EXPECT_TRUE(rig.driver->Drained());

  const SimTime end = sim.Now();
  for (const TraceEvent& ev : rig.tracer.events()) {
    out.passes += ev.phase == 'b' && ev.name == "rebuild pass";
  }
  out.steps = count_steps();
  out.dirty_marks = ctl.State().dirty_marks;
  const SchemeStats stats = ctl.Stats();
  out.stripes_rebuilt = stats.stripes_rebuilt;
  out.stats = {stats.mean_parity_lag_bytes,
               stats.t_unprot_fraction,
               static_cast<double>(stats.max_dirty_stripes),
               static_cast<double>(stats.loss_events),
               static_cast<double>(stats.disk_ops_total),
               ctl.State().parity_lag_bytes};
  if (const auto* raid6 = dynamic_cast<const Raid6Controller*>(&ctl)) {
    out.stats.push_back(raid6->MeanSingleExposedBytes());  // Only Q stale.
  }
  for (int32_t d = 0; d < ctl.num_disks(); ++d) {
    const DiskModel& disk = ctl.disk(d);
    out.disk_ops.push_back(disk.OpsCompleted());
    out.disk_ops.push_back(static_cast<uint64_t>(disk.SectorsTransferred()));
    const StreamingStats& st = disk.ServiceTimes();
    out.disk_stats.insert(out.disk_stats.end(),
                          {disk.UtilizationTo(end), static_cast<double>(st.Count()), st.Mean(),
                           st.Variance(), st.Min(), st.Max()});
  }
  const ContentModel* cm = ctl.content();
  for (int64_t stripe : cm->TouchedStripes()) {
    for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
      for (int32_t j = 0; j < lay.data_blocks_per_stripe(); ++j) {
        out.content.push_back(cm->GetData(stripe, j, s));
      }
      for (int32_t w = 0; w < lay.parity_blocks(); ++w) {
        out.content.push_back(cm->GetParity(stripe, s, w));
      }
    }
  }
  out.trace = rig.tracer.ToJson();
  return out;
}

class RefreshInPlaceTest : public ::testing::TestWithParam<std::string> {};

// Refresh and scrub steps on a quiescent array run in place, as sweep steps
// do; the result must be exactly what the event path produces, down to
// every trace event, disk statistic, content sector and stale mark.
TEST_P(RefreshInPlaceTest, InPlaceRefreshMatchesEventPath) {
  const RefreshOutcome in_place = RefreshAndScrub(GetParam(), false);
  const RefreshOutcome events = RefreshAndScrub(GetParam(), true);
  ASSERT_GE(in_place.drain_steps, 40u);
  EXPECT_GT(in_place.passes, 1);
  EXPECT_LT(in_place.drain_events, in_place.drain_steps);
  // Each event-path step takes at least a read and a write completion.
  EXPECT_GE(events.drain_events, 2 * events.drain_steps);
  EXPECT_LE(in_place.scrub_events, in_place.scrub_steps / 4);

  EXPECT_EQ(in_place.passes, events.passes);
  EXPECT_EQ(in_place.steps, events.steps);
  EXPECT_EQ(in_place.dirty_marks, events.dirty_marks);
  EXPECT_EQ(in_place.stripes_rebuilt, events.stripes_rebuilt);
  EXPECT_EQ(in_place.stats, events.stats);
  EXPECT_EQ(in_place.disk_ops, events.disk_ops);
  EXPECT_EQ(in_place.disk_stats, events.disk_stats);
  EXPECT_EQ(in_place.content, events.content);
  EXPECT_EQ(in_place.client_ms, events.client_ms);
  EXPECT_TRUE(in_place.trace == events.trace) << "trace events differ";
}

// What an AFRAID sweep without content tracking leaves behind, for
// comparing two runs of it.
struct QuiescedSweepOutcome {
  SimTime recovered_at = -1;
  uint64_t sweep_events = 0;
  std::vector<SimTime> step_ends;
  std::vector<SimTime> quiesced_at;  // -1: never ended.
  int64_t dirty_marks = 0;
  uint64_t stripes_reconstructed = 0;
  uint64_t loss_events = 0;
  std::vector<double> stats;  // Exposure, loss and op counters.
  std::vector<uint64_t> disk_ops;
  std::vector<double> disk_stats;
  std::string trace;
};

// Without content tracking, an AFRAID sweep step's finish hook does only
// stale-mark work. Leaves one band stale on each `dirty` stripe, then fails,
// replaces and sweeps a data disk of stripe 0. If `at` is given, it asks at
// those times for a paritypoint over the first dirty stripe, for a quiesce
// of the whole array, and for an NVRAM loss while that quiesce waits. The
// loss forgets the bands the quiesce waits for, and only the sweep's step on
// their stripe ends it. With `force_events` every step takes the event path.
QuiescedSweepOutcome QuiescedSweep(const std::string& param, bool force_events,
                                   const std::vector<int64_t>& dirty,
                                   const std::vector<SimTime>& at) {
  Rig rig(param, /*marks_per_stripe=*/4, /*track_content=*/false);
  QuiescedSweepOutcome out;
  auto* ctl = dynamic_cast<AfraidController*>(rig.ctl.get());
  if (ctl == nullptr) {
    ADD_FAILURE() << "not an AFRAID scheme: " << param;
    return out;
  }
  EXPECT_EQ(ctl->content(), nullptr);
  Simulator& sim = rig.sim;
  const ArrayLayout& lay = ctl->layout();
  const int64_t quarter = kBlock / 4;
  for (size_t i = 0; i < dirty.size(); ++i) {
    rig.driver->Submit(lay.LogicalOffsetOf(dirty[i], 1) + static_cast<int64_t>(i % 4) * quarter,
                       quarter, true);
  }
  while (!rig.driver->Drained()) {
    sim.Step();
  }
  EXPECT_EQ(ctl->State().dirty_marks, static_cast<int64_t>(dirty.size()));
  const int32_t victim = lay.DataDisk(0, 0);
  EXPECT_TRUE(ctl->FailDisk(victim));
  EXPECT_TRUE(ctl->ReplaceDisk(victim));
  out.quiesced_at.assign(2, -1);
  if (!at.empty()) {
    sim.At(at[0], [&] {
      ctl->ParityPoint(lay.LogicalOffsetOf(dirty[0], 1), kBlock,
                       [&] { out.quiesced_at[0] = sim.Now(); });
    });
    sim.At(at[1], [&] { ctl->RebuildAll([&] { out.quiesced_at[1] = sim.Now(); }); });
    sim.At(at[2], [&] { EXPECT_TRUE(ctl->FailNvram()); });
  }
  const uint64_t events_before = sim.EventsProcessed();
  bool done = false;
  EXPECT_TRUE(ctl->StartReconstruction([&] {
    done = true;
    out.recovered_at = sim.Now();
    out.sweep_events = sim.EventsProcessed() - events_before;
  }));
  std::function<void()> tick = [&] {
    if (!done) {
      sim.After(Microseconds(50), tick);
    }
  };
  if (force_events) {
    tick();
  }
  // A fixed end: the time averages run to it.
  sim.RunUntil(Seconds(30));
  EXPECT_TRUE(done);

  const SchemeState state = ctl->State();
  const SchemeStats stats = ctl->Stats();
  out.dirty_marks = state.dirty_marks;
  out.stripes_reconstructed = stats.stripes_reconstructed;
  out.loss_events = stats.loss_events;
  out.stats = {state.parity_lag_bytes,
               stats.mean_parity_lag_bytes,
               stats.t_unprot_fraction,
               static_cast<double>(stats.max_dirty_stripes),
               static_cast<double>(stats.stripes_rebuilt),
               static_cast<double>(stats.bytes_lost),
               static_cast<double>(stats.disk_ops_total),
               static_cast<double>(stats.disk_ops_rebuild)};
  for (int32_t d = 0; d < ctl->num_disks(); ++d) {
    const DiskModel& disk = ctl->disk(d);
    out.disk_ops.push_back(disk.OpsCompleted());
    out.disk_ops.push_back(static_cast<uint64_t>(disk.SectorsTransferred()));
    const StreamingStats& st = disk.ServiceTimes();
    out.disk_stats.insert(out.disk_stats.end(),
                          {disk.UtilizationTo(out.recovered_at), static_cast<double>(st.Count()),
                           st.Mean(), st.Variance(), st.Min(), st.Max()});
  }
  // A step's writes all start when its last read is in.
  SimTime writes_start = -1;
  for (const TraceEvent& ev : rig.tracer.events()) {
    if (ev.phase == 'X' && ev.name == "recovery write") {
      if (ev.ts != writes_start) {
        writes_start = ev.ts;
        out.step_ends.push_back(ev.ts + ev.dur);
      }
      out.step_ends.back() = std::max(out.step_ends.back(), ev.ts + ev.dur);
    }
  }
  out.trace = rig.tracer.ToJson();
  return out;
}

// An AFRAID sweep without content tracking, across stale bands, a
// paritypoint that starts during a step and an NVRAM loss while a quiesce
// waits: the in-place run must be exactly the all-events run, down to
// when each quiesce ends, the stale marks, exposure, losses and the trace.
TEST(AfraidSweepWithoutContent, InPlaceMatchesEventPathAcrossQuiesces) {
  for (const std::string param : {"afraid", "afraid+declustered"}) {
    SCOPED_TRACE(param);
    // The stripes the sweep visits, in step order.
    Rig rig(param);
    ASSERT_NE(rig.ctl, nullptr);
    const ArrayLayout& lay = rig.ctl->layout();
    const int32_t victim = lay.DataDisk(0, 0);
    std::vector<int64_t> swept;
    for (int64_t s = 0; s < lay.num_stripes(); ++s) {
      if (lay.StripeUsesDisk(s, victim)) {
        swept.push_back(s);
      }
    }
    const size_t n = swept.size();
    ASSERT_GE(n, 40u);
    // Stale bands a quarter, half and three quarters through the sweep.
    const std::vector<int64_t> dirty = {swept[n / 4], swept[n / 2], swept[3 * n / 4]};
    const QuiescedSweepOutcome quiet = QuiescedSweep(param, false, dirty, {});
    ASSERT_EQ(quiet.step_ends.size(), n);
    EXPECT_EQ(quiet.dirty_marks, 0);
    // The paritypoint starts an eighth through the sweep, the quiesce three
    // eighths through, the NVRAM loss five eighths through (after the
    // second dirty stripe's step, before the third's), each within a step.
    const auto within_step = [&](size_t k) {
      return (quiet.step_ends[k - 1] + quiet.step_ends[k]) / 2;
    };
    const std::vector<SimTime> at = {within_step(n / 8), within_step(3 * n / 8),
                                     within_step(5 * n / 8)};
    const QuiescedSweepOutcome in_place = QuiescedSweep(param, false, dirty, at);
    const QuiescedSweepOutcome events = QuiescedSweep(param, true, dirty, at);
    // Each quiesce ends with the step on the last stripe it waits for.
    EXPECT_EQ(in_place.quiesced_at[0], quiet.step_ends[n / 4]);
    EXPECT_EQ(in_place.quiesced_at[1], quiet.step_ends[3 * n / 4]);
    // The first two dirty stripes lose their stale band where the victim
    // held data; the NVRAM loss forgot the third's.
    uint64_t losses = 0;
    for (size_t i : {0, 1}) {
      losses += lay.ParityDisk(dirty[i]) != victim;
    }
    EXPECT_GT(losses, 0u);
    EXPECT_EQ(in_place.loss_events, losses);
    EXPECT_EQ(in_place.dirty_marks, 0);
    EXPECT_EQ(in_place.stripes_reconstructed, n);
    EXPECT_LT(in_place.sweep_events, events.sweep_events);

    EXPECT_EQ(in_place.recovered_at, events.recovered_at);
    EXPECT_EQ(in_place.recovered_at, quiet.recovered_at);
    EXPECT_EQ(in_place.step_ends, events.step_ends);
    EXPECT_EQ(in_place.quiesced_at, events.quiesced_at);
    EXPECT_EQ(in_place.dirty_marks, events.dirty_marks);
    EXPECT_EQ(in_place.stripes_reconstructed, events.stripes_reconstructed);
    EXPECT_EQ(in_place.loss_events, events.loss_events);
    EXPECT_EQ(in_place.stats, events.stats);
    EXPECT_EQ(in_place.disk_ops, events.disk_ops);
    EXPECT_EQ(in_place.disk_stats, events.disk_stats);
    EXPECT_TRUE(in_place.trace == events.trace) << "trace events differ";
  }
}

std::string SchemeTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-' || c == '+') {
      c = '_';
    }
  }
  return name;
}

std::vector<std::string> SchemeLayoutGrid() {
  std::vector<std::string> params = SchemeRegistry::List();
  for (const std::string& name : SchemeRegistry::List()) {
    if (name != "mirror") {  // Mirroring has no parity to decluster.
      params.push_back(name + "+declustered");
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, SchemeFailureTest,
                         ::testing::ValuesIn(SchemeLayoutGrid()),
                         SchemeTestName);

INSTANTIATE_TEST_SUITE_P(DeferredSchemes, RefreshInPlaceTest,
                         ::testing::Values("afraid", "afraid+declustered", "raid6-deferQ",
                                           "raid6-deferQ+declustered", "raid6-deferPQ",
                                           "raid6-deferPQ+declustered"),
                         SchemeTestName);

}  // namespace
}  // namespace afraid
