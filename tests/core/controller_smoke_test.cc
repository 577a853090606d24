// End-to-end smoke tests: the whole stack (simulator, disks, layout, locks,
// NVRAM, caches, controller, host driver) on a tiny array with content
// tracking. These run first historically; the deeper behaviour is covered by
// the dedicated suites.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "array/host_driver.h"
#include "core/afraid_controller.h"
#include "core/array_config.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/scheme_registry.h"
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

class Rig {
 public:
  explicit Rig(const ArrayConfig& cfg, PolicySpec spec = PolicySpec::AfraidBaseline())
      : cfg_(cfg),
        controller_(&sim_, cfg, MakePolicy(spec), AvailabilityParamsFor(cfg)),
        driver_(&sim_, &controller_, cfg.MaxActive()) {}

  Simulator& sim() { return sim_; }
  AfraidController& ctl() { return controller_; }
  HostDriver& driver() { return driver_; }

  // Issues a request now and runs the simulation until everything drains.
  void RunOp(int64_t offset, int32_t size, bool is_write) {
    driver_.Submit(offset, size, is_write);
    sim_.RunToEnd();
  }

 private:
  ArrayConfig cfg_;
  Simulator sim_;
  AfraidController controller_;
  HostDriver driver_;
};

TEST(ControllerSmoke, SingleAfraidWriteCompletesAndMarksStripe) {
  Rig rig(TinyConfig());
  rig.driver().Submit(0, 8192, /*is_write=*/true);
  // Run only a little: the write completes, then the idle rebuild kicks in
  // later; check the intermediate state first.
  rig.sim().RunUntil(Milliseconds(90));
  EXPECT_EQ(rig.driver().Completed(), 1u);
  EXPECT_EQ(rig.ctl().nvram().DirtyCount(), 1);
  EXPECT_FALSE(rig.ctl().content()->StripeConsistent(0));

  // After 100 ms of idleness the background rebuild restores redundancy.
  rig.sim().RunToEnd();
  EXPECT_EQ(rig.ctl().nvram().DirtyCount(), 0);
  EXPECT_TRUE(rig.ctl().content()->StripeConsistent(0));
  EXPECT_EQ(rig.ctl().StripesRebuilt(), 1u);
}

TEST(ControllerSmoke, Raid5WriteKeepsParityConsistentImmediately) {
  Rig rig(TinyConfig(), PolicySpec::Raid5());
  rig.RunOp(0, 8192, /*is_write=*/true);
  EXPECT_EQ(rig.ctl().nvram().DirtyCount(), 0);
  EXPECT_TRUE(rig.ctl().content()->StripeConsistent(0));
  EXPECT_EQ(rig.ctl().StripesRebuilt(), 0u);
  // RMW: old-data read + old-parity read + data write + parity write.
  EXPECT_EQ(rig.ctl().DiskOps(DiskOpPurpose::kOldParityRead), 1u);
  EXPECT_EQ(rig.ctl().DiskOps(DiskOpPurpose::kParityWrite), 1u);
}

TEST(ControllerSmoke, Raid0NeverRebuilds) {
  Rig rig(TinyConfig(), PolicySpec::Raid0());
  rig.RunOp(0, 8192, /*is_write=*/true);
  rig.RunOp(65536, 4096, /*is_write=*/true);
  EXPECT_GT(rig.ctl().nvram().DirtyCount(), 0);
  EXPECT_EQ(rig.ctl().StripesRebuilt(), 0u);
  EXPECT_EQ(rig.ctl().DiskOps(DiskOpPurpose::kParityWrite), 0u);
}

TEST(ControllerSmoke, ReadBackSeesWrittenData) {
  Rig rig(TinyConfig());
  rig.driver().Submit(16384, 16384, /*is_write=*/true);
  rig.sim().RunToEnd();
  // Request id 1 was assigned by the driver; verify the content round-trip.
  const auto vals = rig.ctl().ReadLogicalCurrent(16384, 16384);
  ASSERT_EQ(vals.size(), 32u);  // 16 KB / 512 B.
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(vals[i], ContentModel::MixTag(1, 32 + static_cast<int64_t>(i)));
  }
}

TEST(ControllerSmoke, ReadCompletesWithPlausibleLatency) {
  Rig rig(TinyConfig());
  rig.RunOp(123 * 8192, 8192, /*is_write=*/false);
  EXPECT_EQ(rig.driver().Completed(), 1u);
  const double ms = rig.driver().AllLatencies().Mean();
  EXPECT_GT(ms, 0.2);    // At least the command overhead.
  EXPECT_LT(ms, 40.0);   // Under a few revolutions + full seek.
}

TEST(ControllerSmoke, ExperimentHarnessRuns) {
  ArrayConfig cfg = TinyConfig();
  cfg.track_content = false;
  WorkloadParams wl;
  wl.name = "smoke";
  wl.seed = 7;
  wl.mean_burst_requests = 10;
  wl.mean_idle_ms = 300;
  wl.idle_pareto_alpha = 1.5;
  wl.intra_burst_gap_ms = 10;
  const SimReport rep = Experiment(cfg)
                            .Policy(PolicySpec::AfraidBaseline())
                            .Workload(wl, /*max_requests=*/500, Minutes(10))
                            .Run();
  EXPECT_EQ(rep.requests, 500u);
  EXPECT_GT(rep.mean_io_ms, 0.0);
  EXPECT_GT(rep.duration_s, 0.0);
  EXPECT_GT(rep.stripes_rebuilt, 0u);
  EXPECT_GT(rep.avail.mttdl_disk_hours, 0.0);
}

// The CLIs' one name resolver: "raid5" is AFRAID under the RAID 5 policy,
// registered names build themselves and keep the caller's policy, unknown
// names are refused, and the catalogue the CLIs list names the alias.
TEST(SchemeRegistryNames, Raid5AliasResolvesAndUnknownNamesAreRefused) {
  std::string scheme;
  PolicySpec policy = PolicySpec::AfraidBaseline();
  ASSERT_TRUE(SchemeRegistry::Resolve("raid5", &scheme, &policy));
  EXPECT_EQ(scheme, "afraid");
  EXPECT_EQ(policy.Label(), PolicySpec::Raid5().Label());

  policy = PolicySpec::AfraidBaseline();
  ASSERT_TRUE(SchemeRegistry::Resolve("raid6-deferQ", &scheme, &policy));
  EXPECT_EQ(scheme, "raid6-deferQ");
  EXPECT_EQ(policy.Label(), PolicySpec::AfraidBaseline().Label());

  scheme = "unchanged";
  EXPECT_FALSE(SchemeRegistry::Resolve("raid7", &scheme, &policy));
  EXPECT_FALSE(SchemeRegistry::Resolve("", &scheme, &policy));
  EXPECT_EQ(scheme, "unchanged");

  const auto catalog = SchemeRegistry::Catalog();
  ASSERT_EQ(catalog.size(), SchemeRegistry::List().size() + 1);
  EXPECT_EQ(catalog.back().first, "raid5");
  for (const auto& entry : catalog) {
    std::string built;
    PolicySpec p;
    EXPECT_TRUE(SchemeRegistry::Resolve(entry.first, &built, &p)) << entry.first;
  }
}

}  // namespace
}  // namespace afraid
