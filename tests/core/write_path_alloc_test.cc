// Proves the steady-state client request path is allocation-free: after a
// warm-up that fills every pool (join blocks, scratch vectors, queue nodes,
// event slabs, disk op slots, reserved latency samples), a further
// burst of reads and writes must perform zero heap allocations.
//
// The global operator new/delete overrides below count every allocation in
// the process; the test snapshots the counter between identical workload
// phases. Any new heap traffic on the request path -- a lambda too big for
// its SmallCallback buffer, a scratch vector acquired without pooling, a
// map node outside its NodePool -- fails this test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "array/host_driver.h"
#include "array/scheme.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "disk/disk_model.h"
#include "sim/simulator.h"

namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace afraid {
namespace {

// One workload phase: a deterministic mix of single-unit, sub-unit, and
// multi-stripe requests (reads and writes) with bursts and drains. Both the
// warm-up and the measured phase run this exact shape so pool high-water
// marks are identical.
void RunPhase(Simulator* sim, HostDriver* driver, int64_t cap, uint64_t salt) {
  const int64_t blocks = cap / 4096 - 8;  // Room for the largest request.
  for (int i = 0; i < 600; ++i) {
    const uint64_t h =
        (salt * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i) * 7919u);
    const int64_t offset = static_cast<int64_t>(h % static_cast<uint64_t>(blocks)) * 4096;
    const int32_t size = (i % 7 == 0) ? 32768 : ((i % 3 == 0) ? 4096 : 8192);
    driver->Submit(offset, size, (i % 4) != 0);
    if (i % 16 == 15) {
      sim->RunUntil(sim->Now() + Milliseconds(40));
    }
  }
  sim->RunToEnd();
  ASSERT_TRUE(driver->Drained());
}

// Every registered scheme, plus the raid5 alias (AFRAID under the RAID 5
// policy), so every client write path -- AFRAID and RAID 5 modes, RAID 6's
// read-modify-write, the mirror pair, parity logging -- is covered.
class WritePathAllocTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WritePathAllocTest, SteadyStateRequestPathIsAllocationFree) {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  cfg.track_content = false;  // Steady-state data path, not the test oracle.

  Simulator sim;
  std::string scheme;
  PolicySpec policy = PolicySpec::AfraidBaseline();
  ASSERT_TRUE(SchemeRegistry::Resolve(GetParam(), &scheme, &policy));
  const SchemeContext ctx{&sim, cfg, policy, AvailabilityParamsFor(cfg), Probe()};
  const std::unique_ptr<ArrayScheme> ctl = SchemeRegistry::Create(scheme, ctx);
  ASSERT_NE(ctl, nullptr);
  HostDriver driver(&sim, ctl.get(), cfg.MaxActive());
  driver.ReserveLatencySamples(4096);  // Three phases x 600 requests fit.

  const int64_t cap = ctl->DataCapacityBytes();

  // Two warm-up rounds: the first grows pools to the workload's high-water
  // mark, the second confirms the marks are stable before measuring.
  RunPhase(&sim, &driver, cap, 1);
  RunPhase(&sim, &driver, cap, 2);

  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  RunPhase(&sim, &driver, cap, 3);
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << GetParam() << ": steady-state request path performed " << (after - before)
      << " heap allocations";
}

std::vector<std::string> WriteSchemes() {
  std::vector<std::string> names = SchemeRegistry::List();
  names.push_back("raid5");
  return names;
}

INSTANTIATE_TEST_SUITE_P(EveryWritePath, WritePathAllocTest, ::testing::ValuesIn(WriteSchemes()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// One disk-level phase: bursts of submits whose completions re-enter Submit
// (the controllers' read-modify-write chains do), plus a failure and a
// replacement so the failed-op paths run too.
void RunDiskPhase(Simulator* sim, DiskModel* disk, uint64_t salt) {
  int64_t sink = 0;
  const int64_t blocks = (disk->TotalSectors() - 96) / 16;  // Room for 96.
  for (int i = 0; i < 400; ++i) {
    const uint64_t h =
        (salt * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i) * 7919u);
    const int64_t lba = static_cast<int64_t>(h % static_cast<uint64_t>(blocks)) * 16;
    const int32_t sectors = (i % 5 == 0) ? 96 : 16;
    disk->Submit(DiskOp{lba, sectors, (i % 3) == 0},
                 [disk, &sink, lba, sectors](const DiskOpResult& r) {
                   sink += r.finish;
                   if (r.ok && sectors == 96) {
                     disk->Submit(DiskOp{lba, 16, true},
                                  [&sink](const DiskOpResult& w) { sink += w.finish; });
                   }
                 });
    if (i % 32 == 31) {
      sim->RunUntil(sim->Now() + Milliseconds(60));
    }
    if (i == 200) {
      disk->Fail();
      disk->Submit(DiskOp{0, 8, false},
                   [&sink](const DiskOpResult& r) { sink += r.ok ? 1 : 2; });
      sim->RunToEnd();
      disk->Replace();
    }
  }
  sim->RunToEnd();
  ASSERT_TRUE(disk->Idle());
  ASSERT_GT(sink, 0);
}

// The disk's submit/complete cycle on its own: ops live in pooled slots, so
// once the pool and the event slabs reach the workload's high-water mark no
// further heap allocation happens.
TEST(DiskAllocTest, DiskSubmitCompleteIsAllocationFree) {
  Simulator sim;
  DiskModel disk(&sim, DiskSpec::TinyTestDisk(), 0);
  RunDiskPhase(&sim, &disk, 1);
  RunDiskPhase(&sim, &disk, 2);

  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  RunDiskPhase(&sim, &disk, 3);
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "disk submit/complete performed " << (after - before)
      << " heap allocations";
}

}  // namespace
}  // namespace afraid
