// Workload `fleet-rebuild`: VolumeManager on 8 consistent-hash shards with
// the bench_fleet tenant mix, surviving the standard incident -- one disk of
// one shard fails and is repaired online, so that shard reconstructs under
// load while the others keep serving. Five scheme rows per pass.

#include <cmath>

#include "core/policy.h"
#include "fleet/tenants.h"
#include "fleet/volume_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using afraid::FleetConfig;
using afraid::FleetReport;
using afraid::FleetTrace;
using afraid::PolicySpec;
using afraid::VolumeManager;

constexpr int32_t kShards = 8;
constexpr int32_t kVictimShard = kShards / 2;
constexpr int32_t kVictimDisk = 1;
constexpr int32_t kTenants = 1200;
constexpr uint64_t kRequests = 30000;

struct FleetRow {
  const char* name;
  const char* scheme;
  PolicySpec policy;
};

const std::vector<FleetRow>& Rows() {
  static const std::vector<FleetRow> rows = {
      {"afraid", "afraid", PolicySpec::AfraidBaseline()},
      {"raid5", "afraid", PolicySpec::Raid5()},
      {"raid6-deferQ", "raid6-deferQ", PolicySpec::AfraidBaseline()},
      {"parity-log", "parity-log", PolicySpec::AfraidBaseline()},
      {"mirror", "mirror", PolicySpec::AfraidBaseline()},
  };
  return rows;
}

class FleetRebuild final : public Workload {
 public:
  explicit FleetRebuild(const RunContext& ctx) : ctx_(ctx) {}

  const char* op() const override { return "client request"; }
  std::string input() const override {
    return std::to_string(Rows().size()) + " rows x " + std::to_string(kRequests) +
           " requests, " + std::to_string(kTenants) + " tenants, " +
           std::to_string(kShards) + " shards, " + std::to_string(ctx_.threads) +
           " threads";
  }

  void Setup() override {
    SpanLog::Scope setup(ctx_.spans, "setup.fleet");
    managers_.clear();
    traces_.clear();
    for (const FleetRow& row : Rows()) {
      FleetConfig cfg;
      cfg.scheme = row.scheme;
      cfg.policy = row.policy;
      cfg.sharding = afraid::ShardingKind::kConsistentHash;
      cfg.num_shards = kShards;
      cfg.chunk_bytes = 4 << 20;
      cfg.seed = SubSeed(ctx_.seed, 200);
      managers_.push_back(std::make_unique<VolumeManager>(cfg));
      VolumeManager& vm = *managers_.back();
      // The standard incident: one disk of one mid-fleet shard dies early
      // and is repaired online a minute later.
      vm.DiskFail(afraid::Seconds(20), kVictimShard, kVictimDisk);
      vm.DiskRepaired(afraid::Seconds(80), kVictimShard, kVictimDisk);

      afraid::FleetWorkloadParams wp;
      wp.name = "fleet-mix";
      wp.seed = SubSeed(ctx_.seed, 201);
      wp.num_tenants = kTenants;
      wp.max_requests = kRequests;
      wp.max_duration = afraid::Minutes(10);
      SpanLog::Scope span(ctx_.spans, "fleet.GenerateFleetWorkload");
      traces_.push_back(afraid::GenerateFleetWorkload(wp, vm.VolumeBytes()));
    }
  }

  PassStats Pass() override {
    SpanLog::Scope pass(ctx_.spans, "pass.fleet-rebuild");
    PassStats stats;
    Digest digest;
    for (size_t r = 0; r < Rows().size(); ++r) {
      const FleetReport rep = RunRow(r, ctx_.threads);
      stats.ops += traces_[r].Size();
      Check(r, rep);
      digest.Add(afraid::FleetReportToJson(rep));
    }
    ctx_.outcome->attempted += stats.ops;
    stats.digest = digest.Hex();
    return stats;
  }

  void Layers(std::vector<Metric>* out) override {
    for (size_t r = 0; r < Rows().size(); ++r) {
      const std::string n = Rows()[r].name;
      auto start = Clock::now();
      const FleetReport serial = RunRow(r, 1);
      const double serial_s = SecondsSince(start);
      start = Clock::now();
      const FleetReport parallel = RunRow(r, ctx_.threads);
      const double parallel_s = SecondsSince(start);
      ctx_.outcome->attempted += 2 * traces_[r].Size();
      Check(r, serial);
      Check(r, parallel);
      if (afraid::FleetReportToJson(serial) != afraid::FleetReportToJson(parallel)) {
        ctx_.outcome->Fail(traces_[r].Size(),
                           n + ": fleet report differs between 1 and " +
                               std::to_string(ctx_.threads) + " threads");
      }
      out->push_back({"fleet.run_s_t1." + n, serial_s, "s"});
      out->push_back({"fleet.parallel_speedup." + n, serial_s / parallel_s, "x"});
      out->push_back({"fleet.degraded_s." + n, serial.degraded_shard_s, "sim_s"});
      out->push_back({"fleet.p99_ms." + n, serial.p99_ms, "sim_ms"});
      out->push_back({"fleet.p999_ms." + n, serial.p999_ms, "sim_ms"});
    }
    out->push_back({"fleet.route_ns_per_request", RouteNs(), "ns"});
  }

 private:
  FleetReport RunRow(size_t r, int32_t threads) {
    SpanLog::Scope span(ctx_.spans, "fleet.VolumeManager::Run");
    VolumeManager::RunOptions opts;
    opts.threads = threads;
    return managers_[r]->Run(traces_[r], opts);
  }

  // Every logical request either completes or is dropped (a dropped one
  // fails); the victim shard must have gone through fail and repair.
  void Check(size_t r, const FleetReport& rep) {
    const std::string who = Rows()[r].name;
    const uint64_t logical = traces_[r].Size();
    if (rep.dropped > 0) {
      ctx_.outcome->Fail(rep.dropped, who + ": dropped requests");
    }
    if (rep.requests + rep.dropped != logical) {
      const uint64_t seen = rep.requests + rep.dropped;
      ctx_.outcome->Fail(seen > logical ? seen - logical : logical - seen,
                         who + ": completed + dropped != logical requests");
    }
    const bool victim_ok = rep.shards.size() == static_cast<size_t>(kShards) &&
                           rep.shards[kVictimShard].disk_failed &&
                           rep.shards[kVictimShard].repaired;
    if (!victim_ok || !std::isfinite(rep.p999_ms)) {
      ctx_.outcome->Fail(logical, who + ": victim shard did not fail and repair");
    }
  }

  // ShardMap::Route over every record of the first row, repeated to ~50 ms.
  double RouteNs() {
    const afraid::ShardMap& map = managers_[0]->shard_map();
    const FleetTrace& trace = traces_[0];
    SpanLog::Scope span(ctx_.spans, "fleet.ShardMap::Route");
    int64_t sink = 0;
    uint64_t calls = 0;
    const auto start = Clock::now();
    do {
      for (const afraid::FleetRecord& rec : trace.records) {
        const afraid::ShardTarget t = map.Route(rec.offset);
        sink += t.shard + t.local_offset;
      }
      calls += trace.Size();
    } while (SecondsSince(start) < 0.05);
    const double ns = SecondsSince(start) / static_cast<double>(calls) * 1e9;
    // Keep the loop's result observable so it cannot be discarded.
    if (sink == INT64_MIN) {
      ctx_.outcome->Fail(0, "route sink");
    }
    return ns;
  }

  RunContext ctx_;
  std::vector<std::unique_ptr<VolumeManager>> managers_;
  std::vector<FleetTrace> traces_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetRebuild(const RunContext& ctx) {
  return std::make_unique<FleetRebuild>(ctx);
}

}  // namespace perfbench
