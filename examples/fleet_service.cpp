// Fleet service: one large logical volume striped over many independent
// arrays, serving over a thousand tenant sessions at once -- with a disk
// failure and an online repair injected mid-run on one shard while the rest
// of the fleet keeps serving.
//
//   $ ./examples/fleet_service [flags] [scheme] [requests]
//
// scheme: any registry name (afraid | raid6 | raid6-deferQ | raid6-deferPQ |
// parity-log | mirror), or "raid5" (afraid under the always-sync policy), or
// "list" to print the registered schemes and exit.
//
// Flags:
//   --layout NAME       per-shard parity layout: left-symmetric (default) or
//                       declustered (narrow block-design stripes, fast rebuild)
//   --decluster-width K declustered stripe width; 0 = auto (~half the array)
//   --spares N          per-shard hot-spare pool: repairs draw from the pool
//                       and are refused when it is empty; a spare_add op
//                       restocks mid-run (default: unlimited legacy stock)
//
// The run is bit-identical for any AFRAID_BENCH_THREADS (every shard is an
// independent deterministic simulation; the sweep only changes who runs
// which cell when). Set AFRAID_OBS_DIR=<dir> to record <dir>/fleet.json and
// a per-shard Chrome trace under <dir>/shard<k>/trace.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "array/layout.h"
#include "core/scheme_registry.h"
#include "fleet/tenants.h"
#include "fleet/volume_manager.h"

using namespace afraid;

int main(int argc, char** argv) {
  LayoutKind layout = LayoutKind::kLeftSymmetric;
  int32_t decluster_width = 0;
  int32_t spares = -1;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--layout" && i + 1 < argc) {
      if (!LayoutKindFromName(argv[++i], &layout)) {
        std::fprintf(stderr,
                     "unknown layout '%s' (left-symmetric | declustered)\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--decluster-width" && i + 1 < argc) {
      decluster_width = static_cast<int32_t>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--spares" && i + 1 < argc) {
      spares = static_cast<int32_t>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      pos.push_back(arg);
    }
  }
  const std::string scheme_arg = !pos.empty() ? pos[0] : "afraid";
  const uint64_t requests =
      pos.size() > 1 ? std::strtoull(pos[1].c_str(), nullptr, 10) : 30000;

  if (scheme_arg == "list" || scheme_arg == "--scheme=list") {
    for (const auto& [name, description] : SchemeRegistry::Catalog()) {
      std::printf("%-14s %s\n", name.c_str(), description.c_str());
    }
    return 0;
  }

  FleetConfig cfg;
  cfg.num_shards = 8;
  cfg.chunk_bytes = 4 << 20;
  cfg.seed = 1996;
  cfg.array.layout = layout;
  cfg.array.decluster_width = decluster_width;
  cfg.spares = spares;
  if (!SchemeRegistry::Resolve(scheme_arg, &cfg.scheme, &cfg.policy)) {
    std::fprintf(stderr,
                 "unknown scheme '%s' (try 'list' for the registry)\n",
                 scheme_arg.c_str());
    return 1;
  }

  const char* obs_env = std::getenv("AFRAID_OBS_DIR");
  const std::string obs_dir = obs_env != nullptr ? obs_env : "";

  for (const ShardingKind kind :
       {ShardingKind::kRange, ShardingKind::kConsistentHash}) {
    cfg.sharding = kind;
    VolumeManager vm(cfg);

    // The management timeline, registered before the run and applied online:
    // disk 1 of shard 2 dies at t=20s, a replacement arrives at t=90s and
    // reconstructs while shard 2 keeps serving degraded. Info snapshots
    // bracket the incident.
    vm.DiskFail(Seconds(20), /*shard=*/2, /*disk=*/1);
    vm.InfoAt(Seconds(60), /*shard=*/-1);
    if (spares == 0) {
      // An empty pool refuses the repair; restock just ahead of it so the
      // incident still resolves (and the refusal counters stay visible).
      vm.SpareAdd(Seconds(80), /*shard=*/2);
    }
    vm.DiskRepaired(Seconds(90), /*shard=*/2, /*disk=*/1);

    FleetWorkloadParams wp;
    wp.name = "fleet-mix";
    wp.seed = 7;
    wp.num_tenants = 1200;
    wp.max_requests = requests;
    wp.max_duration = Minutes(10);
    const FleetTrace trace = GenerateFleetWorkload(wp, vm.VolumeBytes());

    VolumeManager::RunOptions opts;
    if (!obs_dir.empty()) {
      opts.artifacts_dir = obs_dir + "/" + ShardingKindName(kind);
      opts.trace_shards = true;
    }
    const FleetReport rep = vm.Run(trace, opts);

    std::printf("== %s / %s: %d shards, %d tenants, %zu arrivals over %.0f s "
                "(volume %.1f GB, %lld chunks, %lld spilled)\n",
                rep.scheme.c_str(), rep.sharding.c_str(), rep.num_shards,
                rep.num_tenants, trace.Size(), ToSeconds(trace.Duration()),
                static_cast<double>(vm.VolumeBytes()) / (1 << 30),
                static_cast<long long>(vm.shard_map().num_chunks()),
                static_cast<long long>(vm.shard_map().SpilledChunks()));
    std::printf("   client latency ms: mean %.2f  p50 %.2f  p90 %.2f  "
                "p99 %.2f  p999 %.2f  max %.1f\n",
                rep.mean_ms, rep.p50_ms, rep.p90_ms, rep.p99_ms, rep.p999_ms,
                rep.max_ms);
    std::printf("   %llu served (%llu reads / %llu writes), %llu split "
                "across shards, %llu dropped\n",
                static_cast<unsigned long long>(rep.requests),
                static_cast<unsigned long long>(rep.reads),
                static_cast<unsigned long long>(rep.writes),
                static_cast<unsigned long long>(rep.split_requests),
                static_cast<unsigned long long>(rep.dropped));
    std::printf("   load balance: max/mean %.3f, cv %.3f, byte max/mean %.3f\n",
                rep.imbalance_max_mean, rep.imbalance_cv,
                rep.byte_imbalance_max_mean);
    std::printf("   availability: %.1f degraded shard-seconds, %llu loss "
                "events, %lld bytes lost\n",
                rep.degraded_shard_s,
                static_cast<unsigned long long>(rep.loss_events),
                static_cast<long long>(rep.bytes_lost));
    uint64_t ref_fail = 0;
    uint64_t ref_repair = 0;
    uint64_t ref_info = 0;
    uint64_t ref_destroy = 0;
    uint64_t spares_added = 0;
    uint64_t spares_used = 0;
    uint64_t no_spare = 0;
    for (const ShardReport& s : rep.shards) {
      ref_fail += s.mgmt_unsupported_fail;
      ref_repair += s.mgmt_unsupported_repair;
      ref_info += s.mgmt_unsupported_info;
      ref_destroy += s.mgmt_unsupported_destroy;
      spares_added += s.spares_added;
      spares_used += s.spares_used;
      no_spare += s.repairs_refused_no_spare;
    }
    std::printf("   mgmt refused: fail %llu  repair %llu  info %llu  "
                "destroy %llu\n",
                static_cast<unsigned long long>(ref_fail),
                static_cast<unsigned long long>(ref_repair),
                static_cast<unsigned long long>(ref_info),
                static_cast<unsigned long long>(ref_destroy));
    if (spares >= 0) {
      std::printf("   spare pool: start %d/shard, added %llu, used %llu, "
                  "repairs refused empty %llu\n",
                  spares, static_cast<unsigned long long>(spares_added),
                  static_cast<unsigned long long>(spares_used),
                  static_cast<unsigned long long>(no_spare));
    }
    std::printf("   %-6s %9s %8s %8s %10s %7s %9s\n", "shard", "pieces",
                "mean ms", "p99 ms", "bytes MB", "util", "degr s");
    for (const ShardReport& s : rep.shards) {
      std::printf("   s%-5d %9llu %8.2f %8.2f %10.1f %7.3f %9.1f%s\n", s.shard,
                  static_cast<unsigned long long>(s.requests), s.mean_ms,
                  s.p99_ms, static_cast<double>(s.bytes) / (1 << 20),
                  s.disk_utilization, s.degraded_s,
                  s.disk_failed ? (s.repaired ? "  [failed+repaired]"
                                              : "  [failed]")
                                : "");
    }
    std::printf("\n");
  }

  if (!obs_dir.empty()) {
    std::fprintf(stderr, "recorded fleet artifacts under %s/<sharding>/\n",
                 obs_dir.c_str());
  }
  return 0;
}
