// Workload `mc-campaign`: the bench_mc_availability campaigns (afraid,
// raid5, raid0, mttdl_10M; variance reduction off) on tiny-disk arrays --
// thousands of short simulations with failure drills, where array
// construction, Simulator::Reset and the fault timeline dominate.

#include <cmath>

#include "core/experiment.h"
#include "core/policy.h"
#include "faultsim/campaign.h"
#include "faultsim/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using afraid::CampaignConfig;
using afraid::LifetimeResult;
using afraid::PolicySpec;

constexpr int32_t kLifetimes = 240;

struct CampaignSpec {
  const char* name;
  PolicySpec policy;
  double cap_hours;
};

const std::vector<CampaignSpec>& Specs() {
  static const std::vector<CampaignSpec> specs = {
      {"afraid", PolicySpec::AfraidBaseline(), 5e7},
      {"raid5", PolicySpec::Raid5(), 1e8},
      {"raid0", PolicySpec::Raid0(), 5e6},
      {"mttdl_10M", PolicySpec::MttdlTarget(1e7), 5e7},
  };
  return specs;
}

// Every field of a lifetime, in declaration order.
void AddLifetime(Digest* d, const LifetimeResult& r) {
  d->Add(r.seed);
  d->Add(static_cast<uint64_t>(r.data_loss));
  d->Add(r.hours_observed);
  d->Add(r.first_loss_hours);
  d->Add(static_cast<uint64_t>(r.bytes_lost));
  d->Add(static_cast<uint64_t>(r.unprotected_loss_events));
  d->Add(static_cast<uint64_t>(r.catastrophic_events));
  d->Add(static_cast<uint64_t>(r.nvram_loss_events));
  d->Add(static_cast<uint64_t>(r.support_loss_events));
  d->Add(r.disk_failures);
  d->Add(r.predicted_averted);
  d->Add(r.nvram_losses);
  d->Add(r.drills);
  d->Add(r.t_unprot_fraction);
  d->Add(r.mean_parity_lag_bytes);
  d->Add(r.log_weight);
}

std::string LifetimeKey(const LifetimeResult& r) {
  Digest d;
  AddLifetime(&d, r);
  return d.Hex();
}

class McCampaign final : public Workload {
 public:
  explicit McCampaign(const RunContext& ctx) : ctx_(ctx) {}

  const char* op() const override { return "lifetime"; }
  std::string input() const override {
    return std::to_string(Specs().size()) + " campaigns x " + std::to_string(kLifetimes) +
           " lifetimes, " + std::to_string(ctx_.threads) + " threads";
  }

  void Setup() override {
    SpanLog::Scope setup(ctx_.spans, "setup.mc-campaign");
    configs_.clear();
    for (const CampaignSpec& spec : Specs()) {
      CampaignConfig c;
      // Tiny disks: every drill's reconstruction sweep touches all stripes.
      c.array.disk_spec = afraid::DiskSpec::TinyTestDisk();
      c.array.num_disks = 5;
      c.array.stripe_unit_bytes = 8192;
      c.label = spec.name;
      c.policy = spec.policy;
      c.workload = afraid::PaperWorkloads().front();
      c.faults = afraid::FaultModelParams::From(afraid::AvailabilityParamsFor(c.array),
                                                afraid::SchemeFor(spec.policy));
      c.lifetimes = kLifetimes;
      c.base_seed = SubSeed(ctx_.seed, 300);
      c.max_lifetime_hours = spec.cap_hours;
      configs_.push_back(c);
    }
  }

  PassStats Pass() override {
    SpanLog::Scope pass(ctx_.spans, "pass.mc-campaign");
    PassStats stats;
    Digest digest;
    for (const CampaignConfig& c : configs_) {
      std::vector<LifetimeResult> results;
      {
        SpanLog::Scope span(ctx_.spans, "faultsim.RunCampaignLifetimes");
        results = afraid::RunCampaignLifetimes(c, ctx_.threads);
      }
      stats.ops += static_cast<uint64_t>(c.lifetimes);
      Check(c, results);
      for (const LifetimeResult& r : results) {
        AddLifetime(&digest, r);
      }
    }
    ctx_.outcome->attempted += stats.ops;
    stats.digest = digest.Hex();
    return stats;
  }

  void Layers(std::vector<Metric>* out) override {
    double serial_s = 0.0, parallel_s = 0.0, drills = 0.0, lifetimes = 0.0;
    afraid::LifetimeArena arena;
    for (size_t k = 0; k < configs_.size(); ++k) {
      const CampaignConfig& c = configs_[k];
      const std::string n = Specs()[k].name;
      std::vector<LifetimeResult> serial;
      std::vector<double> ms;
      for (int32_t i = 0; i < c.lifetimes; ++i) {
        const auto start = Clock::now();
        {
          SpanLog::Scope span(ctx_.spans, "faultsim.RunLifetime");
          serial.push_back(afraid::RunLifetime(c, i, &arena));
        }
        ms.push_back(SecondsSince(start) * 1e3);
      }
      const auto start = Clock::now();
      std::vector<LifetimeResult> parallel;
      {
        SpanLog::Scope span(ctx_.spans, "faultsim.RunCampaignLifetimes");
        parallel = afraid::RunCampaignLifetimes(c, ctx_.threads);
      }
      parallel_s += SecondsSince(start);
      for (const double m : ms) {
        serial_s += m / 1e3;
      }
      ctx_.outcome->attempted += 2 * static_cast<uint64_t>(c.lifetimes);
      Check(c, serial);
      Check(c, parallel);
      uint64_t mismatched = 0;
      for (size_t i = 0; i < serial.size() && i < parallel.size(); ++i) {
        mismatched += LifetimeKey(serial[i]) != LifetimeKey(parallel[i]) ? 1 : 0;
      }
      if (mismatched > 0) {
        ctx_.outcome->Fail(mismatched, n + ": serial RunLifetime != RunCampaignLifetimes");
      }
      for (const LifetimeResult& r : serial) {
        drills += static_cast<double>(r.drills);
      }
      lifetimes += static_cast<double>(serial.size());
      // p95 of 240 samples leaves 12 beyond it: the highest percentile with
      // at least ten.
      out->push_back({"faultsim.lifetime_ms_p50." + n, Percentile(ms, 50.0), "ms"});
      out->push_back({"faultsim.lifetime_ms_p95." + n, Percentile(ms, 95.0), "ms"});
      out->push_back({"faultsim.mttdl_hours." + n,
                      afraid::Summarize(c, serial).mttdl_hours.point, "sim_h"});
    }
    out->push_back({"faultsim.parallel_speedup", serial_s / parallel_s, "x"});
    out->push_back({"faultsim.drills_per_lifetime", drills / lifetimes, "count"});
  }

 private:
  // Every configured lifetime must come back, with a finite observation
  // span. Loss events are model outcomes, not failures.
  void Check(const CampaignConfig& c, const std::vector<LifetimeResult>& results) {
    const auto want = static_cast<size_t>(c.lifetimes);
    if (results.size() != want) {
      const size_t missing = results.size() < want ? want - results.size() : 0;
      ctx_.outcome->Fail(missing, c.label + ": lifetimes missing from campaign");
    }
    for (const LifetimeResult& r : results) {
      if (!std::isfinite(r.hours_observed) || r.hours_observed <= 0.0) {
        ctx_.outcome->Fail(1, c.label + ": lifetime with no observed hours");
      }
    }
  }

  RunContext ctx_;
  std::vector<CampaignConfig> configs_;
};

}  // namespace

std::unique_ptr<Workload> MakeMcCampaign(const RunContext& ctx) {
  return std::make_unique<McCampaign>(ctx);
}

}  // namespace perfbench
