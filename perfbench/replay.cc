// Workload `replay`: the paper's Table 2 experiment widened to every
// organization. The ten presets are generated once, recorded to text, and
// replayed in memory through Experiment::Trace on eight configurations, one
// thread, healthy disks, cold arrays.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>

#include "array/decluster.h"
#include "array/plan.h"
#include "core/array_config.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "disk/geometry.h"
#include "obs/report_io.h"
#include "trace/recorder.h"
#include "trace/workload_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using afraid::ArrayConfig;
using afraid::Experiment;
using afraid::PolicySpec;
using afraid::SimReport;
using afraid::Trace;

// Requests per preset trace. Every preset reaches it well inside the
// duration cap, so each replay covers exactly this many requests.
constexpr uint64_t kRequestsPerPreset = 4000;
constexpr afraid::SimDuration kMaxDuration = afraid::Hours(48);
// Paper, Section 4.2: baseline AFRAID is 4.1x RAID 5 (geometric mean).
constexpr double kPaperAfraidSpeedup = 4.1;

struct ReplayConfig {
  const char* name;
  const char* scheme;
  PolicySpec policy;
};

const std::vector<ReplayConfig>& Configs() {
  static const std::vector<ReplayConfig> configs = {
      {"raid5", "afraid", PolicySpec::Raid5()},
      {"afraid", "afraid", PolicySpec::AfraidBaseline()},
      {"raid0", "afraid", PolicySpec::Raid0()},
      {"raid6", "raid6", PolicySpec::AfraidBaseline()},
      {"raid6-deferQ", "raid6-deferQ", PolicySpec::AfraidBaseline()},
      {"raid6-deferPQ", "raid6-deferPQ", PolicySpec::AfraidBaseline()},
      {"parity-log", "parity-log", PolicySpec::AfraidBaseline()},
      {"mirror", "mirror", PolicySpec::AfraidBaseline()},
  };
  return configs;
}

// The paper's array: 5 HP C3325-like disks, 8 KB stripe unit.
ArrayConfig PaperArray() {
  ArrayConfig cfg;
  cfg.disk_spec = afraid::DiskSpec::HpC3325Like();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  return cfg;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

// One replay's host time and report.
struct Sample {
  double host_s = 0.0;
  SimReport report;
};

class Replay final : public Workload {
 public:
  explicit Replay(const RunContext& ctx) : ctx_(ctx) {}

  const char* op() const override { return "client request"; }
  std::string input() const override {
    return std::to_string(afraid::PaperWorkloads().size()) + " presets x " +
           std::to_string(kRequestsPerPreset) + " requests x " +
           std::to_string(Configs().size()) + " configs, 1 thread";
  }

  void Setup() override {
    SpanLog::Scope setup(ctx_.spans, "setup.replay");
    cfg_ = PaperArray();
    // One trace per preset, replayed unchanged on every organization, so it
    // must fit the smallest client-visible capacity (the mirror's).
    int64_t capacity = INT64_MAX;
    for (const ReplayConfig& c : Configs()) {
      capacity = std::min(capacity,
                          afraid::SchemeRegistry::DataCapacityBytes(c.scheme, cfg_));
    }
    traces_.clear();
    files_.clear();
    const auto gen_start = Clock::now();
    const std::vector<afraid::WorkloadParams> presets = afraid::PaperWorkloads();
    for (size_t i = 0; i < presets.size(); ++i) {
      afraid::WorkloadParams p = presets[i];
      p.seed = SubSeed(ctx_.seed, 100 + i);
      p.address_space_bytes = capacity;
      SpanLog::Scope span(ctx_.spans, "trace.GenerateWorkload");
      traces_.push_back(afraid::GenerateWorkload(p, kRequestsPerPreset, kMaxDuration));
    }
    generate_s_ = SecondsSince(gen_start);
    for (const Trace& t : traces_) {
      files_.push_back(ctx_.out_dir + "/replay-" + t.name + ".trace");
      SpanLog::Scope span(ctx_.spans, "trace.RecordTrace");
      if (!afraid::RecordTrace(t, files_.back()).ok) {
        ctx_.outcome->Fail(t.Size(), "RecordTrace failed for " + files_.back());
      }
    }
  }

  PassStats Pass() override { return RunGrid(nullptr); }

  void Layers(std::vector<Metric>* out) override {
    std::vector<Sample> samples;
    RunGrid(&samples);
    GridMetrics(samples, out);
    out->push_back({"trace.generate_s", generate_s_, "s"});
    out->push_back({"trace.parse_mb_per_s", ParseMbPerS(), "MB/s"});
    out->push_back({"trace.stream_vs_memory", StreamVsMemory(), "x"});
    out->push_back({"array.plan_compile_ns_per_record", PlanCompileNs(), "ns"});
    out->push_back({"obs.observe_overhead", ObserveOverhead(), "x"});
  }

 private:
  SimReport RunOne(const Trace& trace, const ReplayConfig& c) {
    SpanLog::Scope span(ctx_.spans, "core.Experiment::Run");
    return Experiment(cfg_).Scheme(c.scheme).Policy(c.policy).Trace(trace).Run();
  }

  // Checks that hold whatever the model's numbers are; a failed check fails
  // every request of that replay.
  void Check(const Trace& trace, const ReplayConfig& c, const SimReport& rep) {
    const std::string who = trace.name + "/" + c.name;
    if (rep.requests != trace.Size()) {
      ctx_.outcome->Fail(trace.Size(), who + ": report.requests != trace size");
    } else if (rep.reads + rep.writes != rep.requests) {
      ctx_.outcome->Fail(trace.Size(), who + ": reads + writes != requests");
    } else if (!std::isfinite(rep.median_io_ms) || !std::isfinite(rep.p95_io_ms) ||
               !std::isfinite(rep.max_io_ms) || !std::isfinite(rep.mean_io_ms) ||
               rep.median_io_ms > rep.p95_io_ms || rep.p95_io_ms > rep.max_io_ms) {
      ctx_.outcome->Fail(trace.Size(), who + ": latency summary not ordered/finite");
    }
  }

  PassStats RunGrid(std::vector<Sample>* samples) {
    SpanLog::Scope pass(ctx_.spans, "pass.replay");
    PassStats stats;
    Digest digest;
    for (const Trace& trace : traces_) {
      for (const ReplayConfig& c : Configs()) {
        const auto start = Clock::now();
        const SimReport rep = RunOne(trace, c);
        const double host_s = SecondsSince(start);
        stats.ops += trace.Size();
        Check(trace, c, rep);
        digest.Add(afraid::SimReportToJson(rep));
        if (samples != nullptr) {
          samples->push_back(Sample{host_s, rep});
        }
      }
    }
    ctx_.outcome->attempted += stats.ops;
    stats.digest = digest.Hex();
    return stats;
  }

  // Samples are preset-major, config-minor.
  void GridMetrics(const std::vector<Sample>& samples, std::vector<Metric>* out) {
    const size_t num_cfg = Configs().size();
    std::vector<std::vector<double>> mean_ms(num_cfg);
    for (size_t c = 0; c < num_cfg; ++c) {
      double host_s = 0.0, requests = 0.0, disk_ops = 0.0, util = 0.0, depth = 0.0;
      for (size_t i = c; i < samples.size(); i += num_cfg) {
        const SimReport& r = samples[i].report;
        host_s += samples[i].host_s;
        requests += static_cast<double>(r.requests);
        disk_ops += static_cast<double>(r.disk_ops_total);
        util += r.disk_utilization;
        depth += r.mean_queue_depth;
        mean_ms[c].push_back(r.mean_io_ms);
      }
      const double presets = static_cast<double>(samples.size() / num_cfg);
      const std::string n = Configs()[c].name;
      out->push_back({"core.host_us_per_request." + n, host_s / requests * 1e6, "us"});
      out->push_back({"disk.host_ns_per_op." + n, host_s / disk_ops * 1e9, "ns"});
      out->push_back({"disk.ops_per_request." + n, disk_ops / requests, "op/request"});
      out->push_back({"sim.disk_utilization." + n, util / presets, "fraction"});
      out->push_back({"sim.mean_queue_depth." + n, depth / presets, "requests"});
      out->push_back({"sim.mean_io_ms." + n, GeoMean(mean_ms[c]), "sim_ms"});
    }
    // Per-preset speedups over RAID 5 (configs 0, 1, 2: raid5, afraid, raid0).
    std::vector<double> afraid_x, raid0_x;
    for (size_t p = 0; p < mean_ms[0].size(); ++p) {
      afraid_x.push_back(mean_ms[0][p] / mean_ms[1][p]);
      raid0_x.push_back(mean_ms[0][p] / mean_ms[2][p]);
    }
    const double afraid_speedup = GeoMean(afraid_x);
    out->push_back({"sim.afraid_raid5_speedup", afraid_speedup, "x"});
    out->push_back({"sim.raid0_raid5_speedup", GeoMean(raid0_x), "x"});
    out->push_back({"sim.afraid_raid5_error",
                    std::fabs(afraid_speedup / kPaperAfraidSpeedup - 1.0), "fraction"});
  }

  // ParseTraceText over the recorded presets, best of three rounds.
  double ParseMbPerS() {
    std::vector<std::string> texts(files_.size());
    double bytes = 0.0;
    for (size_t i = 0; i < files_.size(); ++i) {
      if (!ReadFile(files_[i], &texts[i])) {
        ctx_.outcome->Fail(traces_[i].Size(), "cannot read " + files_[i]);
      }
      bytes += static_cast<double>(texts[i].size());
    }
    std::vector<double> rounds;
    for (int round = 0; round < 3; ++round) {
      const auto start = Clock::now();
      for (size_t i = 0; i < texts.size(); ++i) {
        Trace parsed;
        afraid::TraceStatus status;
        {
          SpanLog::Scope span(ctx_.spans, "trace.ParseTraceText");
          status = afraid::ParseTraceText(texts[i], &parsed);
        }
        if (!status.ok || parsed.Size() != traces_[i].Size()) {
          ctx_.outcome->Fail(traces_[i].Size(), "ParseTraceText mismatch on " + files_[i]);
        }
      }
      rounds.push_back(SecondsSince(start));
    }
    return bytes / 1e6 / *std::min_element(rounds.begin(), rounds.end());
  }

  // Experiment::TraceFile over Experiment::Trace host time, afraid config,
  // the same recorded traces; the two reports must match field for field.
  double StreamVsMemory() {
    const ReplayConfig& c = Configs()[1];
    double stream_s = 0.0, memory_s = 0.0;
    for (size_t i = 0; i < traces_.size(); ++i) {
      auto start = Clock::now();
      const SimReport memory = RunOne(traces_[i], c);
      memory_s += SecondsSince(start);
      start = Clock::now();
      Experiment streamed(cfg_);
      SimReport stream;
      {
        SpanLog::Scope span(ctx_.spans, "core.Experiment::Run(TraceFile)");
        stream = streamed.Scheme(c.scheme).Policy(c.policy).TraceFile(files_[i]).Run();
      }
      stream_s += SecondsSince(start);
      ctx_.outcome->attempted += 2 * traces_[i].Size();
      if (!streamed.trace_status().ok ||
          afraid::SimReportToJson(stream) != afraid::SimReportToJson(memory)) {
        ctx_.outcome->Fail(traces_[i].Size(), "TraceFile report differs on " + files_[i]);
      }
    }
    return stream_s / memory_s;
  }

  // RequestPlan::Compile against the paper array's RAID 5 layout.
  double PlanCompileNs() {
    const afraid::DiskGeometry geom(cfg_.disk_spec.zones, cfg_.disk_spec.heads,
                                    cfg_.disk_spec.sector_bytes);
    const std::unique_ptr<afraid::ArrayLayout> layout =
        afraid::MakeLayout(cfg_.layout, cfg_.num_disks, cfg_.stripe_unit_bytes,
                           geom.CapacityBytes(), /*parity_blocks=*/1);
    afraid::RequestPlan plan;
    double records = 0.0;
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
      const auto start = Clock::now();
      for (const Trace& t : traces_) {
        SpanLog::Scope span(ctx_.spans, "array.RequestPlan::Compile");
        plan.Compile(t.records.data(), t.records.size(), *layout);
        records += round == 0 ? static_cast<double>(plan.size()) : 0.0;
      }
      rounds.push_back(SecondsSince(start));
    }
    return *std::min_element(rounds.begin(), rounds.end()) / records * 1e9;
  }

  // Experiment::Run with in-memory Observe() over without, afraid config.
  // Observation must not perturb the report.
  double ObserveOverhead() {
    const ReplayConfig& c = Configs()[1];
    double observed_s = 0.0, plain_s = 0.0;
    for (const Trace& trace : traces_) {
      auto start = Clock::now();
      const SimReport plain = RunOne(trace, c);
      plain_s += SecondsSince(start);
      start = Clock::now();
      SimReport observed;
      {
        SpanLog::Scope span(ctx_.spans, "core.Experiment::Run(Observe)");
        observed = Experiment(cfg_)
                       .Scheme(c.scheme)
                       .Policy(c.policy)
                       .Trace(trace)
                       .Observe(afraid::ObserveOptions{})
                       .Run();
      }
      observed_s += SecondsSince(start);
      ctx_.outcome->attempted += 2 * trace.Size();
      if (afraid::SimReportToJson(observed) != afraid::SimReportToJson(plain)) {
        ctx_.outcome->Fail(trace.Size(), "Observe() changed the report of " + trace.name);
      }
    }
    return observed_s / plain_s;
  }

  RunContext ctx_;
  ArrayConfig cfg_;
  std::vector<Trace> traces_;
  std::vector<std::string> files_;
  double generate_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeReplay(const RunContext& ctx) {
  return std::make_unique<Replay>(ctx);
}

}  // namespace perfbench
