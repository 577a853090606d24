// The simulator's end-to-end benchmark.
//
//   perfbench --workload replay|fleet-rebuild|mc-campaign --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 alternates the workload's set-up and its timed calls for S
// seconds and reports the median set-up time, the first-quartile pass
// throughput and the process's peak RSS. --trace 1 is the separate traced run: it sets
// up all three workloads, records a span around every public call, times
// the chosen workload's calls with spans off and on for S seconds (the
// tracing overhead), measures every layer's metrics, and writes the spans
// to DIR at exit.
//
// Prints one JSON object on stdout. perfbench/run.py builds this binary and
// turns that object into the benchmark's result line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_OPT_LEVEL
#define PERFBENCH_OPT_LEVEL "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;  // Timed passes even when one outlasts --seconds.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

std::unique_ptr<Workload> Make(const std::string& name, const RunContext& ctx) {
  if (name == "replay") {
    return MakeReplay(ctx);
  }
  if (name == "fleet-rebuild") {
    return MakeFleetRebuild(ctx);
  }
  if (name == "mc-campaign") {
    return MakeMcCampaign(ctx);
  }
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";  // run.py refuses non-finite metrics.
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The untraced run. Set-up and the timed pass alternate for --seconds, so
// both samples span the whole run and see the same host conditions.
std::string MeasureEndToEnd(Workload* w, const Args& args, Outcome* outcome,
                            std::vector<Metric>* metrics, std::string* detail) {
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::string digest;
  const auto start = Clock::now();
  while (SecondsSince(start) < args.seconds || static_cast<int>(rates.size()) < kMinPasses) {
    const auto setup_start = Clock::now();
    w->Setup();
    setup_s.push_back(SecondsSince(setup_start));
    const auto pass_start = Clock::now();
    const PassStats pass = w->Pass();
    rates.push_back(static_cast<double>(pass.ops) / SecondsSince(pass_start));
    if (digest.empty()) {
      digest = pass.digest;
    } else if (pass.digest != digest) {
      outcome->Fail(pass.ops, "simulated output changed between identical passes");
    }
  }
  *detail = "{\"passes\":" + std::to_string(rates.size()) +
            ",\"ops_per_s_median\":" + JsonNumber(Median(rates)) +
            ",\"ops_per_s_q3\":" + JsonNumber(Percentile(rates, 75.0)) +
            ",\"setup_s_q1\":" + JsonNumber(Percentile(setup_s, 25.0)) +
            ",\"setup_s_q3\":" + JsonNumber(Percentile(setup_s, 75.0)) + "}";
  metrics->push_back({"setup_s", Median(setup_s), "s"});
  // The host's speed drifts between a fast and a slow state over seconds to
  // minutes; the median pass flips with the share of time spent in each,
  // while the first quartile tracks the slow state that nearly every run
  // visits, so it repeats far better between runs.
  metrics->push_back({"ops_per_s", Percentile(rates, 25.0), "1/s"});
  metrics->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return digest;
}

// The traced run. Returns the chosen workload's digest.
std::string MeasureLayers(Workload* chosen, const Args& args, const RunContext& ctx,
                          SpanLog* spans, std::vector<Metric>* metrics,
                          std::string* spans_path) {
  std::vector<std::unique_ptr<Workload>> others;
  std::vector<Workload*> all;
  spans->set_enabled(true);
  for (const char* name : {"replay", "fleet-rebuild", "mc-campaign"}) {
    if (args.workload == name) {
      all.push_back(chosen);
    } else {
      others.push_back(Make(name, ctx));
      all.push_back(others.back().get());
    }
    all.back()->Setup();
  }
  // Tracing overhead over the calls both runs share: the chosen workload's
  // timed pass with spans off and on, alternated for --seconds.
  std::vector<double> off_s, on_s;
  std::string digest;
  const auto start = Clock::now();
  while (SecondsSince(start) < args.seconds || static_cast<int>(on_s.size()) < kMinPasses) {
    for (const bool traced : {false, true}) {
      spans->set_enabled(traced);
      const auto pass_start = Clock::now();
      const PassStats pass = chosen->Pass();
      (traced ? on_s : off_s).push_back(SecondsSince(pass_start));
      if (!digest.empty() && pass.digest != digest) {
        ctx.outcome->Fail(pass.ops, "simulated output changed between identical passes");
      }
      digest = pass.digest;
    }
  }
  spans->set_enabled(true);
  for (Workload* w : all) {
    w->Layers(metrics);
  }
  metrics->push_back({"perfbench.trace_overhead", Median(on_s) / Median(off_s) - 1.0,
                      "fraction"});
  *spans_path = args.out_dir + "/spans-" + args.workload + "-" +
                std::to_string(args.seed) + ".json";
  if (!spans->WriteJson(*spans_path)) {
    ctx.outcome->Fail(0, "cannot write " + *spans_path);
  }
  return digest;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to report numbers from an unoptimised build\n");
  return 2;
#endif
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out_dir.c_str());
    return 2;
  }

  Outcome outcome;
  SpanLog spans(false);
  RunContext ctx;
  ctx.seed = args.seed;
  // Fleet and campaign workers: at most 4, never more than the CPUs.
  ctx.threads = std::clamp(static_cast<int32_t>(std::thread::hardware_concurrency()), 1, 4);
  ctx.out_dir = args.out_dir;
  ctx.spans = &spans;
  ctx.outcome = &outcome;
  std::unique_ptr<Workload> w = Make(args.workload, ctx);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<Metric> metrics;
  std::string spans_path;
  std::string detail = "{}";
  const std::string digest =
      args.trace ? MeasureLayers(w.get(), args, ctx, &spans, &metrics, &spans_path)
                 : MeasureEndToEnd(w.get(), args, &outcome, &metrics, &detail);

  std::string out = "{\"workload\":" + JsonString(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"opt_level\":" + JsonString(PERFBENCH_OPT_LEVEL) +
                    ",\"threads\":" + std::to_string(ctx.threads) +
                    ",\"op\":" + JsonString(w->op()) + ",\"input\":" + JsonString(w->input()) +
                    ",\"sim_digest\":" + JsonString(digest) +
                    ",\"spans\":" + JsonString(spans_path) + ",\"timing\":" + detail +
                    ",\"attempted\":" + std::to_string(outcome.attempted) +
                    ",\"failed\":" + std::to_string(outcome.failed) + ",\"failures\":[";
  for (size_t i = 0; i < outcome.failures.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += JsonString(outcome.failures[i]);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += JsonString(metrics[i].name) + ":{\"value\":" + JsonNumber(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
