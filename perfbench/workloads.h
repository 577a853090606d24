// The benchmark's three workloads. Each one generates its inputs from the
// seed in Setup(), runs its timed calls into the library's public entry
// points in Pass(), checks their outputs, and -- in the traced run only --
// measures the per-layer metrics of the modules it drives in Layers().

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunContext {
  uint64_t seed = 1;
  int32_t threads = 1;  // Workers for fleet and campaign runs.
  std::string out_dir;  // Recorded traces and span files.
  SpanLog* spans = nullptr;
  Outcome* outcome = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // What one attempted operation is, and the fixed input size per pass.
  virtual const char* op() const = 0;
  virtual std::string input() const = 0;

  // (Re)generates every input from ctx.seed. Everything it does counts as
  // set-up time.
  virtual void Setup() = 0;
  // The timed calls, once over the inputs; checks outputs into ctx.outcome.
  virtual PassStats Pass() = 0;
  // Per-layer measurements for the traced run.
  virtual void Layers(std::vector<Metric>* out) = 0;
};

std::unique_ptr<Workload> MakeReplay(const RunContext& ctx);
std::unique_ptr<Workload> MakeFleetRebuild(const RunContext& ctx);
std::unique_ptr<Workload> MakeMcCampaign(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
