// Shared pieces of the end-to-end benchmark: host timing, the span log of
// the traced run, the simulated-output digest and the per-run outcome.
//
// Everything here lives outside the library: spans are recorded around the
// benchmark's own calls into public entry points, never inside src/.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median and linear-interpolated percentile of a sample (copied, sorted).
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double p);
double GeoMean(const std::vector<double>& values);

// Spans recorded in memory around every public call the benchmark makes
// (name, start, end, parent), written out once at exit. Disabled logs
// record nothing, so the untraced run pays only a branch per call.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t index_ = -1;
  };

  explicit SpanLog(bool enabled);

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Chrome trace-event JSON ("X" events; args carry the parent index).
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  int64_t NowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int32_t open_ = -1;  // Innermost open span.
};

// FNV-1a over every simulated report field, in a fixed order. Host timings
// never enter it, so a change that only moves host speed keeps it.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(double value);
  void Add(uint64_t value);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// Operations attempted and failed in one process, plus why each failure
// happened (printed, so a failed check names itself).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(uint64_t ops, std::string why);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run of the workload's timed calls.
struct PassStats {
  uint64_t ops = 0;  // Client requests or lifetimes attempted.
  std::string digest;
};

// Peak resident set of this process, in MB.
double PeakRssMb();

// Seeds every generated input of a run from the --seed argument.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
