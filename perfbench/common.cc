#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "sim/random.h"

namespace perfbench {

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return values.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(values.size()));
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr || !log_->enabled_) {
    return;
  }
  index_ = static_cast<int32_t>(log_->spans_.size());
  log_->spans_.push_back(Span{std::move(name), log_->NowNs(), 0, log_->open_});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  Span& span = log_->spans_[static_cast<size_t>(index_)];
  span.end_ns = log_->NowNs();
  log_->open_ = span.parent;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void Digest::Add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(double value) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(bytes));
  Add(std::string_view(bytes, sizeof(bytes)));
}

void Digest::Add(uint64_t value) {
  char bytes[sizeof(uint64_t)];
  std::memcpy(bytes, &value, sizeof(bytes));
  Add(std::string_view(bytes, sizeof(bytes)));
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Outcome::Fail(uint64_t ops, std::string why) {
  failed += ops;
  failures.push_back(std::move(why));
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so a child of a large launcher would report the launcher's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return afraid::DeriveStreamSeed(seed, stream);
}

}  // namespace perfbench
