// Strength-reduced division by a divisor fixed at run time.

#ifndef AFRAID_SIM_FAST_DIV_H_
#define AFRAID_SIM_FAST_DIV_H_

#include <cassert>
#include <cstdint>

namespace afraid {

// Unsigned division by a positive divisor fixed at construction,
// strength-reduced Granlund-Montgomery style: a power-of-two divisor becomes
// a shift, anything else a 128-bit multiply by floor(2^64/d)+1. With
// m = floor(2^64/d)+1 and e = m*d - 2^64 (0 < e <= d), mulhi(n, m) equals
// floor(n/d) exactly for every n with n*e < 2^64; dividends above that bound
// (never hit by byte offsets into an array) fall back to hardware divide.
// The array layouts' request hot loop (Split/StripeOfOffset/DataDisk per
// segment) and the disk model's address and rotation math run on these
// instead of div/mod against runtime-variable operands.
class FastDiv64 {
 public:
  FastDiv64() : FastDiv64(1) {}
  explicit FastDiv64(int64_t divisor) {
    assert(divisor > 0);
    d_ = static_cast<uint64_t>(divisor);
    shift_ = 0;
    while ((uint64_t{1} << shift_) < d_) {
      ++shift_;
    }
    if ((uint64_t{1} << shift_) == d_) {  // Power of two (including 1).
      magic_ = 0;
      limit_ = ~uint64_t{0};
      return;
    }
    magic_ = ~uint64_t{0} / d_ + 1;                  // floor(2^64/d) + 1.
    const uint64_t excess = magic_ * d_;             // e = m*d mod 2^64.
    limit_ = ~uint64_t{0} / excess;                  // n <= limit_ => n*e < 2^64.
  }

  int64_t divisor() const { return static_cast<int64_t>(d_); }

  // Requires n >= 0.
  int64_t Div(int64_t n) const {
    assert(n >= 0);
    const auto u = static_cast<uint64_t>(n);
    if (magic_ == 0) {
      return static_cast<int64_t>(u >> shift_);
    }
    if (u > limit_) {
      return static_cast<int64_t>(u / d_);
    }
    return static_cast<int64_t>(static_cast<uint64_t>(
        (static_cast<unsigned __int128>(u) * magic_) >> 64));
  }

  int64_t Mod(int64_t n) const { return n - Div(n) * static_cast<int64_t>(d_); }

 private:
  uint64_t d_ = 1;
  uint64_t magic_ = 0;   // 0 marks the shift path.
  uint64_t limit_ = 0;   // Largest exact dividend for the multiply path.
  int32_t shift_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_SIM_FAST_DIV_H_
