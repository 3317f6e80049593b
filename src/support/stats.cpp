#include "support/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace gtrix {

void ExactSum::add(double x) {
  GTRIX_CHECK_MSG(x >= 0.0 && x <= std::numeric_limits<double>::max(),
                  "exact sum takes finite values >= 0");
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto exponent = static_cast<unsigned>(bits >> 52) & 0x7ffU;  // -0.0 adds 0
  const unsigned normal = exponent != 0 ? 1 : 0;
  const std::uint64_t mantissa =
      (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{normal} << 52);
  // x = mantissa * 2^(shift - 1074); a subnormal shares exponent 1's scale.
  const unsigned shift = exponent - normal;
  const std::size_t word = shift / 64;
  const unsigned offset = shift % 64;
  // The significand spans words `word` and `word + 1` (at most 31 and 32).
  // Both are written on every add, so no branch depends on the magnitude,
  // which varies from one scored pair to the next.
  const std::uint64_t lo = mantissa << offset;
  const std::uint64_t hi = (mantissa >> 1) >> (63 - offset);  // 0 when offset == 0
  words_[word] += lo;
  const std::uint64_t carry = hi + (words_[word] < lo ? 1 : 0);  // < 2^53: cannot wrap
  words_[word + 1] += carry;
  if (words_[word + 1] < carry) {
    for (std::size_t w = word + 2;; ++w) {
      GTRIX_CHECK_MSG(w < kWords, "exact sum overflowed its carry room");
      if (++words_[w] != 0) break;
    }
  }
}

void ExactSum::merge(const ExactSum& other) {
  std::uint64_t carry = 0;  // 0 or 1
  for (std::size_t w = 0; w < kWords; ++w) {
    const std::uint64_t with_carry = words_[w] + carry;
    carry = with_carry < carry ? 1 : 0;
    words_[w] = with_carry + other.words_[w];
    carry += words_[w] < with_carry ? 1 : 0;
  }
  GTRIX_CHECK_MSG(carry == 0, "exact sum overflowed its carry room");
}

double ExactSum::value() const noexcept {
  std::size_t top = kWords;
  while (top > 0 && words_[top - 1] == 0) --top;
  if (top == 0) return 0.0;
  const auto top_bit = static_cast<unsigned>(std::bit_width(words_[top - 1]) - 1);
  const std::uint64_t msb = (top - 1) * 64 + top_bit;
  // Below 2^53 units the integer is the double's bit pattern: a subnormal
  // below 2^52, exponent field 1 from there.
  if (msb <= 52) return std::bit_cast<double>(words_[0]);
  // Bits [msb - 52, msb] are the significand; the rest round it.
  const std::uint64_t low = msb - 52;
  const auto bits_at = [this](std::uint64_t pos) {  // 64 bits from bit `pos`
    const std::size_t word = pos / 64;
    const auto offset = static_cast<unsigned>(pos % 64);
    std::uint64_t v = words_[word] >> offset;
    if (offset != 0 && word + 1 < kWords) v |= words_[word + 1] << (64 - offset);
    return v;
  };
  std::uint64_t mantissa = bits_at(low) & ((std::uint64_t{1} << 53) - 1);
  const std::uint64_t round = low - 1;
  const bool half = ((words_[round / 64] >> (round % 64)) & 1) != 0;
  bool sticky = (words_[round / 64] & ((std::uint64_t{1} << (round % 64)) - 1)) != 0;
  for (std::size_t w = 0; !sticky && w < round / 64; ++w) sticky = words_[w] != 0;
  if (half && (sticky || (mantissa & 1) != 0)) ++mantissa;
  // Exponent field = low + 1; a rounding carry into bit 53 bumps it through
  // the addition.
  const std::uint64_t result = (low << 52) + mantissa;
  const std::uint64_t infinity = std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::infinity());
  return std::bit_cast<double>(std::min(result, infinity));
}

LogQuantileSketch::LogQuantileSketch(double relative_error) {
  const double e = std::clamp(relative_error, 1e-4, 0.5);
  gamma_ = (1.0 + e) / (1.0 - e);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  // Bin indices for the value range [1e-9, 1e12]: everything a simulated
  // time difference can plausibly be. Values below count as zero; values
  // above saturate into the top bin (counted separately for visibility).
  min_index_ = static_cast<std::int32_t>(std::floor(std::log(1e-9) * inv_log_gamma_));
  const auto max_index = static_cast<std::int32_t>(std::ceil(std::log(1e12) * inv_log_gamma_));
  counts_.assign(static_cast<std::size_t>(max_index - min_index_ + 1), 0);
}

void LogQuantileSketch::add(double x) noexcept {
  ++total_;
  if (!(x >= 1e-9)) {  // negatives/NaN defensively count as zero too
    ++zero_;
    return;
  }
  const auto index = static_cast<std::int32_t>(std::ceil(std::log(x) * inv_log_gamma_));
  if (index < min_index_) {
    ++zero_;
    return;
  }
  const auto offset = static_cast<std::size_t>(index - min_index_);
  if (offset >= counts_.size()) {
    ++overflow_high_;
    ++counts_.back();
    return;
  }
  ++counts_[offset];
}

void LogQuantileSketch::merge(const LogQuantileSketch& other) {
  GTRIX_CHECK_MSG(gamma_ == other.gamma_ && counts_.size() == other.counts_.size(),
                  "merged sketches must share their binning");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  zero_ += other.zero_;
  overflow_high_ += other.overflow_high_;
  total_ += other.total_;
}

double LogQuantileSketch::quantile(double q) const noexcept {
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Type-7 semantics: interpolate between the order statistics bracketing
  // position q*(n-1). Each statistic is read from its bin's geometric
  // midpoint (within relative_error of the true value), so the result
  // matches an exact type-7 quantile to ~relative_error even when adjacent
  // tail statistics sit far apart.
  const double pos = q * static_cast<double>(total_ - 1);
  const auto rank_lo = static_cast<std::uint64_t>(pos);
  const double frac = pos - static_cast<double>(rank_lo);
  const std::uint64_t rank_hi = rank_lo + (frac > 0.0 ? 1 : 0);

  const auto value_of_bin = [this](std::size_t i) {
    const double upper = std::exp(
        static_cast<double>(static_cast<std::int32_t>(i) + min_index_) / inv_log_gamma_);
    return upper * 2.0 / (1.0 + gamma_);
  };
  double lo_value = 0.0;
  bool lo_found = false;
  std::uint64_t cumulative = zero_;
  if (rank_lo < cumulative) {
    lo_value = 0.0;
    lo_found = true;
    if (rank_hi < cumulative) return 0.0;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (!lo_found && rank_lo < cumulative) {
      lo_value = value_of_bin(i);
      lo_found = true;
    }
    if (lo_found && rank_hi < cumulative) {
      const double hi_value = counts_[i] > 0 && rank_hi < cumulative ? value_of_bin(i) : lo_value;
      return lo_value + frac * (hi_value - lo_value);
    }
  }
  return lo_found ? lo_value : std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t LogQuantileSketch::memory_bytes() const noexcept {
  return counts_.size() * sizeof(std::uint64_t) + sizeof(*this);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

}  // namespace gtrix
