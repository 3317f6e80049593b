#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gtrix {

void Summary::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Summary::merge(const Summary& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double combined = n1 + n2;
  mean_ += delta * n2 / combined;
  m2_ += other.m2_ + delta * delta * n1 * n2 / combined;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

double Summary::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double Summary::variance() const noexcept {
  return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_);
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double Summary::min() const noexcept {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double Summary::max() const noexcept {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
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
