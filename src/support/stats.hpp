// Small statistics helpers used by the metrics and campaign layers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gtrix {

class CkptIo;

/// Exact sum of non-negative finite doubles: a fixed-point integer in units
/// of 2^-1074 (the smallest subnormal) wide enough for any finite double,
/// 2^1024, plus 64 bits of carry room, i.e. 2^64 additions. Integer
/// addition is associative, so the state -- and the once-rounded value() --
/// depend only on the multiset of values added, never on their order, and
/// floating-point contraction cannot reach them.
class ExactSum {
 public:
  /// Adds x exactly. x must be finite and >= 0 (GTRIX_CHECK).
  void add(double x);

  /// Adds `other`'s words, with carry: a multiset split across accumulators
  /// merges to the one-accumulator words exactly.
  void merge(const ExactSum& other);

  /// The sum rounded once, to nearest-even (+inf past the double range).
  double value() const noexcept;

  bool operator==(const ExactSum&) const = default;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): every word.
  void checkpoint(CkptIo& io);

 private:
  static constexpr std::size_t kWords = 34;    ///< 2098 value bits + 64 carry bits
  std::array<std::uint64_t, kWords> words_{};  ///< little-endian: words_[0] is 2^-1074
};

/// Streaming quantile sketch over non-negative values with a GUARANTEED
/// relative value error (DDSketch-style logarithmic binning): each
/// observation lands in the bin whose geometric midpoint is within
/// `relative_error` of it, so any reported quantile is within
/// `relative_error` of a true order statistic at that rank -- independent
/// of the distribution's shape. This is what the streaming metrics path
/// uses for skew-deviation percentiles: unlike the P-squared markers it
/// replaced, the bound holds for multimodal and point-mass distributions
/// too (the Fig. 5 oscillation workload wedges P2's p90 marker; see
/// docs/scaling.md).
/// Memory is a fixed ~2000-bin count array; fully deterministic.
class LogQuantileSketch {
 public:
  explicit LogQuantileSketch(double relative_error = 0.01);

  /// x must be >= 0; values below 1e-9 count as zero.
  void add(double x) noexcept;
  /// Adds `other`'s bins to this one's (same relative error; GTRIX_CHECK).
  /// Bin counts add exactly, so a split stream merges to the one-sketch bins.
  void merge(const LogQuantileSketch& other);
  std::size_t count() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  /// Value within relative_error of the rank-floor(q*(n-1)) order
  /// statistic; NaN while empty. q in [0, 1].
  double quantile(double q) const noexcept;

  std::uint64_t memory_bytes() const noexcept;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): bin counts and totals; the
  /// binning parameters are construction state and must already match.
  void checkpoint(CkptIo& io);

  bool operator==(const LogQuantileSketch&) const = default;

 private:
  double gamma_;
  double inv_log_gamma_;
  std::int32_t min_index_;
  std::vector<std::uint64_t> counts_;  ///< bin i covers gamma^(i-1)..gamma^i
  std::uint64_t zero_ = 0;
  std::uint64_t overflow_high_ = 0;    ///< beyond the top bin (kept at top value)
  std::uint64_t total_ = 0;
};

/// Quantile of a sample using linear interpolation between order statistics
/// (type-7, the numpy default). q in [0, 1]. The input span is copied.
double quantile(std::span<const double> xs, double q);

/// Same, but for input already sorted ascending; no copy, no sort. Callers
/// extracting several quantiles should sort once and use this.
double quantile_sorted(std::span<const double> sorted_xs, double q);

/// Convenience: median.
double median(std::span<const double> xs);

}  // namespace gtrix
