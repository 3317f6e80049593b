// Small statistics helpers used by the metrics and campaign layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gtrix {

class CkptIo;

/// Streaming summary accumulator (Welford's online algorithm for variance).
class Summary {
 public:
  void add(double x) noexcept;

  /// Merges another summary into this one (parallel Welford combine).
  void merge(const Summary& other) noexcept;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): all six accumulator words.
  void checkpoint(CkptIo& io);

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept;
  double variance() const noexcept;  ///< population variance
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
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
  std::size_t count() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  /// Value within relative_error of the rank-floor(q*(n-1)) order
  /// statistic; NaN while empty. q in [0, 1].
  double quantile(double q) const noexcept;

  std::uint64_t memory_bytes() const noexcept;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): bin counts and totals; the
  /// binning parameters are construction state and must already match.
  void checkpoint(CkptIo& io);

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
