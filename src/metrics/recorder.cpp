#include "metrics/recorder.hpp"

#include <algorithm>
#include <cmath>

#include "metrics/streaming.hpp"
#include "support/check.hpp"

namespace gtrix {

std::string_view to_string(RecordingMode mode) {
  switch (mode) {
    case RecordingMode::kFull: return "full";
    case RecordingMode::kStreaming: return "streaming";
  }
  return "?";
}

void Recorder::configure(const RecordingOptions& options) {
  GTRIX_CHECK_MSG(pulses_recorded_ == 0,
                  "recording mode must be configured before the first pulse");
  GTRIX_CHECK_MSG(options.window >= 2, "recording window must be >= 2 waves");
  options_ = options;
  resize_logs();
}

void Recorder::resize_logs() {
  if (keeps_logs()) {
    logs_.resize(metas_.size());
  } else {
    logs_ = {};
  }
}

const Recorder::NodeLog& Recorder::log_of(RecNodeId node) const {
  (void)metas_.at(node);
  static const NodeLog kEmpty;
  return node < logs_.size() ? logs_[node] : kEmpty;
}

void Recorder::register_node(RecNodeId node, NodeMeta meta) {
  // node + 1 must not wrap: the table is indexed by the id, so the largest
  // registrable id is 2^32 - 2 (the World layer additionally checks the
  // layers x base-nodes product with the shape in the message).
  GTRIX_CHECK_MSG(node < std::numeric_limits<std::uint32_t>::max(),
                  "recorder node id overflows the uint32 id space");
  if (node >= metas_.size()) {
    metas_.resize(node + 1);
    if (keeps_logs()) logs_.resize(node + 1);
  }
  metas_[node] = meta;
}

void Recorder::set_corruption_anchor(Sigma wave) {
  GTRIX_CHECK_MSG(pulses_recorded_ == 0,
                  "the corruption anchor must be set before the first pulse");
  if (options_.mode == RecordingMode::kFull) return;  // whole trace retained anyway
  anchor_ = wave;
  box_lo_ = wave - options_.window;
  box_hi_ = wave + options_.window;
  resize_logs();  // anchored streaming keeps per-wave times
}

void Recorder::note_early(NodeLog& log, Sigma sigma) {
  // Sorted set of the node's smallest distinct recorded waves, capped at
  // kEarlyCap: a complete answer for steady_from(warmup) at any warmup the
  // harness uses, kept O(1) per node while the rolling window forgets the
  // run's beginning.
  auto it = std::lower_bound(log.early.begin(), log.early.end(), sigma);
  if (it != log.early.end() && *it == sigma) return;
  if (log.early.size() < kEarlyCap) {
    log.early.insert(it, sigma);
  } else if (sigma < log.early.back()) {
    log.early.pop_back();
    log.early.insert(it, sigma);
  }
}

void Recorder::pin_pulse(NodeLog& log, Sigma sigma, SimTime t) {
  if (log.pin_first == kInvalidSigma) {
    log.pin_first = box_lo_;
    log.pin_times.assign(static_cast<std::size_t>(box_hi_ - box_lo_ + 1),
                         std::numeric_limits<double>::quiet_NaN());
  }
  log.pin_times[static_cast<std::size_t>(sigma - log.pin_first)] = t;
  ++pinned_pulses_;
}

void Recorder::record_pulse(RecNodeId node, Sigma sigma, SimTime t) {
  GTRIX_CHECK_MSG(node < metas_.size(), "pulse from unregistered node");
  if (stream_ != nullptr) stream_->on_pulse(node, sigma, t);
  if (!keeps_logs()) {
    // No per-wave storage: the streaming accumulators above are the whole
    // metrics path. Global counters still track the run's envelope. (With a
    // corruption anchor, streaming mode takes the rolling times path below
    // instead: realignment and the post-recovery skew window need the
    // retained waves.)
    ++pulses_recorded_;
    if (min_sigma_ == kInvalidSigma || sigma < min_sigma_) min_sigma_ = sigma;
    if (max_sigma_ == kInvalidSigma || sigma > max_sigma_) max_sigma_ = sigma;
    return;
  }
  NodeLog& log = logs_[node];
  if (options_.mode != RecordingMode::kFull) note_early(log, sigma);
  if (log.first_sigma == kInvalidSigma) {
    log.first_sigma = sigma;
  }
  if (sigma < log.first_sigma) {
    // Prepend capacity (rare: only when a node's sigma estimate jitters
    // backwards during stabilization).
    const auto shift = static_cast<std::size_t>(log.first_sigma - sigma);
    log.times.insert(log.times.begin(), shift, std::numeric_limits<double>::quiet_NaN());
    log.first_sigma = sigma;
  }
  const auto idx = static_cast<std::size_t>(sigma - log.first_sigma);
  if (idx >= log.times.size()) {
    log.times.resize(idx + 1, std::numeric_limits<double>::quiet_NaN());
  }
  log.times[idx] = t;
  ++pulses_recorded_;
  if (min_sigma_ == kInvalidSigma || sigma < min_sigma_) min_sigma_ = sigma;
  if (max_sigma_ == kInvalidSigma || sigma > max_sigma_) max_sigma_ = sigma;
  if (options_.mode != RecordingMode::kFull) evict_window(log);
}

void Recorder::evict_window(NodeLog& log) {
  // Keep the last `window` wave slots per node. Eviction is from the front
  // (one slot per recorded pulse in steady state, so the erase is O(window)
  // on a dense 8-byte array -- a small constant traded for the bounded
  // footprint). Slots leaving the rolling window land in the pinned box if
  // their wave is inside it; everything else evicted is recorded as LOST per
  // node, so later queries can refuse (covers() == false) instead of
  // silently diverging from full recording.
  const auto window = static_cast<std::size_t>(options_.window);
  if (log.times.size() <= window) return;
  const auto drop = log.times.size() - window;
  for (std::size_t i = 0; i < drop; ++i) {
    const double t = log.times[i];
    if (std::isnan(t)) continue;  // never recorded: full mode has no value either
    const Sigma s = log.first_sigma + static_cast<Sigma>(i);
    if (s >= box_lo_ && s <= box_hi_) {
      pin_pulse(log, s, t);
    } else if (log.lost_lo == kInvalidSigma) {
      log.lost_lo = log.lost_hi = s;
    } else {
      log.lost_lo = std::min(log.lost_lo, s);
      log.lost_hi = std::max(log.lost_hi, s);
    }
  }
  log.times.erase(log.times.begin(), log.times.begin() + static_cast<std::ptrdiff_t>(drop));
  log.first_sigma += static_cast<Sigma>(drop);
}

void Recorder::record_iteration(RecNodeId node, const IterationRecord& record) {
  GTRIX_CHECK_MSG(node < metas_.size(), "iteration from unregistered node");
  if (options_.mode == RecordingMode::kStreaming) return;
  logs_[node].iterations.push_back(record);
}

std::optional<SimTime> Recorder::pulse_time(RecNodeId node, Sigma sigma) const {
  if (node >= logs_.size()) return std::nullopt;
  const NodeLog& log = logs_[node];
  if (log.first_sigma != kInvalidSigma && sigma >= log.first_sigma) {
    const auto idx = static_cast<std::size_t>(sigma - log.first_sigma);
    if (idx < log.times.size() && !std::isnan(log.times[idx])) return log.times[idx];
  }
  // Pinned corruption box: slots the rolling window evicted but the anchor
  // retained. The rolling value wins when both exist (it is the newer write,
  // mirroring full recording's in-place overwrite).
  if (log.pin_first != kInvalidSigma && sigma >= log.pin_first) {
    const auto idx = static_cast<std::size_t>(sigma - log.pin_first);
    if (idx < log.pin_times.size() && !std::isnan(log.pin_times[idx])) {
      return log.pin_times[idx];
    }
  }
  return std::nullopt;
}

const std::vector<IterationRecord>& Recorder::iterations(RecNodeId node) const {
  return log_of(node).iterations;
}

Sigma Recorder::steady_from(RecNodeId node, Sigma warmup_pulses) const {
  if (node >= metas_.size()) return kInvalidSigma;
  const NodeLog& log = log_of(node);
  if (options_.mode != RecordingMode::kFull) {
    // The rolling window forgets the run's beginning, so the answer comes
    // from the capped early-wave set, which is complete for any warmup the
    // harness uses (GTRIX_CHECK below, never a wrong wave).
    GTRIX_CHECK_MSG(warmup_pulses >= 0, "warmup must be non-negative");
    if (static_cast<std::size_t>(warmup_pulses) < log.early.size()) {
      return log.early[static_cast<std::size_t>(warmup_pulses)];
    }
    GTRIX_CHECK_MSG(log.early.size() < kEarlyCap,
                    "steady_from warmup exceeds the recorder's early-wave capacity "
                    "in a memory-bounded recording mode");
    return kInvalidSigma;
  }
  if (log.first_sigma == kInvalidSigma) return kInvalidSigma;
  Sigma skipped = 0;
  for (std::size_t i = 0; i < log.times.size(); ++i) {
    if (std::isnan(log.times[i])) continue;
    if (skipped == warmup_pulses) return log.first_sigma + static_cast<Sigma>(i);
    ++skipped;
  }
  return kInvalidSigma;
}

void Recorder::shift_node_sigma(RecNodeId node, Sigma delta) {
  if (node >= logs_.size() || delta == 0) return;
  NodeLog& log = logs_[node];
  if (log.first_sigma == kInvalidSigma) return;
  log.first_sigma += delta;
  for (IterationRecord& it : log.iterations) it.sigma += delta;
  if (log.pin_first != kInvalidSigma) log.pin_first += delta;
  if (log.lost_lo != kInvalidSigma) {
    log.lost_lo += delta;
    log.lost_hi += delta;
  }
  for (Sigma& s : log.early) s += delta;
  if (min_sigma_ != kInvalidSigma) {
    // Conservative widening of the global range.
    min_sigma_ = std::min(min_sigma_, log.first_sigma);
    if (log.pin_first != kInvalidSigma) min_sigma_ = std::min(min_sigma_, log.pin_first);
    max_sigma_ = std::max(max_sigma_, log.first_sigma +
                                          static_cast<Sigma>(log.times.size()) - 1);
  }
}

Sigma Recorder::last_recorded(RecNodeId node) const {
  if (node >= logs_.size()) return kInvalidSigma;
  const NodeLog& log = logs_[node];
  if (log.first_sigma == kInvalidSigma) return kInvalidSigma;
  for (std::size_t i = log.times.size(); i-- > 0;) {
    if (!std::isnan(log.times[i])) return log.first_sigma + static_cast<Sigma>(i);
  }
  // Rolling window empty of data (possible only right after a backward
  // prepend evicted everything): fall back to the pinned box.
  for (std::size_t i = log.pin_times.size(); i-- > 0;) {
    if (!std::isnan(log.pin_times[i])) return log.pin_first + static_cast<Sigma>(i);
  }
  return kInvalidSigma;
}

bool Recorder::covers(RecNodeId node, Sigma lo, Sigma hi) const {
  if (node >= logs_.size()) return true;
  const NodeLog& log = logs_[node];
  if (log.lost_lo == kInvalidSigma) return true;
  return hi < log.lost_lo || lo > log.lost_hi;
}

std::pair<Sigma, Sigma> Recorder::lost_range(RecNodeId node) const {
  const NodeLog& log = log_of(node);
  return {log.lost_lo, log.lost_hi};
}

}  // namespace gtrix
