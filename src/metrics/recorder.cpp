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

void Recorder::configure(RecordingMode mode) {
  GTRIX_CHECK_MSG(pulse_count() == 0,
                  "recording mode must be configured before the first pulse");
  mode_ = mode;
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

void Recorder::set_lanes(std::span<const std::uint32_t> node_lane) {
  GTRIX_CHECK_MSG(pulse_count() == 0, "recording lanes must be set before the first pulse");
  GTRIX_CHECK_MSG(node_lane.size() == metas_.size(), "one lane per registered node");
  const std::size_t lanes = node_lane.empty() ? 1 : std::size_t{std::ranges::max(node_lane)} + 1;
  GTRIX_CHECK_MSG(lanes <= 65536, "recording lanes overflow the 16-bit lane id");
  lanes_.assign(lanes, Lane{});
  for (RecNodeId node = 0; node < metas_.size(); ++node) metas_[node].lane = node_lane[node];
}

Recorder::Lane Recorder::folded() const noexcept {
  Lane all;
  for (const Lane& lane : lanes_) {
    if (lane.min_sigma != kInvalidSigma) all.widen(lane.min_sigma, lane.max_sigma);
    all.pulses += lane.pulses;
  }
  return all;
}

void Recorder::set_corruption_anchor() {
  GTRIX_CHECK_MSG(pulse_count() == 0,
                  "the corruption anchor must be set before the first pulse");
  if (mode_ == RecordingMode::kFull) return;  // whole trace retained anyway
  anchored_ = true;
  resize_logs();  // anchored streaming keeps per-wave times
}

std::uint64_t Recorder::anchored_pulse_count() const {
  if (!anchored_) return 0;
  std::uint64_t retained = 0;
  for (const NodeLog& log : logs_) {
    for (const SimTime t : log.times) retained += std::isnan(t) ? 0 : 1;
  }
  return retained;
}

void Recorder::record_pulse(RecNodeId node, Sigma sigma, SimTime t) {
  GTRIX_CHECK_MSG(node < metas_.size(), "pulse from unregistered node");
  const std::uint32_t lane_id = metas_[node].lane;
  if (stream_ != nullptr) stream_->on_pulse(node, sigma, t, lane_id);
  Lane& lane = lanes_[lane_id];
  ++lane.pulses;
  lane.widen(sigma, sigma);
  // Without per-wave storage the streaming accumulators above are the whole
  // metrics path. (With a corruption anchor, streaming mode keeps the times
  // below: realignment and the post-recovery skew window read the trace.)
  if (!keeps_logs()) return;
  NodeLog& log = logs_[node];
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
}

void Recorder::record_iteration(RecNodeId node, const IterationRecord& record) {
  GTRIX_CHECK_MSG(node < metas_.size(), "iteration from unregistered node");
  if (mode_ == RecordingMode::kStreaming) return;
  logs_[node].iterations.push_back(record);
}

std::optional<SimTime> Recorder::pulse_time(RecNodeId node, Sigma sigma) const {
  if (node >= logs_.size()) return std::nullopt;
  const NodeLog& log = logs_[node];
  if (log.first_sigma != kInvalidSigma && sigma >= log.first_sigma) {
    const auto idx = static_cast<std::size_t>(sigma - log.first_sigma);
    if (idx < log.times.size() && !std::isnan(log.times[idx])) return log.times[idx];
  }
  return std::nullopt;
}

const std::vector<IterationRecord>& Recorder::iterations(RecNodeId node) const {
  return log_of(node).iterations;
}

Sigma Recorder::steady_from(RecNodeId node, Sigma warmup_pulses) const {
  if (node >= metas_.size()) return kInvalidSigma;
  const NodeLog& log = log_of(node);
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
  // Conservative widening of the global range (the node's lane folds in).
  lanes_[metas_[node].lane].widen(log.first_sigma,
                               log.first_sigma + static_cast<Sigma>(log.times.size()) - 1);
}

Sigma Recorder::last_recorded(RecNodeId node) const {
  if (node >= logs_.size()) return kInvalidSigma;
  const NodeLog& log = logs_[node];
  if (log.first_sigma == kInvalidSigma) return kInvalidSigma;
  for (std::size_t i = log.times.size(); i-- > 0;) {
    if (!std::isnan(log.times[i])) return log.first_sigma + static_cast<Sigma>(i);
  }
  return kInvalidSigma;
}

}  // namespace gtrix
