// Execution trace recording.
//
// Pulses are recorded per node against a wave index sigma (the paper's pulse
// index after the layer/position-dependent index shift, see DESIGN.md §2).
// Iteration records additionally capture the correction C_{v,l} and the
// local reception times that produced it, so the slow/fast/jump conditions
// (Definitions 4.3-4.5) and the basic lemma inequalities can be verified
// post-hoc by metrics/conditions.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace gtrix {

using RecNodeId = std::uint32_t;
using Sigma = std::int64_t;

class StreamingSkew;
class CkptIo;

/// How much of the execution trace the Recorder retains (docs/scaling.md).
///
///  * kFull      -- every pulse time and IterationRecord, forever. O(nodes x
///                  waves) memory; required for post-hoc conditions checks
///                  and skew over arbitrary windows, which replay the kept
///                  trace through StreamingSkew. The default.
///  * kStreaming -- no per-wave storage at all: every pulse is fed straight
///                  into the attached StreamingSkew, the same evaluator a
///                  replay uses, so skew extrema, counts and quantiles are
///                  bit-identical to full recording. O(nodes) memory. A
///                  corrupt cell (set_corruption_anchor) keeps every pulse
///                  time instead, as full recording does, but no iteration
///                  records.
enum class RecordingMode : std::uint8_t { kFull, kStreaming };

std::string_view to_string(RecordingMode mode);

struct IterationRecord {
  Sigma sigma = 0;
  double correction = 0.0;       ///< C_{v,l}
  double h_own = 0.0;            ///< local reception times as used
  double h_min = 0.0;
  double h_max = 0.0;
  bool own_missing = false;      ///< own-copy pulse never arrived in time
  bool max_missing = false;      ///< last neighbour pulse never arrived (h_max substituted)
  bool timeout_branch = false;   ///< Algorithm 3 first branch (H_max + k/2 + theta k)
  bool late = false;             ///< broadcast target had already passed (init/stabilization)
  SimTime pulse_time = 0.0;      ///< real broadcast time
  LocalTime pulse_local = 0.0;

  /// Which predecessor slots delivered a pulse this iteration and the wave
  /// index each carried (slot 0 = own copy). Used to verify Lemma B.1.
  static constexpr std::size_t kMaxSlots = 5;
  std::uint8_t slot_count = 0;
  std::array<Sigma, kMaxSlots> slot_sigma{};
  std::array<bool, kMaxSlots> slot_seen{};
};

struct NodeMeta {
  std::uint32_t layer = 0;
  std::uint32_t base = 0;        ///< base-graph node id (for grid nodes)
  std::uint32_t column = 0;
  bool faulty = false;
  bool is_source = false;
  std::uint16_t lane = 0;        ///< recording lane: the node's engine shard (set_lanes)
};

class Recorder {
 public:
  /// Selects the recording mode; must be called before any node records
  /// (the trace would otherwise be part-full, part-streamed). Attaching a
  /// StreamingSkew sink forwards every pulse to it regardless of mode.
  void configure(RecordingMode mode);
  RecordingMode mode() const noexcept { return mode_; }
  void set_stream(StreamingSkew* stream) noexcept { stream_ = stream; }

  /// Pre-sizes the node tables (avoids repeated growth when a World
  /// registers its whole grid up front).
  void reserve(std::uint32_t nodes) {
    metas_.reserve(nodes);
    if (keeps_logs()) logs_.reserve(nodes);
  }

  void register_node(RecNodeId node, NodeMeta meta);
  const NodeMeta& meta(RecNodeId node) const { return metas_.at(node); }
  std::uint32_t node_count() const noexcept { return static_cast<std::uint32_t>(metas_.size()); }

  /// One tally lane per shard, `node_lane[n]` being node n's: nodes then
  /// record concurrently, each writing only its own log and its shard's
  /// lane, which the accessors fold. Call after registering every node.
  void set_lanes(std::span<const std::uint32_t> node_lane);

  void record_pulse(RecNodeId node, Sigma sigma, SimTime t);
  void record_iteration(RecNodeId node, const IterationRecord& record);

  /// Corruption anchor (streaming): switches streaming mode onto the full
  /// pulse-times path, so post-run label realignment and the replay behind
  /// the post-recovery skew window and the recovery scan read the same
  /// pulse trace full recording would (docs/scaling.md, "Realignment at
  /// scale"). Iteration records stay unkept. Must be called before the
  /// first pulse; a no-op in full mode (the whole trace is retained
  /// anyway).
  void set_corruption_anchor();
  bool corruption_anchored() const noexcept { return anchored_; }

  /// Pulses a corrupt streaming cell retains: the recorded slots of every
  /// node log (telemetry; 0 under full recording and un-anchored
  /// streaming). Counted from the logs on each call.
  std::uint64_t anchored_pulse_count() const;

  /// Pulse time of `node` at wave `sigma`, if recorded.
  std::optional<SimTime> pulse_time(RecNodeId node, Sigma sigma) const;

  /// Wave of the (warmup_pulses + 1)-th recorded pulse of `node`
  /// (kInvalidSigma if the node recorded fewer pulses). Used to skip each
  /// node's startup transient, which spans different waves per node.
  Sigma steady_from(RecNodeId node, Sigma warmup_pulses) const;

  /// Wave of the last recorded pulse (kInvalidSigma if none).
  Sigma last_recorded(RecNodeId node) const;

  /// Shifts every wave label of `node` by `delta` (pulses and iteration
  /// records). Used by post-run label realignment after transient faults:
  /// the algorithm's behaviour is label-free, but majority bookkeeping can
  /// leave a recovered region with a consistent off-by-k label.
  void shift_node_sigma(RecNodeId node, Sigma delta);

  /// All iteration records of a node, in recording order (full mode only;
  /// streaming keeps none).
  const std::vector<IterationRecord>& iterations(RecNodeId node) const;

  /// Smallest / largest sigma recorded for any node (kInvalidSigma if none).
  Sigma min_sigma() const noexcept { return folded().min_sigma; }
  Sigma max_sigma() const noexcept { return folded().max_sigma; }

  std::uint64_t pulse_count() const noexcept { return folded().pulses; }

  static constexpr Sigma kInvalidSigma = std::numeric_limits<Sigma>::min();

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): sigma extrema, the pulse
  /// counter and every retained node log (pulse times as raw IEEE-754 bits
  /// so NaN "missing" markers survive), the lanes folded into one. Options,
  /// node metas and lanes are rebuilt by the restored World's construction
  /// and only size-validated here.
  void checkpoint(CkptIo& io);

 private:
  struct NodeLog {
    Sigma first_sigma = kInvalidSigma;
    std::vector<SimTime> times;  ///< indexed sigma - first_sigma; NaN = missing
    std::vector<IterationRecord> iterations;  ///< full mode only
  };

  /// Per-node logs exist only while per-wave data can be stored: in full
  /// mode, and in streaming mode once a corruption anchor is set.
  /// Un-anchored streaming keeps none -- the accumulators are its whole
  /// metrics path -- and every query answers as for an empty log.
  bool keeps_logs() const noexcept { return mode_ == RecordingMode::kFull || anchored_; }
  /// Sizes logs_ to the registered nodes, or frees it when none are kept.
  void resize_logs();
  /// The node's log, or an empty one when no logs are kept; throws
  /// std::out_of_range for an unregistered node.
  const NodeLog& log_of(RecNodeId node) const;

  /// One shard's share of the run-wide tallies, on its own cache line.
  struct alignas(64) Lane {
    Sigma min_sigma = kInvalidSigma;
    Sigma max_sigma = kInvalidSigma;
    std::uint64_t pulses = 0;
    /// Widens the sigma range to cover [lo, hi].
    void widen(Sigma lo, Sigma hi) noexcept {
      if (min_sigma == kInvalidSigma || lo < min_sigma) min_sigma = lo;
      if (hi > max_sigma) max_sigma = hi;  // kInvalidSigma is the least Sigma
    }
  };
  /// The lanes folded into one: sigma range and pulse count of the run.
  Lane folded() const noexcept;

  RecordingMode mode_ = RecordingMode::kFull;
  bool anchored_ = false;  ///< streaming keeps the pulse trace (corrupt cell)
  StreamingSkew* stream_ = nullptr;
  std::vector<NodeMeta> metas_;
  std::vector<NodeLog> logs_;
  std::vector<Lane> lanes_ = std::vector<Lane>(1);
};

}  // namespace gtrix
