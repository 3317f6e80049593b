// Layer-0 pulse generation (paper Appendix A).
//
// Two interchangeable realizations:
//  * ClockSource + Layer0LineNode: the paper's Algorithm 2. A perfect-period
//    source (which by definition provides "true" time, §2) feeds a line of
//    forwarding nodes; each node re-broadcasts Lambda - d local time after a
//    reception, overwriting its single stored timestamp on every reception,
//    which makes the scheme self-stabilizing (Lemma A.1).
//  * IdealEmitter: directly generates layer-0 pulses at k Lambda + offset_v,
//    matching the analysis precondition L_0 <= kappa/2 without the
//    position-staggering of the line scheme. Used by the theorem benches.
#pragma once

#include <cstdint>
#include <optional>

#include "clock/hardware_clock.hpp"
#include "core/node_state.hpp"
#include "core/params.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {

/// The clock reference driving layer 0. Generates pulse k at (k-1) Lambda
/// with wave stamp k-1; the stamp convention makes every line hop add one
/// (see DESIGN.md on sigma indexing). Pulses are chained one typed event at
/// a time (payload.i = k), so only one event is ever pending per source.
class ClockSource final : public TimerTarget {
 public:
  ClockSource(Simulator& sim, Network& net, NetNodeId self, Params params,
              std::int64_t pulse_count, Recorder* recorder);

  /// Schedules the first pulse; call once before running the simulation.
  void start();

  void on_timer(const Event& event) override;

  NetNodeId id() const noexcept { return self_; }

 private:
  enum TimerKind : std::uint32_t { kEmit = 1 };

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  Params params_;
  std::int64_t pulse_count_;
  Recorder* recorder_;
};

/// Algorithm 2: layer-0 line forwarding node. Hot state (the stored
/// timestamp, outgoing wave label and armed broadcast timer) lives in the
/// arena's layer-0 lanes.
class Layer0LineNode final : public PulseSink, public TimerTarget {
 public:
  Layer0LineNode(Simulator& sim, Network& net, NetNodeId self, HardwareClock clock,
                 NetNodeId line_pred, Params params, Recorder* recorder,
                 Layer0Soa& soa);

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override;

  void on_timer(const Event& event) override;

  /// Scrambles the stored timestamp / pending broadcast (Theorem 1.6 tests).
  void corrupt_state(Rng& rng);

  std::uint64_t pulses_forwarded() const noexcept { return forwarded_; }

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): Algorithm 2's register,
  /// wave label, armed timer and the forwarded counter. ClockSource and
  /// IdealEmitter carry no mutable state (their pulse chain lives in the
  /// event queue as payload), so only the line node has a codec.
  void checkpoint(CkptIo& io);

 private:
  enum TimerKind : std::uint32_t { kBroadcast = 1 };

  void broadcast(SimTime now);
  void arm_broadcast(LocalTime target);

  // Arena accessors (Algorithm 2's H register, wave label, armed timer).
  LocalTime& stored_h() { return soa_->stored_h[i_]; }
  Sigma& out_sigma() { return soa_->out_sigma[i_]; }
  TimerHandle& broadcast_timer() { return soa_->broadcast_timer[i_]; }

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  HardwareClock clock_;
  NetNodeId line_pred_;
  Params params_;
  Recorder* recorder_;

  Layer0Soa* soa_;
  std::uint32_t i_;
  std::uint64_t forwarded_ = 0;
};

/// Ideal layer-0 node: pulses at k Lambda + offset with stamp k.
class IdealEmitter final : public TimerTarget {
 public:
  IdealEmitter(Simulator& sim, Network& net, NetNodeId self, double offset,
               Params params, std::int64_t pulse_count, Recorder* recorder);

  void start();

  void on_timer(const Event& event) override;

  NetNodeId id() const noexcept { return self_; }

 private:
  enum TimerKind : std::uint32_t { kEmit = 1 };

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  double offset_;
  Params params_;
  std::int64_t pulse_count_;
  Recorder* recorder_;
};

}  // namespace gtrix
