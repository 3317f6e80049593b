// Standalone faulty-node behaviours that do not reuse the correct
// algorithm's logic. Behaviours derived from the correct algorithm
// (static offset, split, jitter, mute-after) are realized in the runner by
// configuring a GradientTrixNode with a broadcast offset / send override.
#pragma once

#include <cstdint>

#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace gtrix {

class CkptIo;

/// A node whose control logic is dead but whose oscillator still runs: it
/// ignores every input and broadcasts at a fixed period. Its wave stamps
/// advance monotonically but bear no relation to real waves.
class FixedPeriodRogue final : public PulseSink, public TimerTarget {
 public:
  /// Emits at `first_at`, `first_at + period`, ... up to `max_pulses` pulses
  /// (the cap keeps the event queue finite).
  FixedPeriodRogue(Simulator& sim, Network& net, NetNodeId self, double period,
                   double first_at, std::int64_t max_pulses, Recorder* recorder);

  void start();

  void on_pulse(NetNodeId /*from*/, EdgeId /*edge*/, const Pulse& /*pulse*/,
                SimTime /*now*/) override {
    // Ignores all inputs.
  }

  void on_timer(const Event& event) override;

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): wave label + emit counter
  /// (the pending tick event lives in the queue snapshot).
  void checkpoint(CkptIo& io);

 private:
  enum TimerKind : std::uint32_t { kTick = 1 };

  void tick(SimTime now);

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  double period_;
  double first_at_;
  std::int64_t max_pulses_;
  Recorder* recorder_;
  Sigma sigma_ = 0;
  std::uint64_t emitted_ = 0;
};

/// Silently absorbs all pulses (crash fault). Useful where a null sink is
/// not convenient (keeps counters).
class CrashSink final : public PulseSink {
 public:
  void on_pulse(NetNodeId /*from*/, EdgeId /*edge*/, const Pulse& /*pulse*/,
                SimTime /*now*/) override {
    ++absorbed_;
  }

  std::uint64_t absorbed() const noexcept { return absorbed_; }

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): the absorbed counter.
  void checkpoint(CkptIo& io);

 private:
  std::uint64_t absorbed_ = 0;
};

}  // namespace gtrix
