// Baseline: naive TRIX pulse forwarding [LW20] on the same grid as the
// Gradient TRIX algorithm. Each node waits for the *second* copy of a pulse
// from its (up to three) predecessors and forwards Lambda - d local time
// later. Resilient to one faulty predecessor, but skews accumulate
// Theta(u D) across layers (paper Fig. 1 left) -- the pathology Gradient
// TRIX removes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "clock/hardware_clock.hpp"
#include "core/node_state.hpp"
#include "core/params.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace gtrix {

class TrixNaiveNode final : public PulseSink, public TimerTarget {
 public:
  /// Hot per-wave state lives in `soa` (the World arena's trix lanes). The
  /// node views `preds` (own copy first); both must outlive it.
  TrixNaiveNode(Simulator& sim, Network& net, NetNodeId self, HardwareClock clock,
                std::span<const NetNodeId> preds, Params params, Recorder* recorder,
                TrixSoa& soa);

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override;

  void on_timer(const Event& event) override;

  std::uint64_t pulses_forwarded() const noexcept { return forwarded_; }

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): per-wave arena registers,
  /// pending queue and forwarded counter.
  void checkpoint(CkptIo& io);

 private:
  enum TimerKind : std::uint32_t { kFire = 1 };

  static constexpr std::size_t kMaxSlots = 5;
  static constexpr std::size_t kPendingCap = 16;

  struct PendingMsg {
    NetNodeId from;
    LocalTime h_arrival;
    Sigma sigma;
  };

  int slot_of(NetNodeId from) const;
  void process(std::size_t slot, LocalTime h, Sigma sigma, SimTime now);
  void fire(SimTime now, LocalTime fire_local);
  void reset();
  Sigma estimate_sigma() const;

  // Arena accessors for the per-wave registers.
  std::uint8_t& armed() { return soa_->armed[i_]; }
  std::uint32_t& seen_count() { return soa_->seen_count[i_]; }
  TimerHandle& fire_timer() { return soa_->fire_timer[i_]; }
  std::uint8_t& seen(std::size_t slot) { return soa_->slot_seen[slot_base_ + slot]; }
  std::uint8_t seen(std::size_t slot) const { return soa_->slot_seen[slot_base_ + slot]; }
  Sigma& slot_sigma(std::size_t slot) { return soa_->slot_sigma[slot_base_ + slot]; }
  Sigma slot_sigma(std::size_t slot) const { return soa_->slot_sigma[slot_base_ + slot]; }

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  HardwareClock clock_;
  std::span<const NetNodeId> preds_;
  Params params_;
  Recorder* recorder_;

  TrixSoa* soa_;
  std::uint32_t i_;
  std::uint32_t slot_base_;

  std::vector<PendingMsg> pending_;  // no heap until a message is queued
  std::uint64_t forwarded_ = 0;
};

}  // namespace gtrix
