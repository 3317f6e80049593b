// Baseline: Lynch-Welch-style trimmed-midpoint forwarding [WL88] adapted to
// the TRIX grid (paper Table 1, row "LW", transplanted from the complete
// graph onto the layered topology).
//
// Each node collects the reception times of ALL its predecessors' pulses,
// discards the `trim` earliest and `trim` latest, and fires Lambda - d
// local time after the midpoint of the remaining extremes. This is the
// classic approximate-agreement correction; unlike Gradient TRIX it has no
// gradient property and unlike naive TRIX it needs every predecessor to
// pulse (a silent predecessor stalls it), so the config layer rejects fault
// plans for it outright.
//
// The closed-form complete-graph simulation lives in baseline/lynch_welch.*;
// this node exists so the same algorithm family is addressable through the
// AlgorithmProvider registry on any topology.
#pragma once

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

class LynchWelchGridNode final : public PulseSink, public TimerTarget {
 public:
  /// `preds` lists the predecessors' network ids, own copy first (exactly
  /// Grid::predecessors); the node keeps a view, so it must outlive the
  /// node. `trim` receptions are discarded on each side; it is clamped so
  /// at least two receptions survive. Hot per-wave state lives in `soa`
  /// (the World arena's lw lanes).
  LynchWelchGridNode(Simulator& sim, Network& net, NetNodeId self, HardwareClock clock,
                     std::span<const NetNodeId> preds, Params params, std::uint32_t trim,
                     Recorder* recorder, LwSoa& soa);

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override;
  void on_timer(const Event& event) override;

  std::uint64_t pulses_forwarded() const noexcept { return forwarded_; }

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): per-wave arena registers,
  /// pending queue and forwarded counter.
  void checkpoint(CkptIo& io);

 private:
  enum TimerKind : std::uint32_t { kFire = 1 };

  static constexpr std::size_t kPendingCap = 32;

  struct PendingMsg {
    NetNodeId from;
    LocalTime h_arrival;
    Sigma sigma;
  };

  int slot_of(NetNodeId from) const;
  void process(std::size_t slot, LocalTime h, Sigma sigma);
  void fire(SimTime now);
  void reset();
  Sigma estimate_sigma() const;

  // Arena accessors for the per-wave registers.
  std::uint32_t& seen_count() { return soa_->seen_count[i_]; }
  std::uint32_t seen_count() const { return soa_->seen_count[i_]; }
  TimerHandle& fire_timer() { return soa_->fire_timer[i_]; }
  std::uint8_t& seen(std::size_t slot) { return soa_->slot_seen[slot_base_ + slot]; }
  std::uint8_t seen(std::size_t slot) const { return soa_->slot_seen[slot_base_ + slot]; }
  LocalTime& slot_arrival(std::size_t slot) { return soa_->slot_arrival[slot_base_ + slot]; }
  Sigma& slot_sigma(std::size_t slot) { return soa_->slot_sigma[slot_base_ + slot]; }
  Sigma slot_sigma(std::size_t slot) const { return soa_->slot_sigma[slot_base_ + slot]; }

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  HardwareClock clock_;
  std::span<const NetNodeId> preds_;
  Params params_;
  std::uint32_t trim_;
  Recorder* recorder_;

  LwSoa* soa_;
  std::uint32_t i_;
  std::uint32_t slot_base_;

  std::vector<PendingMsg> pending_;  // no heap until a message is queued
  std::uint64_t forwarded_ = 0;
};

}  // namespace gtrix
