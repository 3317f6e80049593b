// The Gradient TRIX pulse-forwarding node: the paper's core contribution.
//
// Implements, per configuration:
//  * Algorithm 1 (simplified; §3.1) -- waits for all three reception times,
//    valid only when all predecessors are correct and sending,
//  * Algorithm 3 (full; Appendix B) -- tolerates a silent or misbehaving
//    predecessor via the timeout condition
//        H_min < inf  and  H(t) >= min{ H_max + kappa/2 + theta kappa,
//                                       2 H_own - H_min + 2 kappa },
//  * Algorithm 4 (self-stabilizing; Appendix C) -- adds guards on every
//    waiting statement. Its watchdog, which clears half-filled state, runs
//    in every mode.
//
// In each iteration the node timestamps its predecessors' pulses with its
// hardware clock, computes the correction C_{v,l} (see core/correction.hpp)
// and broadcasts at local time H_own + Lambda - d - C_{v,l}.
//
// Its three timers (the until-loop's deadline, the broadcast and the
// watchdog) are deadlines, not queue events: each holds the (time, seq) key
// its event would have had (Simulator::reserve), and one queue entry per
// node carries the earliest armed one. Re-arming the until-timer on every
// reception moves that entry in place, and disarming a deadline touches the
// queue only when it held the entry and nothing else is armed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "clock/hardware_clock.hpp"
#include "core/correction.hpp"
#include "core/node_state.hpp"
#include "core/params.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {

class GradientTrixNode final : public PulseSink, public TimerTarget {
 public:
  /// `preds` lists the network ids of the predecessors, own copy first --
  /// exactly Grid::predecessors mapped to network ids. The node keeps a
  /// view, so the list (in World: the Grid) must outlive the node, as must
  /// `soa` (the World-owned NodeArena's gradient lanes, see
  /// core/node_state.hpp), where the hot per-iteration state and the
  /// shared config live. `broadcast_offset` is a static shift of the
  /// broadcast time (local units): zero for correct nodes, set by fault
  /// wrappers to model static delay faults. The clock is owned. Requires
  /// 2 * config.trim < the neighbour count.
  GradientTrixNode(Simulator& sim, Network& net, NetNodeId self, HardwareClock clock,
                   std::span<const NetNodeId> preds, const GradientNodeConfig& config,
                   double broadcast_offset, Recorder* recorder, GradientSoa& soa);

  GradientTrixNode(const GradientTrixNode&) = delete;
  GradientTrixNode& operator=(const GradientTrixNode&) = delete;

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override;

  /// Typed-event dispatch for the node's one queue entry, whose kind names
  /// the deadline it carried (until / broadcast / watchdog).
  void on_timer(const Event& event) override;

  /// Replaces the default broadcast with a custom emitter (fault wrappers).
  /// Arguments: the pulse the node would have broadcast, and the time. Held
  /// behind a pointer, so only fault-wrapped nodes pay for the function.
  using SendOverride = std::function<void(const Pulse&, SimTime)>;
  void set_send_override(SendOverride fn) {
    send_override_ = std::make_unique<SendOverride>(std::move(fn));
  }

  /// Randomizes all mutable state (phase, reception times, flags, timers)
  /// to model a transient fault / arbitrary initial state (Theorem 1.6).
  void corrupt_state(Rng& rng);

  const HardwareClock& clock() const noexcept { return clock_; }
  NetNodeId id() const noexcept { return self_; }

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): the arena registers
  /// (phase, reception times, slot lanes), the deadlines and the entry's
  /// handle (it stays valid because the queue snapshot preserves slot
  /// generations), the pending-message queue, the staged wave, the
  /// has-broadcast bit and, under full recording, the staged iteration
  /// record. The counters are the arena's (GradientTally).
  void checkpoint(CkptIo& io);

 private:
  enum class Phase { kCollect, kWaitBroadcast };

  /// Entry kinds: the deadline the entry carries. kUntilTimer /
  /// kBroadcastTimer carry the local-time threshold in payload.f so the
  /// fire path compares the exact floating-point value that defined the
  /// deadline.
  enum TimerKind : std::uint32_t { kUntilTimer = 1, kBroadcastTimer = 2, kWatchdogTimer = 3 };

  static constexpr std::size_t kMaxSlots = IterationRecord::kMaxSlots;
  static constexpr std::size_t kPendingCap = 16;

  struct PendingMsg {
    NetNodeId from;
    LocalTime h_arrival;
    Sigma sigma;
  };

  int slot_of(NetNodeId from) const;
  void process_message(std::size_t slot, LocalTime h, Sigma sigma, SimTime now);
  void update_until(SimTime now, LocalTime now_local);
  void arm_until_timer(LocalTime threshold);
  void arm_watchdog();
  /// Arms `deadline` at real time t with the key at() would give an event
  /// now.
  void arm(EventKey& deadline, SimTime t);
  /// Disarms `deadline`, counting a timer cancellation when it was armed.
  void disarm(EventKey& deadline);
  /// Makes the queue entry carry the earliest armed deadline, or drops it
  /// when none is armed. A no-op unless a deadline changed since the last
  /// sync; every entry point (on_pulse, on_timer, corrupt_state) ends with
  /// it, so the queue is in sync whenever another target runs.
  void sync_entry();
  /// True when the entry carries the earliest armed deadline, or there is
  /// no entry and nothing is armed: what sync_entry establishes.
  bool entry_in_sync() const;
  void exit_collect(SimTime now, LocalTime now_local);
  void finish_iteration_without_pulse(SimTime now);
  /// This iteration's record, reset, in the arena's staged lane; null
  /// unless the recorder keeps iteration records (full recording).
  IterationRecord* stage_record();
  void schedule_broadcast(SimTime now, LocalTime target, Sigma sigma);
  void do_broadcast(SimTime now, LocalTime fire_local);
  void reset_iteration_state();
  void drain_pending(SimTime now);
  Sigma estimate_sigma() const;
  std::pair<LocalTime, LocalTime> thresholds() const;  ///< (thr1, thr2); inf if unset

  // Hot-state accessors into the SoA arena (Algorithm 3 registers). The
  // arena index and slot-lane base are resolved once at construction.
  Phase phase() const { return static_cast<Phase>(soa_->phase[i_]); }
  void set_phase(Phase p) { soa_->phase[i_] = static_cast<std::uint8_t>(p); }
  LocalTime& h_own() { return soa_->h_own[i_]; }
  LocalTime h_own() const { return soa_->h_own[i_]; }
  LocalTime& h_min() { return soa_->h_min[i_]; }
  LocalTime h_min() const { return soa_->h_min[i_]; }
  LocalTime& h_max() { return soa_->h_max[i_]; }
  LocalTime h_max() const { return soa_->h_max[i_]; }
  Sigma& last_sigma() { return soa_->last_sigma[i_]; }
  Sigma last_sigma() const { return soa_->last_sigma[i_]; }
  const GradientNodeConfig& config() const { return soa_->config; }
  GradientTally& tally() { return soa_->tally; }
  std::uint8_t& r(std::size_t slot) { return soa_->slot_r[slot_base_ + slot]; }
  std::uint8_t r(std::size_t slot) const { return soa_->slot_r[slot_base_ + slot]; }
  std::uint8_t& seen(std::size_t slot) { return soa_->slot_seen[slot_base_ + slot]; }
  std::uint8_t seen(std::size_t slot) const { return soa_->slot_seen[slot_base_ + slot]; }
  Sigma& slot_sigma(std::size_t slot) { return soa_->slot_sigma[slot_base_ + slot]; }
  Sigma slot_sigma(std::size_t slot) const { return soa_->slot_sigma[slot_base_ + slot]; }

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  bool entry_stale_ = false;   // a deadline changed since the last sync_entry
  bool has_broadcast_ = false; // broadcast at least once (estimate_sigma)
  bool keeps_record_;          // the recorder keeps iteration records (full)
  HardwareClock clock_;
  std::span<const NetNodeId> preds_;  // slot order; [0] is the own copy
  double broadcast_offset_;
  Recorder* recorder_;  // non-owning; may be null
  std::unique_ptr<SendOverride> send_override_;  // null unless fault-wrapped

  // SoA residency: the arena's gradient lanes and shared config.
  GradientSoa* soa_;
  std::uint32_t i_;          // arena index
  std::uint32_t slot_base_;  // first entry of this node's slot lanes

  // The timers, as deadlines keyed like their events (disarmed: the
  // default EventKey). The phase deadline is the until-timer while the
  // node collects and the broadcast while it waits; the two are never
  // armed together. `entry_` is the one queue entry, pending exactly while
  // a deadline is armed (between syncs).
  EventKey phase_deadline_;
  LocalTime phase_threshold_ = 0.0;  // the phase deadline's local time (payload.f)
  EventKey watchdog_deadline_;
  TimerHandle entry_;

  // Cold per-node state: touched once per iteration (or less), kept out of
  // the hot lanes on purpose. The pending queue is empty in steady state,
  // so it sits behind a pointer that stays null until a message is queued;
  // its cap of kPendingCap entries keeps front pops cheap. The staged wave
  // is what the broadcast needs of the iteration's decision; the whole
  // record is staged in the arena, and only under full recording.
  std::unique_ptr<std::vector<PendingMsg>> pending_;
  Sigma staged_sigma_ = 0;  // set when a broadcast is scheduled, sent at fire
};

}  // namespace gtrix
