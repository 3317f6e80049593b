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

struct GradientNodeConfig {
  Params params;

  /// Algorithm 1 instead of Algorithm 3. Requires fault-free predecessors.
  bool simplified = false;

  /// Algorithm 4 wait-statement guards (Appendix C).
  bool self_stabilizing = false;

  /// Jump condition (Definition 4.5). Disabling reproduces Figure 5.
  bool jump_condition = true;

  /// Estimate \bar{L} of the steady-state local skew, used by the
  /// self-stabilization watchdog interval theta (2 \bar{L} + u). Callers
  /// typically pass params.thm11_bound(D).
  double skew_bound_hint = 0.0;

  /// Static shift applied to the broadcast time (local units). Zero for
  /// correct nodes; fault wrappers use it to model static delay faults.
  double broadcast_offset = 0.0;

  /// EXTENSION (paper "Bigger Picture" item 3): trimmed aggregation.
  /// H_min is the (trim+1)-th earliest neighbour reception and H_max the
  /// (deg - trim)-th, so `trim` outliers on each side cannot influence the
  /// correction at all. trim = 0 is the paper's algorithm. With trim = 1 on
  /// an in-degree-5 grid (cycle_wide reach 2), a node withstands a faulty
  /// own copy plus one arbitrary neighbour, or two neighbours pulling in
  /// opposite directions. Requires 2 * trim < neighbour count.
  std::uint32_t trim = 0;
};

class GradientTrixNode final : public PulseSink, public TimerTarget {
 public:
  /// `preds` lists the network ids of the predecessors, own copy first --
  /// exactly Grid::predecessors mapped to network ids. The node keeps a
  /// view, so the list (in World: the Grid) must outlive the node, as must
  /// `soa` (the World-owned NodeArena's gradient lanes, see
  /// core/node_state.hpp), where the hot per-iteration state lives. The
  /// clock is owned. Requires 2 * config.trim < the neighbour count.
  GradientTrixNode(Simulator& sim, Network& net, NetNodeId self, HardwareClock clock,
                   std::span<const NetNodeId> preds, GradientNodeConfig config,
                   Recorder* recorder, GradientSoa& soa);

  GradientTrixNode(const GradientTrixNode&) = delete;
  GradientTrixNode& operator=(const GradientTrixNode&) = delete;

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override;

  /// Typed-event dispatch for the node's three timers (until / broadcast /
  /// watchdog). Each is tracked by a cancellable TimerHandle; firing or
  /// cancelling invalidates the handle, so no generation bookkeeping is
  /// needed at this level.
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

  struct Counters {
    std::uint64_t iterations = 0;         ///< completed (broadcast) iterations
    std::uint64_t late_broadcasts = 0;    ///< broadcast target already passed
    std::uint64_t guard_aborts = 0;       ///< Alg 4 wait-guard trips (no broadcast)
    std::uint64_t watchdog_resets = 0;    ///< Alg 4 partial-state clears
    std::uint64_t duplicate_drops = 0;    ///< repeated pulse within an iteration
    std::uint64_t pending_overflow = 0;   ///< pending queue cap exceeded
    std::uint64_t timeout_branches = 0;   ///< Alg 3 first branch taken
    std::uint64_t late_absorbed = 0;      ///< current-wave pulses consumed mid-wait
  };
  const Counters& counters() const noexcept { return counters_; }

  const HardwareClock& clock() const noexcept { return clock_; }
  NetNodeId id() const noexcept { return self_; }

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp): the arena registers
  /// (phase, reception times, slot lanes, timer handles -- handles stay
  /// valid because the queue snapshot preserves slot generations), the
  /// pending-message queue, the staged iteration record and the counters.
  void checkpoint(CkptIo& io);

 private:
  enum class Phase { kCollect, kWaitBroadcast };

  /// Timer kinds. kUntilTimer / kBroadcastTimer carry the local-time
  /// threshold in payload.f so the fire path compares the exact floating-
  /// point value that defined the deadline.
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
  void exit_collect(SimTime now, LocalTime now_local);
  void finish_iteration_without_pulse(SimTime now);
  void schedule_broadcast(SimTime now, LocalTime target, IterationRecord record);
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
  TimerHandle& until_timer() { return soa_->until_timer[i_]; }
  TimerHandle& broadcast_timer() { return soa_->broadcast_timer[i_]; }
  TimerHandle& watchdog_timer() { return soa_->watchdog_timer[i_]; }
  std::uint8_t& r(std::size_t slot) { return soa_->slot_r[slot_base_ + slot]; }
  std::uint8_t r(std::size_t slot) const { return soa_->slot_r[slot_base_ + slot]; }
  std::uint8_t& seen(std::size_t slot) { return soa_->slot_seen[slot_base_ + slot]; }
  std::uint8_t seen(std::size_t slot) const { return soa_->slot_seen[slot_base_ + slot]; }
  Sigma& slot_sigma(std::size_t slot) { return soa_->slot_sigma[slot_base_ + slot]; }
  Sigma slot_sigma(std::size_t slot) const { return soa_->slot_sigma[slot_base_ + slot]; }

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  HardwareClock clock_;
  std::span<const NetNodeId> preds_;  // slot order; [0] is the own copy
  GradientNodeConfig config_;
  Recorder* recorder_;  // non-owning; may be null
  std::unique_ptr<SendOverride> send_override_;  // null unless fault-wrapped

  // SoA residency: the arena's gradient lanes. Timer handles live there
  // too; they go stale automatically when a timer fires, so a reset is
  // always safe.
  GradientSoa* soa_;
  std::uint32_t i_;          // arena index
  std::uint32_t slot_base_;  // first entry of this node's slot lanes

  // Cold per-node state: touched once per iteration (or less), kept out of
  // the hot lanes on purpose. The pending queue is empty in steady state;
  // as a vector it costs no heap until a message is queued, and its cap of
  // kPendingCap entries keeps front pops cheap.
  std::vector<PendingMsg> pending_;
  IterationRecord staged_record_{};  // filled at exit_collect, recorded at fire
  Counters counters_;
};

}  // namespace gtrix
