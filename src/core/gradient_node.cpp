#include "core/gradient_node.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace gtrix {

namespace {
constexpr double kGuardSlack = 1e-9;  // float-noise tolerance in guard checks
}

GradientTrixNode::GradientTrixNode(Simulator& sim, Network& net, NetNodeId self,
                                   HardwareClock clock, std::span<const NetNodeId> preds,
                                   const GradientNodeConfig& config, double broadcast_offset,
                                   Recorder* recorder, GradientSoa& soa)
    : sim_(sim),
      net_(net),
      self_(self),
      clock_(std::move(clock)),
      preds_(preds),
      broadcast_offset_(broadcast_offset),
      recorder_(recorder),
      soa_(&soa) {
  GTRIX_CHECK_MSG(preds_.size() >= 2, "node needs its own copy plus >= 1 neighbour");
  GTRIX_CHECK_MSG(preds_.size() <= kMaxSlots, "too many predecessors");
  // Backstop for the scenario layer's cell-expansion check: the trimmed
  // window must keep H_min at or before H_max.
  GTRIX_CHECK_MSG(2 * static_cast<std::size_t>(config.trim) < preds_.size() - 1,
                  "trim too large for degree");
  i_ = soa_->add_node(static_cast<std::uint32_t>(preds_.size()), config);
  slot_base_ = soa_->slot_base[i_];
}

int GradientTrixNode::slot_of(NetNodeId from) const {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i] == from) return static_cast<int>(i);
  }
  return -1;
}

void GradientTrixNode::on_pulse(NetNodeId from, EdgeId /*edge*/, const Pulse& pulse,
                                SimTime now) {
  const int found = slot_of(from);
  if (found < 0) return;  // not one of our predecessors
  const auto slot = static_cast<std::size_t>(found);
  const LocalTime h = clock_.to_local(now);
  if (phase() != Phase::kCollect) {
    // The pulse decision for this iteration is already made. A message from
    // a slot not yet seen still belongs to the *current* wave (Lemma B.1:
    // e.g. the own-copy pulse arriving after the timeout branch committed,
    // or the last neighbour arriving after the until-loop expired): consume
    // it so it cannot leak into the next iteration. Repeats belong to the
    // next wave and are queued.
    if (!seen(slot)) {
      seen(slot) = 1;
      if (slot > 0) r(slot) = 1;
      slot_sigma(slot) = pulse.stamp;
      ++counters_.late_absorbed;
      return;
    }
    if (pending_.size() >= kPendingCap) {
      pending_.erase(pending_.begin());
      ++counters_.pending_overflow;
    }
    pending_.push_back(PendingMsg{from, h, pulse.stamp});
    return;
  }
  process_message(slot, h, pulse.stamp, now);
  sync_entry();
}

void GradientTrixNode::process_message(std::size_t slot, LocalTime h, Sigma sigma,
                                       SimTime now) {
  bool changed = false;
  if (slot == 0) {
    // Pulse from the node's own copy (v, l-1).
    if (!std::isfinite(h_own())) {
      h_own() = h;
      seen(0) = 1;
      slot_sigma(0) = sigma;
      changed = true;
    } else {
      ++counters_.duplicate_drops;
    }
  } else {
    // Pulse from a neighbour copy (w, l-1). With trimming, H_min is the
    // (trim+1)-th earliest and H_max the (deg - trim)-th reception; the
    // paper's rule is trim = 0 (first and last).
    if (!r(slot)) {
      std::size_t seen_before = 0;
      for (std::size_t i = 1; i < preds_.size(); ++i) seen_before += r(i) ? 1U : 0U;
      const std::size_t degree = preds_.size() - 1;
      const std::size_t trim = config().trim;
      if (seen_before == trim) {
        h_min() = h;
        // Every mode arms Algorithm 4's watchdog. It has no effect after
        // stabilization (Observation C.4), but without it a cold start of
        // deep layers under Appendix-A line input groups pulses of
        // different waves into one iteration.
        arm_watchdog();
      }
      r(slot) = 1;
      seen(slot) = 1;
      slot_sigma(slot) = sigma;
      if (seen_before + 1 == degree - trim) h_max() = h;
      changed = true;
    } else {
      ++counters_.duplicate_drops;
    }
  }
  if (changed) update_until(now, clock_.to_local(now));
}

std::pair<LocalTime, LocalTime> GradientTrixNode::thresholds() const {
  // thr1 (H_max + kappa/2 + theta kappa) is the timeout for a *missing*
  // own-copy pulse: once every neighbour has been heard, any correct own
  // copy would arrive within this margin (see Lemma B.1's case analysis;
  // if the until-loop could expire via thr1 with H_own known, Algorithm 3
  // would not be equivalent to Algorithm 1, contradicting Lemma B.2).
  // thr2 (2 H_own - H_min + 2 kappa) is the symmetric wait for the last
  // neighbour once the own copy is known.
  const double kappa = config().params.kappa();
  const LocalTime thr1 = (!std::isfinite(h_own()) && std::isfinite(h_max()))
                             ? h_max() + kappa / 2.0 + config().params.theta * kappa
                             : kLocalInfinity;
  const LocalTime thr2 = (std::isfinite(h_own()) && std::isfinite(h_min()))
                             ? 2.0 * h_own() - h_min() + 2.0 * kappa
                             : kLocalInfinity;
  return {thr1, thr2};
}

void GradientTrixNode::update_until(SimTime now, LocalTime now_local) {
  if (config().simplified) {
    // Algorithm 1: wait until H_own, H_min, H_max are all known.
    if (std::isfinite(h_own()) && std::isfinite(h_min()) && std::isfinite(h_max())) {
      exit_collect(now, now_local);
    }
    return;
  }
  if (!std::isfinite(h_min())) return;  // until requires H_min < inf
  const auto [thr1, thr2] = thresholds();
  const LocalTime thr = std::min(thr1, thr2);
  if (!std::isfinite(thr)) return;  // keep collecting, no deadline yet
  if (now_local >= thr) {
    exit_collect(now, now_local);
    return;
  }
  arm_until_timer(thr);
}

void GradientTrixNode::arm_until_timer(LocalTime threshold) {
  // Every re-arm takes a fresh key, even at an unchanged threshold, as a
  // cancel-and-reschedule would: keeping the older sequence number could
  // reorder float-exact same-instant ties against other events and so move
  // the committed BENCH_*.json results. The queue entry follows in place
  // (EventQueue::rekey's fast path) unless such a tie sits behind it.
  disarm(phase_deadline_);
  arm(phase_deadline_, std::max(clock_.to_real(threshold), sim_.now()));
  // The exact local threshold rides along in the payload so the fire path
  // compares the same floating-point value that defined the deadline.
  phase_threshold_ = threshold;
}

void GradientTrixNode::arm_watchdog() {
  // Algorithm 4's Wait() helper: once the first neighbour pulse is stored,
  // all remaining correct pulses must follow within theta (2 L + u) local
  // time; if neither the own-copy nor the last neighbour pulse shows up, the
  // stored partial state stems from a spurious message and is cleared.
  disarm(watchdog_deadline_);
  const Params& p = config().params;
  const double interval = p.theta * (2.0 * config().skew_bound_hint + p.u);
  const LocalTime fire_local = clock_.to_local(sim_.now()) + interval;
  arm(watchdog_deadline_, clock_.to_real(fire_local));
}

void GradientTrixNode::arm(EventKey& deadline, SimTime t) {
  deadline = sim_.reserve(t);
  entry_stale_ = true;
}

void GradientTrixNode::disarm(EventKey& deadline) {
  if (deadline == EventKey{}) return;
  deadline = EventKey{};
  sim_.count_timer_cancel();
  entry_stale_ = true;
}

void GradientTrixNode::sync_entry() {
  if (entry_stale_) {
    entry_stale_ = false;
    const bool watchdog_first = watchdog_deadline_ < phase_deadline_;
    const EventKey& next = watchdog_first ? watchdog_deadline_ : phase_deadline_;
    if (next == EventKey{}) {
      sim_.unschedule(entry_);  // nothing armed; a no-op when the entry fired
    } else {
      const std::uint32_t kind = watchdog_first               ? kWatchdogTimer
                                 : phase() == Phase::kCollect ? kUntilTimer
                                                              : kBroadcastTimer;
      const EventPayload payload =
          watchdog_first ? EventPayload{} : EventPayload{.f = phase_threshold_};
      if (entry_) {
        sim_.rekey(entry_, next, kind, payload);
      } else {
        entry_ = sim_.at_key(next, this, kind, payload);
      }
    }
  }
  GTRIX_DEBUG_CHECK_MSG(entry_in_sync(),
                        "a gradient node's queue entry does not carry its earliest deadline");
}

bool GradientTrixNode::entry_in_sync() const {
  const EventKey earliest = std::min(phase_deadline_, watchdog_deadline_);
  return entry_ ? sim_.pending(entry_) && sim_.event_queue().key_of(entry_) == earliest
                : earliest == EventKey{};
}

void GradientTrixNode::on_timer(const Event& event) {
  entry_.reset();  // fired; the handle is stale
  entry_stale_ = true;
  switch (event.kind) {
    case kUntilTimer:
      GTRIX_DEBUG_CHECK(phase() == Phase::kCollect);
      phase_deadline_ = EventKey{};
      exit_collect(event.time, event.payload.f);
      break;
    case kBroadcastTimer:
      GTRIX_DEBUG_CHECK(phase() == Phase::kWaitBroadcast);
      phase_deadline_ = EventKey{};
      do_broadcast(event.time, event.payload.f);
      break;
    case kWatchdogTimer:
      GTRIX_DEBUG_CHECK(phase() == Phase::kCollect);
      watchdog_deadline_ = EventKey{};
      if (std::isfinite(h_min()) && !std::isfinite(h_own()) && !std::isfinite(h_max())) {
        h_min() = kLocalInfinity;
        for (std::size_t i = 1; i < preds_.size(); ++i) {
          r(i) = 0;
          seen(i) = 0;
          slot_sigma(i) = 0;
        }
        ++counters_.watchdog_resets;
        disarm(phase_deadline_);  // any armed until-timer is now meaningless
      }
      break;
  }
  sync_entry();
}

void GradientTrixNode::exit_collect(SimTime now, LocalTime now_local) {
  disarm(phase_deadline_);
  disarm(watchdog_deadline_);

  const Params& p = config().params;
  const double kappa = p.kappa();

  IterationRecord rec;
  rec.sigma = estimate_sigma();
  rec.h_own = h_own();
  rec.h_min = h_min();
  rec.h_max = h_max();
  rec.own_missing = !std::isfinite(h_own());
  rec.max_missing = !std::isfinite(h_max());
  rec.slot_count = static_cast<std::uint8_t>(preds_.size());
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    rec.slot_sigma[i] = slot_sigma(i);
    rec.slot_seen[i] = seen(i) != 0;
  }

  const bool branch1 = !config().simplified && !std::isfinite(h_own());

  if (branch1) {
    // Algorithm 3 first branch: the own-copy pulse never showed up before
    // H_max + kappa/2 + theta kappa local time; pulse from the last
    // neighbour reception instead: H_max + 3 kappa/2 + Lambda - d.
    rec.timeout_branch = true;
    ++counters_.timeout_branches;
    if (config().self_stabilizing && h_max() > now_local + kGuardSlack) {
      ++counters_.guard_aborts;  // corrupted state: reception in the future
      finish_iteration_without_pulse(now);
      return;
    }
    const LocalTime target = h_max() + 1.5 * kappa + p.lambda - p.d;
    rec.correction = 0.0;  // no own reference; no correction defined
    schedule_broadcast(now, target + broadcast_offset_, rec);
    return;
  }

  // Second branch: H_own and H_min are known (the until condition exited via
  // 2 H_own - H_min + 2 kappa). H_max may still be missing: the node has
  // waited long enough that any correct last-neighbour pulse would have
  // arrived, so the H_own - H_max term is treated as -infinity ("infinity
  // cancels out", §3) and the computation collapses to the Delta < 0 branch
  // with C = min{H_own - H_min + 3 kappa/2, 0} -- exactly the value
  // Algorithm 1 computes in that regime (Lemma B.2, second case).
  GTRIX_CHECK_MSG(std::isfinite(h_own()) && std::isfinite(h_min()),
                  "branch 2 requires own and first-neighbour receptions");
  Correction c;
  if (!std::isfinite(h_max())) {
    c.branch = CorrectionBranch::kNegativeJump;
    c.delta = -std::numeric_limits<double>::infinity();
    c.value = std::min(h_own() - h_min() + 1.5 * kappa, 0.0);
  } else {
    // h_max < h_min can only result from corrupted state (receptions are
    // processed in arrival order); clamp so the computation stays defined.
    const double h_max_eff = std::max(h_max(), h_min());
    c = compute_correction(h_own(), h_min(), h_max_eff, p, config().jump_condition);
  }
  rec.correction = c.value;
  const LocalTime target = h_own() + p.lambda - p.d - c.value;

  if (config().self_stabilizing) {
    const bool future_own = h_own() > now_local + kGuardSlack;
    const bool future_min = c.value < 0.0 && h_min() > now_local + kGuardSlack;
    const bool absurd_wait = target > now_local + (p.lambda - p.d) + kGuardSlack;
    if (future_own || future_min || absurd_wait) {
      ++counters_.guard_aborts;
      finish_iteration_without_pulse(now);
      return;
    }
  }
  schedule_broadcast(now, target + broadcast_offset_, rec);
}

void GradientTrixNode::finish_iteration_without_pulse(SimTime now) {
  reset_iteration_state();
  set_phase(Phase::kCollect);
  drain_pending(now);
}

void GradientTrixNode::schedule_broadcast(SimTime now, LocalTime target,
                                          IterationRecord record) {
  staged_record_ = record;
  set_phase(Phase::kWaitBroadcast);
  disarm(phase_deadline_);  // supersede any stale armed broadcast
  const LocalTime now_local = clock_.to_local(now);
  if (target <= now_local) {
    // "wait until H(t) = X" with X already reached: act immediately. This
    // occurs during initialization and stabilization; steady-state
    // iterations always schedule into the future (Lemma B.1).
    ++counters_.late_broadcasts;
    staged_record_.late = true;
    do_broadcast(now, now_local);
    return;
  }
  arm(phase_deadline_, clock_.to_real(target));
  phase_threshold_ = target;
}

void GradientTrixNode::do_broadcast(SimTime now, LocalTime fire_local) {
  // Reached from the broadcast's own entry, or at once from
  // schedule_broadcast: either way nothing is armed.
  GTRIX_DEBUG_CHECK(phase_deadline_ == EventKey{});
  staged_record_.pulse_time = now;
  staged_record_.pulse_local = fire_local;
  last_sigma() = staged_record_.sigma;
  const Pulse pulse{staged_record_.sigma};
  if (recorder_ != nullptr) {
    recorder_->record_pulse(self_, staged_record_.sigma, now);
    recorder_->record_iteration(self_, staged_record_);
  }
  ++counters_.iterations;
  if (send_override_ != nullptr) {
    (*send_override_)(pulse, now);
  } else {
    net_.broadcast(self_, pulse);
  }
  reset_iteration_state();
  set_phase(Phase::kCollect);
  drain_pending(now);
}

void GradientTrixNode::reset_iteration_state() {
  h_own() = kLocalInfinity;
  h_min() = kLocalInfinity;
  h_max() = kLocalInfinity;
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    r(i) = 0;
    seen(i) = 0;
    slot_sigma(i) = 0;
  }
  disarm(phase_deadline_);  // the until-timer or the broadcast
  disarm(watchdog_deadline_);
}

void GradientTrixNode::drain_pending(SimTime now) {
  while (!pending_.empty() && phase() == Phase::kCollect) {
    const PendingMsg msg = pending_.front();
    pending_.erase(pending_.begin());
    // Queued only after on_pulse resolved the slot; a checkpoint restore
    // is the one way a stranger could get here.
    const int slot = slot_of(msg.from);
    GTRIX_CHECK(slot >= 0);
    process_message(static_cast<std::size_t>(slot), msg.h_arrival, msg.sigma, now);
  }
}

Sigma GradientTrixNode::estimate_sigma() const {
  // Fault-tolerant wave recovery: take any value reported by two or more
  // predecessors (at most one predecessor is faulty). Without a majority
  // (e.g. a Byzantine own copy with a drifting label plus a single correct
  // neighbour), prefer continuity with the node's own wave sequence --
  // waves advance by exactly one per iteration in correct operation -- and
  // only then fall back to the own copy's value.
  std::array<Sigma, kMaxSlots> vals{};
  std::size_t n = 0;
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (seen(i)) vals[n++] = slot_sigma(i);
  }
  if (n == 0) return last_sigma() + 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t same = 0;
    for (std::size_t j = 0; j < n; ++j) same += vals[j] == vals[i] ? 1U : 0U;
    if (same >= 2) return vals[i];
  }
  if (counters_.iterations > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (vals[i] == last_sigma() + 1) return vals[i];
    }
  }
  if (seen(0)) return slot_sigma(0);
  return vals[0];
}

void GradientTrixNode::corrupt_state(Rng& rng) {
  // Arbitrary transient fault (Theorem 1.6): scramble every register and
  // control-flow bit. Pending messages and armed timers are dropped /
  // invalidated; freshly scheduled garbage may include a bogus broadcast.
  reset_iteration_state();
  pending_.clear();
  const LocalTime now_local = clock_.to_local(sim_.now());
  const double lambda = config().params.lambda;
  const Sigma bogus_sigma = rng.uniform_int(-4, 4);

  if (rng.bernoulli(0.5)) {
    set_phase(Phase::kCollect);
    // Random subset of receptions with random timestamps (possibly in the
    // "future" -- exactly the inconsistency Algorithm 4's guards detect).
    if (rng.bernoulli(0.7)) {
      h_own() = now_local + rng.uniform(-2.0 * lambda, lambda);
      seen(0) = 1;
      slot_sigma(0) = bogus_sigma;
    }
    if (rng.bernoulli(0.7)) {
      h_min() = now_local + rng.uniform(-2.0 * lambda, lambda);
      for (std::size_t i = 1; i < preds_.size(); ++i) {
        if (rng.bernoulli(0.5)) {
          r(i) = 1;
          seen(i) = 1;
          slot_sigma(i) = bogus_sigma + rng.uniform_int(-1, 1);
        }
      }
      bool all = true;
      for (std::size_t i = 1; i < preds_.size(); ++i) all = all && r(i);
      if (all) h_max() = h_min() + rng.uniform(0.0, lambda);
    }
  } else {
    // Mid-wait with a garbage target.
    IterationRecord rec;
    rec.sigma = bogus_sigma;
    rec.correction = rng.uniform(-lambda / 4.0, lambda / 4.0);
    rec.h_own = now_local;
    rec.h_min = now_local;
    rec.h_max = now_local;
    const LocalTime target = now_local + rng.uniform(0.0, 2.0 * lambda);
    // Do not count this garbage emission as a normal late broadcast.
    schedule_broadcast(sim_.now(), target, rec);
  }
  sync_entry();
}

}  // namespace gtrix
