#include "baseline/lw_grid.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace gtrix {

LynchWelchGridNode::LynchWelchGridNode(Simulator& sim, Network& net, NetNodeId self,
                                       HardwareClock clock, std::span<const NetNodeId> preds,
                                       Params params, std::uint32_t trim, Recorder* recorder,
                                       LwSoa& soa)
    : sim_(sim),
      net_(net),
      self_(self),
      clock_(std::move(clock)),
      preds_(preds),
      params_(params),
      trim_(trim),
      recorder_(recorder),
      soa_(&soa) {
  GTRIX_CHECK_MSG(preds_.size() >= 2, "LW grid node needs at least 2 predecessors");
  // Clamp so the trimmed window keeps at least its two extremes.
  const auto max_trim = static_cast<std::uint32_t>((preds_.size() - 1) / 2);
  trim_ = std::min(trim_, max_trim);
  i_ = soa_->add_node(static_cast<std::uint32_t>(preds_.size()));
  slot_base_ = soa_->slot_base[i_];
}

int LynchWelchGridNode::slot_of(NetNodeId from) const {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i] == from) return static_cast<int>(i);
  }
  return -1;
}

void LynchWelchGridNode::on_pulse(NetNodeId from, EdgeId /*edge*/, const Pulse& pulse,
                                  SimTime now) {
  const int found = slot_of(from);
  if (found < 0) return;
  const auto slot = static_cast<std::size_t>(found);
  const LocalTime h = clock_.to_local(now);
  if (seen(slot)) {
    // A second pulse from the same predecessor belongs to the next wave.
    // Dropping one would leave a wave permanently incomplete (the node only
    // fires on a FULL reception set), so overflow is a hard error rather
    // than the silent deadlock a pop_front would cause.
    GTRIX_CHECK_MSG(pending_.size() < kPendingCap,
                    "LW grid node pending-queue overflow: predecessors ran more than "
                    "kPendingCap pulses ahead");
    pending_.push_back(PendingMsg{from, h, pulse.stamp});
    return;
  }
  process(slot, h, pulse.stamp);
}

void LynchWelchGridNode::process(std::size_t slot, LocalTime h, Sigma sigma) {
  seen(slot) = 1;
  slot_arrival(slot) = h;
  slot_sigma(slot) = sigma;
  ++seen_count();
  if (seen_count() < preds_.size()) return;

  // Full reception set: trimmed midpoint of the arrival times. Sorting in
  // the arena's shared scratch buffer keeps the per-wave path
  // allocation-free (one World runs single-threaded).
  std::vector<LocalTime>& scratch = soa_->fire_scratch;
  scratch.assign(soa_->slot_arrival.begin() + slot_base_,
                 soa_->slot_arrival.begin() + slot_base_ + preds_.size());
  std::sort(scratch.begin(), scratch.end());
  const LocalTime lo = scratch[trim_];
  const LocalTime hi = scratch[scratch.size() - 1 - trim_];
  const LocalTime target = (lo + hi) / 2.0 + params_.lambda - params_.d;
  fire_timer() = sim_.at(clock_.to_real(std::max(target, clock_.to_local(sim_.now()))), this,
                         kFire, EventPayload{});
}

void LynchWelchGridNode::on_timer(const Event& event) {
  fire_timer().reset();
  fire(event.time);
}

void LynchWelchGridNode::fire(SimTime now) {
  const Sigma sigma = estimate_sigma();
  if (recorder_ != nullptr) recorder_->record_pulse(self_, sigma, now);
  ++forwarded_;
  net_.broadcast(self_, Pulse{sigma});
  reset();
  // Deliver each predecessor's earliest queued pulse into the new wave,
  // LEAVING later duplicates queued: a predecessor two waves ahead must not
  // lose its second queued pulse (per-predecessor order within the queue is
  // arrival order, so a front-to-back scan takes the earliest first).
  for (auto it = pending_.begin(); it != pending_.end() && seen_count() < preds_.size();) {
    const int found = slot_of(it->from);
    GTRIX_CHECK(found >= 0);  // only a checkpoint restore could queue a stranger
    const auto slot = static_cast<std::size_t>(found);
    if (seen(slot)) {
      ++it;
      continue;
    }
    const PendingMsg msg = *it;
    it = pending_.erase(it);
    process(slot, msg.h_arrival, msg.sigma);
  }
}

void LynchWelchGridNode::reset() {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    seen(i) = 0;
    slot_sigma(i) = 0;
  }
  seen_count() = 0;
  sim_.cancel(fire_timer());
}

Sigma LynchWelchGridNode::estimate_sigma() const {
  // Majority stamp over the full reception set, falling back to the own
  // copy's stamp (slot 0).
  const std::size_t n = preds_.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t same = 0;
    for (std::size_t j = 0; j < n; ++j) {
      same += slot_sigma(j) == slot_sigma(i) ? 1U : 0U;
    }
    if (same * 2 > n) return slot_sigma(i);
  }
  return slot_sigma(0);
}

}  // namespace gtrix
