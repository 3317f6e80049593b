#include "baseline/trix_node.hpp"

#include "support/check.hpp"

namespace gtrix {

TrixNaiveNode::TrixNaiveNode(Simulator& sim, Network& net, NetNodeId self,
                             HardwareClock clock, std::span<const NetNodeId> preds,
                             Params params, Recorder* recorder, TrixSoa& soa)
    : sim_(sim),
      net_(net),
      self_(self),
      clock_(std::move(clock)),
      preds_(preds),
      params_(params),
      recorder_(recorder),
      soa_(&soa) {
  GTRIX_CHECK_MSG(preds_.size() >= 2 && preds_.size() <= kMaxSlots,
                  "naive TRIX node needs 2..5 predecessors");
  i_ = soa_->add_node(static_cast<std::uint32_t>(preds_.size()));
  slot_base_ = soa_->slot_base[i_];
}

int TrixNaiveNode::slot_of(NetNodeId from) const {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i] == from) return static_cast<int>(i);
  }
  return -1;
}

void TrixNaiveNode::on_pulse(NetNodeId from, EdgeId /*edge*/, const Pulse& pulse,
                             SimTime now) {
  const int found = slot_of(from);
  if (found < 0) return;
  const auto slot = static_cast<std::size_t>(found);
  const LocalTime h = clock_.to_local(now);
  if (seen(slot)) {
    // Second message from the same predecessor within this iteration: it
    // belongs to the next wave; queue it.
    if (pending_.size() >= kPendingCap) pending_.erase(pending_.begin());
    pending_.push_back(PendingMsg{from, h, pulse.stamp});
    return;
  }
  process(slot, h, pulse.stamp, now);
}

void TrixNaiveNode::process(std::size_t slot, LocalTime h, Sigma sigma, SimTime /*now*/) {
  seen(slot) = 1;
  slot_sigma(slot) = sigma;
  ++seen_count();
  if (seen_count() == 2 && !armed()) {
    // Second copy: forward after the nominal wait (the paper's "wait for
    // the second copy of each pulse before forwarding", Fig. 1).
    armed() = 1;
    const LocalTime target = h + params_.lambda - params_.d;
    fire_timer() =
        sim_.at(clock_.to_real(target), this, kFire, EventPayload{.f = target});
  }
}

void TrixNaiveNode::on_timer(const Event& event) {
  fire_timer().reset();
  fire(event.time, event.payload.f);
}

void TrixNaiveNode::fire(SimTime now, LocalTime fire_local) {
  (void)fire_local;
  const Sigma sigma = estimate_sigma();
  if (recorder_ != nullptr) recorder_->record_pulse(self_, sigma, now);
  ++forwarded_;
  net_.broadcast(self_, Pulse{sigma});
  reset();
  while (!pending_.empty() && !armed()) {
    const PendingMsg msg = pending_.front();
    pending_.erase(pending_.begin());
    const int slot = slot_of(msg.from);
    GTRIX_CHECK(slot >= 0);  // only a checkpoint restore could queue a stranger
    if (!seen(static_cast<std::size_t>(slot))) {
      process(static_cast<std::size_t>(slot), msg.h_arrival, msg.sigma, now);
    }
  }
}

void TrixNaiveNode::reset() {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    seen(i) = 0;
    slot_sigma(i) = 0;
  }
  seen_count() = 0;
  armed() = 0;
  sim_.cancel(fire_timer());
}

Sigma TrixNaiveNode::estimate_sigma() const {
  std::array<Sigma, kMaxSlots> vals{};
  std::size_t n = 0;
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (seen(i)) vals[n++] = slot_sigma(i);
  }
  if (n == 0) return 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t same = 0;
    for (std::size_t j = 0; j < n; ++j) same += vals[j] == vals[i] ? 1U : 0U;
    if (same >= 2) return vals[i];
  }
  if (seen(0)) return slot_sigma(0);
  return vals[0];
}

}  // namespace gtrix
