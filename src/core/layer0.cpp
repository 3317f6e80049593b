#include "core/layer0.hpp"

#include <cmath>

#include "support/check.hpp"

namespace gtrix {

ClockSource::ClockSource(Simulator& sim, Network& net, NetNodeId self, Params params,
                         std::int64_t pulse_count, Recorder* recorder)
    : sim_(sim),
      net_(net),
      self_(self),
      params_(params),
      pulse_count_(pulse_count),
      recorder_(recorder) {}

void ClockSource::start() {
  if (pulse_count_ < 1) return;
  sim_.at(0.0, this, kEmit, EventPayload{.i = 1});
}

void ClockSource::on_timer(const Event& event) {
  const std::int64_t k = event.payload.i;
  const Sigma sigma = k - 1;
  if (recorder_ != nullptr) recorder_->record_pulse(self_, sigma, event.time);
  net_.broadcast(self_, Pulse{sigma});
  if (k < pulse_count_) {
    // Pulse k+1 fires at k * Lambda; computed from the index (not
    // accumulated) so the chain reproduces the exact schedule.
    sim_.at(static_cast<double>(k) * params_.lambda, this, kEmit,
            EventPayload{.i = k + 1});
  }
}

Layer0LineNode::Layer0LineNode(Simulator& sim, Network& net, NetNodeId self,
                               HardwareClock clock, NetNodeId line_pred, Params params,
                               Recorder* recorder, Layer0Soa& soa)
    : sim_(sim),
      net_(net),
      self_(self),
      clock_(std::move(clock)),
      line_pred_(line_pred),
      params_(params),
      recorder_(recorder),
      soa_(&soa),
      i_(soa.add_node()) {}

void Layer0LineNode::on_pulse(NetNodeId from, EdgeId /*edge*/, const Pulse& pulse,
                              SimTime now) {
  if (from != line_pred_) return;
  // Algorithm 2: H := H(t). Receptions overwrite unconditionally, which is
  // what makes the scheme self-stabilizing (proof of Lemma A.1).
  stored_h() = clock_.to_local(now);
  out_sigma() = pulse.stamp + 1;  // each line hop advances the wave label
  arm_broadcast(stored_h() + params_.lambda - params_.d);
}

void Layer0LineNode::arm_broadcast(LocalTime target) {
  sim_.cancel(broadcast_timer());  // a pending broadcast is superseded
  broadcast_timer() = sim_.at(clock_.to_real(target), this, kBroadcast);
}

void Layer0LineNode::on_timer(const Event& event) {
  broadcast_timer().reset();
  broadcast(event.time);
}

void Layer0LineNode::broadcast(SimTime now) {
  if (recorder_ != nullptr) recorder_->record_pulse(self_, out_sigma(), now);
  ++forwarded_;
  net_.broadcast(self_, Pulse{out_sigma()});
}

void Layer0LineNode::corrupt_state(Rng& rng) {
  sim_.cancel(broadcast_timer());  // drop any armed broadcast
  const LocalTime now_local = clock_.to_local(sim_.now());
  stored_h() = now_local + rng.uniform(-params_.lambda, params_.lambda);
  out_sigma() = rng.uniform_int(-4, 4);
  if (rng.bernoulli(0.5)) {
    arm_broadcast(now_local + rng.uniform(0.0, params_.lambda));
  }
}

IdealEmitter::IdealEmitter(Simulator& sim, Network& net, NetNodeId self, double offset,
                           Params params, std::int64_t pulse_count, Recorder* recorder)
    : sim_(sim),
      net_(net),
      self_(self),
      offset_(offset),
      params_(params),
      pulse_count_(pulse_count),
      recorder_(recorder) {
  GTRIX_CHECK_MSG(offset_ >= 0.0, "emitter offset must be non-negative");
}

void IdealEmitter::start() {
  if (pulse_count_ < 1) return;
  sim_.at(params_.lambda + offset_, this, kEmit, EventPayload{.i = 1});
}

void IdealEmitter::on_timer(const Event& event) {
  const std::int64_t k = event.payload.i;
  if (recorder_ != nullptr) recorder_->record_pulse(self_, k, event.time);
  net_.broadcast(self_, Pulse{k});
  if (k < pulse_count_) {
    sim_.at(static_cast<double>(k + 1) * params_.lambda + offset_, this, kEmit,
            EventPayload{.i = k + 1});
  }
}

}  // namespace gtrix
