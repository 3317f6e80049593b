// Member checkpoint functions for every node class: the algorithm nodes
// (gradient, naive TRIX, Lynch-Welch), the layer-0 line node and the fault
// behaviours. Each serializes its arena registers through its own
// accessors. Timer handles are stored verbatim: the event-queue snapshot
// preserves slot indices and generations, so a restored handle refers to
// exactly the event it did at save time.
#include "baseline/lw_grid.hpp"
#include "baseline/trix_node.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/detail.hpp"
#include "core/gradient_node.hpp"
#include "core/layer0.hpp"
#include "core/node_state.hpp"
#include "fault/behaviors.hpp"

namespace gtrix {

namespace {

/// Encoded size of one pending message: from, arrival local time, sigma.
constexpr std::size_t kPendingMsgBytes = 4 + 8 + 8;

void check_slots(std::uint64_t saved, std::size_t now, const char* who) {
  if (saved != now) {
    throw CkptError(std::string("checkpoint ") + who + " node has " + std::to_string(saved) +
                    " predecessor slot(s), this configuration has " + std::to_string(now));
  }
}

}  // namespace

// --- GradientTrixNode --------------------------------------------------------

void GradientTrixNode::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(GradientTrixNode, 408);
  GTRIX_CKPT_FIELDS(PendingMsg, 3);
  GTRIX_CKPT_FIELDS(Counters, 8);
  w.u8(soa_->phase[i_]);
  w.f64(h_own());
  w.f64(h_min());
  w.f64(h_max());
  w.i64(last_sigma());
  ckpt::write_timer(w, soa_->until_timer[i_]);
  ckpt::write_timer(w, soa_->broadcast_timer[i_]);
  ckpt::write_timer(w, soa_->watchdog_timer[i_]);
  w.u64(preds_.size());
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    w.u8(r(s));
    w.u8(seen(s));
    w.i64(slot_sigma(s));
  }
  w.u64(pending_.size());
  for (const PendingMsg& m : pending_) {
    w.u32(m.from);
    w.f64(m.h_arrival);
    w.i64(m.sigma);
  }
  ckpt::write_iteration(w, staged_record_);
  w.u64(counters_.iterations);
  w.u64(counters_.late_broadcasts);
  w.u64(counters_.guard_aborts);
  w.u64(counters_.watchdog_resets);
  w.u64(counters_.duplicate_drops);
  w.u64(counters_.pending_overflow);
  w.u64(counters_.timeout_branches);
  w.u64(counters_.late_absorbed);
}

void GradientTrixNode::checkpoint_restore(CkptCursor& cur) {
  soa_->phase[i_] = cur.u8();
  h_own() = cur.f64();
  h_min() = cur.f64();
  h_max() = cur.f64();
  last_sigma() = cur.i64();
  soa_->until_timer[i_] = ckpt::read_timer(cur);
  soa_->broadcast_timer[i_] = ckpt::read_timer(cur);
  soa_->watchdog_timer[i_] = ckpt::read_timer(cur);
  check_slots(cur.u64(), preds_.size(), "gradient");
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    r(s) = cur.u8();
    seen(s) = cur.u8();
    slot_sigma(s) = cur.i64();
  }
  pending_.clear();
  const std::uint64_t npending = cur.count(kPendingMsgBytes, "pending message");
  for (std::uint64_t i = 0; i < npending; ++i) {
    PendingMsg m;
    m.from = cur.u32();
    m.h_arrival = cur.f64();
    m.sigma = cur.i64();
    pending_.push_back(m);
  }
  staged_record_ = ckpt::read_iteration(cur);
  counters_.iterations = cur.u64();
  counters_.late_broadcasts = cur.u64();
  counters_.guard_aborts = cur.u64();
  counters_.watchdog_resets = cur.u64();
  counters_.duplicate_drops = cur.u64();
  counters_.pending_overflow = cur.u64();
  counters_.timeout_branches = cur.u64();
  counters_.late_absorbed = cur.u64();
}

// --- Layer0LineNode ----------------------------------------------------------

void Layer0LineNode::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(Layer0LineNode, 160);
  w.f64(soa_->stored_h[i_]);
  w.i64(soa_->out_sigma[i_]);
  ckpt::write_timer(w, soa_->broadcast_timer[i_]);
  w.u64(forwarded_);
}

void Layer0LineNode::checkpoint_restore(CkptCursor& cur) {
  soa_->stored_h[i_] = cur.f64();
  soa_->out_sigma[i_] = cur.i64();
  soa_->broadcast_timer[i_] = ckpt::read_timer(cur);
  forwarded_ = cur.u64();
}

// --- TrixNaiveNode -----------------------------------------------------------

void TrixNaiveNode::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(TrixNaiveNode, 192);
  GTRIX_CKPT_FIELDS(PendingMsg, 3);
  w.u8(soa_->armed[i_]);
  w.u32(soa_->seen_count[i_]);
  ckpt::write_timer(w, soa_->fire_timer[i_]);
  w.u64(preds_.size());
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    w.u8(seen(s));
    w.i64(slot_sigma(s));
  }
  w.u64(pending_.size());
  for (const PendingMsg& m : pending_) {
    w.u32(m.from);
    w.f64(m.h_arrival);
    w.i64(m.sigma);
  }
  w.u64(forwarded_);
}

void TrixNaiveNode::checkpoint_restore(CkptCursor& cur) {
  soa_->armed[i_] = cur.u8();
  soa_->seen_count[i_] = cur.u32();
  soa_->fire_timer[i_] = ckpt::read_timer(cur);
  check_slots(cur.u64(), preds_.size(), "trix-naive");
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    seen(s) = cur.u8();
    slot_sigma(s) = cur.i64();
  }
  pending_.clear();
  const std::uint64_t npending = cur.count(kPendingMsgBytes, "pending message");
  for (std::uint64_t i = 0; i < npending; ++i) {
    PendingMsg m;
    m.from = cur.u32();
    m.h_arrival = cur.f64();
    m.sigma = cur.i64();
    pending_.push_back(m);
  }
  forwarded_ = cur.u64();
}

// --- LynchWelchGridNode ------------------------------------------------------

void LynchWelchGridNode::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(LynchWelchGridNode, 200);
  GTRIX_CKPT_FIELDS(PendingMsg, 3);
  w.u32(soa_->seen_count[i_]);
  ckpt::write_timer(w, soa_->fire_timer[i_]);
  w.u64(preds_.size());
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    w.u8(seen(s));
    w.f64(soa_->slot_arrival[slot_base_ + s]);
    w.i64(slot_sigma(s));
  }
  w.u64(pending_.size());
  for (const PendingMsg& m : pending_) {
    w.u32(m.from);
    w.f64(m.h_arrival);
    w.i64(m.sigma);
  }
  w.u64(forwarded_);
}

void LynchWelchGridNode::checkpoint_restore(CkptCursor& cur) {
  soa_->seen_count[i_] = cur.u32();
  soa_->fire_timer[i_] = ckpt::read_timer(cur);
  check_slots(cur.u64(), preds_.size(), "lynch-welch");
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    seen(s) = cur.u8();
    soa_->slot_arrival[slot_base_ + s] = cur.f64();
    slot_sigma(s) = cur.i64();
  }
  pending_.clear();
  const std::uint64_t npending = cur.count(kPendingMsgBytes, "pending message");
  for (std::uint64_t i = 0; i < npending; ++i) {
    PendingMsg m;
    m.from = cur.u32();
    m.h_arrival = cur.f64();
    m.sigma = cur.i64();
    pending_.push_back(m);
  }
  forwarded_ = cur.u64();
}

// --- fault behaviours --------------------------------------------------------

void FixedPeriodRogue::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(FixedPeriodRogue, 88);
  w.i64(sigma_);
  w.u64(emitted_);
}

void FixedPeriodRogue::checkpoint_restore(CkptCursor& cur) {
  sigma_ = cur.i64();
  emitted_ = cur.u64();
}

void CrashSink::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(CrashSink, 16);
  w.u64(absorbed_);
}

void CrashSink::checkpoint_restore(CkptCursor& cur) { absorbed_ = cur.u64(); }

}  // namespace gtrix
