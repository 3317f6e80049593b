// Checkpoint codecs for every node class: the algorithm nodes (gradient,
// naive TRIX, Lynch-Welch), the layer-0 line node, the fault behaviours and
// the gradient nodes' per-shard tally. Each serializes its arena registers
// through its own accessors, listing them once for both directions
// (CkptIo). Timer handles are stored verbatim: the event-queue snapshot
// preserves slot indices and generations, so a restored handle refers to
// exactly the event it did at save time. A gradient node's deadlines
// travel as their event keys, and its entry's handle must carry the
// earliest of them on restore.
#include "baseline/lw_grid.hpp"
#include "baseline/trix_node.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/detail.hpp"
#include "core/gradient_node.hpp"
#include "core/layer0.hpp"
#include "core/node_state.hpp"
#include "fault/behaviors.hpp"

namespace gtrix {

// --- GradientTrixNode --------------------------------------------------------

void GradientTrixNode::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(GradientTrixNode, 192);
  GTRIX_CHECK_MSG(!entry_stale_, "checkpoint of a gradient node between its entry syncs");
  io.u8(soa_->phase[i_]);
  io.f64(h_own());
  io.f64(h_min());
  io.f64(h_max());
  io.i64(last_sigma());
  ckpt::key(io, phase_deadline_);
  io.f64(phase_threshold_);
  ckpt::key(io, watchdog_deadline_);
  ckpt::timer(io, entry_);
  // The sims section is restored first, so the entry can be checked
  // against the queue.
  if (!io.saving() && !entry_in_sync()) {
    throw CkptError("gradient node timer entry does not carry its earliest deadline "
                    "(corrupt file)");
  }
  io.same_count(preds_.size(), "gradient node predecessor slot");
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    io.u8(r(s));
    io.u8(seen(s));
    io.i64(slot_sigma(s));
  }
  // A null queue travels as an empty one; a restore allocates only a
  // queue that holds messages.
  std::vector<PendingMsg> none;
  ckpt::pending(io, pending_ != nullptr ? *pending_ : none);
  if (!none.empty()) pending_ = std::make_unique<std::vector<PendingMsg>>(std::move(none));
  io.i64(staged_sigma_);
  io.flag(has_broadcast_);
  if (keeps_record_) ckpt::iteration(io, soa_->staged[i_]);
}

void GradientTally::checkpoint(CkptIo& io) {
  GTRIX_CKPT_FIELDS(GradientTally, 8);
  io.u64(iterations);
  io.u64(late_broadcasts);
  io.u64(guard_aborts);
  io.u64(watchdog_resets);
  io.u64(duplicate_drops);
  io.u64(pending_overflow);
  io.u64(timeout_branches);
  io.u64(late_absorbed);
}

// --- Layer0LineNode ----------------------------------------------------------

void Layer0LineNode::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(Layer0LineNode, 144);
  io.f64(stored_h());
  io.i64(out_sigma());
  ckpt::timer(io, broadcast_timer());
  io.u64(forwarded_);
}

// --- TrixNaiveNode -----------------------------------------------------------

void TrixNaiveNode::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(TrixNaiveNode, 176);
  io.u8(armed());
  io.u32(seen_count());
  ckpt::timer(io, fire_timer());
  io.same_count(preds_.size(), "trix-naive node predecessor slot");
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    io.u8(seen(s));
    io.i64(slot_sigma(s));
  }
  ckpt::pending(io, pending_);
  io.u64(forwarded_);
}

// --- LynchWelchGridNode ------------------------------------------------------

void LynchWelchGridNode::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(LynchWelchGridNode, 184);
  io.u32(seen_count());
  ckpt::timer(io, fire_timer());
  io.same_count(preds_.size(), "lynch-welch node predecessor slot");
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    io.u8(seen(s));
    io.f64(slot_arrival(s));
    io.i64(slot_sigma(s));
  }
  ckpt::pending(io, pending_);
  io.u64(forwarded_);
}

// --- fault behaviours --------------------------------------------------------

void FixedPeriodRogue::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(FixedPeriodRogue, 88);
  io.i64(sigma_);
  io.u64(emitted_);
}

void CrashSink::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(CrashSink, 16);
  io.u64(absorbed_);
}

}  // namespace gtrix
