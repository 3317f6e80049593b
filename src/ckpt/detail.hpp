// Shared codecs for small structs that appear in several checkpoint
// sections (timer handles and deadline keys of the nodes, iteration records in
// both the recorder log and a gradient node's staged record, the pending
// message queues of the three algorithm nodes), plus the field-count guards
// every codec must carry.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "ckpt/codec.hpp"
#include "metrics/recorder.hpp"
#include "sim/event_queue.hpp"
#include "support/fields.hpp"

// Codec drift guards (tools/gtrix_lint.py rule ckpt-field-guard): every
// struct serialized by a checkpoint codec carries one of these static
// asserts INSIDE the codec body -- where private nested types are nameable
// -- so adding a field without teaching the codec about it fails the BUILD
// instead of a kill-and-resume differential three PRs later.
//
// GTRIX_CKPT_FIELDS (support/fields.hpp) pins an aggregate's field count
// exactly. GTRIX_CKPT_SIZEOF pins a non-aggregate class's object size -- a
// weaker proxy (a new field swallowed by padding stays invisible), hence
// the preference for FIELDS wherever the type is an aggregate. The sizes
// are the x86-64 libstdc++ layout the project targets; other ABIs degrade
// to a presence-only check rather than guessing their padding.
// NOLINTBEGIN(bugprone-macro-parentheses): T is a type name, not an expression
#if defined(__x86_64__) && defined(__GLIBCXX__)
#define GTRIX_CKPT_SIZEOF(T, N)                                            \
  static_assert(sizeof(T) == (N),                                         \
                #T " changed size: audit its checkpoint codec right "      \
                   "here, then update this size guard")
#else
#define GTRIX_CKPT_SIZEOF(T, N) static_assert(sizeof(T) > 0, "")
#endif
// NOLINTEND(bugprone-macro-parentheses)

namespace gtrix::ckpt {

inline void timer(CkptIo& io, TimerHandle& h) {
  GTRIX_CKPT_FIELDS(TimerHandle, 2);
  io.u32(h.slot);
  io.u32(h.gen);
}

/// A timer deadline's event key. Disarmed is the default key, at +inf; any
/// other non-finite time is refused, since the key may be scheduled.
inline void key(CkptIo& io, EventKey& k) {
  GTRIX_CKPT_FIELDS(EventKey, 2);
  io.f64(k.time);
  io.u64(k.seq);
  if (!io.saving() && !std::isfinite(k.time) && k.time != kTimeInfinity) {
    throw CkptError("checkpoint deadline time is not finite (corrupt file)");
  }
}

/// Encoded size of one iteration record: the count() element bound for
/// decoders reading a run of them.
inline constexpr std::size_t kIterationBytes = 8 + 4 * 8 + 4 + 2 * 8 + 1 +
                                               IterationRecord::kMaxSlots * (8 + 1);

inline void iteration(CkptIo& io, IterationRecord& rec) {
  GTRIX_CKPT_FIELDS(IterationRecord, 14);
  static_assert(IterationRecord::kMaxSlots == 5,
                "IterationRecord slot arrays changed width: the wire format "
                "below shifts; bump the checkpoint schema when touching this");
  io.i64(rec.sigma);
  io.f64(rec.correction);
  io.f64(rec.h_own);
  io.f64(rec.h_min);
  io.f64(rec.h_max);
  io.flag(rec.own_missing);
  io.flag(rec.max_missing);
  io.flag(rec.timeout_branch);
  io.flag(rec.late);
  io.f64(rec.pulse_time);
  io.f64(rec.pulse_local);
  io.u8(rec.slot_count);
  for (std::int64_t& s : rec.slot_sigma) io.i64(s);
  for (bool& seen : rec.slot_seen) io.flag(seen);
}

/// A node's queue of messages that arrived before it could process them:
/// sender, arrival local time, wave label.
template <class Msg>
void pending(CkptIo& io, std::vector<Msg>& queue) {
  GTRIX_CKPT_FIELDS(Msg, 3);
  io.vec(queue, 4 + 8 + 8, "pending message", [](CkptIo& io, Msg& m) {
    io.u32(m.from);
    io.f64(m.h_arrival);
    io.i64(m.sigma);
  });
}

}  // namespace gtrix::ckpt
