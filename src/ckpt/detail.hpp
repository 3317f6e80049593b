// Shared serializers for small structs that appear in several checkpoint
// sections (timer handles in every node's arena lanes, iteration records in
// both the recorder log and a gradient node's staged record), plus the
// field-count guards every codec must carry.
#pragma once

#include <cstddef>
#include <utility>

#include "ckpt/codec.hpp"
#include "metrics/recorder.hpp"
#include "sim/event_queue.hpp"

namespace gtrix::ckpt::probe {

// Compile-time field counter for aggregates: the largest N for which
// T{AnyConv, ... N times ...} is well-formed. Each direct member counts
// once (std::array members count as one -- AnyConv converts to the array
// wholesale).
struct AnyConv {
  template <class T>
  operator T() const;  // never defined: overload-resolution probe only
};

template <class T, std::size_t... I>
constexpr bool constructible_with(std::index_sequence<I...>) {
  return requires { T{((void)I, AnyConv{})...}; };
}

template <class T, std::size_t N = 0>
constexpr std::size_t field_count() {
  if constexpr (constructible_with<T>(std::make_index_sequence<N + 1>{})) {
    return field_count<T, N + 1>();
  } else {
    return N;
  }
}

}  // namespace gtrix::ckpt::probe

// Codec drift guards (tools/gtrix_lint.py rule ckpt-field-guard): every
// struct serialized by a checkpoint codec carries one of these static
// asserts INSIDE the codec body -- where private nested types are nameable
// -- so adding a field without teaching the codec about it fails the BUILD
// instead of a kill-and-resume differential three PRs later.
//
// GTRIX_CKPT_FIELDS pins an aggregate's field count exactly.
// GTRIX_CKPT_SIZEOF pins a non-aggregate class's object size -- a weaker
// proxy (a new field swallowed by padding stays invisible), hence the
// preference for FIELDS wherever the type is an aggregate. The sizes are
// the x86-64 libstdc++ layout the project targets; other ABIs degrade to a
// presence-only check rather than guessing their padding.
// NOLINTBEGIN(bugprone-macro-parentheses): T is a type name, not an expression
#define GTRIX_CKPT_FIELDS(T, N)                                            \
  static_assert(::gtrix::ckpt::probe::field_count<T>() == (N),             \
                #T " changed shape: audit its checkpoint codec right "     \
                   "here, then update this field count")
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

inline void write_timer(CkptWriter& w, const TimerHandle& h) {
  GTRIX_CKPT_FIELDS(TimerHandle, 2);
  w.u32(h.slot);
  w.u32(h.gen);
}

inline TimerHandle read_timer(CkptCursor& cur) {
  TimerHandle h;
  h.slot = cur.u32();
  h.gen = cur.u32();
  return h;
}

/// Encoded size of one write_iteration record: the count() element bound
/// for decoders reading a run of them.
inline constexpr std::size_t kIterationBytes = 8 + 4 * 8 + 4 + 2 * 8 + 1 +
                                               IterationRecord::kMaxSlots * (8 + 1);

inline void write_iteration(CkptWriter& w, const IterationRecord& rec) {
  GTRIX_CKPT_FIELDS(IterationRecord, 14);
  static_assert(IterationRecord::kMaxSlots == 5,
                "IterationRecord slot arrays changed width: the wire format "
                "below shifts; bump the checkpoint schema when touching this");
  w.i64(rec.sigma);
  w.f64(rec.correction);
  w.f64(rec.h_own);
  w.f64(rec.h_min);
  w.f64(rec.h_max);
  w.u8(rec.own_missing ? 1 : 0);
  w.u8(rec.max_missing ? 1 : 0);
  w.u8(rec.timeout_branch ? 1 : 0);
  w.u8(rec.late ? 1 : 0);
  w.f64(rec.pulse_time);
  w.f64(rec.pulse_local);
  w.u8(rec.slot_count);
  for (std::size_t s = 0; s < IterationRecord::kMaxSlots; ++s) w.i64(rec.slot_sigma[s]);
  for (std::size_t s = 0; s < IterationRecord::kMaxSlots; ++s)
    w.u8(rec.slot_seen[s] ? 1 : 0);
}

inline IterationRecord read_iteration(CkptCursor& cur) {
  IterationRecord rec;
  rec.sigma = cur.i64();
  rec.correction = cur.f64();
  rec.h_own = cur.f64();
  rec.h_min = cur.f64();
  rec.h_max = cur.f64();
  rec.own_missing = cur.u8() != 0;
  rec.max_missing = cur.u8() != 0;
  rec.timeout_branch = cur.u8() != 0;
  rec.late = cur.u8() != 0;
  rec.pulse_time = cur.f64();
  rec.pulse_local = cur.f64();
  rec.slot_count = cur.u8();
  for (std::size_t s = 0; s < IterationRecord::kMaxSlots; ++s) rec.slot_sigma[s] = cur.i64();
  for (std::size_t s = 0; s < IterationRecord::kMaxSlots; ++s) rec.slot_seen[s] = cur.u8() != 0;
  return rec;
}

}  // namespace gtrix::ckpt
