// Calendar-queue scheduler tests: the calendar's own semantics (churn, FIFO
// tie-breaks, handle generations, unlinking cancelled entries from the
// bucket chains), its resize/rebuild behaviour, and randomized differential
// checks that it executes the identical event sequence as the binary-heap
// oracle (binary_heap_queue.hpp) under heavy schedule/cancel churn.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <vector>

#include "binary_heap_queue.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

struct EventLog final : TimerTarget {
  std::vector<Event> events;

  void on_timer(const Event& event) override { events.push_back(event); }

  std::vector<std::int64_t> tags() const {
    std::vector<std::int64_t> out;
    for (const Event& e : events) out.push_back(e.payload.i);
    return out;
  }
};

TEST(CalendarQueue, DefaultEngineIsCalendar) {
  // A fresh queue is an empty calendar of the minimum geometry: eight
  // unit-width buckets, never rebuilt.
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.calendar_buckets(), 8u);
  EXPECT_EQ(q.calendar_width(), 1.0);
  EXPECT_EQ(q.calendar_rebuilds(), 0u);
}

TEST(CalendarQueue, RunsInTimeOrder) {
  EventQueue q;
  EventLog log;
  q.schedule(3.0, &log, 0, EventPayload{.i = 3});
  q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(CalendarQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  EventLog log;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, &log, 0, EventPayload{.i = i});
  }
  while (q.run_next()) {
  }
  ASSERT_EQ(log.events.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log.events[static_cast<std::size_t>(i)].payload.i, i);
  }
}

TEST(CalendarQueue, SameTimestampFifoSurvivesCancellationChurn) {
  EventQueue q;
  EventLog log;
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 20; ++i) {
    const TimerHandle h = q.schedule(5.0, &log, 0, EventPayload{.i = i});
    if (i % 2 == 1) doomed.push_back(h);
  }
  for (TimerHandle h : doomed) EXPECT_TRUE(q.cancel(h));
  while (q.run_next()) {
  }
  std::vector<std::int64_t> expected;
  for (int i = 0; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(log.tags(), expected);
}

TEST(CalendarQueue, HandleGenerationsSurviveSlotRecycling) {
  EventQueue q;
  EventLog log;
  const TimerHandle old_handle = q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.run_next();
  const TimerHandle new_handle = q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  EXPECT_EQ(new_handle.slot, old_handle.slot);  // recycled
  EXPECT_NE(new_handle.gen, old_handle.gen);
  EXPECT_FALSE(q.cancel(old_handle));
  EXPECT_TRUE(q.pending(new_handle));
  q.run_next();
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2}));
}

TEST(CalendarQueue, SchedulingBehindTheCursorStillFiresInOrder) {
  // Popping advances the scan cursor; an event scheduled at an earlier
  // time afterwards must pull the cursor back instead of waiting for a
  // calendar-year wraparound.
  EventQueue q;
  EventLog log;
  q.schedule(100.0, &log, 0, EventPayload{.i = 100});
  q.schedule(5000.0, &log, 0, EventPayload{.i = 5000});
  EXPECT_TRUE(q.run_next());  // pops t=100, cursor now past t=100
  q.schedule(7.0, &log, 0, EventPayload{.i = 7});
  q.schedule(300.0, &log, 0, EventPayload{.i = 300});
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{100, 7, 300, 5000}));
}

TEST(CalendarQueue, SparseFarFutureEventsAreFound) {
  // Events many calendar years apart exercise the global-minimum fallback.
  EventQueue q;
  EventLog log;
  q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(1e9, &log, 0, EventPayload{.i = 2});
  q.schedule(1e15, &log, 0, EventPayload{.i = 3});
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(CalendarQueue, SlotTableStaysFlatUnderScheduleCancelChurn) {
  EventQueue q;
  EventLog log;
  constexpr int kLive = 8;
  std::vector<TimerHandle> live;
  for (int i = 0; i < kLive; ++i) {
    live.push_back(q.schedule(1e9 + i, &log, 0));
  }
  const std::size_t baseline_capacity = q.slot_capacity();
  for (int round = 0; round < 10000; ++round) {
    EXPECT_TRUE(q.cancel(live[static_cast<std::size_t>(round % kLive)]));
    live[static_cast<std::size_t>(round % kLive)] = q.schedule(1e9 + round, &log, 0);
    EXPECT_EQ(q.pending_count(), static_cast<std::size_t>(kLive));
  }
  EXPECT_EQ(q.slot_capacity(), baseline_capacity);
  // Each cancel unlinks its entry at once, so the calendar holds only the
  // live population: the bucket count tracks the 8 pending events instead
  // of the 10008 ever scheduled, and a walk finds exactly those 8.
  EXPECT_LE(q.calendar_buckets(), 64u);
  EXPECT_EQ(q.calendar_verify(), q.pending_count());
  while (q.run_next()) {
  }
  EXPECT_EQ(q.scheduled_count(), static_cast<std::uint64_t>(kLive + 10000));
  EXPECT_EQ(q.executed_count(), static_cast<std::uint64_t>(kLive));  // rest were cancelled
}

/// Cancelling the located minimum must drop the peek cache with it: the
/// next peek locates the survivor, not the freed slot.
TEST(CalendarQueue, CancellingThePeekedMinimumExposesTheNext) {
  EventQueue q;
  EventLog log;
  const TimerHandle first = q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  q.schedule(3.0, &log, 0, EventPayload{.i = 3});
  EXPECT_EQ(q.next_time(), 1.0);  // caches the minimum
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.calendar_verify(), 2u);
  // The freed slot is reused at once; the new event must not inherit the
  // cancelled one's place.
  q.schedule(2.5, &log, 0, EventPayload{.i = 25});
  EXPECT_EQ(q.next_time(), 2.0);
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{2, 25, 3}));
}

/// Equal times share one bucket chain. Unlinking its head, a middle entry
/// and its tail must leave the survivors linked in scheduling order.
TEST(CalendarQueue, CancelsAnywhereInAnEqualTimeChainKeepFifo) {
  EventQueue q;
  EventLog log;
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 7; ++i) {
    handles.push_back(q.schedule(5.0, &log, 0, EventPayload{.i = i}));
  }
  q.schedule(4.0, &log, 0, EventPayload{.i = 40});  // an earlier bucket
  EXPECT_EQ(q.next_time(), 4.0);
  for (const int doomed : {0, 3, 6}) {  // head, middle, tail
    EXPECT_TRUE(q.cancel(handles[static_cast<std::size_t>(doomed)]));
    EXPECT_EQ(q.calendar_verify(), q.pending_count());
  }
  EXPECT_FALSE(q.cancel(handles[3]));  // already unlinked
  q.schedule(5.0, &log, 0, EventPayload{.i = 7});  // joins behind the survivors
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{40, 1, 2, 4, 5, 7}));
}

/// A cancel followed by an insert behind the cursor: the cursor moved on
/// past the popped events, the cancel unlinks an entry ahead of it, and the
/// insert must pull the cursor back to fire first.
TEST(CalendarQueue, CancelThenInsertBehindTheCursor) {
  EventQueue q;
  EventLog log;
  q.schedule(10.0, &log, 0, EventPayload{.i = 10});
  const TimerHandle doomed = q.schedule(20.0, &log, 0, EventPayload{.i = 20});
  q.schedule(30.0, &log, 0, EventPayload{.i = 30});
  ASSERT_TRUE(q.run_next());  // t = 10; the cursor sits at t = 10's epoch
  EXPECT_EQ(q.next_time(), 20.0);
  EXPECT_TRUE(q.cancel(doomed));
  q.schedule(3.0, &log, 0, EventPayload{.i = 3});
  EXPECT_EQ(q.calendar_verify(), 2u);
  EXPECT_EQ(q.next_time(), 3.0);
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{10, 3, 30}));
}

/// Cancels that empty a bucket: the scan must step over it, and a later
/// insert into it starts a fresh chain.
TEST(CalendarQueue, CancelsEmptyABucket) {
  EventQueue q;
  EventLog log;
  std::vector<TimerHandle> middle;
  q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  for (int i = 0; i < 3; ++i) {
    middle.push_back(q.schedule(2.5, &log, 0, EventPayload{.i = 20 + i}));
  }
  q.schedule(4.0, &log, 0, EventPayload{.i = 4});
  ASSERT_TRUE(q.run_next());  // t = 1
  for (const TimerHandle h : middle) EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.calendar_verify(), 1u);
  EXPECT_EQ(q.next_time(), 4.0);
  q.schedule(2.25, &log, 0, EventPayload{.i = 2});
  EXPECT_EQ(q.next_time(), 2.25);
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_EQ(q.calendar_verify(), 0u);
}

/// A rekey to the same time at a later sequence number, the steady re-arm
/// of a timer, must move behind an equal-time entry scheduled in between
/// instead of keeping its place.
TEST(CalendarQueue, SameTimeRekeyMovesBehindAnEqualTimeEntry) {
  EventQueue q;
  EventLog log;
  const TimerHandle rearmed = q.schedule(5.0, &log, 0, EventPayload{.i = 1});
  q.schedule(5.0, &log, 0, EventPayload{.i = 2});
  q.schedule(6.0, &log, 0, EventPayload{.i = 3});
  EXPECT_EQ(q.next_time(), 5.0);
  q.rekey(rearmed, EventKey{5.0, q.take_seq()}, 0, EventPayload{.i = 1});
  EXPECT_EQ(q.key_of(rearmed).seq, 3u);
  EXPECT_EQ(q.calendar_verify(), 3u);
  // Once it is the last entry at its time, a re-arm keeps its place.
  q.rekey(rearmed, EventKey{5.0, q.take_seq()}, 0, EventPayload{.i = 1});
  EXPECT_EQ(q.calendar_verify(), 3u);
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{2, 1, 3}));
  EXPECT_EQ(q.scheduled_count(), 3u);
  EXPECT_EQ(q.cancelled_count(), 0u);
}

/// Rekeying the located minimum to a later time must drop the peek cache:
/// the next peek locates the entry that is now earliest.
TEST(CalendarQueue, RekeyingThePeekedMinimumLaterExposesTheNext) {
  EventQueue q;
  EventLog log;
  const TimerHandle first = q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  q.schedule(3.0, &log, 0, EventPayload{.i = 3});
  EXPECT_EQ(q.next_time(), 1.0);  // caches the minimum
  q.rekey(first, EventKey{2.5, q.take_seq()}, 0, EventPayload{.i = 25});
  EXPECT_TRUE(q.pending(first));
  EXPECT_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.calendar_verify(), 3u);
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{2, 25, 3}));
}

/// A rekey to a time behind the scan cursor: like an insert there, it must
/// pull the cursor back and fire first.
TEST(CalendarQueue, RekeyBehindTheCursorFiresFirst) {
  EventQueue q;
  EventLog log;
  q.schedule(10.0, &log, 0, EventPayload{.i = 10});
  q.schedule(20.0, &log, 0, EventPayload{.i = 20});
  const TimerHandle moved = q.schedule(30.0, &log, 0, EventPayload{.i = 30});
  ASSERT_TRUE(q.run_next());  // t = 10; the cursor sits at t = 10's epoch
  EXPECT_EQ(q.next_time(), 20.0);
  q.rekey(moved, EventKey{3.0, q.take_seq()}, 0, EventPayload{.i = 3});
  EXPECT_EQ(q.calendar_verify(), 2u);
  EXPECT_EQ(q.next_time(), 3.0);
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{10, 3, 20}));
}

/// An event scheduled at a sequence number reserved before a live entry at
/// the same time was scheduled fires first, as if it had been scheduled
/// when the number was taken -- also when that entry is the peeked minimum.
/// So does an entry rekeyed at its own time to an older reserved number.
TEST(CalendarQueue, ReservedSeqOlderThanALiveSameTimeEntryFiresFirst) {
  EventQueue q;
  EventLog log;
  const std::uint64_t first = q.take_seq();
  const std::uint64_t second = q.take_seq();
  q.schedule(5.0, &log, 0, EventPayload{.i = 3});
  const TimerHandle moved = q.schedule(5.0, &log, 0, EventPayload{.i = 2});
  q.schedule(7.0, &log, 0, EventPayload{.i = 4});
  EXPECT_EQ(q.next_time(), 5.0);  // caches the later-numbered entry
  const TimerHandle early =
      q.schedule_at_key(EventKey{5.0, first}, &log, 0, EventPayload{.i = 1});
  EXPECT_EQ(q.key_of(early).seq, first);
  q.rekey(moved, EventKey{5.0, second}, 0, EventPayload{.i = 2});
  EXPECT_EQ(q.calendar_verify(), 4u);
  SimTime fired = 0.0;
  ASSERT_TRUE(q.run_next_due(kTimeInfinity, fired));
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1}));
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(q.scheduled_count(), 4u);
}

TEST(CalendarQueue, ResizeGrowsAndShrinksWithThePendingPopulation) {
  EventQueue q;
  EventLog log;
  Rng rng(7);
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 4096; ++i) {
    handles.push_back(q.schedule(rng.uniform(0.0, 1e6), &log, 0));
  }
  const std::size_t grown = q.calendar_buckets();
  EXPECT_GE(grown, 2048u);  // ~1 entry per bucket once grown
  while (q.run_next()) {
  }
  EXPECT_LT(q.calendar_buckets(), grown);  // shrank as the queue drained
}

/// Differential fuzz: a random interleaving of schedule / cancel / pop must
/// dispatch the identical event sequence on the calendar and the oracle.
TEST(CalendarQueue, MatchesBinaryHeapOnRandomChurn) {
  for (std::uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    EventQueue cal;
    BinaryHeapQueue heap;
    EventLog cal_log;
    EventLog heap_log;
    Rng cal_rng(seed);
    Rng heap_rng(seed);

    const auto drive = [](auto& q, EventLog& log, Rng& rng) {
      std::vector<TimerHandle> handles;
      double now = 0.0;
      std::int64_t tag = 0;
      for (int op = 0; op < 20000; ++op) {
        const double dice = rng.uniform(0.0, 1.0);
        if (dice < 0.45) {
          // Mostly near-future events, some far future, frequent exact ties.
          double t = now + (rng.bernoulli(0.2) ? rng.uniform(0.0, 1e5)
                                               : rng.uniform(0.0, 50.0));
          if (rng.bernoulli(0.25)) t = std::floor(t);  // force time collisions
          handles.push_back(q.schedule(t, &log, 0, EventPayload{.i = tag++}));
        } else if (dice < 0.65 && !handles.empty()) {
          q.cancel(handles[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
        } else if (!q.empty()) {
          now = q.next_time();
          q.run_next();
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log, cal_rng);
    drive(heap, heap_log, heap_rng);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      EXPECT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      EXPECT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// Differential fuzz with equal-time clusters and more cancels than pops,
/// across every rebuild trigger: a ramp that grows the calendar, a conveyor
/// at constant population whose inserts crowd the fitted buckets (so only
/// the crowding refit can rebuild there), and a mass cancel plus drain that
/// shrinks it. Cancels always hit a pending event, and the calendar walk
/// runs between batches, so a wrong unlink fails where it happens. Some
/// events are scheduled at sequence numbers reserved earlier, and pending
/// events are rekeyed -- re-armed at their own time, moved to another, or
/// moved to a reserved number -- against the oracle's cancel-and-schedule.
TEST(CalendarQueue, MatchesBinaryHeapOnClusteredCancelChurnAcrossRebuilds) {
  for (const std::uint64_t seed : {3ULL, 77ULL}) {
    std::size_t ramp_buckets = 0;
    std::uint64_t conveyor_rebuilds = 0;
    const auto drive = [&](auto& q, EventLog& log) {
      constexpr bool kCalendar = std::is_same_v<std::decay_t<decltype(q)>, EventQueue>;
      Rng rng(seed);
      std::vector<TimerHandle> handles;   // by tag
      std::vector<double> times;          // by tag: the time it is queued at
      std::vector<std::int64_t> pending;  // tags still queued
      std::vector<std::size_t> where;     // tag -> index in `pending`
      std::vector<std::uint64_t> reserved;  // taken sequence numbers not yet used
      const auto forget = [&](std::int64_t tag) {
        const std::size_t at = where[static_cast<std::size_t>(tag)];
        pending[at] = pending.back();
        where[static_cast<std::size_t>(pending[at])] = at;
        pending.pop_back();
      };
      const auto random_pending = [&] {
        return pending[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1))];
      };
      // A sequence number: now and then one reserved earlier (older than
      // everything scheduled since), otherwise a fresh one. Sometimes a
      // fresh one is put aside for later.
      const auto seq_for = [&] {
        if (rng.bernoulli(0.2)) reserved.push_back(q.take_seq());
        if (!reserved.empty() && rng.bernoulli(0.25)) {
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(reserved.size()) - 1));
          const std::uint64_t seq = reserved[at];
          reserved[at] = reserved.back();
          reserved.pop_back();
          return seq;
        }
        return q.take_seq();
      };
      // Half the events land on a `grain` grid, so equal times cluster.
      const auto schedule = [&](double t, double grain) {
        if (rng.bernoulli(0.5)) t = std::floor(t / grain) * grain;
        const auto tag = static_cast<std::int64_t>(handles.size());
        const EventPayload payload{.i = tag};
        handles.push_back(rng.bernoulli(0.5) ? q.schedule(t, &log, 0, payload)
                                             : q.schedule_at_key({t, seq_for()}, &log, 0, payload));
        times.push_back(t);
        where.push_back(pending.size());
        pending.push_back(tag);
      };
      const auto cancel_one = [&] {
        const std::int64_t tag = random_pending();
        ASSERT_TRUE(q.cancel(handles[static_cast<std::size_t>(tag)]));
        forget(tag);
      };
      double now = 0.0;
      // Half the rekeys re-arm an event at its own time with a later
      // number (in place unless an equal time sits behind it); the rest
      // move it up to 200 past the last pop, a little behind it at times.
      const auto rekey_one = [&](double grain) {
        const std::int64_t tag = random_pending();
        double& t = times[static_cast<std::size_t>(tag)];
        if (rng.bernoulli(0.5)) {
          t = std::floor((now + rng.uniform(-1.0, 200.0)) / grain) * grain;
        }
        q.rekey(handles[static_cast<std::size_t>(tag)], {t, seq_for()}, 0, EventPayload{.i = tag});
      };
      const auto pop = [&] {
        SimTime fired = 0.0;
        ASSERT_TRUE(q.run_next_due(kTimeInfinity, fired));
        now = fired;
        forget(log.events.back().payload.i);
      };
      const auto verify = [&] {
        if constexpr (kCalendar) {
          ASSERT_EQ(q.calendar_verify(), q.pending_count());
        }
      };

      // Ramp: grows to ~18k pending; 11 cancels and 6 rekeys for every 20
      // inserts.
      for (int i = 0; i < 40000; ++i) {
        schedule(now + rng.uniform(0.0, 4000.0), 4.0);
        if (rng.bernoulli(0.55)) cancel_one();
        if (!pending.empty() && rng.bernoulli(0.3)) rekey_one(4.0);
        if (i % 64 == 0 && !pending.empty()) pop();
        if (i % 4000 == 0) verify();
      }
      verify();
      if constexpr (kCalendar) {
        ramp_buckets = q.calendar_buckets();
        // Neither population trigger can fire at a constant population.
        ASSERT_GT(q.pending_count() * 8, q.calendar_buckets() + 8);
        ASSERT_LT(q.pending_count() + 2, q.calendar_buckets() * 2);
        conveyor_rebuilds = q.calendar_rebuilds();
      }
      // Conveyor: one pop and one insert per step, plus an insert and a
      // cancel on most steps, all far past the fitted year.
      for (int i = 0; i < 30000; ++i) {
        pop();
        schedule(1e5 + 0.01 * i, 0.02);
        if (rng.bernoulli(0.8)) {
          schedule(1e5 + 0.01 * i + rng.uniform(0.0, 50.0), 0.02);
          cancel_one();
        }
        if (!pending.empty() && rng.bernoulli(0.2)) rekey_one(0.02);
        if (i % 3000 == 0) verify();
      }
      if constexpr (kCalendar) conveyor_rebuilds = q.calendar_rebuilds() - conveyor_rebuilds;
      // Mass cancel, then a drain that keeps cancelling and sometimes
      // schedules clustered events at and just past the cursor.
      while (pending.size() * 4 > handles.size() / 8) cancel_one();
      verify();
      while (!pending.empty()) {
        pop();
        if (!pending.empty() && rng.bernoulli(0.5)) cancel_one();
        if (!pending.empty() && rng.bernoulli(0.2)) rekey_one(0.5);
        if (rng.bernoulli(0.1)) schedule(now + rng.uniform(0.0, 2.0), 0.5);
        if (pending.size() % 512 == 0) verify();
      }
      EXPECT_FALSE(q.run_next());
    };

    EventQueue cal;
    BinaryHeapQueue heap;
    EventLog cal_log;
    EventLog heap_log;
    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GE(ramp_buckets, 4096u);                   // grown
    EXPECT_GT(conveyor_rebuilds, 0u);                 // crowding refit
    EXPECT_LT(cal.calendar_buckets(), ramp_buckets);  // shrunk
    EXPECT_GE(cal.cancelled_count() * 2, cal.scheduled_count());
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// Directed regression for behind-cursor inserts after mass cancellation at
/// the scale-grid population regime: grow rebuilds refit the bucket width
/// and re-anchor the scan cursor, the cursor advances into the fitted year,
/// most of the population is then unlinked by cancels, and an insert landing
/// BEHIND the cursor must be bucketed under the current width and pull the
/// cursor back so it fires first. An epoch computed under an older width
/// would bury the event in a bucket the year scan meets late or fire it out
/// of order; a wrong unlink would lose or repeat an event. Either breaks the
/// differential identity below.
TEST(CalendarQueue, BehindCursorInsertAfterMassCancelAt64k) {
  for (const std::uint64_t seed : {7ULL, 99ULL}) {
    EventQueue cal;
    BinaryHeapQueue heap;
    EventLog cal_log;
    EventLog heap_log;

    const auto drive = [seed](auto& q, EventLog& log) {
      Rng rng(seed);
      std::int64_t tag = 0;
      // Phase 1: >= 64k pending events in a dense window (forces several
      // grow rebuilds; the fitted year spans [1000, 2000)).
      std::vector<TimerHandle> handles;
      handles.reserve(70000);
      for (int i = 0; i < 70000; ++i) {
        handles.push_back(q.schedule(1000.0 + rng.uniform(0.0, 1000.0), &log, 0,
                                     EventPayload{.i = tag++}));
      }
      // Phase 2: advance the cursor into the year.
      double now = 0.0;
      for (int i = 0; i < 2000; ++i) {
        now = q.next_time();
        q.run_next();
      }
      // Phase 3: cancel ~70% of what's pending, unlinking entries all over
      // the calendar while the population is large.
      for (std::size_t i = 0; i < handles.size(); ++i) {
        if (rng.bernoulli(0.7)) q.cancel(handles[i]);
      }
      // Phase 4: immediately insert behind the cursor (before `now`), at
      // the cursor's own time (tie with pending events), and far ahead
      // (next year), interleaved with pops and further cancels, then drain.
      std::vector<TimerHandle> extra;
      for (int round = 0; round < 200; ++round) {
        extra.push_back(q.schedule(now * rng.uniform(0.0, 0.99), &log, 0,
                                   EventPayload{.i = tag++}));
        extra.push_back(q.schedule(now, &log, 0, EventPayload{.i = tag++}));
        extra.push_back(
            q.schedule(now + rng.uniform(1000.0, 5000.0), &log, 0, EventPayload{.i = tag++}));
        if (round % 3 == 0 && !q.empty()) {
          now = q.next_time();
          q.run_next();
        }
        if (round % 5 == 0 && extra.size() >= 2) {
          q.cancel(extra[extra.size() - 2]);
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GT(cal.calendar_rebuilds(), 0u);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// The randomized differential above at the mega-grid population: ramp to
/// >= 64k pending, then churn schedule / cancel-bulk / pop so bulk unlinks
/// and fit-to-population rebuilds interleave with behind-cursor scheduling.
TEST(CalendarQueue, MatchesBinaryHeapUnderCancelResizeChurnAt64k) {
  for (const std::uint64_t seed : {5ULL, 2024ULL}) {
    EventQueue cal;
    BinaryHeapQueue heap;
    EventLog cal_log;
    EventLog heap_log;

    const auto drive = [seed](auto& q, EventLog& log) {
      Rng rng(seed);
      std::vector<TimerHandle> handles;
      double now = 0.0;
      std::int64_t tag = 0;
      // Ramp: 65k+ pending.
      for (int i = 0; i < 66000; ++i) {
        handles.push_back(
            q.schedule(rng.uniform(0.0, 3000.0), &log, 0, EventPayload{.i = tag++}));
      }
      for (int op = 0; op < 30000; ++op) {
        const double dice = rng.uniform(0.0, 1.0);
        if (dice < 0.35) {
          double t = now + (rng.bernoulli(0.1) ? rng.uniform(0.0, 1e5)
                                               : rng.uniform(0.0, 100.0));
          if (rng.bernoulli(0.3)) t = std::floor(t);
          handles.push_back(q.schedule(t, &log, 0, EventPayload{.i = tag++}));
        } else if (dice < 0.40 && !handles.empty()) {
          // Bulk cancel: 512 at a time empties whole stretches of the
          // calendar mid-churn instead of one-at-a-time nibbling.
          for (int k = 0; k < 512; ++k) {
            q.cancel(handles[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
          }
        } else if (dice < 0.62 && !handles.empty()) {
          q.cancel(handles[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
        } else if (!q.empty()) {
          now = q.next_time();
          q.run_next();
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GT(cal.calendar_rebuilds(), 0u);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// Windowed pops under cancel/resize churn: the sharded driver pops each
/// shard's queue in [gmin, horizon) windows via run_next_strictly_before, so
/// the calendar engine must agree with the heap when window boundaries
/// interleave with behind-cursor inserts, bulk cancels and rebuilds. In a
/// -DGTRIX_DEBUG_CHECKS build (the sanitizer CI jobs), every rebuild and
/// behind-cursor insert in this churn additionally walks the whole calendar
/// (EventQueue::calendar_verify), turning a mislinked or buried event into
/// a hard failure at the operation that caused it.
TEST(CalendarQueue, WindowedPopsMatchBinaryHeapUnderChurn) {
  for (const std::uint64_t seed : {11ULL, 4242ULL}) {
    EventQueue cal;
    BinaryHeapQueue heap;
    EventLog cal_log;
    EventLog heap_log;

    const auto drive = [seed](auto& q, EventLog& log) {
      Rng rng(seed);
      std::vector<TimerHandle> handles;
      std::int64_t tag = 0;
      for (int i = 0; i < 66000; ++i) {
        handles.push_back(
            q.schedule(rng.uniform(0.0, 3000.0), &log, 0, EventPayload{.i = tag++}));
      }
      double horizon = 0.0;
      SimTime fired = 0.0;
      for (int window = 0; window < 400; ++window) {
        horizon += rng.uniform(1.0, 15.0);
        // Drain the window: events exactly AT the horizon must stay queued.
        while (q.run_next_strictly_before(horizon, fired)) {
          ASSERT_LT(fired, horizon);
        }
        // Cross-window churn: new events behind and ahead of the horizon
        // plus bulk cancels mid-sequence.
        for (int i = 0; i < 40; ++i) {
          handles.push_back(q.schedule(horizon + rng.uniform(0.0, 2000.0), &log, 0,
                                       EventPayload{.i = tag++}));
        }
        if (window % 7 == 0 && !handles.empty()) {
          for (int k = 0; k < 512; ++k) {
            q.cancel(handles[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
          }
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GT(cal.calendar_rebuilds(), 0u);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// Mean number of entries an insert met in its bucket.
double mean_insert_occupancy(const EventQueue& q) {
  return static_cast<double>(q.insert_occupancy()) / static_cast<double>(q.scheduled_count());
}

/// The population that crowded the calendar when its width was fitted to
/// the whole span of pending times: a dense wave of events a link delay
/// d +- u after the last, node timers about Lambda ahead (re-armed on
/// every pulse, so the older one is cancelled), a straggler between the
/// waves and a few far-future watchdogs. The span width put each wave
/// into one or two buckets; the fit must keep the bucket size an insert
/// meets at a few entries, and dispatch in the oracle's order.
TEST(CalendarQueue, WaveShapedChurnKeepsBucketsSparse) {
  constexpr std::uint32_t kNodes = 512;
  constexpr double kD = 1000.0;
  constexpr double kU = 10.0;
  constexpr double kLambda = 3.0 * kD;
  enum Kind : std::uint32_t { kPulse, kTimer, kStraggler, kWatchdog };

  const auto drive = [](auto& q, EventLog& log) {
    Rng rng(17);
    std::int64_t tag = 0;
    std::vector<TimerHandle> timers(kNodes);
    const auto pulse = [&](std::uint32_t node, double wave) {
      q.schedule(wave + kD + rng.uniform(-kU, kU), &log, kPulse,
                 EventPayload{.a = node, .i = tag++});
      q.cancel(timers[node]);
      timers[node] = q.schedule(wave + kLambda + rng.uniform(-kU, kU), &log, kTimer,
                                EventPayload{.a = node, .i = tag++});
    };
    for (std::uint32_t node = 0; node < kNodes; ++node) pulse(node, 0.0);
    q.schedule(kD / 2, &log, kStraggler, EventPayload{.i = tag++});
    for (int i = 1; i <= 4; ++i) {
      q.schedule(i * kLambda, &log, kWatchdog, EventPayload{.i = tag++});
    }
    while (log.events.size() < 100000) {
      ASSERT_TRUE(q.run_next());
      const Event e = log.events.back();
      const double wave = std::round(e.time / kD) * kD;
      if (e.kind == kPulse) pulse(e.payload.a, wave);
      if (e.kind == kStraggler) {
        q.schedule(wave + kD / 2, &log, kStraggler, EventPayload{.i = tag++});
      }
      if (e.kind == kWatchdog) {
        q.schedule(e.time + 4 * kLambda, &log, kWatchdog, EventPayload{.i = tag++});
      }
    }
  };

  EventQueue cal;
  BinaryHeapQueue heap;
  EventLog cal_log;
  EventLog heap_log;
  drive(cal, cal_log);
  drive(heap, heap_log);
  ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
  for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
    ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
    ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
  }
  EXPECT_LE(mean_insert_occupancy(cal), 4.0);
}

/// The crowding refit: a calendar fitted to a population spread evenly
/// over a wide window, then fed a steady conveyor of inserts 0.01 apart
/// far past it. Once the spread population has been popped, every entry
/// sits in one or two of the wide buckets, and the population stays
/// constant without cancellations, so no population trigger refits the
/// calendar. The crowded inserts must: after that, an insert meets only a
/// few entries.
TEST(CalendarQueue, CrowdedInsertsRefitTheCalendar) {
  EventQueue cal;
  BinaryHeapQueue heap;
  EventLog cal_log;
  EventLog heap_log;
  constexpr int kChurn = 30000;
  constexpr int kSettled = 10000;  ///< churn inserts before the refit has settled
  std::uint64_t rebuilds_before = 0;
  std::uint64_t rebuilds_after = 0;
  std::uint64_t occupancy_settled = 0;
  std::uint64_t scheduled_settled = 0;
  const auto drive = [&](auto& q, EventLog& log) {
    constexpr bool kCalendar = std::is_same_v<std::decay_t<decltype(q)>, EventQueue>;
    Rng rng(23);
    std::int64_t tag = 0;
    for (int i = 0; i < 2000; ++i) {
      q.schedule(rng.uniform(0.0, 1e6), &log, 0, EventPayload{.i = tag++});
    }
    if constexpr (kCalendar) rebuilds_before = q.calendar_rebuilds();
    for (int i = 0; i < kChurn; ++i) {
      if constexpr (kCalendar) {
        if (i == kSettled) {
          occupancy_settled = q.insert_occupancy();
          scheduled_settled = q.scheduled_count();
        }
      }
      ASSERT_TRUE(q.run_next());
      q.schedule(2e6 + 0.01 * i, &log, 0, EventPayload{.i = tag++});
    }
    if constexpr (kCalendar) rebuilds_after = q.calendar_rebuilds();
    while (q.run_next()) {
    }
  };

  drive(cal, cal_log);
  drive(heap, heap_log);
  ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
  for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
    ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
    ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
  }
  EXPECT_GT(rebuilds_after, rebuilds_before);
  const double settled =
      static_cast<double>(cal.insert_occupancy() - occupancy_settled) /
      static_cast<double>(cal.scheduled_count() - scheduled_settled);
  EXPECT_LE(settled, 4.0);
}

/// run_next_due respects the deadline and reports fire times (the single-
/// locate simulator loop depends on both).
TEST(CalendarQueue, RunNextDueStopsAtDeadline) {
  const auto check = [](auto& q) {
    EventLog log;
    q.schedule(1.0, &log, 0, EventPayload{.i = 1});
    q.schedule(2.0, &log, 0, EventPayload{.i = 2});
    q.schedule(3.0, &log, 0, EventPayload{.i = 3});
    SimTime fired = -1.0;
    EXPECT_TRUE(q.run_next_due(2.0, fired));
    EXPECT_DOUBLE_EQ(fired, 1.0);
    EXPECT_TRUE(q.run_next_due(2.0, fired));
    EXPECT_DOUBLE_EQ(fired, 2.0);
    EXPECT_FALSE(q.run_next_due(2.0, fired));  // t=3 is past the deadline
    EXPECT_FALSE(q.empty());
    EXPECT_TRUE(q.run_next_due(5.0, fired));
    EXPECT_DOUBLE_EQ(fired, 3.0);
  };
  EventQueue cal;
  check(cal);
  EXPECT_EQ(cal.pending_count(), 0u);
  BinaryHeapQueue heap;
  check(heap);
}

}  // namespace
}  // namespace gtrix
