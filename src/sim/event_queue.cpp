#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/check.hpp"

namespace gtrix {

namespace {

/// floor(x) as an integer, without a libm call: x86-64 below SSE4.1 cannot
/// inline std::floor, and the calendar takes one on every insert, unlink
/// and bucket visit. The cast truncates toward zero, one too high for a
/// negative non-integer. Exact wherever the cast is defined: a double of
/// magnitude 2^52 or more is already an integer.
long long floor_to_int(double x) noexcept {
  const auto truncated = static_cast<long long>(x);
  return truncated - (static_cast<double>(truncated) > x ? 1 : 0);
}

/// Crowding refit: after every kCrowdWindow inserts, refit when those
/// inserts met more than kCrowded entries per bucket on average, and more
/// than twice what the current fit predicted (equal times crowd a bucket
/// at any width, so refitting cannot help them).
constexpr std::uint32_t kCrowdWindow = 4096;
constexpr double kCrowded = 8.0;

/// A pop's step to the next bucket costs about twice an entry an insert
/// scans past (measured when each bucket was a vector of its own; kept
/// for the chains, docs/performance.md).
constexpr double kStepCost = 2.0;

/// What a width costs a population, per entry, if it were popped in order.
struct WidthCost {
  /// Mean number of entries sharing an entry's epoch, itself included: the
  /// bucket size an insert drawn from the population meets. (Epochs a
  /// whole calendar year apart share a bucket too; the estimate ignores
  /// that.)
  double occupancy = 1.0;
  /// Mean number of epochs the cursor steps from one entry to the next;
  /// a gap longer than the year costs one lap.
  double walk = 0.0;
  double total() const noexcept { return occupancy + kStepCost * walk; }
};

/// WidthCost of `width` for a population sorted DESCENDING by time, on a
/// calendar of `buckets` buckets.
template <class Entry>
WidthCost width_cost(const std::vector<Entry>& sorted, double width, std::size_t buckets) {
  const double inv_width = 1.0 / width;
  const auto lap = static_cast<long long>(buckets);
  double sum_sq = 0.0;
  double run = 0.0;
  long long steps = 0;
  long long prev = 0;
  for (const Entry& entry : sorted) {
    const long long epoch = floor_to_int(entry.time * inv_width);
    if (run > 0.0 && epoch == prev) {
      run += 1.0;
      continue;
    }
    if (run > 0.0) steps += std::min(prev - epoch, lap);
    sum_sq += run * run;
    run = 1.0;
    prev = epoch;
  }
  sum_sq += run * run;
  const auto n = static_cast<double>(sorted.size());
  return {sum_sq / n, static_cast<double>(steps) / n};
}

struct WidthFit {
  double width = 1.0;
  WidthCost cost;
};

/// The bucket width for a population sorted DESCENDING by time. It starts
/// from twice the mean gap over the whole span, which suits a population
/// spread evenly over its span. But one early or far-future event
/// stretches the span, and a population that clusters in dense waves
/// leaves most of it empty; either way the span width crowds the clusters
/// into a few buckets. So the fit takes, among the span width and its
/// halvings, the one with the lowest predicted cost: entries an insert
/// scans plus the buckets a pop steps through. Outliers on either side only
/// add a few long steps, which cost about the same at any width, so the
/// fit follows the dense part; and it stays as wide as that part allows,
/// since narrower buckets lengthen every step. Equal times share a bucket
/// at any width, so they never pull the width down.
template <class Entry>
WidthFit fit_width(const std::vector<Entry>& sorted, std::size_t buckets) {
  const std::size_t n = sorted.size();
  if (n < 2) return {};
  const double min_t = sorted.back().time;
  const double max_t = sorted.front().time;
  if (!(max_t > min_t)) return {1.0, {static_cast<double>(n), 0.0}};
  // Keep floor(t / width) well inside the integer range even for large
  // absolute times with tightly clustered events.
  const double min_width = (std::abs(max_t) + 1.0) * 1e-12;
  WidthFit fit;
  fit.width = std::max(2.0 * (max_t - min_t) / static_cast<double>(n), min_width);
  fit.cost = width_cost(sorted, fit.width, buckets);
  for (double width = fit.width * 0.5; width >= min_width; width *= 0.5) {
    const WidthCost cost = width_cost(sorted, width, buckets);
    if (cost.total() < fit.cost.total()) {
      fit = {width, cost};
    } else if (kStepCost * cost.walk >= fit.cost.total()) {
      break;  // the walk only grows as the width shrinks
    }
  }
  return fit;
}

}  // namespace

EventQueue::EventQueue()
    : buckets_(kMinBuckets),
      bucket_mask_(kMinBuckets - 1),
      crowd_limit_(static_cast<std::uint64_t>(kCrowdWindow * kCrowded)) {}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kInvalidEventSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next;
    return index;
  }
  GTRIX_CHECK_MSG(slots_.size() < kInvalidEventSlot, "event slot table overflow");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.target = nullptr;
  ++slot.gen;  // invalidates every outstanding handle
  slot.next = free_head_;
  free_head_ = index;
}

TimerHandle EventQueue::schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                                 EventPayload payload) {
  return schedule_at_key(EventKey{t, next_seq_++}, target, kind, payload);
}

TimerHandle EventQueue::schedule_at_key(EventKey key, TimerTarget* target, std::uint32_t kind,
                                        EventPayload payload) {
  GTRIX_CHECK_MSG(target != nullptr, "event target must not be null");
  GTRIX_DEBUG_CHECK_MSG(key.seq < next_seq_, "scheduled at a sequence number never taken");
  // Before the new slot goes live: a rebuild collects the live slots.
  calendar_refit_if_due();
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.payload = payload;
  slot.target = target;
  slot.time = key.time;
  slot.seq = key.seq;
  slot.kind = kind;
  slot.live = true;
  ++scheduled_;
  ++live_;
  calendar_insert(index);
  return TimerHandle{index, slot.gen};
}

void EventQueue::rekey(TimerHandle handle, EventKey key, std::uint32_t kind,
                       EventPayload payload) {
  GTRIX_CHECK_MSG(pending(handle), "rekey of an event that is not pending");
  GTRIX_DEBUG_CHECK_MSG(key.seq < next_seq_, "rekeyed to a sequence number never taken");
  Slot& slot = slots_[handle.slot];
  slot.kind = kind;
  slot.payload = payload;
  if (key.time == slot.time && key.seq >= slot.seq &&
      (slot.next == kInvalidEventSlot || fires_before(key, slots_[slot.next]))) {
    // The entry keeps its bucket and its place in the chain: everything
    // ahead of it fired before its old key, and its successor fires after
    // the new one. A peeked minimum stays the minimum, since every other
    // entry of its epoch is in this chain.
    slot.seq = key.seq;
    return;
  }
  // While the slot still sits at its old key: a rebuild relinks the live
  // slots.
  calendar_refit_if_due();
#ifdef GTRIX_DEBUG_CHECKS
  const std::size_t from = bucket_of_epoch(epoch_of(slot.time));
#endif
  calendar_unlink(handle.slot);
  slot.time = key.time;
  slot.seq = key.seq;
  calendar_insert(handle.slot);
#ifdef GTRIX_DEBUG_CHECKS
  // The two chains the move touched. A whole-calendar walk here would
  // cost O(pending) on nearly every node iteration.
  calendar_verify_chain(from, nullptr);
  calendar_verify_chain(bucket_of_epoch(epoch_of(slot.time)), nullptr);
#endif
}

bool EventQueue::cancel(TimerHandle handle) {
  if (!pending(handle)) return false;
  calendar_unlink(handle.slot);
  release_slot(handle.slot);
  --live_;
  ++cancelled_;
  return true;
}

bool EventQueue::pending(TimerHandle handle) const noexcept {
  if (handle.slot == kInvalidEventSlot || handle.slot >= slots_.size()) return false;
  const Slot& slot = slots_[handle.slot];
  return slot.live && slot.gen == handle.gen;
}

SimTime EventQueue::next_time() const {
  GTRIX_CHECK_MSG(live_ > 0, "next_time on empty queue");
  GTRIX_CHECK(calendar_find_min());
  return slots_[peek_].time;
}

bool EventQueue::run_next() {
  SimTime fired;
  return run_next_due(kTimeInfinity, fired);
}

bool EventQueue::run_next_due(SimTime deadline, SimTime& fired) {
  return run_next_below(deadline, /*inclusive=*/true, fired);
}

bool EventQueue::run_next_strictly_before(SimTime horizon, SimTime& fired) {
  return run_next_below(horizon, /*inclusive=*/false, fired);
}

bool EventQueue::run_next_below(SimTime bound, bool inclusive, SimTime& fired) {
  if (live_ == 0) return false;
  GTRIX_CHECK(calendar_find_min());
  const std::uint32_t index = peek_;
  Slot& slot = slots_[index];
  if (slot.time > bound || (!inclusive && slot.time == bound)) return false;
  // The minimum heads the cursor's bucket.
  Bucket& bucket = buckets_[bucket_of_epoch(cur_epoch_)];
  GTRIX_DEBUG_CHECK_MSG(bucket.head == index, "the peeked minimum does not head its bucket");
  bucket.head = slot.next;
  --bucket.size;
  peek_ = kInvalidEventSlot;
  const Event event{slot.time, slot.kind, slot.payload};
  TimerTarget* target = slot.target;
  // Recycle before dispatch: the handler may reschedule into this very slot,
  // and the fired handle is stale from the handler's point of view.
  release_slot(index);
  --live_;
  ++executed_;
  if (buckets_.size() > kMinBuckets && live_ * 8 < buckets_.size()) {
    calendar_rebuild(kMinBuckets);
  }
  fired = event.time;
  target->on_timer(event);
  return true;
}

// --- calendar ----------------------------------------------------------------
//
// Invariants:
//  * a live slot with time t is linked into the chain of bucket
//    epoch_of(t) mod nbuckets, exactly once, and no free slot is;
//  * every chain ascends by (time, seq), so a bucket's earliest entry is
//    its head and a pop unlinks the head;
//  * no live slot has an epoch below cur_epoch_ (inserts behind the cursor
//    pull it back), so the year scan starting at cur_epoch_ always meets
//    the global (time, seq) minimum first;
//  * equal times map to equal buckets, so FIFO among ties falls out of the
//    (time, seq) order of the chain.

long long EventQueue::epoch_of(SimTime t) const noexcept {
  // Multiply by the precomputed inverse: cheaper than dividing, and any
  // rounding difference vs t / width_ is harmless -- the mapping only has
  // to be one deterministic monotone function used consistently.
  return floor_to_int(t * inv_width_);
}

std::size_t EventQueue::bucket_of_epoch(long long epoch) const noexcept {
  // Bucket count is a power of two; masking the two's-complement epoch
  // equals the positive modulo for negatives as well.
  return static_cast<std::size_t>(static_cast<unsigned long long>(epoch) & bucket_mask_);
}

void EventQueue::calendar_refit_if_due() {
  if (live_ > buckets_.size() * 2) {
    calendar_rebuild(buckets_.size() * 2);
  } else if (crowd_inserts_ == kCrowdWindow) {
    if (crowd_occupancy_ > crowd_limit_) {
      calendar_rebuild(kMinBuckets);
    } else {
      crowd_inserts_ = 0;
      crowd_occupancy_ = 0;
    }
  }
}

void EventQueue::calendar_insert(std::uint32_t index) {
  Slot& slot = slots_[index];
  const long long epoch = epoch_of(slot.time);
  Bucket& bucket = buckets_[bucket_of_epoch(epoch)];
  insert_occupancy_ += bucket.size;
  crowd_occupancy_ += bucket.size;
  ++crowd_inserts_;
  // Link in behind every entry that fires before the new one. The width
  // fit (fit_width) keeps chains at a few entries, and the crowding refit
  // catches a population that drifted from its fit.
  std::uint32_t* link = &bucket.head;
  while (*link != kInvalidEventSlot && fires_before(slots_[*link], slot)) {
    link = &slots_[*link].next;
  }
  slot.next = *link;
  *link = index;
  ++bucket.size;
  if (epoch < cur_epoch_) {
    // Scheduled behind the scan cursor (a queue used directly before any
    // pop, or after the cursor chased a sparse far-future tail). Pull the
    // cursor back; by the cursor invariant no other live slot sits at an
    // epoch this low, so the new entry is the minimum.
    cur_epoch_ = epoch;
    peek_ = index;
#ifdef GTRIX_DEBUG_CHECKS
    calendar_verify();
#endif
  } else if (peek_ != kInvalidEventSlot && fires_before(slot, slots_[peek_])) {
    peek_ = index;
  }
}

void EventQueue::calendar_unlink(std::uint32_t index) {
  const Slot& slot = slots_[index];
  Bucket& bucket = bucket_of(slot);
  std::uint32_t* link = &bucket.head;
  while (*link != index) {
    GTRIX_DEBUG_CHECK_MSG(*link != kInvalidEventSlot, "a live slot is missing from its bucket");
    link = &slots_[*link].next;
  }
  *link = slot.next;
  --bucket.size;
  if (peek_ == index) peek_ = kInvalidEventSlot;
}

bool EventQueue::calendar_find_min() const {
  if (peek_ != kInvalidEventSlot) return true;
  if (live_ == 0) return false;
  // Walk one calendar year from the cursor. A bucket's head is its earliest
  // entry, so the first head in the scanned epoch is the minimum. Heads in
  // later years are remembered: when the whole year is empty (the
  // population is sparse relative to the year), the lap has met every
  // bucket's earliest entry, and the earliest of those is the minimum.
  std::uint32_t later = kInvalidEventSlot;
  for (std::size_t lap = 0; lap < buckets_.size(); ++lap) {
    const long long epoch = cur_epoch_ + static_cast<long long>(lap);
    const std::uint32_t head = buckets_[bucket_of_epoch(epoch)].head;
    if (head == kInvalidEventSlot) continue;
    if (epoch_of(slots_[head].time) == epoch) {
      pop_visits_ += lap + 1;
      cur_epoch_ = epoch;
      peek_ = head;
      return true;
    }
    if (later == kInvalidEventSlot || fires_before(slots_[head], slots_[later])) later = head;
  }
  if (later == kInvalidEventSlot) return false;
  pop_visits_ += buckets_.size();
  cur_epoch_ = epoch_of(slots_[later].time);
  peek_ = later;
  return true;
}

void EventQueue::calendar_rebuild(std::size_t min_buckets) {
  ++rebuilds_;
  calendar_fit(min_buckets);
}

void EventQueue::calendar_fit(std::size_t min_buckets) {
  // Bucket count: the next power of two above the population (about one
  // entry per bucket). Width: fit_width, from the population sorted in
  // descending (time, seq) order -- linking each entry in at the head of
  // its bucket in that order leaves every chain ascending.
  std::vector<RebuildKey>& keys = rebuild_scratch_;
  keys.clear();
  keys.reserve(live_);
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) keys.push_back({slots_[i].time, slots_[i].seq, i});
  }
  const std::size_t target = std::max(min_buckets, std::bit_ceil(keys.size()));
  buckets_.assign(target, Bucket{});
  bucket_mask_ = buckets_.size() - 1;
  std::sort(keys.begin(), keys.end(),
            [](const RebuildKey& a, const RebuildKey& b) { return fires_before(b, a); });
  const WidthFit fit = fit_width(keys, buckets_.size());
  width_ = fit.width;
  inv_width_ = 1.0 / width_;
  crowd_limit_ = static_cast<std::uint64_t>(static_cast<double>(kCrowdWindow) *
                                            std::max(kCrowded, 2.0 * fit.cost.occupancy));
  crowd_inserts_ = 0;
  crowd_occupancy_ = 0;
  for (const RebuildKey& key : keys) {
    Slot& slot = slots_[key.slot];
    Bucket& bucket = bucket_of(slot);
    slot.next = bucket.head;
    bucket.head = key.slot;
    ++bucket.size;
  }
  // Re-anchor the cursor at the earliest entry (or at zero when empty).
  peek_ = kInvalidEventSlot;
  cur_epoch_ = keys.empty() ? 0 : epoch_of(keys.back().time);
#ifdef GTRIX_DEBUG_CHECKS
  calendar_verify();
#endif
}

std::size_t EventQueue::calendar_verify() const {
  std::vector<bool> linked(slots_.size(), false);
  std::size_t walked = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) walked += calendar_verify_chain(b, &linked);
  GTRIX_CHECK_MSG(walked == live_, "calendar holds a different count than pending_count()");
  const auto live_slots =
      std::count_if(slots_.begin(), slots_.end(), [](const Slot& slot) { return slot.live; });
  GTRIX_CHECK_MSG(static_cast<std::size_t>(live_slots) == live_,
                  "a live slot is missing from the calendar");
  return walked;
}

std::size_t EventQueue::calendar_verify_chain(std::size_t b, std::vector<bool>* linked) const {
  std::uint32_t chain = 0;
  const Slot* prev = nullptr;
  for (std::uint32_t i = buckets_[b].head; i != kInvalidEventSlot; i = slots_[i].next) {
    GTRIX_CHECK_MSG(i < slots_.size(), "calendar chain links past the slot table");
    GTRIX_CHECK_MSG(chain < slots_.size(), "calendar chain cycles");
    if (linked != nullptr) {
      GTRIX_CHECK_MSG(!(*linked)[i], "calendar slot linked twice (or a chain cycles)");
      (*linked)[i] = true;
    }
    const Slot& slot = slots_[i];
    GTRIX_CHECK_MSG(slot.live, "calendar chain holds a free slot");
    const long long epoch = epoch_of(slot.time);
    GTRIX_CHECK_MSG(bucket_of_epoch(epoch) == b,
                    "calendar slot sits in a bucket its time does not map to");
    GTRIX_CHECK_MSG(epoch >= cur_epoch_, "calendar slot hides behind the scan cursor");
    GTRIX_CHECK_MSG(prev == nullptr || fires_before(*prev, slot),
                    "calendar chain does not ascend by (time, seq)");
    prev = &slot;
    ++chain;
  }
  GTRIX_CHECK_MSG(chain == buckets_[b].size, "calendar bucket size out of sync with its chain");
  return chain;
}

}  // namespace gtrix
