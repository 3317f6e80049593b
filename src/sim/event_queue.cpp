#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/check.hpp"

namespace gtrix {

namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Crowding refit: after every kCrowdWindow inserts, refit when those
/// inserts met more than kCrowded entries per bucket on average, and more
/// than twice what the current fit predicted (equal times crowd a bucket
/// at any width, so refitting cannot help them).
constexpr std::uint32_t kCrowdWindow = 4096;
constexpr double kCrowded = 8.0;

/// A pop's step to the next bucket costs about twice an entry an insert
/// scans past: the step reads another bucket's vector, the scan stays in
/// one (docs/performance.md has the measurement).
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
    const auto epoch = static_cast<long long>(std::floor(entry.time * inv_width));
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
    free_head_ = slots_[index].next_free;
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
  ++slot.gen;  // invalidates every outstanding handle and queue entry
  slot.next_free = free_head_;
  free_head_ = index;
}

TimerHandle EventQueue::schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                                 EventPayload payload) {
  GTRIX_CHECK_MSG(target != nullptr, "event target must not be null");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.payload = payload;
  slot.target = target;
  slot.time = t;
  slot.kind = kind;
  slot.live = true;
  calendar_insert(QueueEntry{t, next_seq_++, 0, index, slot.gen});
  ++scheduled_;
  ++live_;
  return TimerHandle{index, slot.gen};
}

bool EventQueue::cancel(TimerHandle handle) {
  if (!pending(handle)) return false;
  // The bucket entry stays until a scan meets it; account it as dead so the
  // purge policy keeps the calendar free of cancelled bulk.
  ++dead_;
  if (peek_.valid) {
    const QueueEntry& cached = buckets_[peek_.bucket][peek_.index];
    if (cached.slot == handle.slot && cached.gen == handle.gen) peek_.valid = false;
  }
  release_slot(handle.slot);
  --live_;
  ++cancelled_;
  if (dead_ > 64 && dead_ * 2 > entry_count_) {
    calendar_rebuild(kMinBuckets);
  }
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
  return buckets_[peek_.bucket][peek_.index].time;
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
  const QueueEntry& top = buckets_[peek_.bucket][peek_.index];
  if (top.time > bound || (!inclusive && top.time == bound)) return false;
  const std::uint32_t slot_index = top.slot;
  calendar_pop_peeked();
  Slot& slot = slots_[slot_index];
  const Event event{slot.time, slot.kind, slot.payload};
  TimerTarget* target = slot.target;
  // Recycle before dispatch: the handler may reschedule into this very slot,
  // and the fired handle is stale from the handler's point of view.
  release_slot(slot_index);
  --live_;
  ++executed_;
  fired = event.time;
  target->on_timer(event);
  return true;
}

// --- calendar ----------------------------------------------------------------
//
// Invariants:
//  * an entry with time t lives in bucket epoch_of(t) mod nbuckets;
//  * every bucket is sorted DESCENDING by (time, seq), so the bucket's
//    earliest entry sits at the back and a pop is an O(1) pop_back;
//  * no live entry has an epoch below cur_epoch_ (inserts behind the cursor
//    pull it back), so the year scan starting at cur_epoch_ always meets
//    the global (time, seq) minimum first;
//  * equal times map to equal buckets, so FIFO among ties falls out of the
//    (time, seq) sort order.

long long EventQueue::epoch_of(SimTime t) const noexcept {
  // Multiply by the precomputed inverse: cheaper than dividing, and any
  // rounding difference vs t / width_ is harmless -- the mapping only has
  // to be one deterministic monotone function used consistently.
  return static_cast<long long>(std::floor(t * inv_width_));
}

std::size_t EventQueue::bucket_of_epoch(long long epoch) const noexcept {
  // Bucket count is a power of two; masking the two's-complement epoch
  // equals the positive modulo for negatives as well.
  return static_cast<std::size_t>(static_cast<unsigned long long>(epoch) & bucket_mask_);
}

void EventQueue::calendar_insert(const QueueEntry& entry_in) {
  if (calendar_live() > buckets_.size() * 2) {
    calendar_rebuild(buckets_.size() * 2);
  } else if (crowd_inserts_ == kCrowdWindow) {
    if (crowd_occupancy_ > crowd_limit_) {
      calendar_rebuild(kMinBuckets);
    } else {
      crowd_inserts_ = 0;
      crowd_occupancy_ = 0;
    }
  }
  QueueEntry entry = entry_in;
  entry.epoch = epoch_of(entry.time);  // rebuild above may have changed width
  const long long epoch = entry.epoch;
  const std::size_t b = bucket_of_epoch(epoch);
  std::vector<QueueEntry>& bucket = buckets_[b];
  insert_occupancy_ += bucket.size();
  crowd_occupancy_ += bucket.size();
  ++crowd_inserts_;
  // Keep the bucket sorted descending by (time, seq): first index whose
  // entry fires before the new one is the insertion point. The width fit
  // (fit_width) keeps buckets at a few entries, and the crowding refit
  // catches a population that drifted from its fit, so a linear scan
  // beats binary search here.
  std::size_t pos = 0;
  while (pos < bucket.size() && !fires_before(bucket[pos], entry)) ++pos;
  bucket.insert(bucket.begin() + static_cast<std::ptrdiff_t>(pos), entry);
  ++entry_count_;
  if (peek_.valid && peek_.bucket == b && pos <= peek_.index) ++peek_.index;
  if (epoch < cur_epoch_) {
    // Scheduled behind the scan cursor (a queue used directly before any
    // pop, or after the cursor chased a sparse far-future tail). Pull the
    // cursor back; by the cursor invariant no other live entry sits at an
    // epoch this low, so the new entry is the minimum.
    cur_epoch_ = epoch;
    peek_ = PeekRef{b, pos, true};
#ifdef GTRIX_DEBUG_CHECKS
    // The behind-cursor insert is exactly the spot the EPOCH FRESHNESS
    // INVARIANT (header) protects: after a purge rebuild refit width_, a
    // pre-rebuild epoch would bucket this entry into a year the scan never
    // meets. Walk the whole calendar while the debug build has the chance.
    calendar_verify_epochs();
#endif
  } else if (peek_.valid &&
             fires_before(entry, buckets_[peek_.bucket][peek_.index])) {
    peek_ = PeekRef{b, pos, true};
  }
}

bool EventQueue::calendar_find_min() const {
  if (peek_.valid) return true;
  if (live_ == 0) return false;
  // Walk one calendar year from the cursor. Once its stale tail is
  // skimmed, a bucket's back is its earliest live entry, so the first back
  // in the scanned epoch is the minimum. Backs in later years are
  // remembered: when the whole year is empty (the population is sparse
  // relative to the year), the lap has met every bucket's earliest entry,
  // and the earliest of those is the minimum.
  std::size_t later = kNoIndex;
  for (std::size_t lap = 0; lap < buckets_.size(); ++lap) {
    const long long epoch = cur_epoch_ + static_cast<long long>(lap);
    const std::size_t b = bucket_of_epoch(epoch);
    std::vector<QueueEntry>& bucket = buckets_[b];
    while (!bucket.empty() && stale(bucket.back())) {
      bucket.pop_back();
      --entry_count_;
      --dead_;
      ++purged_;
    }
    if (bucket.empty()) continue;
    GTRIX_DEBUG_CHECK_MSG(bucket.back().epoch == epoch_of(bucket.back().time),
                          "calendar entry epoch stamped under a stale width");
    if (bucket.back().epoch == epoch) {
      cur_epoch_ = epoch;
      peek_ = PeekRef{b, bucket.size() - 1, true};
      return true;
    }
    if (later == kNoIndex || fires_before(bucket.back(), buckets_[later].back())) later = b;
  }
  if (later == kNoIndex) return false;
  cur_epoch_ = buckets_[later].back().epoch;
  peek_ = PeekRef{later, buckets_[later].size() - 1, true};
  return true;
}

void EventQueue::calendar_pop_peeked() {
  std::vector<QueueEntry>& bucket = buckets_[peek_.bucket];
  GTRIX_DEBUG_CHECK_MSG(
      bucket[peek_.index].epoch == epoch_of(bucket[peek_.index].time),
      "popping a calendar entry whose epoch predates the current width");
  // Order-preserving removal; the peeked entry is at or near the back.
  bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(peek_.index));
  --entry_count_;
  peek_.valid = false;
  if (buckets_.size() > kMinBuckets && calendar_live() * 8 < buckets_.size()) {
    calendar_rebuild(kMinBuckets);
  }
}

void EventQueue::calendar_rebuild(std::size_t min_buckets) {
  // Collect the live population and refit the calendar to it. Bucket
  // vectors are reused (only cleared), so a purge rebuild performs no
  // per-bucket reallocation.
  ++rebuilds_;
  std::vector<QueueEntry>& entries = rebuild_scratch_;
  entries.clear();
  entries.reserve(calendar_live());
  for (std::vector<QueueEntry>& bucket : buckets_) {
    for (const QueueEntry& entry : bucket) {
      if (!stale(entry)) entries.push_back(entry);
    }
    bucket.clear();
  }
  purged_ += dead_;  // the stale entries just dropped with their buckets
  dead_ = 0;
  calendar_fit(min_buckets);
}

void EventQueue::calendar_fit(std::size_t min_buckets) {
  // Bucket count: the next power of two above the population (about one
  // entry per bucket). Width: fit_width, from the population sorted in
  // globally descending (time, seq) order -- distributing in that order
  // leaves every bucket sorted descending.
  std::vector<QueueEntry>& entries = rebuild_scratch_;
  entry_count_ = entries.size();
  const std::size_t target = std::max(min_buckets, std::bit_ceil(entries.size()));
  if (target != buckets_.size()) buckets_.resize(target);
  bucket_mask_ = buckets_.size() - 1;
  std::sort(entries.begin(), entries.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return fires_before(b, a); });
  const WidthFit fit = fit_width(entries, buckets_.size());
  width_ = fit.width;
  inv_width_ = 1.0 / width_;
  crowd_limit_ = static_cast<std::uint64_t>(static_cast<double>(kCrowdWindow) *
                                            std::max(kCrowded, 2.0 * fit.cost.occupancy));
  crowd_inserts_ = 0;
  crowd_occupancy_ = 0;
  for (QueueEntry& entry : entries) {
    entry.epoch = epoch_of(entry.time);
    buckets_[bucket_of_epoch(entry.epoch)].push_back(entry);
  }
  // Re-anchor the cursor at the earliest entry (or at zero when empty).
  peek_.valid = false;
  cur_epoch_ = entries.empty() ? 0 : entries.back().epoch;
#ifdef GTRIX_DEBUG_CHECKS
  calendar_verify_epochs();
#endif
}

void EventQueue::calendar_verify_epochs() const {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::vector<QueueEntry>& bucket = buckets_[b];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const QueueEntry& entry = bucket[i];
      if (stale(entry)) continue;
      GTRIX_CHECK_MSG(entry.epoch == epoch_of(entry.time),
                      "live calendar entry carries an epoch from an older width");
      GTRIX_CHECK_MSG(bucket_of_epoch(entry.epoch) == b,
                      "live calendar entry sits in a bucket its epoch does not map to");
      GTRIX_CHECK_MSG(entry.epoch >= cur_epoch_,
                      "live calendar entry hides behind the scan cursor");
    }
  }
}

}  // namespace gtrix
