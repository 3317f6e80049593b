#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace gtrix {

namespace {

constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets), bucket_mask_(kMinBuckets - 1) {}

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
  }
  QueueEntry entry = entry_in;
  entry.epoch = epoch_of(entry.time);  // rebuild above may have changed width
  const long long epoch = entry.epoch;
  const std::size_t b = bucket_of_epoch(epoch);
  std::vector<QueueEntry>& bucket = buckets_[b];
  // Keep the bucket sorted descending by (time, seq): first index whose
  // entry fires before the new one is the insertion point. Buckets hold
  // ~2 entries on average (the rebuild policy pins occupancy), so a linear
  // scan beats binary search here.
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
  for (std::size_t lap = 0; lap < buckets_.size(); ++lap) {
    const long long epoch = cur_epoch_ + static_cast<long long>(lap);
    std::vector<QueueEntry>& bucket = buckets_[bucket_of_epoch(epoch)];
    // Skim the stale tail; what remains at the back is the bucket's
    // earliest live entry (sorted descending).
    while (!bucket.empty() && stale(bucket.back())) {
      bucket.pop_back();
      --entry_count_;
      --dead_;
      ++purged_;
    }
    if (!bucket.empty() && bucket.back().epoch == epoch) {
      GTRIX_DEBUG_CHECK_MSG(bucket.back().epoch == epoch_of(bucket.back().time),
                            "calendar entry epoch stamped under a stale width");
      cur_epoch_ = epoch;
      peek_ = PeekRef{bucket_of_epoch(epoch), bucket.size() - 1, true};
      return true;
    }
  }
  // A full lap found nothing inside its year window: the population is
  // sparse relative to the calendar span. Fall back to a direct global
  // minimum scan and re-anchor the cursor there.
  return calendar_global_min();
}

bool EventQueue::calendar_global_min() const {
  std::size_t best_bucket = kNoIndex;
  std::size_t best_index = kNoIndex;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::vector<QueueEntry>& bucket = buckets_[b];
    // Back-most live entry is the bucket's earliest; stale entries deeper
    // in are left for the purge rebuild.
    for (std::size_t i = bucket.size(); i-- > 0;) {
      if (stale(bucket[i])) continue;
      if (best_bucket == kNoIndex ||
          fires_before(bucket[i], buckets_[best_bucket][best_index])) {
        best_bucket = b;
        best_index = i;
      }
      break;
    }
  }
  if (best_bucket == kNoIndex) return false;
  cur_epoch_ = buckets_[best_bucket][best_index].epoch;
  peek_ = PeekRef{best_bucket, best_index, true};
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
  // Collect the live population and fit the calendar to it: bucket count ~
  // the next power of two above the population (about one entry per bucket)
  // and width ~ twice the mean gap between pending event times, so one
  // year spans the whole pending window. Bucket vectors are reused (only
  // cleared), so a purge rebuild performs no per-bucket reallocation.
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
  entry_count_ = entries.size();
  const std::size_t target = std::max(min_buckets, std::bit_ceil(entries.size()));
  if (target != buckets_.size()) buckets_.resize(target);

  double min_t = std::numeric_limits<double>::infinity();
  double max_t = -std::numeric_limits<double>::infinity();
  for (const QueueEntry& entry : entries) {
    min_t = std::min(min_t, entry.time);
    max_t = std::max(max_t, entry.time);
  }
  double width = 1.0;
  if (entries.size() >= 2 && max_t > min_t) {
    width = 2.0 * (max_t - min_t) / static_cast<double>(entries.size());
    // Keep floor(t / width) well inside the integer range even for large
    // absolute times with tightly clustered events.
    width = std::max(width, (std::abs(max_t) + 1.0) * 1e-12);
  }
  width_ = width;
  inv_width_ = 1.0 / width_;
  bucket_mask_ = buckets_.size() - 1;

  // Distributing in globally descending (time, seq) order leaves every
  // bucket sorted descending.
  std::sort(entries.begin(), entries.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return fires_before(b, a); });
  for (QueueEntry& entry : entries) {
    entry.epoch = epoch_of(entry.time);
    buckets_[bucket_of_epoch(entry.epoch)].push_back(entry);
  }
  // Re-anchor the cursor at the earliest entry (or at zero when empty).
  peek_.valid = false;
  cur_epoch_ = entries.empty() ? 0 : epoch_of(min_t);
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
