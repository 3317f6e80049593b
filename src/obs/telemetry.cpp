#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace gtrix {

namespace {

constexpr ObsCounterInfo kCatalog[] = {
    {ObsCounter::kLogicalEvents, "logical_events", true,
     "executed events minus delivery events plus delivered messages; the "
     "engine-invariant unit of simulation work"},
    {ObsCounter::kMessagesSent, "messages_sent", true,
     "pulses sent over network edges"},
    {ObsCounter::kMessagesDelivered, "messages_delivered", true,
     "pulses delivered to sinks"},
    {ObsCounter::kNodeIterations, "node_iterations", true,
     "algorithm node iterations"},
    {ObsCounter::kTimerCancels, "timer_cancels", true,
     "timer cancellations issued by node code, counted by the Simulator "
     "(a gradient node's disarmed deadlines included)"},
    {ObsCounter::kPulsesRecorded, "pulses_recorded", true,
     "pulses recorded by the metrics recorder"},
    {ObsCounter::kRealignShiftedNodes, "realign_shifted_nodes", true,
     "nodes whose wave labels post-run realignment shifted (corrupt cells; "
     "0 elsewhere)"},
    {ObsCounter::kCorruptPinnedPulses, "corrupt_pinned_pulses", true,
     "pulse times a corrupt streaming cell retains (0 under full recording "
     "and on clean cells)"},
    {ObsCounter::kEventsExecuted, "events_executed", false,
     "raw queue events popped; depends on broadcast batching and the shard "
     "plan's cross-shard fan-out splitting"},
    {ObsCounter::kEventsScheduled, "events_scheduled", false,
     "raw queue events scheduled (includes later-cancelled ones)"},
    {ObsCounter::kEventsPurged, "events_purged", false,
     "entries the calendar queue unlinked before they fired: queued timer "
     "cancels, and gradient-node entries left with no armed deadline"},
    {ObsCounter::kCalendarRebuilds, "calendar_rebuilds", false,
     "calendar-queue resize/crowding rebuilds"},
    {ObsCounter::kCalendarInsertOccupancy, "calendar_insert_occupancy", false,
     "entries already in the target calendar bucket, summed over inserts; "
     "divided by events_scheduled, the mean bucket size an insert meets"},
    {ObsCounter::kCalendarPopVisits, "calendar_pop_visits", false,
     "calendar buckets the scan cursor visited to locate each next event, "
     "summed; divided by events_executed, the buckets a pop visits"},
    {ObsCounter::kShardWindows, "shard_windows", false,
     "conservative windows executed, summed over shards (0 on serial runs)"},
    {ObsCounter::kEnvelopesPublished, "envelopes_published", false,
     "cross-shard envelopes handed from senders to receivers at barriers"},
    {ObsCounter::kEnvelopesDrained, "envelopes_drained", false,
     "cross-shard envelopes drained into receiver queues"},
};

static_assert(std::size(kCatalog) == kObsCounterCount,
              "every ObsCounter needs a catalog row");

}  // namespace

std::span<const ObsCounterInfo> obs_counter_catalog() {
  // The enum indexes straight into the table; keep them aligned.
  for (std::size_t i = 0; i < kObsCounterCount; ++i) {
    GTRIX_DEBUG_CHECK(static_cast<std::size_t>(kCatalog[i].id) == i);
  }
  return kCatalog;
}

std::size_t ObsHistogram::bin_of(std::uint64_t v) {
  if (v == 0) return 0;
  // Value v (>= 1) has bit_width w, so v is in [2^(w-1), 2^w): bin w.
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return std::min(w, kBins - 1);
}

std::uint64_t ObsHistogram::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts_) sum += c;
  return sum;
}

Json ObsHistogram::to_json() const {
  Json floors = Json::array();
  Json counts = Json::array();
  for (std::size_t i = 0; i < kBins; ++i) {
    floors.push_back(static_cast<std::int64_t>(bin_floor(i)));
    counts.push_back(static_cast<std::int64_t>(counts_[i]));
  }
  Json j = Json::object();
  j.set("bin_floors", std::move(floors));
  j.set("counts", std::move(counts));
  return j;
}

Json EngineStats::invariant_json() const {
  Json j = Json::object();
  for (const ObsCounterInfo& info : obs_counter_catalog()) {
    if (!info.engine_invariant) continue;
    j.set(info.name, static_cast<std::int64_t>(get(info.id)));
  }
  return j;
}

Json EngineStats::summary_json() const {
  Json j = Json::object();
  for (const ObsCounterInfo& info : obs_counter_catalog()) {
    j.set(info.name, static_cast<std::int64_t>(get(info.id)));
  }
  j.set("window_events", window_events.to_json());
  Json shard_rows = Json::array();
  for (const EngineShardStats& s : shards) {
    Json row = Json::object();
    row.set("windows", static_cast<std::int64_t>(s.windows));
    row.set("envelopes_drained", static_cast<std::int64_t>(s.envelopes_drained));
    row.set("busy_seconds", s.busy_seconds);
    row.set("barrier_wait_seconds", s.barrier_wait_seconds);
    shard_rows.push_back(std::move(row));
  }
  j.set("shards", std::move(shard_rows));
  j.set("run_wall_seconds", run_wall_seconds);
  j.set("peak_rss_mb", peak_rss_mb);
  if (checkpoints_written + checkpoints_restored + cells_resumed_done > 0) {
    Json ckpt = Json::object();
    ckpt.set("written", static_cast<std::int64_t>(checkpoints_written));
    ckpt.set("bytes", static_cast<std::int64_t>(checkpoint_bytes));
    ckpt.set("restored", static_cast<std::int64_t>(checkpoints_restored));
    ckpt.set("cells_resumed_done", static_cast<std::int64_t>(cells_resumed_done));
    ckpt.set("write_seconds", checkpoint_write_seconds);
    ckpt.set("restore_seconds", checkpoint_restore_seconds);
    j.set("checkpoint", std::move(ckpt));
  }
  return j;
}

void EngineStats::merge(const EngineStats& other) {
  if (!other.enabled) return;
  enabled = true;
  for (std::size_t i = 0; i < kObsCounterCount; ++i) counters[i] += other.counters[i];
  window_events.merge(other.window_events);
  if (shards.size() < other.shards.size()) shards.resize(other.shards.size());
  for (std::size_t s = 0; s < other.shards.size(); ++s) {
    shards[s].windows += other.shards[s].windows;
    shards[s].envelopes_drained += other.shards[s].envelopes_drained;
    shards[s].busy_seconds += other.shards[s].busy_seconds;
    shards[s].barrier_wait_seconds += other.shards[s].barrier_wait_seconds;
  }
  run_wall_seconds += other.run_wall_seconds;
  peak_rss_mb = std::max(peak_rss_mb, other.peak_rss_mb);
  checkpoints_written += other.checkpoints_written;
  checkpoint_bytes += other.checkpoint_bytes;
  checkpoints_restored += other.checkpoints_restored;
  cells_resumed_done += other.cells_resumed_done;
  checkpoint_write_seconds += other.checkpoint_write_seconds;
  checkpoint_restore_seconds += other.checkpoint_restore_seconds;
}

void Telemetry::harvest_into(EngineStats& out) const {
  if (out.shards.size() < lanes_.size()) out.shards.resize(lanes_.size());
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    const Lane& lane = lanes_[s];
    out.add(ObsCounter::kShardWindows, lane.windows);
    out.window_events.merge(lane.window_events);
    out.shards[s].windows += lane.windows;
    out.shards[s].busy_seconds += lane.busy_seconds;
    out.shards[s].barrier_wait_seconds += lane.barrier_wait_seconds;
  }
}

}  // namespace gtrix
