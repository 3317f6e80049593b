// Engine telemetry: the counter/histogram registry behind EngineOptions::
// telemetry (docs/observability.md).
//
// Determinism discipline -- the part that makes telemetry safe to embed in
// campaign JSONL: every counter in the catalog is tagged either
//  * engine-invariant: the value is identical for EVERY shard count and
//    sweep thread count, because it counts simulated behaviour, which
//    sharding provably preserves -- algorithm-issued timer cancels,
//    recorded pulses, logical events. Only these fields appear in the
//    per-cell `engine_stats` JSONL block, so the CI byte-identity diffs
//    across (threads, shards) keep holding with telemetry on; or
//  * engine-shaped: deterministic for a FIXED engine config but dependent
//    on it (raw executed events, calendar geometry, window counts, mailbox
//    envelopes). These live only in the summary JSON, next to the equally
//    non-portable wall_seconds.
// Wall-clock data (per-shard busy / barrier-wait seconds, peak RSS) is not
// a counter at all and is likewise summary/trace-only.
//
// Collection is pull-based: the hot paths (event queue, network) keep their
// existing always-on O(1) counters and World::engine_stats() harvests them
// after the run, so enabling telemetry adds NO per-event work. The only
// push-style instrumentation is per-WINDOW in the shard driver, which
// writes into one Telemetry lane per shard (own cache line, own writer) --
// merged here in fixed lane order, so the merge is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/json.hpp"

namespace gtrix {

class CkptIo;

/// Always true: telemetry is always compiled in, and the runtime flag
/// EngineOptions::telemetry keeps the untimed loop. Kept only because the
/// build fingerprint in hostbench/ reads it.
inline constexpr bool kObsCompiled = true;

/// Every telemetry counter. Order is the (stable) export order.
enum class ObsCounter : std::uint32_t {
  // --- engine-invariant: safe for the JSONL engine_stats block ------------
  kLogicalEvents,     ///< executed - delivery_events + delivered (see campaign)
  kMessagesSent,      ///< pulses sent over network edges
  kMessagesDelivered, ///< pulses arriving at sinks
  kNodeIterations,    ///< algorithm node iterations
  kTimerCancels,      ///< successful timer cancellations issued by node code
  kPulsesRecorded,    ///< pulses recorded by the metrics recorder
  kRealignShiftedNodes, ///< nodes whose wave labels realignment shifted
  kCorruptPinnedPulses, ///< pulse times a corrupt streaming cell retains
  // --- engine-shaped: summary JSON only -----------------------------------
  kEventsExecuted,    ///< raw queue events popped (batching/shard dependent)
  kEventsScheduled,   ///< raw queue events scheduled
  kEventsPurged,      ///< entries the calendar unlinked before they fired
  kCalendarRebuilds,  ///< calendar-queue resize/crowding rebuilds
  kCalendarInsertOccupancy, ///< entries already in the target bucket, summed over inserts
  kCalendarPopVisits, ///< buckets the cursor visited per located minimum, summed
  kShardWindows,      ///< conservative windows executed, summed over shards
  kEnvelopesPublished,///< cross-shard envelopes handed over at barriers
  kEnvelopesDrained,  ///< cross-shard envelopes drained into receiver queues
  kCount,
};

inline constexpr std::size_t kObsCounterCount =
    static_cast<std::size_t>(ObsCounter::kCount);

struct ObsCounterInfo {
  ObsCounter id;
  const char* name;        ///< JSON key / catalog name
  bool engine_invariant;   ///< true: identical across every engine config
  const char* summary;
};

/// The full catalog, in ObsCounter order (docs/observability.md renders it).
std::span<const ObsCounterInfo> obs_counter_catalog();

/// Fixed-layout power-of-two histogram: bin 0 holds the value 0, bin i
/// (1 <= i < kBins-1) holds [2^(i-1), 2^i), the last bin is the overflow
/// tail. The edges are compile-time constants -- never fitted to data -- so
/// merging histograms bin-wise is exact and the layout is stable across
/// runs, shard counts and releases (tests/test_obs.cpp pins the edges).
class ObsHistogram {
 public:
  static constexpr std::size_t kBins = 16;

  /// Inclusive lower edge of bin i: 0, 1, 2, 4, 8, ..., 2^(kBins-2).
  static constexpr std::uint64_t bin_floor(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  static std::size_t bin_of(std::uint64_t v);

  void add(std::uint64_t v) { ++counts_[bin_of(v)]; }
  void merge(const ObsHistogram& other) {
    for (std::size_t i = 0; i < kBins; ++i) counts_[i] += other.counts_[i];
  }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): the bins, for a cell's
  /// done file.
  void checkpoint(CkptIo& io);

  /// {"bin_floors": [...], "counts": [...]} -- floors emitted so consumers
  /// never have to hard-code the layout.
  Json to_json() const;

 private:
  std::array<std::uint64_t, kBins> counts_{};
};

/// Per-shard slice of a sharded run's telemetry (summary/trace only: window
/// counts and wall times depend on the shard layout and the host).
struct EngineShardStats {
  std::uint64_t windows = 0;
  std::uint64_t envelopes_drained = 0;
  double busy_seconds = 0.0;          ///< executing windows (incl. mailbox drain)
  double barrier_wait_seconds = 0.0;  ///< parked at the window barrier
};

/// One run's harvested telemetry. Default-constructed == telemetry disabled
/// (enabled == false, everything zero) -- what World::engine_stats() returns
/// when the gate is off.
struct EngineStats {
  bool enabled = false;
  std::array<std::uint64_t, kObsCounterCount> counters{};
  /// Events executed per conservative window (sharded runs only).
  ObsHistogram window_events;
  std::vector<EngineShardStats> shards;  ///< empty on serial runs
  double run_wall_seconds = 0.0;         ///< wall time inside run_* calls
  double peak_rss_mb = 0.0;              ///< process peak RSS at harvest time

  // Checkpoint activity (runner-level, filled by the checkpointed cell
  // runner -- docs/checkpointing.md). Snapshot sizes and wall times are
  // host/engine-shaped, so the block is summary-only, like wall_seconds.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;       ///< total snapshot bytes written
  std::uint64_t checkpoints_restored = 0;   ///< resumes from a snapshot
  std::uint64_t cells_resumed_done = 0;     ///< cells satisfied from done files
  double checkpoint_write_seconds = 0.0;
  double checkpoint_restore_seconds = 0.0;

  std::uint64_t get(ObsCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  void set(ObsCounter c, std::uint64_t v) {
    counters[static_cast<std::size_t>(c)] = v;
  }
  void add(ObsCounter c, std::uint64_t v) {
    counters[static_cast<std::size_t>(c)] += v;
  }

  /// The JSONL block: engine-invariant counters ONLY, in catalog order.
  /// Byte-identical across every (threads, shards) combination -- the CI
  /// determinism diffs and tests/test_obs.cpp enforce it.
  Json invariant_json() const;

  /// The summary block: every counter, the window histogram, per-shard
  /// busy/barrier breakdown, run wall time, peak RSS and -- when any
  /// checkpoint was written or restored -- the checkpoint activity block.
  Json summary_json() const;

  /// Accumulates another run's stats (campaign summary aggregation):
  /// counters and histograms add, wall times add, peak RSS takes the max
  /// (it is a process-wide high-water mark), per-shard rows add index-wise.
  void merge(const EngineStats& other);
};

/// Per-shard telemetry lanes for the shard driver: lane s is written only
/// by shard s's worker thread (own cache line), harvested serially after
/// the run in lane order -- a deterministic merge by construction.
class Telemetry {
 public:
  explicit Telemetry(std::uint32_t lanes) : lanes_(lanes) {}

  struct alignas(64) Lane {
    std::uint64_t windows = 0;
    double busy_seconds = 0.0;
    double barrier_wait_seconds = 0.0;
    ObsHistogram window_events;
  };

  Lane& lane(std::uint32_t i) { return lanes_[i]; }

  /// Adds lane data into `out` (kShardWindows, window_events, per-shard
  /// busy/barrier seconds). `out.shards` is resized to cover every lane.
  void harvest_into(EngineStats& out) const;

 private:
  std::vector<Lane> lanes_;
};

}  // namespace gtrix
