// Struct-of-arrays storage for per-node hot simulation state.
//
// The event hot path touches a handful of registers per node per event: the
// iteration phase, the three reception times H_own / H_min / H_max and the
// per-predecessor seen flags and wave labels.
// When each node object owns that state inline, consecutive events -- which
// visit *different* nodes in time order -- chase pointers into heap-scattered
// objects where the hot scalars share cache lines with cold configuration
// (Params, predecessor lists, counters, the recorder pointer).
//
// NodeArena instead packs each register into one dense lane (one vector per
// field, indexed by an arena slot the node claims at construction), so a
// wave of events sweeping the grid walks a few contiguous arrays. World
// owns one arena per experiment (per shard, when sharded) and every node
// constructor takes its lanes by reference; a standalone harness owns its
// own arena the same way.
//
// Per-predecessor lanes are bump-allocated: a node with k predecessors
// claims k consecutive entries of the slot lanes and remembers its base
// offset. Cold, variable-size state (pending-message queues) stays on the
// node objects by design -- see docs/performance.md for the split
// rationale. Configuration that every node of an arena shares is held
// once, by the arena, as are the gradient nodes' counters (one tally per
// arena, i.e. per shard) and, under full recording only, the iteration
// record each gradient node stages for its next broadcast.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "metrics/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"

namespace gtrix {

class CkptIo;

/// The configuration of a GradientTrixNode that every node of one World
/// shares; a fault's per-node broadcast offset is a constructor argument.
struct GradientNodeConfig {
  Params params;

  /// Algorithm 1 instead of Algorithm 3. Requires fault-free predecessors.
  bool simplified = false;

  /// Algorithm 4 wait-statement guards (Appendix C).
  bool self_stabilizing = false;

  /// Jump condition (Definition 4.5). Disabling reproduces Figure 5.
  bool jump_condition = true;

  /// Estimate \bar{L} of the steady-state local skew, used by the
  /// self-stabilization watchdog interval theta (2 \bar{L} + u). Callers
  /// typically pass params.thm11_bound(D).
  double skew_bound_hint = 0.0;

  /// EXTENSION (paper "Bigger Picture" item 3): trimmed aggregation.
  /// H_min is the (trim+1)-th earliest neighbour reception and H_max the
  /// (deg - trim)-th, so `trim` outliers on each side cannot influence the
  /// correction at all. trim = 0 is the paper's algorithm. With trim = 1 on
  /// an in-degree-5 grid (cycle_wide reach 2), a node withstands a faulty
  /// own copy plus one arbitrary neighbour, or two neighbours pulling in
  /// opposite directions. Requires 2 * trim < neighbour count.
  std::uint32_t trim = 0;

  bool operator==(const GradientNodeConfig&) const = default;
};

/// The gradient nodes' counters of one arena. World sums the tallies of
/// its shards (World::counters); the totals are engine-invariant. Only the
/// arena's shard writes it, and it fills its own cache line, so the shards
/// never share one.
struct alignas(64) GradientTally {
  std::uint64_t iterations = 0;         ///< completed (broadcast) iterations
  std::uint64_t late_broadcasts = 0;    ///< broadcast target already passed
  std::uint64_t guard_aborts = 0;       ///< Alg 4 wait-guard trips (no broadcast)
  std::uint64_t watchdog_resets = 0;    ///< Alg 4 partial-state clears
  std::uint64_t duplicate_drops = 0;    ///< repeated pulse within an iteration
  std::uint64_t pending_overflow = 0;   ///< pending queue cap exceeded
  std::uint64_t timeout_branches = 0;   ///< Alg 3 first branch taken
  std::uint64_t late_absorbed = 0;      ///< current-wave pulses consumed mid-wait

  /// Checkpoint codec (src/ckpt/nodes_ckpt.cpp).
  void checkpoint(CkptIo& io);
};

/// Lanes for GradientTrixNode (Algorithms 1/3/4 registers).
class GradientSoa {
 public:
  /// Sizes every lane for `nodes` nodes with `slots` predecessor slots in
  /// all, so claiming them grows no lane; `keep_records` sizes the staged
  /// lane too.
  void reserve(std::uint32_t nodes, std::uint32_t slots, bool keep_records) {
    phase.reserve(nodes);
    h_own.reserve(nodes);
    h_min.reserve(nodes);
    h_max.reserve(nodes);
    last_sigma.reserve(nodes);
    slot_base.reserve(nodes);
    slot_r.reserve(slots);
    slot_seen.reserve(slots);
    slot_sigma.reserve(slots);
    if (keep_records) staged.reserve(nodes);
  }

  /// Claims one node entry with `slots` per-predecessor lane entries, and
  /// a staged record when `keep_record`; returns the node's arena index.
  /// State starts as a fresh iteration. The first node's config becomes the
  /// arena's; every later node must bring the same one, and keep its
  /// records exactly when the first did.
  std::uint32_t add_node(std::uint32_t slots, const GradientNodeConfig& node_config,
                         bool keep_record) {
    if (phase.empty()) config = node_config;
    GTRIX_CHECK_MSG(node_config == config, "the gradient nodes of one arena share one config");
    const auto index = static_cast<std::uint32_t>(phase.size());
    GTRIX_CHECK_MSG(staged.size() == (keep_record ? index : 0),
                    "the gradient nodes of one arena all keep their iteration records, or "
                    "none does");
    if (keep_record) staged.emplace_back();
    phase.push_back(0);
    h_own.push_back(kLocalInfinity);
    h_min.push_back(kLocalInfinity);
    h_max.push_back(kLocalInfinity);
    last_sigma.push_back(0);
    slot_base.push_back(static_cast<std::uint32_t>(slot_r.size()));
    slot_r.insert(slot_r.end(), slots, 0);
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    return index;
  }

  /// The config every node of this arena runs with.
  GradientNodeConfig config;

  // Scalar lanes, indexed by arena index.
  std::vector<std::uint8_t> phase;  ///< GradientTrixNode::Phase
  std::vector<LocalTime> h_own;
  std::vector<LocalTime> h_min;
  std::vector<LocalTime> h_max;
  std::vector<Sigma> last_sigma;

  // Per-predecessor lanes, indexed by slot_base[node] + slot.
  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_r;     ///< neighbour-received flags
  std::vector<std::uint8_t> slot_seen;  ///< any reception this iteration
  std::vector<Sigma> slot_sigma;        ///< wave label each slot carried

  /// The iteration record each node stages between its decision and its
  /// broadcast, indexed by arena index. Full recording only: empty when
  /// the recorder keeps no iteration records, and the node then builds
  /// none.
  std::vector<IterationRecord> staged;

  GradientTally tally;
};

/// Lanes for Layer0LineNode (Algorithm 2's single register + timer).
class Layer0Soa {
 public:
  std::uint32_t add_node() {
    const auto index = static_cast<std::uint32_t>(stored_h.size());
    stored_h.push_back(kLocalInfinity);
    out_sigma.push_back(0);
    broadcast_timer.emplace_back();
    return index;
  }

  std::vector<LocalTime> stored_h;
  std::vector<Sigma> out_sigma;
  std::vector<TimerHandle> broadcast_timer;
};

/// Lanes for the naive-TRIX baseline node.
class TrixSoa {
 public:
  std::uint32_t add_node(std::uint32_t slots) {
    const auto index = static_cast<std::uint32_t>(armed.size());
    armed.push_back(0);
    seen_count.push_back(0);
    fire_timer.emplace_back();
    slot_base.push_back(static_cast<std::uint32_t>(slot_seen.size()));
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    return index;
  }

  std::vector<std::uint8_t> armed;
  std::vector<std::uint32_t> seen_count;
  std::vector<TimerHandle> fire_timer;

  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_seen;
  std::vector<Sigma> slot_sigma;
};

/// Lanes for the Lynch-Welch grid baseline node.
class LwSoa {
 public:
  std::uint32_t add_node(std::uint32_t slots) {
    const auto index = static_cast<std::uint32_t>(seen_count.size());
    seen_count.push_back(0);
    fire_timer.emplace_back();
    slot_base.push_back(static_cast<std::uint32_t>(slot_seen.size()));
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_arrival.insert(slot_arrival.end(), slots, 0.0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    return index;
  }

  std::vector<std::uint32_t> seen_count;
  std::vector<TimerHandle> fire_timer;

  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_seen;
  std::vector<LocalTime> slot_arrival;
  std::vector<Sigma> slot_sigma;

  /// Shared trimmed-midpoint sort scratch (simulations are single-threaded
  /// within one World, so one buffer serves every node).
  std::vector<LocalTime> fire_scratch;
};

/// One arena per experiment, owned by World and shared by every node the
/// providers construct (NodeContext::arena).
struct NodeArena {
  GradientSoa gradient;
  Layer0Soa layer0;
  TrixSoa trix;
  LwSoa lw;
};

}  // namespace gtrix
