// Struct-of-arrays storage for per-node hot simulation state.
//
// The event hot path touches a handful of registers per node per event: the
// iteration phase, the three reception times H_own / H_min / H_max, the
// per-predecessor seen flags and wave labels, and the armed timer handles.
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
// offset. Cold, variable-size state (pending-message queues, staged
// iteration records, counters) stays on the node objects by design -- see
// docs/performance.md for the split rationale.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace gtrix {

/// Lanes for GradientTrixNode (Algorithms 1/3/4 registers).
class GradientSoa {
 public:
  /// Claims one node entry with `slots` per-predecessor lane entries;
  /// returns the node's arena index. State starts as a fresh iteration.
  std::uint32_t add_node(std::uint32_t slots) {
    const auto index = static_cast<std::uint32_t>(phase.size());
    phase.push_back(0);
    h_own.push_back(kLocalInfinity);
    h_min.push_back(kLocalInfinity);
    h_max.push_back(kLocalInfinity);
    last_sigma.push_back(0);
    until_timer.emplace_back();
    broadcast_timer.emplace_back();
    watchdog_timer.emplace_back();
    slot_base.push_back(static_cast<std::uint32_t>(slot_r.size()));
    slot_r.insert(slot_r.end(), slots, 0);
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    return index;
  }

  // Scalar lanes, indexed by arena index.
  std::vector<std::uint8_t> phase;  ///< GradientTrixNode::Phase
  std::vector<LocalTime> h_own;
  std::vector<LocalTime> h_min;
  std::vector<LocalTime> h_max;
  std::vector<Sigma> last_sigma;
  std::vector<TimerHandle> until_timer;
  std::vector<TimerHandle> broadcast_timer;
  std::vector<TimerHandle> watchdog_timer;

  // Per-predecessor lanes, indexed by slot_base[node] + slot.
  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_r;     ///< neighbour-received flags
  std::vector<std::uint8_t> slot_seen;  ///< any reception this iteration
  std::vector<Sigma> slot_sigma;        ///< wave label each slot carried
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
