// AlgorithmProvider: pluggable per-node algorithm construction behind one
// pulse-sink contract.
//
// A NodeModel wraps one algorithm-layer grid node (GradientTrixNode, the
// naive TRIX baseline, the Lynch-Welch-style trimmed-midpoint node, or any
// registered extension) and exposes the uniform surface World wires:
// the PulseSink, the fault hooks, state corruption and counters. Providers
// declare capabilities so the config layer can reject fault plans and
// corruption schedules an algorithm cannot honor -- a hard, path-qualified
// error instead of the silent no-op the enum-era World performed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "clock/hardware_clock.hpp"
#include "core/params.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "registry/registry.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {

class GradientTrixNode;
struct NodeArena;
class CkptIo;

/// Aggregated algorithm counters (summed over all nodes by World).
struct ExperimentCounters {
  std::uint64_t iterations = 0;
  std::uint64_t late_broadcasts = 0;
  std::uint64_t guard_aborts = 0;
  std::uint64_t watchdog_resets = 0;
  std::uint64_t timeout_branches = 0;
  std::uint64_t duplicate_drops = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Queue events spent on deliveries (see Network::delivery_events).
  std::uint64_t delivery_events = 0;

  /// The engine-independent logical event count the campaign, telemetry
  /// and benches report: broadcast batching and the sharded engine's
  /// cross-shard fan-out splitting change how many queue events realize
  /// the same deliveries, so each delivery counts once instead.
  std::uint64_t logical_events() const noexcept {
    return events_executed - delivery_events + messages_delivered;
  }
};

/// What an algorithm can be asked to do. The scenario layer checks these
/// when resolving a config; World re-checks as a hard backstop.
struct AlgorithmCaps {
  /// Send-behaviour faults (static-offset / split / jitter / mute-after)
  /// can be installed on this algorithm's nodes.
  bool send_fault_overrides = false;
  /// corrupt_fraction / Theorem 1.6 transient-fault workloads.
  bool state_corruption = false;
  /// Keeps making progress when a predecessor never pulses (crash or
  /// fixed-period faults anywhere in the grid).
  bool tolerates_silent_preds = false;
  /// Reads the config-level `trim` and needs 2 * trim < every node's
  /// neighbour count; the scenario layer checks it against the topology's
  /// minimum degree when cells expand.
  bool trim_limited_by_degree = false;
};

/// Replaces a node's default broadcast (fault wrappers). Same contract as
/// GradientTrixNode::SendOverride.
using SendOverride = std::function<void(const Pulse&, SimTime)>;

/// Everything needed to build one algorithm-layer node.
struct NodeContext {
  Simulator& sim;
  Network& net;
  NetNodeId self;
  HardwareClock clock;
  /// Own copy first (Grid::predecessors). Nodes keep this view, so the
  /// list must outlive them (World: the Grid outlives every node).
  std::span<const NetNodeId> preds;
  Params params;
  std::uint32_t diameter = 0;        ///< base-graph diameter D
  std::uint32_t trim = 0;            ///< trimmed-aggregation extension
  bool self_stabilizing = false;
  bool jump_condition = true;
  double broadcast_offset = 0.0;     ///< static fault shift (0 when correct)
  Recorder* recorder = nullptr;
  /// Struct-of-arrays store for the node's hot state (core/node_state.hpp),
  /// owned by World; providers hand the node its algorithm's lanes.
  NodeArena& arena;
};

/// One constructed algorithm node. The built-in models hold their node by
/// value, so a node costs a single allocation.
class NodeModel {
 public:
  virtual ~NodeModel() = default;

  virtual PulseSink& sink() = 0;

  /// Fault hooks. World only calls these when the provider's caps() allow
  /// it (the config layer rejects mismatches earlier with path context).
  virtual void set_send_override(SendOverride fn);
  virtual void corrupt_state(Rng& rng);

  virtual void add_counters(ExperimentCounters& /*total*/) const {}

  /// The wrapped GradientTrixNode, for harnesses that poke gradient
  /// internals (World::gradient_node); null for other algorithms.
  virtual GradientTrixNode* gradient() noexcept { return nullptr; }

  /// Checkpoint hooks (src/ckpt). timer_target() exposes the wrapped
  /// node's TimerTarget identity so pending events targeting it can
  /// round-trip through the checkpoint target map; checkpoint() is the
  /// node's codec, listing its mutable state once for both directions
  /// (CkptIo::saving() tells them apart; a save only reads). The default
  /// throws CkptError: an external provider without an override fails a
  /// checkpoint attempt loudly instead of silently snapshotting partial
  /// state.
  virtual TimerTarget* timer_target() noexcept { return nullptr; }
  virtual void checkpoint(CkptIo& io);
};

class AlgorithmProvider {
 public:
  virtual ~AlgorithmProvider() = default;

  virtual AlgorithmCaps caps() const = 0;
  virtual std::unique_ptr<NodeModel> make_node(NodeContext ctx) const = 0;
};

/// Global registry; built-ins (gradient-full, gradient-simplified,
/// trix-naive, lynch-welch) register on first access.
ComponentRegistry<AlgorithmProvider>& algorithm_registry();

}  // namespace gtrix
