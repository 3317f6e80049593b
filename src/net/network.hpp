// Message transport between nodes (paper §2, "Communication").
//
// Each directed edge e has an unknown but fixed delay delta_e in [d-u, d];
// every pulse sent over e is delivered delta_e later. A slow delay drift
// (Corollary 1.5; DelayDrift below), fixed at construction from the delay
// model, adds A/2 * sin(2 pi t / period + 0.7 e) to a send at time t, so
// drifting delays lie in [d-u-A/2, d+A/2].
//
// Faulty nodes may send point-to-point on individual out-edges at arbitrary
// times (§2: edge faults are mapped to node faults), so send() is per-edge;
// broadcast() is the well-behaved path used by correct nodes.
//
// Shards (configure_shards; docs/performance.md, "Sharded execution"):
// nodes are partitioned across one Simulator per shard. A Network starts as
// the one-shard case -- shard 0 is the Simulator it was constructed with
// and owns every node -- and there is one send, broadcast, inject and
// delivery path at every shard count. Sends between same-shard nodes are
// ordinary queue events; sends that cross shards become ShardEnvelopes
// parked in single-writer mailboxes and are drained into the receiving
// shard's queue at the next window barrier, sorted by the deterministic
// (arrival time, sender, edge) key so the merge order is engine-invariant.
//
// Simultaneous arrivals (zero-jitter scenarios, post-corruption chaos) get
// the same canonical order at EVERY shard count: when more than one event
// shares a delivery's instant, the sink calls are deferred and flushed in
// (receiver, sender, edge) order once the instant's queue events have all
// executed. Without this, one queue would process tied arrivals in
// queue-insertion order while a shard mixes directly-queued local sends
// with barrier-drained envelopes -- two different orders, and an
// order-sensitive receiver (e.g. a wave-label vote over differing stamps
// after state corruption) would diverge between shard counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "support/check.hpp"

namespace gtrix {

using NetNodeId = std::uint32_t;
using EdgeId = std::uint32_t;

/// A clock pulse. `stamp` is a metrics-only wave index: correct algorithm
/// code never reads it to make decisions (the paper's pulses carry no data);
/// it exists so the harness can associate pulses across nodes.
struct Pulse {
  std::int64_t stamp = 0;
};

/// Receiver interface implemented by algorithm nodes and fault behaviours.
class PulseSink {
 public:
  virtual ~PulseSink() = default;

  /// `from` is the sending node, `edge` the delivering edge.
  virtual void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) = 0;
};

/// Corollary 1.5's slow delay drift (registry/delay.hpp): amplitude A and
/// period. A = 0, the default, means static delays.
struct DelayDrift {
  double amplitude = 0.0;
  double period = 0.0;
};

class Network final : public TimerTarget {
 public:
  /// The one-shard network: `sim` is shard 0's queue.
  explicit Network(Simulator& sim, DelayDrift drift = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node. `sink` is non-owning and may be null initially
  /// (wired later via set_sink); it must outlive the network runs.
  NetNodeId add_node(PulseSink* sink = nullptr);
  void set_sink(NetNodeId node, PulseSink* sink);

  /// Adds a directed edge with fixed delay (must be positive).
  EdgeId add_edge(NetNodeId from, NetNodeId to, double delay);

  std::uint32_t node_count() const noexcept { return static_cast<std::uint32_t>(nodes_.size()); }
  std::uint32_t edge_count() const noexcept { return static_cast<std::uint32_t>(edges_.size()); }

  NetNodeId edge_from(EdgeId e) const { return edges_.at(e).from; }
  NetNodeId edge_to(EdgeId e) const { return edges_.at(e).to; }
  double edge_delay(EdgeId e) const { return edges_.at(e).delay; }

  /// A node's out-edges in ascending edge id: the order broadcast() sends
  /// in and kBatchDeliver fans out in, so it fixes sequence numbers.
  std::span<const EdgeId> out_edges(NetNodeId node) const {
    if (adjacency_stale_) rebuild_adjacency();
    GTRIX_CHECK(node < nodes_.size());
    return {out_ids_.data() + out_off_[node], out_off_[node + 1] - out_off_[node]};
  }

  /// Sends a pulse on one edge; delivery after the edge's delay plus the
  /// drift term at the send time.
  void send(EdgeId e, const Pulse& pulse);

  /// Performs send(e, pulse) `extra >= 0` time from now (the drift is
  /// sampled at that later send time). Used by fault behaviours that delay
  /// or jitter individual out-edges.
  void send_after(EdgeId e, const Pulse& pulse, double extra);

  /// Sends on every out-edge of `from`. Batched delivery: when every
  /// out-edge of the sender carries the same delay, the broadcast schedules
  /// ONE queue event that fans out to all same-shard sinks at fire time,
  /// instead of one event per edge, and parks an envelope per cross-shard
  /// edge. Per-edge events would occupy consecutive sequence numbers anyway
  /// (the send loop is atomic), so the collapse preserves the global event
  /// order; only the events_executed / delivery_events counters see it.
  /// Non-uniform and single-out-edge broadcasts take the per-edge path, and
  /// so does every broadcast under drift (no two edges drift alike).
  void broadcast(NetNodeId from, const Pulse& pulse);

  /// Delivers a pulse directly to `to` at absolute time `t` with a synthetic
  /// source, scheduled straight into the receiving shard's queue. The test
  /// harnesses deliver hand-crafted arrivals (and spurious in-flight
  /// messages) through it; legal only while no worker threads run.
  void inject(NetNodeId from, NetNodeId to, const Pulse& pulse, SimTime t);

  // Counter accessors sum the per-shard cells; call them only outside a
  // sharded run, i.e. with no worker threads live.
  std::uint64_t messages_sent() const noexcept { return sum_counters(&ShardCell::sent); }
  std::uint64_t messages_delivered() const noexcept {
    return sum_counters(&ShardCell::delivered);
  }

  /// Cross-shard mailbox traffic (telemetry summary; both 0 on one
  /// shard). Published counts accumulate in the serial barrier completion;
  /// drained counts live in the per-shard counter cells.
  std::uint64_t envelopes_published() const noexcept { return envelopes_published_; }
  std::uint64_t envelopes_drained() const noexcept {
    return sum_counters(&ShardCell::envelopes_drained);
  }
  std::uint64_t shard_envelopes_drained(std::uint32_t shard) const {
    return shards_.at(shard).envelopes_drained;
  }

  /// Queue events spent performing deliveries (one per per-edge message,
  /// one per batched broadcast); ExperimentCounters::logical_events
  /// subtracts them out.
  std::uint64_t delivery_events() const noexcept {
    return sum_counters(&ShardCell::delivery_events);
  }

  // --- shards (runner/shard_driver.cpp drives more than one) -----------------

  /// A cross-shard message parked in a mailbox until the receiving shard's
  /// next window. (arrival, from, edge) is the deterministic merge key.
  struct ShardEnvelope {
    SimTime arrival;
    NetNodeId from;
    EdgeId edge;
    NetNodeId to;
    std::int64_t stamp;
  };

  /// Partitions the nodes: `sims[s]` is shard s's event queue and
  /// `node_shard[n]` the shard owning node n. sims[0] must be the Simulator
  /// this Network was constructed with. Must be called after the topology is
  /// final (with more than one shard, add_node/add_edge refuse afterwards)
  /// and before any traffic. A single simulator keeps the one-shard wiring.
  void configure_shards(std::vector<Simulator*> sims,
                        const std::vector<std::uint32_t>& node_shard);

  std::uint32_t shard_count() const noexcept { return static_cast<std::uint32_t>(shards_.size()); }
  std::uint32_t shard_of(NetNodeId node) const { return nodes_.at(node).shard; }

  /// Minimum static delay over edges whose endpoints live in different
  /// shards, less the drift's A/2 -- the conservative lookahead L: a message
  /// sent at time t cannot arrive in another shard before t + L.
  /// kTimeInfinity when no edge crosses a shard boundary (shards are then
  /// fully independent).
  SimTime cross_shard_lookahead() const noexcept { return lookahead_; }

  /// Earliest arrival time over every parked envelope (published or not),
  /// kTimeInfinity when all mailboxes are empty. Serial: called from the
  /// barrier completion.
  SimTime earliest_mailbox_time() const;

  /// Moves every freshly written mailbox cell into the published buffer the
  /// workers drain from. MUST run in the barrier completion (all workers
  /// parked): it is the hand-off point between the senders -- who append to
  /// mail_ cells throughout a window -- and the receivers, who drain the
  /// published buffer concurrently with the next window's sends. Draining
  /// mail_ directly would race those sends (lost or duplicated envelopes).
  void publish_mailboxes();

  /// Moves every PUBLISHED envelope addressed to shard `dst` into dst's
  /// event queue, ordered by (arrival, from, edge). Called by shard dst's
  /// own worker right after a window barrier; only publish_mailboxes()
  /// (serial, in the barrier completion) writes the published cells, so the
  /// read is race-free even while other shards are already sending.
  void drain_mailbox(std::uint32_t dst);

  /// Typed-event dispatch (kDeliver message arrivals, kDeferredSend).
  void on_timer(const Event& event) override;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): the per-shard message
  /// counters plus every parked mailbox envelope (written and published).
  /// Topology, delays, drift and shard wiring are construction state. Must
  /// be called at a window barrier (no worker threads live).
  void checkpoint(CkptIo& io);

 private:
  /// Event kinds this target schedules. Payload conventions:
  ///   kDeliver:        a=from, b=edge, c=to, i=pulse stamp
  ///   kDeferredSend:   b=edge, i=pulse stamp
  ///   kBatchDeliver:   a=from, i=pulse stamp (fans out over out_edges(from))
  ///   kFlushArrivals:  a=the executing shard
  enum TimerKind : std::uint32_t {
    kDeliver = 1,
    kDeferredSend = 2,
    kBatchDeliver = 3,
    kFlushArrivals = 4,
  };

  struct Edge {
    NetNodeId from;
    NetNodeId to;
    double delay;
  };

  /// A sink call captured while other events still share its instant;
  /// flushed by kFlushArrivals in (to, from, edge, stamp) order.
  struct DeferredArrival {
    NetNodeId to;
    NetNodeId from;
    EdgeId edge;
    std::int64_t stamp;
  };

  /// Everything a delivery touches of one shard, on private cache lines:
  /// its queue, its message counters, its canonical-arrival state and its
  /// mailbox-drain scratch. Only the owning worker writes a cell (`sent`
  /// counts on the sending shard, the deliveries on the receiving one);
  /// the counters are summed serially.
  struct alignas(64) ShardCell {
    Simulator* sim = nullptr;  // non-owning; shard 0's is the constructor's
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t delivery_events = 0;
    /// Envelopes this shard drained into its queue; telemetry summary data.
    std::uint64_t envelopes_drained = 0;
    /// A kFlushArrivals event for `defer_time` is pending in the shard's
    /// queue. It never survives past its instant, so none is ever pending
    /// at a window barrier or checkpoint.
    bool defer_active = false;
    SimTime defer_time = 0.0;
    std::vector<DeferredArrival> deferred;
    std::vector<ShardEnvelope> drain_scratch;
  };

  std::uint64_t sum_counters(std::uint64_t ShardCell::*counter) const noexcept;

  /// Calls the receiver's sink (and counts the delivery) immediately when
  /// this delivery is alone at its instant, else defers it into the
  /// shard's cell for the canonical flush.
  void sink_or_defer(ShardCell& cell, std::uint32_t shard, NetNodeId from, EdgeId edge,
                     NetNodeId to, std::int64_t stamp, SimTime t);
  /// Counts the delivery in `cell` (the receiver's shard) and calls its sink.
  void sink_pulse(ShardCell& cell, NetNodeId from, EdgeId edge, NetNodeId to,
                  std::int64_t stamp, SimTime t);
  /// send() for a known-valid edge id. Declared inline so that
  /// broadcast()'s per-edge loop pays no call per edge.
  inline void route(EdgeId e, std::int64_t stamp);
  void recompute_lookahead();
  /// Rebuilds the out-edge CSR arrays and the per-sender uniform delays.
  void rebuild_adjacency() const;
  std::vector<ShardEnvelope>& mailbox(std::uint32_t src, std::uint32_t dst) {
    return mail_[static_cast<std::size_t>(src) * shards_.size() + dst];
  }

  /// Per node: its sink (non-owning) and the shard that owns it, 0 until
  /// configure_shards. One slot, so a delivery finds both on one line.
  struct NodeSlot {
    PulseSink* sink;
    std::uint32_t shard;
  };
  std::vector<NodeSlot> nodes_;
  std::vector<Edge> edges_;
  /// Out-adjacency in CSR form, derived from edges_: node n's out-edges are
  /// out_ids_[out_off_[n] .. out_off_[n + 1]) in ascending edge id.
  /// add_node / add_edge only mark the arrays stale; the next adjacency
  /// query rebuilds them with one counting sort, which is why they are
  /// mutable. configure_shards rebuilds them before any worker thread runs,
  /// and the topology is frozen from then on.
  mutable std::vector<std::uint32_t> out_off_;
  mutable std::vector<EdgeId> out_ids_;
  /// Per node: the shared delay of all its out-edges, or NaN once any two
  /// out-edge delays differ (or it has none, or the delays drift). Rebuilt
  /// with the CSR arrays; the batched broadcast keys off it.
  mutable std::vector<double> uniform_out_delay_;
  mutable bool adjacency_stale_ = false;
  DelayDrift drift_;
  /// Written only inside publish_mailboxes (serial barrier completion).
  std::uint64_t envelopes_published_ = 0;

  /// Shard wiring, one shard at construction and every shard after
  /// configure_shards.
  std::vector<ShardCell> shards_;
  SimTime lookahead_ = kTimeInfinity;
  /// Mailbox matrix, cell [src * shard_count() + dst]: written only by shard
  /// src's worker during windows. The barrier completion moves full cells
  /// into pending_ (publish_mailboxes), and shard dst's worker drains the
  /// pending_ cells addressed to it at the next window start -- so senders
  /// and receivers never touch the same vector concurrently, no locks
  /// needed.
  std::vector<std::vector<ShardEnvelope>> mail_;
  std::vector<std::vector<ShardEnvelope>> pending_;  // published at barriers
};

}  // namespace gtrix
