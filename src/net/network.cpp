#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "support/check.hpp"

namespace gtrix {

Network::Network(Simulator& sim, DelayDrift drift)
    : drift_(drift), shards_(1), mail_(1), pending_(1) {
  shards_[0].sim = &sim;
}

NetNodeId Network::add_node(PulseSink* sink) {
  GTRIX_CHECK_MSG(shards_.size() == 1, "cannot add nodes after configure_shards");
  const NetNodeId id = static_cast<NetNodeId>(nodes_.size());
  nodes_.push_back(NodeSlot{sink, 0});
  adjacency_stale_ = true;
  return id;
}

void Network::set_sink(NetNodeId node, PulseSink* sink) { nodes_.at(node).sink = sink; }

EdgeId Network::add_edge(NetNodeId from, NetNodeId to, double delay) {
  GTRIX_CHECK_MSG(delay > 0.0, "edge delay must be positive");
  GTRIX_CHECK_MSG(shards_.size() == 1, "cannot add edges after configure_shards");
  GTRIX_CHECK(from < nodes_.size() && to < nodes_.size());
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{from, to, delay});
  adjacency_stale_ = true;
  return id;
}

void Network::rebuild_adjacency() const {
  const std::size_t n = nodes_.size();
  // Stable counting sort by sender: scanning edges in id order keeps each
  // node's list in ascending edge id.
  out_off_.assign(n + 1, 0);
  for (const Edge& edge : edges_) ++out_off_[edge.from + 1];
  for (std::size_t v = 0; v < n; ++v) out_off_[v + 1] += out_off_[v];
  out_ids_.resize(edges_.size());
  // Fill with out_off_[v] as v's cursor; afterwards it holds v's end, i.e.
  // the start of v + 1, so shift the starts back into place.
  for (EdgeId e = 0; e < edges_.size(); ++e) out_ids_[out_off_[edges_[e].from]++] = e;
  for (std::size_t v = n; v > 0; --v) out_off_[v] = out_off_[v - 1];
  out_off_[0] = 0;
  adjacency_stale_ = false;
  uniform_out_delay_.assign(n, std::numeric_limits<double>::quiet_NaN());
  if (drift_.amplitude > 0.0) return;  // a drifting delay is per edge and send time
  for (NetNodeId v = 0; v < n; ++v) {
    const std::span<const EdgeId> outs = out_edges(v);
    if (outs.empty()) continue;
    const double uniform = edges_[outs.front()].delay;
    const bool shared = std::all_of(outs.begin(), outs.end(),
                                    [&](EdgeId e) { return edges_[e].delay == uniform; });
    if (shared) uniform_out_delay_[v] = uniform;
  }
}

void Network::configure_shards(std::vector<Simulator*> sims,
                               const std::vector<std::uint32_t>& node_shard) {
  GTRIX_CHECK_MSG(!sims.empty() && sims[0] == shards_[0].sim,
                  "shard 0 must be the network's own simulator");
  GTRIX_CHECK_MSG(shards_.size() == 1, "shards already configured");
  GTRIX_CHECK_MSG(node_shard.size() == nodes_.size(), "node_shard must cover every node");
  for (std::uint32_t s : node_shard) GTRIX_CHECK(s < sims.size());
  // Workers read the adjacency concurrently; it must never rebuild on them.
  if (adjacency_stale_) rebuild_adjacency();
  for (NetNodeId n = 0; n < nodes_.size(); ++n) nodes_[n].shard = node_shard[n];
  shards_.resize(sims.size());
  for (std::size_t s = 0; s < sims.size(); ++s) shards_[s].sim = sims[s];
  mail_.resize(sims.size() * sims.size());
  pending_.resize(mail_.size());
  recompute_lookahead();
}

void Network::recompute_lookahead() {
  lookahead_ = kTimeInfinity;
  for (const Edge& edge : edges_) {
    if (nodes_[edge.from].shard != nodes_[edge.to].shard) {
      lookahead_ = std::min(lookahead_, edge.delay);
    }
  }
  // The drift shortens a delay by at most A/2 (infinity stays infinite).
  lookahead_ -= 0.5 * drift_.amplitude;
}

SimTime Network::earliest_mailbox_time() const {
  SimTime earliest = kTimeInfinity;
  for (const std::vector<ShardEnvelope>& cell : mail_) {
    for (const ShardEnvelope& env : cell) earliest = std::min(earliest, env.arrival);
  }
  for (const std::vector<ShardEnvelope>& cell : pending_) {
    for (const ShardEnvelope& env : cell) earliest = std::min(earliest, env.arrival);
  }
  return earliest;
}

void Network::publish_mailboxes() {
  for (std::size_t i = 0; i < mail_.size(); ++i) {
    std::vector<ShardEnvelope>& cell = mail_[i];
    if (cell.empty()) continue;
    envelopes_published_ += cell.size();
    std::vector<ShardEnvelope>& published = pending_[i];
    if (published.empty()) {
      published.swap(cell);  // the common case: last window's batch was drained
    } else {
      published.insert(published.end(), cell.begin(), cell.end());
      cell.clear();
    }
  }
}

void Network::drain_mailbox(std::uint32_t dst) {
  ShardCell& cell = shards_[dst];
  std::vector<ShardEnvelope>& batch = cell.drain_scratch;
  batch.clear();
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    std::vector<ShardEnvelope>& published = pending_[src * shards_.size() + dst];
    batch.insert(batch.end(), published.begin(), published.end());
    published.clear();
  }
  // (arrival, from, edge) is a total order over envelopes: a sender emits at
  // most one message per edge per instant. Scheduling in that order assigns
  // queue sequence numbers deterministically, independent of which shard
  // parked its envelopes first.
  std::sort(batch.begin(), batch.end(),
            [](const ShardEnvelope& a, const ShardEnvelope& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.from != b.from) return a.from < b.from;
              return a.edge < b.edge;
            });
  cell.envelopes_drained += batch.size();
  for (const ShardEnvelope& env : batch) {
    cell.sim->at(
        env.arrival, this, kDeliver,
        EventPayload{.a = env.from, .b = env.edge, .c = env.to, .i = env.stamp, .f = 0.0});
  }
}

std::uint64_t Network::sum_counters(std::uint64_t ShardCell::*counter) const noexcept {
  std::uint64_t total = 0;
  for (const ShardCell& c : shards_) total += c.*counter;
  return total;
}

inline void Network::route(EdgeId e, std::int64_t stamp) {
  const Edge& edge = edges_[e];
  const std::uint32_t src = nodes_[edge.from].shard;
  const std::uint32_t dst = nodes_[edge.to].shard;
  ShardCell& cell = shards_[src];
  Simulator& sim = *cell.sim;
  double delay = edge.delay;
  if (drift_.amplitude > 0.0) {
    delay += 0.5 * drift_.amplitude *
             std::sin(2.0 * std::numbers::pi * sim.now() / drift_.period + 0.7 * e);
  }
  ++cell.sent;
  const SimTime arrival = sim.now() + delay;
  if (dst == src) {
    sim.at(arrival, this, kDeliver,
           EventPayload{.a = edge.from, .b = e, .c = edge.to, .i = stamp, .f = 0.0});
  } else {
    mailbox(src, dst).push_back(ShardEnvelope{arrival, edge.from, e, edge.to, stamp});
  }
}

void Network::send(EdgeId e, const Pulse& pulse) {
  GTRIX_CHECK(e < edges_.size());
  route(e, pulse.stamp);
}

void Network::send_after(EdgeId e, const Pulse& pulse, double extra) {
  GTRIX_CHECK_MSG(extra >= 0.0, "deferred send cannot target the past");
  GTRIX_CHECK(e < edges_.size());
  // The deferred-send timer fires on the SENDING node's shard; the eventual
  // send() then routes the message itself.
  shards_[nodes_[edges_[e].from].shard].sim->after(
      extra, this, kDeferredSend,
      EventPayload{.a = 0, .b = e, .c = 0, .i = pulse.stamp, .f = 0.0});
}

void Network::broadcast(NetNodeId from, const Pulse& pulse) {
  const std::span<const EdgeId> outs = out_edges(from);
  const double uniform = uniform_out_delay_[from];
  if (outs.size() <= 1 || std::isnan(uniform)) {
    for (EdgeId e : outs) route(e, pulse.stamp);
    return;
  }
  // All out-edges share one delay: same-shard receivers share a single
  // kBatchDeliver event (whose fan-out skips remote edges), cross-shard
  // receivers get envelopes immediately -- the arrival time and the
  // (arrival, from, edge) merge key are identical either way, so skew
  // results don't depend on the split (only the executed-event counters
  // do, which is why the campaign reports logical events). Order-equivalent
  // to the per-edge path (see the header).
  const std::uint32_t src = nodes_[from].shard;
  ShardCell& cell = shards_[src];
  Simulator& sim = *cell.sim;
  cell.sent += outs.size();
  const SimTime arrival = sim.now() + uniform;
  bool any_local = false;
  for (EdgeId e : outs) {
    const NetNodeId to = edges_[e].to;
    const std::uint32_t dst = nodes_[to].shard;
    if (dst == src) {
      any_local = true;
    } else {
      mailbox(src, dst).push_back(ShardEnvelope{arrival, from, e, to, pulse.stamp});
    }
  }
  if (any_local) {
    sim.after(uniform, this, kBatchDeliver, EventPayload{.a = from, .i = pulse.stamp});
  }
}

void Network::inject(NetNodeId from, NetNodeId to, const Pulse& pulse, SimTime t) {
  ShardCell& cell = shards_[nodes_.at(to).shard];
  Simulator& sim = *cell.sim;
  GTRIX_CHECK_MSG(t >= sim.now(), "cannot inject into the past");
  ++cell.sent;
  sim.at(t, this, kDeliver,
         EventPayload{.a = from, .b = static_cast<EdgeId>(-1), .c = to, .i = pulse.stamp, .f = 0.0});
}

void Network::sink_pulse(ShardCell& cell, NetNodeId from, EdgeId edge, NetNodeId to,
                         std::int64_t stamp, SimTime t) {
  ++cell.delivered;
  PulseSink* sink = nodes_[to].sink;
  if (sink != nullptr) sink->on_pulse(from, edge, Pulse{stamp}, t);
}
void Network::sink_or_defer(ShardCell& cell, std::uint32_t shard, NetNodeId from, EdgeId edge,
                            NetNodeId to, std::int64_t stamp, SimTime t) {
  if (cell.defer_active && cell.defer_time == t) {
    cell.deferred.push_back(DeferredArrival{to, from, edge, stamp});
    return;
  }
  if (cell.sim->next_event_time() == t) {
    // At least one more event shares this instant (every arrival at t for a
    // node of this shard is already queued here: delays are positive, so
    // nothing new can be scheduled AT t once t executes). Capture sink
    // calls until the instant's events have run, then flush canonically.
    cell.defer_active = true;
    cell.defer_time = t;
    cell.deferred.push_back(DeferredArrival{to, from, edge, stamp});
    cell.sim->at(t, this, kFlushArrivals,
                 EventPayload{.a = shard, .b = 0, .c = 0, .i = 0, .f = 0.0});
    return;
  }
  sink_pulse(cell, from, edge, to, stamp, t);
}

void Network::on_timer(const Event& event) {
  const EventPayload& p = event.payload;
  switch (event.kind) {
    case kDeliver: {
      const std::uint32_t dst = nodes_[p.c].shard;
      ShardCell& cell = shards_[dst];
      ++cell.delivery_events;
      sink_or_defer(cell, dst, p.a, p.b, p.c, p.i, event.time);
      return;
    }
    case kBatchDeliver: {
      // Fan out in out-edge order -- exactly the order the per-edge events
      // would fire in (their sequence numbers were consecutive). The event
      // runs on the sender's shard and fans out only to its same-shard
      // receivers; cross-shard receivers got envelopes instead.
      const std::uint32_t src = nodes_[p.a].shard;
      ShardCell& cell = shards_[src];
      ++cell.delivery_events;
      for (EdgeId e : out_edges(p.a)) {
        const Edge& edge = edges_[e];
        if (nodes_[edge.to].shard != src) continue;
        sink_or_defer(cell, src, edge.from, e, edge.to, p.i, event.time);
      }
      return;
    }
    case kFlushArrivals: {
      ShardCell& cell = shards_[p.a];
      ++cell.delivery_events;
      // Swap out before delivering: the sinks may schedule (strictly later)
      // events but can never re-enter this instant's buffer.
      std::vector<DeferredArrival> batch;
      batch.swap(cell.deferred);
      cell.defer_active = false;
      std::sort(batch.begin(), batch.end(),
                [](const DeferredArrival& a, const DeferredArrival& b) {
                  if (a.to != b.to) return a.to < b.to;
                  if (a.from != b.from) return a.from < b.from;
                  if (a.edge != b.edge) return a.edge < b.edge;
                  return a.stamp < b.stamp;
                });
      for (const DeferredArrival& d : batch) {
        sink_pulse(cell, d.from, d.edge, d.to, d.stamp, event.time);
      }
      // Hand the capacity back so later instants reuse it.
      batch.clear();
      if (cell.deferred.empty()) cell.deferred.swap(batch);
      return;
    }
    case kDeferredSend:
      send(p.b, Pulse{p.i});
      return;
  }
}

}  // namespace gtrix
