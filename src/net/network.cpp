#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace gtrix {

NetNodeId Network::add_node(PulseSink* sink) {
  GTRIX_CHECK_MSG(shard_count_ <= 1, "cannot add nodes after configure_shards");
  const NetNodeId id = static_cast<NetNodeId>(sinks_.size());
  sinks_.push_back(sink);
  adjacency_stale_ = true;
  return id;
}

void Network::set_sink(NetNodeId node, PulseSink* sink) { sinks_.at(node) = sink; }

EdgeId Network::add_edge(NetNodeId from, NetNodeId to, double delay) {
  GTRIX_CHECK_MSG(delay > 0.0, "edge delay must be positive");
  GTRIX_CHECK_MSG(shard_count_ <= 1, "cannot add edges after configure_shards");
  GTRIX_CHECK(from < sinks_.size() && to < sinks_.size());
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{from, to, delay});
  adjacency_stale_ = true;
  return id;
}

void Network::rebuild_adjacency() const {
  const std::size_t n = sinks_.size();
  // Stable counting sort by endpoint: scanning edges in id order keeps each
  // node's list in ascending edge id.
  const auto build = [&](std::vector<std::uint32_t>& off, std::vector<EdgeId>& ids,
                         NetNodeId Edge::*endpoint) {
    off.assign(n + 1, 0);
    for (const Edge& edge : edges_) ++off[edge.*endpoint + 1];
    for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];
    ids.resize(edges_.size());
    // Fill with off[v] as v's cursor; afterwards off[v] holds v's end,
    // i.e. the start of v + 1, so shift the starts back into place.
    for (EdgeId e = 0; e < edges_.size(); ++e) ids[off[edges_[e].*endpoint]++] = e;
    for (std::size_t v = n; v > 0; --v) off[v] = off[v - 1];
    off[0] = 0;
  };
  build(out_off_, out_ids_, &Edge::from);
  build(in_off_, in_ids_, &Edge::to);
  adjacency_stale_ = false;
  uniform_out_delay_.resize(n);
  for (NetNodeId v = 0; v < n; ++v) uniform_out_delay_[v] = uniform_delay(out_edges(v));
}

double Network::uniform_delay(std::span<const EdgeId> outs) const {
  if (outs.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double uniform = edges_[outs.front()].delay;
  for (EdgeId e : outs) {
    if (edges_[e].delay != uniform) return std::numeric_limits<double>::quiet_NaN();
  }
  return uniform;
}

void Network::set_edge_delay(EdgeId e, double delay) {
  GTRIX_CHECK_MSG(delay > 0.0, "edge delay must be positive");
  edges_.at(e).delay = delay;
  // Re-derive the sender's uniformity from scratch (rare, config-time call).
  const NetNodeId from = edges_[e].from;
  uniform_out_delay_[from] = uniform_delay(out_edges(from));
  if (shard_count_ > 1) recompute_lookahead();
}

void Network::set_delay_modulation(DelayModulation fn) {
  GTRIX_CHECK_MSG(shard_count_ <= 1 || !fn,
                  "delay modulation is unavailable on the sharded engine");
  modulation_ = std::move(fn);
}

void Network::configure_shards(std::vector<Simulator*> sims,
                               std::vector<std::uint32_t> node_shard) {
  GTRIX_CHECK_MSG(!sims.empty() && sims[0] == &sim_,
                  "shard 0 must be the network's own simulator");
  GTRIX_CHECK_MSG(!modulation_, "delay modulation is unavailable on the sharded engine");
  GTRIX_CHECK_MSG(shard_count_ == 1 && mail_.empty(), "shards already configured");
  GTRIX_CHECK_MSG(node_shard.size() == sinks_.size(), "node_shard must cover every node");
  if (sims.size() == 1) return;  // serial engine, untouched
  // Workers read the adjacency concurrently; it must never rebuild on them.
  if (adjacency_stale_) rebuild_adjacency();
  shard_sims_ = std::move(sims);
  node_shard_ = std::move(node_shard);
  shard_count_ = static_cast<std::uint32_t>(shard_sims_.size());
  for (std::uint32_t s : node_shard_) GTRIX_CHECK(s < shard_count_);
  mail_.resize(static_cast<std::size_t>(shard_count_) * shard_count_);
  pending_.resize(mail_.size());
  drain_scratch_.resize(shard_count_);
  shard_counters_.assign(shard_count_, ShardCounters{});
  defer_.resize(shard_count_);
  recompute_lookahead();
}

void Network::recompute_lookahead() {
  lookahead_ = kTimeInfinity;
  for (const Edge& edge : edges_) {
    if (node_shard_[edge.from] != node_shard_[edge.to]) {
      lookahead_ = std::min(lookahead_, edge.delay);
    }
  }
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
  std::vector<ShardEnvelope>& batch = drain_scratch_[dst];
  batch.clear();
  for (std::uint32_t src = 0; src < shard_count_; ++src) {
    std::vector<ShardEnvelope>& cell =
        pending_[static_cast<std::size_t>(src) * shard_count_ + dst];
    batch.insert(batch.end(), cell.begin(), cell.end());
    cell.clear();
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
  Simulator& sim = *shard_sims_[dst];
  shard_counters_[dst].envelopes_drained += batch.size();
  for (const ShardEnvelope& env : batch) {
    sim.at(env.arrival, this, kDeliver,
           EventPayload{.a = env.from, .b = env.edge, .c = env.to, .i = env.stamp, .f = 0.0});
  }
}

std::uint64_t Network::messages_sent() const noexcept {
  std::uint64_t total = sent_;
  for (const ShardCounters& c : shard_counters_) total += c.sent;
  return total;
}

std::uint64_t Network::messages_delivered() const noexcept {
  std::uint64_t total = delivered_;
  for (const ShardCounters& c : shard_counters_) total += c.delivered;
  return total;
}

std::uint64_t Network::envelopes_drained() const noexcept {
  std::uint64_t total = 0;
  for (const ShardCounters& c : shard_counters_) total += c.envelopes_drained;
  return total;
}

std::uint64_t Network::delivery_events() const noexcept {
  std::uint64_t total = delivery_events_;
  for (const ShardCounters& c : shard_counters_) total += c.delivery_events;
  return total;
}

bool Network::find_edge(NetNodeId from, NetNodeId to, EdgeId& out) const {
  for (EdgeId e : out_edges(from)) {
    if (edges_[e].to == to) {
      out = e;
      return true;
    }
  }
  return false;
}

void Network::send(EdgeId e, const Pulse& pulse) {
  if (shard_count_ > 1) {
    send_sharded(e, pulse);
    return;
  }
  const Edge& edge = edges_.at(e);
  double delay = edge.delay;
  if (modulation_) delay += modulation_(e, sim_.now());
  GTRIX_CHECK_MSG(delay > 0.0, "modulated delay must stay positive");
  ++sent_;
  deliver(edge.from, e, edge.to, pulse, sim_.now() + delay);
}

void Network::send_sharded(EdgeId e, const Pulse& pulse) {
  const Edge& edge = edges_.at(e);
  const std::uint32_t src = node_shard_[edge.from];
  const std::uint32_t dst = node_shard_[edge.to];
  Simulator& sim = *shard_sims_[src];
  ++shard_counters_[src].sent;
  const SimTime arrival = sim.now() + edge.delay;  // no modulation when sharded
  if (dst == src) {
    sim.at(arrival, this, kDeliver,
           EventPayload{.a = edge.from, .b = e, .c = edge.to, .i = pulse.stamp, .f = 0.0});
  } else {
    mail_[static_cast<std::size_t>(src) * shard_count_ + dst].push_back(
        ShardEnvelope{arrival, edge.from, e, edge.to, pulse.stamp});
  }
}

void Network::send_after(EdgeId e, const Pulse& pulse, double extra) {
  GTRIX_CHECK_MSG(extra >= 0.0, "deferred send cannot target the past");
  GTRIX_CHECK(e < edges_.size());
  // The deferred-send timer fires on the SENDING node's shard; the eventual
  // send() then routes the message itself.
  sim_of(edges_[e].from)
      .after(extra, this, kDeferredSend,
             EventPayload{.a = 0, .b = e, .c = 0, .i = pulse.stamp, .f = 0.0});
}

void Network::broadcast(NetNodeId from, const Pulse& pulse) {
  const std::span<const EdgeId> outs = out_edges(from);
  if (shard_count_ > 1) {
    broadcast_sharded(from, pulse, outs);
    return;
  }
  const double uniform = uniform_out_delay_[from];
  if (!modulation_ && outs.size() > 1 && !std::isnan(uniform)) {
    // All out-edges share one delay: a single queue event fans the pulse out
    // at fire time. Order-equivalent to the per-edge path (see the header).
    sent_ += outs.size();
    sim_.after(uniform, this, kBatchDeliver, EventPayload{.a = from, .i = pulse.stamp});
    return;
  }
  for (EdgeId e : outs) send(e, pulse);
}

void Network::broadcast_sharded(NetNodeId from, const Pulse& pulse,
                                std::span<const EdgeId> outs) {
  const std::uint32_t src = node_shard_[from];
  const double uniform = uniform_out_delay_[from];
  if (outs.size() > 1 && !std::isnan(uniform)) {
    // Batched fan-out splits: same-shard receivers keep the single
    // kBatchDeliver event (whose fan-out skips remote edges), cross-shard
    // receivers get envelopes immediately -- the arrival time and the
    // (arrival, from, edge) merge key are identical either way, so skew
    // results don't depend on the split (only the executed-event counters
    // do, which is why the campaign reports logical events).
    Simulator& sim = *shard_sims_[src];
    shard_counters_[src].sent += outs.size();
    const SimTime arrival = sim.now() + uniform;
    bool any_local = false;
    for (EdgeId e : outs) {
      const Edge& edge = edges_[e];
      const std::uint32_t dst = node_shard_[edge.to];
      if (dst == src) {
        any_local = true;
        continue;
      }
      mail_[static_cast<std::size_t>(src) * shard_count_ + dst].push_back(
          ShardEnvelope{arrival, from, e, edge.to, pulse.stamp});
    }
    if (any_local) {
      sim.after(uniform, this, kBatchDeliver, EventPayload{.a = from, .i = pulse.stamp});
    }
    return;
  }
  for (EdgeId e : outs) send_sharded(e, pulse);
}

void Network::inject(NetNodeId from, NetNodeId to, const Pulse& pulse, SimTime t) {
  if (shard_count_ > 1) {
    // Test/self-stabilization hook; legal only while no worker threads run
    // (before run_* or between driver calls), so scheduling straight into
    // the receiving shard's queue is race-free.
    Simulator& sim = sim_of(to);
    GTRIX_CHECK_MSG(t >= sim.now(), "cannot inject into the past");
    ++shard_counters_[node_shard_[to]].sent;
    sim.at(t, this, kDeliver,
           EventPayload{.a = from, .b = static_cast<EdgeId>(-1), .c = to, .i = pulse.stamp, .f = 0.0});
    return;
  }
  GTRIX_CHECK_MSG(t >= sim_.now(), "cannot inject into the past");
  ++sent_;
  deliver(from, static_cast<EdgeId>(-1), to, pulse, t);
}

void Network::deliver(NetNodeId from, EdgeId edge, NetNodeId to, const Pulse& pulse,
                      SimTime at) {
  sim_.at(at, this, kDeliver,
          EventPayload{.a = from, .b = edge, .c = to, .i = pulse.stamp, .f = 0.0});
}

void Network::sink_pulse(NetNodeId from, EdgeId edge, NetNodeId to, std::int64_t stamp,
                         SimTime t) {
  if (shard_count_ > 1) {
    ++shard_counters_[node_shard_[to]].delivered;
  } else {
    ++delivered_;
  }
  PulseSink* sink = sinks_[to];
  if (sink != nullptr) sink->on_pulse(from, edge, Pulse{stamp}, t);
}

void Network::sink_or_defer(Simulator& sim, std::uint32_t cell_index, NetNodeId from,
                            EdgeId edge, NetNodeId to, std::int64_t stamp, SimTime t) {
  DeferCell& cell = defer_[cell_index];
  if (cell.active && cell.time == t) {
    cell.buf.push_back(DeferredArrival{to, from, edge, stamp});
    return;
  }
  if (sim.next_event_time() == t) {
    // At least one more event shares this instant (every arrival at t for a
    // node of this shard is already queued here: delays are positive, so
    // nothing new can be scheduled AT t once t executes). Capture sink
    // calls until the instant's events have run, then flush canonically.
    cell.active = true;
    cell.time = t;
    cell.buf.push_back(DeferredArrival{to, from, edge, stamp});
    sim.at(t, this, kFlushArrivals,
           EventPayload{.a = cell_index, .b = 0, .c = 0, .i = 0, .f = 0.0});
    return;
  }
  sink_pulse(from, edge, to, stamp, t);
}

void Network::on_timer(const Event& event) {
  const EventPayload& p = event.payload;
  switch (event.kind) {
    case kDeliver: {
      const std::uint32_t cell = shard_count_ > 1 ? node_shard_[p.c] : 0;
      if (shard_count_ > 1) {
        ++shard_counters_[cell].delivery_events;
      } else {
        ++delivery_events_;
      }
      sink_or_defer(sim_of(p.c), cell, p.a, p.b, p.c, p.i, event.time);
      return;
    }
    case kBatchDeliver: {
      // Fan out in out-edge order -- exactly the order the per-edge events
      // would fire in (their sequence numbers were consecutive). In sharded
      // mode this event runs on the sender's shard and fans out only to its
      // same-shard receivers; cross-shard receivers got envelopes instead.
      const std::uint32_t src = shard_count_ > 1 ? node_shard_[p.a] : 0;
      if (shard_count_ > 1) {
        ++shard_counters_[src].delivery_events;
      } else {
        ++delivery_events_;
      }
      Simulator& sim = sim_of(p.a);
      for (EdgeId e : out_edges(p.a)) {
        const Edge& edge = edges_[e];
        if (shard_count_ > 1 && node_shard_[edge.to] != src) continue;
        sink_or_defer(sim, src, edge.from, e, edge.to, p.i, event.time);
      }
      return;
    }
    case kFlushArrivals: {
      DeferCell& cell = defer_[p.a];
      if (shard_count_ > 1) {
        ++shard_counters_[p.a].delivery_events;
      } else {
        ++delivery_events_;
      }
      // Swap out before delivering: the sinks may schedule (strictly later)
      // events but can never re-enter this instant's buffer.
      std::vector<DeferredArrival> batch;
      batch.swap(cell.buf);
      cell.active = false;
      std::sort(batch.begin(), batch.end(),
                [](const DeferredArrival& a, const DeferredArrival& b) {
                  if (a.to != b.to) return a.to < b.to;
                  if (a.from != b.from) return a.from < b.from;
                  if (a.edge != b.edge) return a.edge < b.edge;
                  return a.stamp < b.stamp;
                });
      for (const DeferredArrival& d : batch) {
        sink_pulse(d.from, d.edge, d.to, d.stamp, event.time);
      }
      // Hand the capacity back so later instants reuse it.
      batch.clear();
      if (cell.buf.empty()) cell.buf.swap(batch);
      return;
    }
    case kDeferredSend:
      send(p.b, Pulse{p.i});
      return;
  }
}

}  // namespace gtrix
