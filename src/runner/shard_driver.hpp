// Conservative time-window driver for sharded runs (docs/performance.md,
// "Sharded execution").
//
// The synchronization scheme is the classic conservative-lookahead argument
// (PALS / TRIX, PAPERS.md): let L = Network::cross_shard_lookahead(), the
// minimum static delay over shard-crossing edges less the delay drift's
// A/2 (the most a drift can shorten a delay). A message sent at time t
// reaches another shard no earlier than t + L, so if gmin is the global
// minimum pending timestamp (queues AND parked mailbox envelopes), every
// shard may execute all its events in the window [gmin, gmin + L) without
// ever receiving a message that should have landed inside it. The loop:
//
//   barrier (serial completion):  the live skew accumulator's exchange
//       (metrics/streaming.hpp); gmin = min over shard queues + mailboxes;
//       stop when gmin > deadline, else horizon = gmin + L (clamped to the
//       inclusive deadline for the final window);
//   workers (parallel):           drain own mailbox in deterministic
//       (arrival, from, edge) order, then run events strictly below the
//       horizon (or <= deadline in the final window).
//
// Progress: L > 0 (edge delays are positive), so the gmin event itself is
// always inside its window -- every window executes at least one event. L
// is finite with two or more shards: a World's base graph is connected and
// has at least two layers, so some edge crosses any column cut (run()
// checks both). At one shard L is infinite: one window runs to the deadline
// on the calling thread, with no worker thread and no barrier.
// Safety of the final inclusive window: it only happens when gmin + L >
// deadline, so messages sent in it arrive strictly after the deadline and
// stay parked for the next run_until call.
#pragma once

#include <cstdint>
#include <span>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace gtrix {

class StreamingSkew;
class Telemetry;
class TraceCollector;

/// Optional observers for a sharded run (obs/telemetry.hpp). Both pointers
/// are non-owning and may be null independently; with both null the driver
/// performs no timing work at all -- the instrumentation is one
/// predictable branch per WINDOW, never per event.
struct ShardDriverObs {
  Telemetry* telemetry = nullptr;  ///< lane s <- shard s's window/wait stats
  TraceCollector* trace = nullptr; ///< window/barrier spans on (trace_pid, shard)
  std::uint32_t trace_pid = 0;
};

class ShardDriver {
 public:
  /// All spans and pointers are non-owning and must stay alive across run()
  /// calls. `sims[s]` is shard s's queue; `stream` is the live skew
  /// accumulator whose exchange() runs at every barrier (null when none).
  ShardDriver(std::span<Simulator* const> sims, Network& net, StreamingSkew* stream,
              ShardDriverObs obs = {})
      : sims_(sims), net_(net), stream_(stream), obs_(obs) {}

  /// Runs every shard up to and including `deadline` (run_until semantics:
  /// afterwards each shard's now() == deadline, when finite) or to
  /// completion (deadline == kTimeInfinity). Callable repeatedly; messages
  /// still parked in mailboxes at the deadline carry over to the next call.
  void run(SimTime deadline);

 private:
  std::span<Simulator* const> sims_;
  Network& net_;
  StreamingSkew* stream_;
  ShardDriverObs obs_;
};

}  // namespace gtrix
