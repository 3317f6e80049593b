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
//   barrier (serial completion):  replay the per-shard trace buffers, shard
//       by shard, into the true Recorder; gmin = min over shard queues +
//       mailboxes; stop when gmin > deadline, else horizon = gmin + L
//       (clamped to the inclusive deadline for the final window);
//   workers (parallel):           drain own mailbox in deterministic
//       (arrival, from, edge) order, then run events strictly below the
//       horizon (or <= deadline in the final window).
//
// Progress: L > 0 (edge delays are positive), so the gmin event itself is
// always inside its window -- every window executes at least one event. L
// is also finite: a World's base graph is connected and has at least two
// layers, so some edge crosses any column cut (run() checks both).
// Safety of the final inclusive window: it only happens when gmin + L >
// deadline, so messages sent in it arrive strictly after the deadline and
// stay parked for the next run_until call.
#pragma once

#include <cstdint>
#include <span>

#include "metrics/shard_recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace gtrix {

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
  /// All spans are non-owning and must stay alive across run() calls.
  /// `sims[s]`, `shard_recorders[s]` belong to shard s; `recorder` is the
  /// true single-threaded Recorder the buffers merge into.
  ShardDriver(std::span<Simulator* const> sims, Network& net, Recorder& recorder,
              std::span<ShardRecorder* const> shard_recorders,
              ShardDriverObs obs = {})
      : sims_(sims),
        net_(net),
        recorder_(recorder),
        shard_recorders_(shard_recorders),
        obs_(obs) {}

  /// Runs every shard up to and including `deadline` (run_until semantics:
  /// afterwards each shard's now() == deadline, when finite) or to
  /// completion (deadline == kTimeInfinity). Callable repeatedly; messages
  /// still parked in mailboxes at the deadline carry over to the next call.
  void run(SimTime deadline);

 private:
  std::span<Simulator* const> sims_;
  Network& net_;
  Recorder& recorder_;
  std::span<ShardRecorder* const> shard_recorders_;
  ShardDriverObs obs_;
};

}  // namespace gtrix
