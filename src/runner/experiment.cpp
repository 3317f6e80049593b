#include "runner/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/rss.hpp"
#include "runner/shard_driver.hpp"
#include "support/check.hpp"

namespace gtrix {

ResolvedComponents resolve_components(const ExperimentConfig& c) {
  ResolvedComponents r;
  r.topology = topology_registry().canonicalize(c.topology_spec);
  r.clock = clock_model_registry().canonicalize(c.clock_spec);
  r.delay = delay_registry().canonicalize(c.delay_spec);
  r.algorithm = algorithm_registry().canonicalize(c.algorithm_spec);
  r.recording = recording_registry().canonicalize(c.recording_spec);
  return r;
}

BaseGraph make_base_graph(const ExperimentConfig& config) {
  TopologyContext ctx;
  ctx.columns = config.columns;
  return topology_registry().create(config.topology_spec)->build(ctx);
}

World::World(ExperimentConfig config, EngineOptions engine)
    : config_(std::move(config)),
      engine_(engine),
      components_(resolve_components(config_)),
      clock_provider_(clock_model_registry().create(components_.clock)),
      delay_provider_(delay_registry().create(components_.delay)),
      algorithm_provider_(algorithm_registry().create(components_.algorithm)),
      algorithm_caps_(algorithm_provider_->caps()),
      grid_(make_base_graph(config_), config_.layers),
      shard_count_(std::min(std::max<std::uint32_t>(1, engine_.shards),
                            grid_.base().column_count())),
      sims_(shard_count_),
      net_(sims_[0], DelayDrift{delay_provider_->drift_amplitude(),
                                kDriftPeriodWaves * config_.params.lambda}),
      arenas_(shard_count_) {
  GTRIX_CHECK_MSG(config_.layers >= 2, "need at least layer 0 and one algorithm layer");
  GTRIX_CHECK_MSG(config_.pulses >= 1, "need at least one pulse");
  GTRIX_CHECK_MSG(config_.params.u >= 0.0 && config_.params.u < config_.params.d,
                  "require 0 <= u < d");
  // Backstop for the scenario layer's check: drifting delays stay positive.
  GTRIX_CHECK_MSG(delay_provider_->drift_amplitude() / 2.0 < config_.params.d - config_.params.u,
                  "require drift_amplitude / 2 < d - u");
  // Node-count overflow is checked in the Grid constructor (before any
  // allocation) and, with path context, in the scenario layer.

  for (const PlacedFault& f : config_.faults) {
    fault_map_[grid_.id(f.base, f.layer)] = f.spec;
    // Backstop mirroring the scenario layer's capability check (which has
    // path context): a silent node at any layer starves its successors.
    if (f.spec.kind == FaultKind::kCrash || f.spec.kind == FaultKind::kFixedPeriod) {
      GTRIX_CHECK_MSG(algorithm_caps_.tolerates_silent_preds,
                      "algorithm '" + components_.algorithm.kind + "' does not tolerate '" +
                          std::string(to_string(f.spec.kind)) + "' faults");
    }
  }

  // Trace retention: resolve the mode before any node registers (under
  // streaming, init_shards stands up the online skew accumulator).
  recorder_.configure(resolve_recording(components_.recording));

  Rng master(config_.seed);
  Rng delay_rng = master.split("delays");
  Rng clock_rng = master.split("clocks");
  Rng layer0_rng = master.split("layer0");
  Rng fault_rng = master.split("faults");

  sinks_.resize(grid_.node_count() + 1);  // +1 possible source slot
  models_.resize(grid_.node_count());
  layer0_by_grid_.assign(grid_.node_count(), nullptr);

  build_network(delay_rng);
  init_shards();
  build_layer0(clock_rng, layer0_rng);
  build_algorithm_nodes(clock_rng, fault_rng);
}

void World::init_shards() {
  for (Simulator& sim : sims_) shard_sims_.push_back(&sim);

  // Contiguous column ranges: shard boundaries are the only edges that
  // cross shards, so the conservative lookahead is an ordinary link delay
  // regardless of topology (line-replicated, torus, and future registry
  // topologies all expose columns), and every layer is cut alike: layer 0
  // (grid id = base id) maps columns to shards, and a node above takes the
  // shard of its copy one layer down. Line mode's clock source (net id ==
  // grid node count) feeds column 0, so it stays in shard 0.
  const std::uint32_t bn = grid_.base().node_count();
  const std::uint32_t columns = grid_.base().column_count();
  std::vector<std::uint32_t> node_shard(net_.node_count(), 0);
  for (BaseNodeId v = 0; v < bn; ++v) {
    const std::uint64_t column = grid_.base().column(v);
    node_shard[v] = static_cast<std::uint32_t>(column * shard_count_ / columns);
  }
  for (GridNodeId g = bn; g < grid_.node_count(); ++g) node_shard[g] = node_shard[g - bn];

  // The recorder and the live accumulator take one lane per shard.
  if (recorder_.mode() == RecordingMode::kStreaming) {
    std::vector<bool> faulty(grid_.node_count(), false);
    for (const auto& [g, spec] : fault_map_) faulty[g] = true;
    streaming_ = std::make_unique<StreamingSkew>(grid_, std::move(faulty), config_.warmup,
                                                 std::span(node_shard).first(bn));
    recorder_.set_stream(streaming_.get());
  }
  // The serial engine is the Network's one-shard wiring as constructed, with
  // no cut and no window lanes (counters come from always-on sources).
  if (shard_count_ > 1) {
    net_.configure_shards(shard_sims_, node_shard);
    if (engine_.telemetry) telemetry_ = std::make_unique<Telemetry>(shard_count_);
  }
  recorder_.set_lanes(node_shard);
}

World::~World() = default;

void World::build_network(Rng& delay_rng) {
  const BaseGraph& base = grid_.base();
  const auto edge_delay = [&](std::uint32_t from_col, std::uint32_t to_col,
                              std::uint32_t from_layer, std::uint32_t to_layer) {
    DelayContext ctx;
    ctx.from_column = from_col;
    ctx.to_column = to_col;
    ctx.from_layer = from_layer;
    ctx.to_layer = to_layer;
    ctx.d = config_.params.d;
    ctx.u = config_.params.u;
    return delay_provider_->sample(ctx, delay_rng);
  };
  recorder_.reserve(grid_.node_count() + 1);  // +1 possible line source
  // Grid nodes get network ids equal to their grid ids.
  for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
    const NetNodeId id = net_.add_node(nullptr);
    GTRIX_CHECK(id == g);
    NodeMeta meta;
    meta.layer = grid_.layer_of(g);
    meta.base = grid_.base_of(g);
    meta.column = base.column(grid_.base_of(g));
    meta.faulty = fault_map_.contains(g);
    recorder_.register_node(g, meta);
  }
  if (config_.layer0 == Layer0Mode::kLinePropagation) {
    source_id_ = net_.add_node(nullptr);
    NodeMeta meta;
    meta.is_source = true;
    recorder_.register_node(source_id_, meta);
  }
  // Inter-layer edges, deterministic order.
  for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
    const std::uint32_t from_col = base.column(grid_.base_of(g));
    const std::uint32_t from_layer = grid_.layer_of(g);
    for (GridNodeId succ : grid_.successors(g)) {
      const double delay = edge_delay(from_col, base.column(grid_.base_of(succ)), from_layer,
                                      grid_.layer_of(succ));
      net_.add_edge(g, succ, delay);
    }
  }
  // Layer-0 line edges (Appendix A wiring).
  if (config_.layer0 == Layer0Mode::kLinePropagation) {
    // Source feeds every column-0 node.
    for (BaseNodeId v : base.nodes_in_column(0)) {
      net_.add_edge(source_id_, grid_.id(v, 0), edge_delay(0, 0, 0, 0));
    }
    // Column c's primary node feeds every node of column c+1.
    for (std::uint32_t c = 0; c + 1 < base.column_count(); ++c) {
      const BaseNodeId primary = base.nodes_in_column(c).front();
      for (BaseNodeId w : base.nodes_in_column(c + 1)) {
        net_.add_edge(grid_.id(primary, 0), grid_.id(w, 0), edge_delay(c, c + 1, 0, 0));
      }
    }
  }
}

double World::clock_horizon() const {
  // Real time the run plausibly reaches: every wave plus full propagation
  // through the grid, with slack. Only rate-schedule models read this.
  double horizon =
      (static_cast<double>(config_.pulses) + static_cast<double>(config_.layers) + 8.0) *
      config_.params.lambda;
  if (config_.layer0 == Layer0Mode::kLinePropagation) {
    // Line startup: the layer-0 wavefront crosses one column per ~d of real
    // time before deep columns see their first pulse.
    horizon += static_cast<double>(config_.columns) * config_.params.d;
  }
  return horizon;
}

HardwareClock World::make_clock(Rng& rng, std::uint32_t column, std::uint32_t layer) const {
  ClockContext ctx;
  ctx.column = column;
  ctx.layer = layer;
  ctx.params = config_.params;
  ctx.horizon = clock_horizon();
  return clock_provider_->make(ctx, rng);
}

void World::build_layer0(Rng& clock_rng, Rng& layer0_rng) {
  const BaseGraph& base = grid_.base();
  const double kappa = config_.params.kappa();
  const double jitter = config_.layer0_jitter >= 0.0 ? config_.layer0_jitter : kappa / 2.0;

  if (config_.layer0 == Layer0Mode::kIdealJitter) {
    // Deterministic per-column pattern, shifted so all offsets stay >= 0
    // (a uniform shift of layer 0 is unobservable in skew metrics).
    double pattern_shift = 0.0;
    for (const double extra : config_.layer0_offset_by_column) {
      pattern_shift = std::max(pattern_shift, -extra);
    }
    for (BaseNodeId v = 0; v < base.node_count(); ++v) {
      const GridNodeId g = grid_.id(v, 0);
      (void)clock_rng.next_u64();  // keep clock stream aligned across modes
      double offset = layer0_rng.uniform(0.0, jitter) + pattern_shift;
      const std::uint32_t column = base.column(v);
      if (column < config_.layer0_offset_by_column.size()) {
        offset += config_.layer0_offset_by_column[column];
      }
      const auto fault_it = fault_map_.find(g);
      if (fault_it != fault_map_.end()) {
        if (fault_it->second.kind == FaultKind::kCrash) continue;  // silent
        // Other kinds have no emitter realization; the scenario layer
        // rejects them with path context, this is the direct-API backstop.
        GTRIX_CHECK_MSG(fault_it->second.kind == FaultKind::kStaticOffset,
                        "layer-0 faults in ideal-jitter mode support kCrash and "
                        "kStaticOffset only");
        offset = std::max(0.0, offset + fault_it->second.offset);
      }
      auto emitter = std::make_unique<IdealEmitter>(sim_for(g), net_, g, offset, config_.params,
                                                    config_.pulses, &recorder_);
      emitter->start();
      emitters_.push_back(std::move(emitter));
    }
    return;
  }

  // Line propagation (Algorithm 2).
  source_ = std::make_unique<ClockSource>(sim_for(source_id_), net_, source_id_, config_.params,
                                          config_.pulses, &recorder_);
  source_->start();
  for (BaseNodeId v = 0; v < base.node_count(); ++v) {
    const GridNodeId g = grid_.id(v, 0);
    const std::uint32_t col = base.column(v);
    const NetNodeId line_pred =
        col == 0 ? source_id_ : grid_.id(base.nodes_in_column(col - 1).front(), 0);
    const auto fault_it = fault_map_.find(g);
    if (fault_it != fault_map_.end()) {
      GTRIX_CHECK_MSG(fault_it->second.kind == FaultKind::kCrash,
                      "layer-0 line faults support kCrash only");
      auto sink = std::make_unique<CrashSink>();
      net_.set_sink(g, sink.get());
      sinks_[g] = std::move(sink);
      (void)clock_rng.next_u64();
      continue;
    }
    auto node = std::make_unique<Layer0LineNode>(sim_for(g), net_, g, make_clock(clock_rng, col, 0),
                                                 line_pred, config_.params, &recorder_,
                                                 arena_for(g).layer0);
    layer0_by_grid_[g] = node.get();
    net_.set_sink(g, node.get());
    sinks_[g] = std::move(node);
  }
}

void World::build_algorithm_nodes(Rng& clock_rng, Rng& fault_rng) {
  const BaseGraph& base = grid_.base();
  const std::uint32_t diameter = base.diameter();

  // Size each shard's lanes once (layer 0 holds no algorithm node).
  std::vector<std::uint32_t> shard_nodes(shard_count_, 0);
  std::vector<std::uint32_t> shard_slots(shard_count_, 0);
  for (GridNodeId g = base.node_count(); g < grid_.node_count(); ++g) {
    ++shard_nodes[shard_of(g)];
    shard_slots[shard_of(g)] += static_cast<std::uint32_t>(grid_.predecessors(g).size());
  }
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    algorithm_provider_->reserve(arenas_[s], shard_nodes[s], shard_slots[s],
                                 recorder_.mode() == RecordingMode::kFull);
  }

  for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
    const std::uint32_t layer = grid_.layer_of(g);
    if (layer == 0) continue;
    const std::uint32_t column = base.column(grid_.base_of(g));
    HardwareClock clock = make_clock(clock_rng, column, layer);

    const auto fault_it = fault_map_.find(g);
    const FaultSpec* spec = fault_it == fault_map_.end() ? nullptr : &fault_it->second;

    if (spec != nullptr && spec->kind == FaultKind::kCrash) {
      auto sink = std::make_unique<CrashSink>();
      net_.set_sink(g, sink.get());
      sinks_[g] = std::move(sink);
      continue;
    }
    if (spec != nullptr && spec->kind == FaultKind::kFixedPeriod) {
      const double period = spec->period > 0.0 ? spec->period : config_.params.lambda;
      const double first_at = (static_cast<double>(layer) + 1.0) * config_.params.lambda;
      auto rogue = std::make_unique<FixedPeriodRogue>(sim_for(g), net_, g, period, first_at,
                                                      config_.pulses, &recorder_);
      rogue->start();
      rogues_.push_back(rogue.get());
      net_.set_sink(g, rogue.get());
      sinks_[g] = std::move(rogue);
      continue;
    }

    // The config layer rejects this mismatch with path context; a direct
    // World construction gets the hard error instead of a silent no-op.
    if (spec != nullptr) {
      GTRIX_CHECK_MSG(algorithm_caps_.send_fault_overrides,
                      "algorithm '" + components_.algorithm.kind + "' does not support '" +
                          std::string(to_string(spec->kind)) + "' faults");
    }

    double broadcast_offset = 0.0;
    if (spec != nullptr && spec->kind == FaultKind::kStaticOffset) {
      broadcast_offset = spec->offset;
    }
    if (spec != nullptr && (spec->kind == FaultKind::kSplit || spec->kind == FaultKind::kJitter)) {
      broadcast_offset = -spec->alpha;
    }

    // Network ids equal grid ids, so the node views its predecessors in
    // the Grid, which outlives it.
    auto model = algorithm_provider_->make_node(NodeContext{
        sim_for(g), net_, g, std::move(clock), grid_.predecessors(g), config_.params, diameter,
        config_.trim, config_.self_stabilizing, config_.jump_condition, broadcast_offset,
        &recorder_, arena_for(g)});
    if (spec != nullptr) install_fault(g, *spec, *model, fault_rng);
    net_.set_sink(g, &model->sink());
    models_[g] = std::move(model);
  }
}

void World::install_fault(GridNodeId g, const FaultSpec& spec, NodeModel& model,
                          Rng& fault_rng) {
  switch (spec.kind) {
    case FaultKind::kStaticOffset:
      // Handled via broadcast_offset; no override needed.
      return;
    case FaultKind::kSplit: {
      // Send early to lower-column successors, late to higher-column ones.
      // The node already fires alpha early (broadcast_offset = -alpha);
      // per-edge extras of 0 / alpha / 2 alpha realize -alpha / 0 / +alpha.
      const std::uint32_t own_col = grid_.base().column(grid_.base_of(g));
      std::vector<std::pair<EdgeId, double>> plan;
      for (EdgeId e : net_.out_edges(g)) {
        const auto to_col = grid_.base().column(grid_.base_of(net_.edge_to(e)));
        double extra = spec.alpha;  // same column: on time
        if (to_col < own_col) extra = 0.0;
        if (to_col > own_col) extra = 2.0 * spec.alpha;
        plan.emplace_back(e, extra);
      }
      model.set_send_override([this, plan](const Pulse& pulse, SimTime /*now*/) {
        for (const auto& [edge, extra] : plan) {
          if (extra <= 0.0) {
            net_.send(edge, pulse);
          } else {
            net_.send_after(edge, pulse, extra);
          }
        }
      });
      return;
    }
    case FaultKind::kJitter: {
      auto runtime = std::make_unique<FaultRuntime>();
      runtime->rng = fault_rng.split("jitter");
      FaultRuntime* rt = runtime.get();
      fault_runtimes_.push_back(std::move(runtime));
      const double alpha = spec.alpha;
      model.set_send_override([this, rt, alpha, g](const Pulse& pulse, SimTime /*now*/) {
        for (EdgeId e : net_.out_edges(g)) {
          const double extra = rt->rng.uniform(0.0, 2.0 * alpha);
          net_.send_after(e, pulse, extra);
        }
      });
      return;
    }
    case FaultKind::kMuteAfter: {
      auto runtime = std::make_unique<FaultRuntime>();
      FaultRuntime* rt = runtime.get();
      fault_runtimes_.push_back(std::move(runtime));
      const std::int64_t after = spec.after;
      model.set_send_override([this, rt, after, g](const Pulse& pulse, SimTime) {
        if (rt->sent >= after) return;  // silent from now on
        ++rt->sent;
        net_.broadcast(g, pulse);
      });
      return;
    }
    case FaultKind::kCrash:
    case FaultKind::kFixedPeriod:
      GTRIX_CHECK_MSG(false, "handled before node construction");
  }
}

void World::run_until(SimTime deadline) {
  using Clock = std::chrono::steady_clock;
  const bool timed = engine_.telemetry;
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  // Window lanes and spans describe windows: a serial run is one window long.
  ShardDriver(shard_sims_, net_, streaming_.get(),
              ShardDriverObs{telemetry_.get(), shard_count_ > 1 ? trace_ : nullptr, trace_pid_})
      .run(deadline);
  if (timed) run_wall_seconds_ += std::chrono::duration<double>(Clock::now() - t0).count();
}

void World::set_trace(TraceCollector* trace, std::uint32_t pid) {
  if (!engine_.telemetry) return;
  trace_ = trace;
  trace_pid_ = pid;
}

EngineStats World::engine_stats() const {
  EngineStats stats;
  if (!engine_.telemetry) return stats;
  stats.enabled = true;

  // Engine-invariant block (JSONL-safe; see obs/telemetry.hpp).
  const ExperimentCounters c = counters();
  stats.set(ObsCounter::kLogicalEvents, c.logical_events());
  stats.set(ObsCounter::kMessagesSent, c.messages_sent);
  stats.set(ObsCounter::kMessagesDelivered, c.messages_delivered);
  stats.set(ObsCounter::kNodeIterations, c.iterations);
  stats.set(ObsCounter::kPulsesRecorded, recorder_.pulse_count());
  stats.set(ObsCounter::kRealignShiftedNodes, last_realign_.nodes_shifted);
  stats.set(ObsCounter::kCorruptPinnedPulses, recorder_.anchored_pulse_count());

  // Queue counters, summed over shards. Timer cancels are node-issued and
  // engine-invariant, counted by each Simulator; the queue's own counters
  // (scheduled, unlinked, rebuilds, occupancy, visits) are engine-shaped
  // (summary only).
  std::uint64_t cancels = 0, unlinked = 0, scheduled = 0, rebuilds = 0, occupancy = 0,
                visits = 0;
  const auto harvest_queue = [&](const Simulator& sim) {
    const EventQueue& q = sim.event_queue();
    cancels += sim.timer_cancels();
    unlinked += q.cancelled_count();
    scheduled += q.scheduled_count();
    rebuilds += q.calendar_rebuilds();
    occupancy += q.insert_occupancy();
    visits += q.pop_visits();
  };
  for (const Simulator& sim : sims_) harvest_queue(sim);
  stats.set(ObsCounter::kTimerCancels, cancels);
  stats.set(ObsCounter::kEventsExecuted, c.events_executed);
  stats.set(ObsCounter::kEventsScheduled, scheduled);
  stats.set(ObsCounter::kEventsPurged, unlinked);
  stats.set(ObsCounter::kCalendarRebuilds, rebuilds);
  stats.set(ObsCounter::kCalendarInsertOccupancy, occupancy);
  stats.set(ObsCounter::kCalendarPopVisits, visits);

  // Sharded-run extras: window lanes and mailbox traffic.
  if (telemetry_) telemetry_->harvest_into(stats);
  stats.set(ObsCounter::kEnvelopesPublished, net_.envelopes_published());
  stats.set(ObsCounter::kEnvelopesDrained, net_.envelopes_drained());
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(stats.shards.size()); ++s) {
    stats.shards[s].envelopes_drained = net_.shard_envelopes_drained(s);
  }

  stats.run_wall_seconds = run_wall_seconds_;
  stats.peak_rss_mb = peak_rss_mb();
  return stats;
}

void World::corrupt_fraction(double fraction, Rng& rng) {
  GTRIX_CHECK_MSG(algorithm_caps_.state_corruption,
                  "algorithm '" + components_.algorithm.kind +
                      "' does not support state corruption (Theorem 1.6 workloads need a "
                      "gradient algorithm)");
  for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
    if (models_[g] != nullptr && rng.bernoulli(fraction)) {
      models_[g]->corrupt_state(rng);
    } else if (layer0_by_grid_[g] != nullptr && rng.bernoulli(fraction)) {
      layer0_by_grid_[g]->corrupt_state(rng);
    }
  }
}

GridTrace World::trace() const {
  GridTrace t;
  t.grid = &grid_;
  t.recorder = &recorder_;
  t.node_warmup = config_.warmup;
  t.node_tail = 1;
  return t;
}

SkewReport World::skew() const {
  const auto [lo, hi] = default_window(recorder_);
  // The live accumulator covers exactly the steady pulses of the whole run,
  // which is what a replay of the default window would score.
  if (streaming_ != nullptr) return streaming_->report(lo, hi);
  return skew_window(lo, hi);
}

void World::set_corruption_anchor(double /*wave*/) {
  if (streaming_ == nullptr) return;  // full recording keeps everything
  recorder_.set_corruption_anchor();
  recorder_.set_stream(nullptr);
  streaming_.reset();
}

SkewReport World::skew_window(Sigma lo, Sigma hi) const {
  GTRIX_CHECK_MSG(streaming_ == nullptr,
                  "arbitrary-window skew needs a per-wave trace; streaming mode "
                  "keeps none outside a corrupt cell (use skew(), or record full)");
  return replay_skew(trace(), lo, hi).skew;
}

RealignStats World::realign_labels() {
  GTRIX_CHECK_MSG(streaming_ == nullptr,
                  "wave-label realignment needs a per-wave trace; streaming mode "
                  "retains none without a corruption anchor (set_corruption_anchor "
                  "before the run, or record full)");
  const GridTrace t = trace();
  last_realign_ = realign_wave_labels(recorder_, t, config_.params.lambda);
  return last_realign_;
}

ConditionReport World::conditions(std::uint32_t s_max) const {
  const auto [lo, hi] = default_window(recorder_);
  return check_conditions(trace(), config_.params, s_max, lo, hi);
}

ExperimentCounters World::counters() const {
  ExperimentCounters total;
  for (const NodeArena& arena : arenas_) {
    const GradientTally& t = arena.gradient.tally;
    total.iterations += t.iterations;
    total.late_broadcasts += t.late_broadcasts;
    total.guard_aborts += t.guard_aborts;
    total.watchdog_resets += t.watchdog_resets;
    total.timeout_branches += t.timeout_branches;
    total.duplicate_drops += t.duplicate_drops;
  }
  for (const Simulator& sim : sims_) total.events_executed += sim.executed_events();
  total.messages_sent = net_.messages_sent();
  total.messages_delivered = net_.messages_delivered();
  total.delivery_events = net_.delivery_events();
  return total;
}

GradientTrixNode* World::gradient_node(GridNodeId g) {
  NodeModel* model = models_.at(g).get();
  return model == nullptr ? nullptr : model->gradient();
}
Layer0LineNode* World::layer0_node(GridNodeId g) { return layer0_by_grid_.at(g); }

}  // namespace gtrix
