// Experiment assembly: builds a complete simulated system from a declarative
// config, runs it, and produces skew/condition reports.
//
// The four experiment dimensions -- topology, clock model, delay model and
// algorithm -- plus the recording mode are selected by ComponentSpecs and
// resolved against the string-keyed component registries (see
// registry/*.hpp); World is a pure wiring engine over the resolved
// providers and contains no per-kind switches. Each spec defaults to the
// paper's choice, and equality compares the canonicalized specs, so every
// spelling of the same parameters is interchangeable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/trix_node.hpp"
#include "clock/hardware_clock.hpp"
#include "core/gradient_node.hpp"
#include "core/layer0.hpp"
#include "core/node_state.hpp"
#include "core/params.hpp"
#include "fault/behaviors.hpp"
#include "fault/fault.hpp"
#include "graph/grid.hpp"
#include "metrics/conditions.hpp"
#include "metrics/realign.hpp"
#include "metrics/skew.hpp"
#include "metrics/streaming.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "registry/algorithm.hpp"
#include "registry/clock_model.hpp"
#include "registry/component.hpp"
#include "registry/delay.hpp"
#include "registry/recording.hpp"
#include "registry/topology.hpp"
#include "sim/simulator.hpp"
#include "support/fields.hpp"
#include "support/rng.hpp"

namespace gtrix {

class TraceCollector;
class CkptFile;
class CkptIo;
class CkptWriter;

enum class Layer0Mode {
  kIdealJitter,       ///< direct synchronized input, L_0 <= jitter
  kLinePropagation,   ///< Appendix A line forwarding (Algorithm 2)
};

struct ExperimentConfig {
  /// Registered topology by kind name, e.g. {"torus", {"rows": 4}}.
  ComponentSpec topology_spec = ComponentSpec::of("line-replicated");
  std::uint32_t columns = 16;  ///< base-graph columns (diameter = columns-1)
  std::uint32_t trim = 0;      ///< trimmed aggregation (extension; see core)
  std::uint32_t layers = 16;   ///< grid layers including layer 0
  Params params = Params::with(1000.0, 10.0, 1.0005);
  ComponentSpec algorithm_spec = ComponentSpec::of("gradient-full");
  Layer0Mode layer0 = Layer0Mode::kIdealJitter;
  double layer0_jitter = -1.0;  ///< ideal-mode input jitter; < 0 -> kappa/2
  /// Optional deterministic per-column extra offsets for ideal-mode layer-0
  /// emitters (index = column; missing columns get 0). Used to set up
  /// adversarial initial skew patterns (e.g. the Figure 5 oscillation
  /// scenario) without declaring any node faulty. May contain negative
  /// values; the whole pattern is shifted to keep emitter offsets >= 0.
  std::vector<double> layer0_offset_by_column;
  ComponentSpec delay_spec = ComponentSpec::of("uniform-random");
  ComponentSpec clock_spec = ComponentSpec::of("random-static");
  std::vector<PlacedFault> faults;
  std::int64_t pulses = 30;
  bool self_stabilizing = false;
  bool jump_condition = true;
  std::uint64_t seed = 1;
  Sigma warmup = 4;  ///< waves skipped at the start of the measurement window
  /// Trace-retention mode (registry/recording.hpp). Streaming bounds the
  /// metrics memory for mega-grid scenarios -- both modes measure skew with
  /// the one evaluator, so extrema stay bit-identical to full recording.
  ComponentSpec recording_spec = ComponentSpec::of("full");

  /// Semantic equality over the field list below: the component specs
  /// compare by their canonical forms, so a spec that spells out a default
  /// parameter equals one that omits it. Defined with the list walkers in
  /// scenario/spec.cpp.
  bool operator==(const ExperimentConfig& other) const;
};

/// The "config" object, in emission order (scenario/spec.hpp, to_json).
/// "layers": "columns" stores 0 until the cell resolves it. Adding a field
/// takes a member above, a line here and a bump of the count below.
constexpr auto fields_of(const ExperimentConfig*) {
  using C = ExperimentConfig;
  return std::tuple{
      ComponentField<&C::topology_spec, &topology_registry>{"base_graph"},
      Field<&C::columns>{"columns", {.min = 2}},
      Field<&C::trim>{"trim", {.omit_default = true}},
      Field<&C::layers>{"layers", {.min = 2, .sentinel = "columns", .sentinel_value = 0}},
      Field<&C::params>{"params"},
      ComponentField<&C::algorithm_spec, &algorithm_registry>{"algorithm"},
      Field<&C::layer0>{"layer0_mode"},
      Field<&C::layer0_jitter>{"layer0_jitter"},
      Field<&C::layer0_offset_by_column>{"layer0_offsets", {.omit_default = true}},
      ComponentField<&C::delay_spec, &delay_registry>{"delay_model"},
      ComponentField<&C::clock_spec, &clock_model_registry>{"clock_model"},
      ComponentField<&C::recording_spec, &recording_registry>{"recording", {.omit_default = true}},
      Field<&C::faults>{"faults", {.omit_default = true}},
      Field<&C::pulses>{"pulses", {.min = 1}},
      Field<&C::self_stabilizing>{"self_stabilizing"},
      Field<&C::jump_condition>{"jump_condition"},
      Field<&C::seed>{"seed"},
      Field<&C::warmup>{"warmup", {.min = 0}},
  };
}
GTRIX_CKPT_FIELDS(ExperimentConfig, 18);

/// The component selections canonicalized against the registries (unknown
/// kinds throw JsonError).
struct ResolvedComponents {
  ComponentSpec topology;
  ComponentSpec clock;
  ComponentSpec delay;
  ComponentSpec algorithm;
  ComponentSpec recording;

  bool operator==(const ResolvedComponents&) const = default;
};

ResolvedComponents resolve_components(const ExperimentConfig& config);

/// Builds the config's base graph (topology spec at `columns`).
BaseGraph make_base_graph(const ExperimentConfig& config);

/// Engine selection, orthogonal to the experiment config. Both fields are
/// behaviour-preserving: every combination produces bit-identical
/// simulations. Deliberately NOT part of ExperimentConfig: configs describe
/// the system under test, engine options only how it is executed, so they
/// stay out of config equality, serialization and the scenario format.
struct EngineOptions {
  /// Conservative-parallel shards for a single run (docs/performance.md,
  /// "Sharded execution"): the base graph is cut into contiguous column
  /// ranges, each with its own event queue, NodeArena and worker thread,
  /// synchronized at the minimum cross-shard link delay. Clamped to the
  /// column count; 0 and 1 both select the serial engine, the one-shard
  /// case of the same wiring and window loop, which runs its single queue
  /// in one window on the calling thread.
  std::uint32_t shards = 1;
  /// Engine telemetry (docs/observability.md): World::engine_stats()
  /// harvests counters, window timings and peak RSS after a run. Purely
  /// observational -- simulations are bit-identical with it on or off, and
  /// the engine-invariant counter block is byte-identical across every
  /// shard count. Off by default.
  bool telemetry = false;
};

/// A fully wired simulated system. Most callers use run_cell()
/// (runner/campaign.hpp); the class is exposed for experiments needing
/// custom control (e.g. corrupting node state mid-run for Theorem 1.6).
class World {
 public:
  explicit World(ExperimentConfig config, EngineOptions engine = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs the simulation until the event queue drains, or up to and
  /// including `t`, through the conservative window loop at every shard
  /// count (runner/shard_driver.hpp); results do not depend on it.
  void run_to_completion() { run_until(kTimeInfinity); }
  void run_until(SimTime t);

  /// Shards actually used (engine request clamped to the column count).
  std::uint32_t shard_count() const noexcept { return shard_count_; }
  /// Shard owning grid/net node `id` (always 0 on the serial engine).
  std::uint32_t shard_of(NetNodeId id) const { return net_.shard_of(id); }

  /// Randomly corrupts the state of (roughly) `fraction` of all algorithm
  /// nodes -- a system-wide transient fault (Theorem 1.6). Hard error when
  /// the algorithm does not support state corruption (the scenario layer
  /// rejects such configs earlier with path context).
  void corrupt_fraction(double fraction, Rng& rng);

  const ExperimentConfig& config() const noexcept { return config_; }
  const EngineOptions& engine() const noexcept { return engine_; }
  const ResolvedComponents& components() const noexcept { return components_; }
  const Grid& grid() const noexcept { return grid_; }
  /// Shard 0's event queue (the only one on the serial engine).
  Simulator& simulator() noexcept { return sims_[0]; }
  Network& network() noexcept { return net_; }
  Recorder& recorder() noexcept { return recorder_; }
  const Recorder& recorder() const noexcept { return recorder_; }

  GridTrace trace() const;

  /// The live skew accumulator of a clean streaming cell; null under full
  /// recording and on a corrupt cell, whose kept pulse trace is replayed
  /// instead (metrics/streaming.hpp).
  const StreamingSkew* streaming() const noexcept { return streaming_.get(); }

  /// Corruption anchor for streaming recording of a transient-fault cell.
  /// Must be called before the first simulated event. The Recorder keeps
  /// every pulse time of every node, as full recording does (no iteration
  /// records), and the live accumulator is dropped: realignment, the
  /// post-recovery measurement and the recovery scan replay that trace,
  /// exactly as under full recording. `wave` is unused: the anchor does not
  /// depend on the injection instant. No-op under full recording.
  void set_corruption_anchor(double wave);

  /// Skew over the default measurement window. A clean streaming cell reads
  /// its live accumulator; every cell that keeps its pulse trace replays it
  /// (skew_window). Both feed the same evaluator, so extrema and counts
  /// agree bit for bit.
  SkewReport skew() const;
  /// Skew over waves [lo, hi] by a replay of the kept pulse trace: full
  /// recording and corrupt streaming cells answer any window. A clean
  /// streaming cell keeps no per-wave trace at all (hard logic_error; use
  /// skew()).
  SkewReport skew_window(Sigma lo, Sigma hi) const;

  /// Condition checks over the default window (metrics/conditions.hpp).
  /// Full recording only: streaming keeps no iteration records, and
  /// check_conditions rejects it with a logic_error naming the mode.
  ConditionReport conditions(std::uint32_t s_max) const;

  /// Post-run wave-label realignment (see metrics/realign.hpp); call after
  /// run_to_completion() in transient-fault experiments, before measuring.
  /// Runs on the pulse trace of full or corruption-anchored streaming
  /// recording; a clean streaming cell has no per-wave trace to realign
  /// (logic_error).
  RealignStats realign_labels();

  ExperimentCounters counters() const;

  /// Attaches an optional Chrome-trace collector (obs/trace.hpp) for
  /// sharded window/barrier spans; non-owning, must outlive the runs.
  /// `pid` identifies this World in the trace. No-op when
  /// EngineOptions::telemetry is off.
  void set_trace(TraceCollector* trace, std::uint32_t pid);

  /// Post-run telemetry harvest (EngineOptions::telemetry). Returns
  /// enabled == false with zeroed counters when telemetry is off; callable
  /// repeatedly (counters are cumulative totals, not deltas). The
  /// invariant_json() block is byte-identical across every shard count;
  /// summary_json() is engine-shaped and wall-clock data.
  EngineStats engine_stats() const;

  /// The gradient node simulating grid node g; null for layer 0, faulty
  /// positions, or non-gradient algorithms.
  GradientTrixNode* gradient_node(GridNodeId g);
  Layer0LineNode* layer0_node(GridNodeId g);

  /// True when no events are pending anywhere: every shard queue is empty
  /// and no cross-shard envelope is parked in a mailbox. A checkpointed
  /// chunked run uses this as its termination test.
  bool idle() const;

  /// Serializes the full mutable simulation state (src/ckpt): every shard
  /// queue with its clock cursor, the network mailboxes and counters, all
  /// node registers, fault runtimes, the recorder and the streaming
  /// accumulators. Must be called while the World is quiescent (between
  /// run_* calls -- on the sharded engine that is a window barrier with
  /// every worker parked and the cut exchanged). Returns
  /// the complete checkpoint file image; `meta_json` (may be empty) is
  /// embedded in the header for the runner's own bookkeeping.
  std::vector<std::uint8_t> checkpoint_save(const std::string& meta_json) const;

  /// Restores the state saved by checkpoint_save into this freshly
  /// constructed World. The header's config and engine fingerprint must
  /// match this World's exactly (hard CkptError otherwise): restore never
  /// migrates state across configs or engine shapes. After it returns, the
  /// simulation continues bit-identically to the run that was snapshotted.
  void checkpoint_restore(const CkptFile& file);

  /// The snapshot's header JSON for a World with this config/engine, as
  /// checkpoint_save would embed it (used by restore-side validation and
  /// by tools that want the fingerprint without saving).
  Json checkpoint_header(const std::string& meta_json) const;

  bool is_faulty(GridNodeId g) const { return fault_map_.contains(g); }

 private:
  struct FaultRuntime {
    Rng rng;
    std::int64_t sent = 0;
    FaultRuntime() : rng(0) {}
  };

  /// The one section walk behind checkpoint_save (`save_to` set) and
  /// checkpoint_restore (`restore_from` set): every snapshot section and
  /// its codecs, once, in wire order. Event targets travel as their index
  /// in construction order -- network, layer-0 generators, then grid nodes
  /// ascending -- which a fresh World from the same config reproduces.
  void checkpoint_sections(CkptWriter* save_to, const CkptFile* restore_from);
  HardwareClock make_clock(Rng& rng, std::uint32_t column, std::uint32_t layer) const;
  double clock_horizon() const;
  void build_network(Rng& delay_rng);
  void init_shards();
  void build_layer0(Rng& clock_rng, Rng& layer0_rng);
  void build_algorithm_nodes(Rng& clock_rng, Rng& fault_rng);
  void install_fault(GridNodeId g, const FaultSpec& spec, NodeModel& model, Rng& fault_rng);

  /// Per-node wiring lookups: the owning shard's queue and arena.
  Simulator& sim_for(NetNodeId id) { return sims_[shard_of(id)]; }
  NodeArena& arena_for(NetNodeId id) { return arenas_[shard_of(id)]; }

  ExperimentConfig config_;
  EngineOptions engine_;
  ResolvedComponents components_;
  std::shared_ptr<const ClockModelProvider> clock_provider_;
  std::shared_ptr<const DelayProvider> delay_provider_;
  std::shared_ptr<const AlgorithmProvider> algorithm_provider_;
  AlgorithmCaps algorithm_caps_;
  /// Declared before every node: algorithm nodes view their predecessor
  /// lists in it (Grid::predecessors), so it must outlive them.
  Grid grid_;
  /// Shards actually used: the engine request clamped to the column count.
  std::uint32_t shard_count_;
  /// One event queue per shard, and the view of them that the Network and
  /// the ShardDriver take. sims_[0] is the Network's own queue.
  std::vector<Simulator> sims_;
  std::vector<Simulator*> shard_sims_;
  /// Owns the node -> shard table (see init_shards).
  Network net_;
  Recorder recorder_;
  /// The live skew accumulator (clean streaming cells only).
  std::unique_ptr<StreamingSkew> streaming_;
  /// Struct-of-arrays hot state, one arena per shard, for every node this
  /// World wires; must outlive the node objects below, which hold indices
  /// into it.
  std::vector<NodeArena> arenas_;

  // Telemetry (EngineOptions::telemetry; null/zero when off). telemetry_
  // holds the per-shard window lanes the ShardDriver workers write;
  // run_wall_seconds_ accumulates across run_* calls.
  std::unique_ptr<Telemetry> telemetry_;
  TraceCollector* trace_ = nullptr;  // non-owning
  std::uint32_t trace_pid_ = 0;
  double run_wall_seconds_ = 0.0;
  /// The last realign_labels() call's stats (zeroes before any call),
  /// exported as the engine-invariant realign_shifted_nodes counter.
  RealignStats last_realign_;

  NetNodeId source_id_ = 0;  // line mode only
  std::vector<std::unique_ptr<PulseSink>> sinks_;
  std::vector<std::unique_ptr<NodeModel>> models_;  ///< by grid id; null if none
  std::vector<Layer0LineNode*> layer0_by_grid_;
  std::unique_ptr<ClockSource> source_;
  std::vector<std::unique_ptr<IdealEmitter>> emitters_;
  std::vector<FixedPeriodRogue*> rogues_;
  std::map<GridNodeId, FaultSpec> fault_map_;
  std::vector<std::unique_ptr<FaultRuntime>> fault_runtimes_;
};

/// Recovery-time measurement of a corrupt cell (Theorems 1.2/1.3/1.6): the
/// per-wave worst local deviation from the injection wave on, scanned
/// against the Theorem 1.1 steady-state bound. The measured recovery wave
/// is the first wave from which the series stays within the bound.
/// enabled == false on clean cells.
struct RecoveryReport {
  bool enabled = false;
  Sigma corrupt_wave = 0;   ///< injection wave (CorruptPlan::wave)
  Sigma scan_hi = 0;        ///< last wave of the scan
  double threshold = 0.0;   ///< Theorem 1.1 local-skew bound
  /// True when the series is back within the bound before the scan ends; a
  /// false here means the cell did NOT stabilize inside the scanned waves.
  bool recovered = false;
  Sigma recovered_wave = 0; ///< first compliant-onward wave (corrupt_wave if never out)
  /// local_by_wave[i] = worst local deviation at wave corrupt_wave + i
  /// (the per-wave lane of the cell's replay, SkewReplay::local_by_wave);
  /// NaN where no pair was readable.
  std::vector<double> local_by_wave;
};

struct ExperimentResult {
  SkewReport skew;
  ExperimentCounters counters;
  double thm11_bound = 0.0;
  double global_bound = 0.0;
  std::uint32_t diameter = 0;
  /// Wave-label realignment stats (corrupt cells; zeroes elsewhere).
  RealignStats realign;
  /// Recovery-time scan (corrupt cells; enabled == false elsewhere).
  RecoveryReport recovery;
  /// enabled == false unless EngineOptions::telemetry was set.
  EngineStats engine_stats;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): the whole result, the
  /// one section of a finished cell's done file (runner/campaign.cpp).
  void checkpoint(CkptIo& io);
};

}  // namespace gtrix
