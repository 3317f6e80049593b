#include "registry/algorithm.hpp"

#include <utility>

#include "baseline/lw_grid.hpp"
#include "baseline/trix_node.hpp"
#include "ckpt/codec.hpp"
#include "core/gradient_node.hpp"
#include "core/node_state.hpp"
#include "support/check.hpp"

namespace gtrix {

void NodeModel::set_send_override(SendOverride) {
  GTRIX_CHECK_MSG(false, "this algorithm does not support send-behaviour faults");
}

void NodeModel::corrupt_state(Rng&) {
  GTRIX_CHECK_MSG(false, "this algorithm does not support state corruption");
}

void NodeModel::checkpoint(CkptIo&) {
  throw CkptError("this algorithm does not support checkpointing");
}

namespace {

GradientNodeConfig gradient_config(const NodeContext& ctx, bool simplified) {
  GradientNodeConfig config;
  config.params = ctx.params;
  config.simplified = simplified;
  config.self_stabilizing = ctx.self_stabilizing;
  config.jump_condition = ctx.jump_condition;
  config.trim = ctx.trim;
  config.skew_bound_hint = ctx.params.thm11_bound(ctx.diameter);
  return config;
}

class GradientNodeModel final : public NodeModel {
 public:
  GradientNodeModel(NodeContext ctx, bool simplified)
      : node_(ctx.sim, ctx.net, ctx.self, std::move(ctx.clock), ctx.preds,
              gradient_config(ctx, simplified), ctx.broadcast_offset, ctx.recorder,
              ctx.arena.gradient) {}

  PulseSink& sink() override { return node_; }
  void set_send_override(SendOverride fn) override { node_.set_send_override(std::move(fn)); }
  void corrupt_state(Rng& rng) override { node_.corrupt_state(rng); }

  void add_counters(ExperimentCounters& total) const override {
    const auto& c = node_.counters();
    total.iterations += c.iterations;
    total.late_broadcasts += c.late_broadcasts;
    total.guard_aborts += c.guard_aborts;
    total.watchdog_resets += c.watchdog_resets;
    total.timeout_branches += c.timeout_branches;
    total.duplicate_drops += c.duplicate_drops;
  }

  GradientTrixNode* gradient() noexcept override { return &node_; }

  TimerTarget* timer_target() noexcept override { return &node_; }
  void checkpoint(CkptIo& io) override { node_.checkpoint(io); }

 private:
  GradientTrixNode node_;
};

class GradientProvider final : public AlgorithmProvider {
 public:
  explicit GradientProvider(bool simplified) : simplified_(simplified) {}

  AlgorithmCaps caps() const override {
    return AlgorithmCaps{.send_fault_overrides = true,
                         .state_corruption = true,
                         .tolerates_silent_preds = true,
                         .trim_limited_by_degree = true};
  }

  std::unique_ptr<NodeModel> make_node(NodeContext ctx) const override {
    return std::make_unique<GradientNodeModel>(std::move(ctx), simplified_);
  }

 private:
  bool simplified_;
};

class TrixNaiveNodeModel final : public NodeModel {
 public:
  explicit TrixNaiveNodeModel(NodeContext ctx)
      : node_(ctx.sim, ctx.net, ctx.self, std::move(ctx.clock), ctx.preds, ctx.params,
              ctx.recorder, ctx.arena.trix) {}

  PulseSink& sink() override { return node_; }

  TimerTarget* timer_target() noexcept override { return &node_; }
  void checkpoint(CkptIo& io) override { node_.checkpoint(io); }

 private:
  TrixNaiveNode node_;
};

class TrixNaiveProvider final : public AlgorithmProvider {
 public:
  AlgorithmCaps caps() const override {
    // Waits only for the *second* pulse copy, so one silent predecessor per
    // node is survivable; send-behaviour faults and corruption are not.
    return AlgorithmCaps{.send_fault_overrides = false,
                         .state_corruption = false,
                         .tolerates_silent_preds = true};
  }

  std::unique_ptr<NodeModel> make_node(NodeContext ctx) const override {
    return std::make_unique<TrixNaiveNodeModel>(std::move(ctx));
  }
};

class LynchWelchNodeModel final : public NodeModel {
 public:
  explicit LynchWelchNodeModel(NodeContext ctx)
      : node_(ctx.sim, ctx.net, ctx.self, std::move(ctx.clock), ctx.preds, ctx.params,
              ctx.trim, ctx.recorder, ctx.arena.lw) {}

  PulseSink& sink() override { return node_; }

  TimerTarget* timer_target() noexcept override { return &node_; }
  void checkpoint(CkptIo& io) override { node_.checkpoint(io); }

 private:
  LynchWelchGridNode node_;
};

class LynchWelchProvider final : public AlgorithmProvider {
 public:
  AlgorithmCaps caps() const override {
    // Needs every predecessor's pulse before it corrects, so any silent
    // node upstream stalls it -- the config layer rejects fault plans.
    return AlgorithmCaps{};
  }

  std::unique_ptr<NodeModel> make_node(NodeContext ctx) const override {
    return std::make_unique<LynchWelchNodeModel>(std::move(ctx));
  }
};

void register_builtins(ComponentRegistry<AlgorithmProvider>& reg) {
  reg.add("gradient-full", "Algorithm 3 (optionally with Algorithm 4 guards)", {},
          [](const ComponentSpec&) { return std::make_shared<const GradientProvider>(false); });
  reg.add("gradient-simplified", "Algorithm 1 (fault-free settings only)", {},
          [](const ComponentSpec&) { return std::make_shared<const GradientProvider>(true); });
  reg.add("trix-naive", "baseline [LW20]: forward on the second pulse copy", {},
          [](const ComponentSpec&) { return std::make_shared<const TrixNaiveProvider>(); });
  // Like the gradient kinds, lynch-welch reads the config-level `trim`
  // field (clamped per node so the trimmed window keeps its extremes).
  reg.add("lynch-welch",
          "trimmed-midpoint approximate agreement [WL88] adapted to the grid", {},
          [](const ComponentSpec&) { return std::make_shared<const LynchWelchProvider>(); });
}

}  // namespace

ComponentRegistry<AlgorithmProvider>& algorithm_registry() {
  static ComponentRegistry<AlgorithmProvider>* registry = [] {
    auto* reg = new ComponentRegistry<AlgorithmProvider>("algorithm");
    register_builtins(*reg);
    return reg;
  }();
  return *registry;
}

}  // namespace gtrix
