#include "registry/delay.hpp"

namespace gtrix {

namespace {

class UniformRandomDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng& rng) const override {
    return rng.uniform(ctx.d - ctx.u, ctx.d);
  }
};

class AllMaxDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override { return ctx.d; }
};

class AllMinDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override { return ctx.d - ctx.u; }
};

class ColumnSplitDelay final : public DelayProvider {
 public:
  explicit ColumnSplitDelay(std::uint32_t split_column) : split_column_(split_column) {}
  double sample(const DelayContext& ctx, Rng&) const override {
    return ctx.from_column < split_column_ ? ctx.d - ctx.u : ctx.d;
  }

 private:
  std::uint32_t split_column_;
};

class AlternatingDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override {
    return (ctx.to_column % 2 == 0) ? ctx.d : ctx.d - ctx.u;
  }
};

class OwnSlowCrossFastDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override {
    return ctx.from_column == ctx.to_column ? ctx.d : ctx.d - ctx.u;
  }
};

void register_builtins(ComponentRegistry<DelayProvider>& reg) {
  reg.add("uniform-random", "i.i.d. uniform in [d-u, d] (default realistic model)", {},
          [](const ComponentSpec&) { return std::make_shared<const UniformRandomDelay>(); });
  reg.add("all-max", "every edge at d", {},
          [](const ComponentSpec&) { return std::make_shared<const AllMaxDelay>(); });
  reg.add("all-min", "every edge at d-u", {},
          [](const ComponentSpec&) { return std::make_shared<const AllMinDelay>(); });
  reg.add("column-split",
          "edges leaving columns < split_column get d-u, others d (Fig. 1 adversary)",
          {{"split_column", ParamType::kInt, Json(0),
            "first column whose outgoing edges run at the maximum delay"}},
          [](const ComponentSpec& spec) {
            const std::int64_t split = spec.params.at("split_column").as_int();
            if (split < 0) throw JsonError("column-split: split_column must be >= 0");
            return std::make_shared<const ColumnSplitDelay>(static_cast<std::uint32_t>(split));
          });
  reg.add("alternating", "d / d-u alternating by destination-column parity", {},
          [](const ComponentSpec&) { return std::make_shared<const AlternatingDelay>(); });
  reg.add("own-slow-cross-fast",
          "own-copy edges d, cross edges d-u: consistent overshoot (Figure 5 scenario)", {},
          [](const ComponentSpec&) { return std::make_shared<const OwnSlowCrossFastDelay>(); });
}

}  // namespace

ComponentRegistry<DelayProvider>& delay_registry() {
  static ComponentRegistry<DelayProvider>* registry = [] {
    auto* reg = new ComponentRegistry<DelayProvider>("delay model");
    register_builtins(*reg);
    return reg;
  }();
  return *registry;
}

}  // namespace gtrix
