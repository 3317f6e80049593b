// ClockModelProvider: pluggable per-node hardware-clock construction.
//
// Built-ins: random-static (paper default: per-node rate uniform in
// [1, theta]), all-fast, all-slow, alternating, and drift-walk (bounded
// random-walk rate schedule -- time-varying drift, which the static models
// cannot express; stresses the GCS gradient property under rate changes).
#pragma once

#include <cstdint>

#include "clock/hardware_clock.hpp"
#include "core/params.hpp"
#include "registry/registry.hpp"
#include "support/rng.hpp"

namespace gtrix {

/// Everything a clock model may read when building one node's clock.
struct ClockContext {
  std::uint32_t column = 0;
  std::uint32_t layer = 0;
  Params params;
  /// Real-time horizon the run will plausibly reach; rate schedules freeze
  /// at their last breakpoint beyond it.
  double horizon = 0.0;
};

class ClockModelProvider {
 public:
  virtual ~ClockModelProvider() = default;

  /// Builds one node's clock. Called once per node in deterministic grid
  /// order; implementations must draw from `rng` deterministically (the
  /// draw count may depend only on ctx and the provider's parameters).
  virtual HardwareClock make(const ClockContext& ctx, Rng& rng) const = 0;
};

/// Global registry; built-ins register on first access.
ComponentRegistry<ClockModelProvider>& clock_model_registry();

}  // namespace gtrix
