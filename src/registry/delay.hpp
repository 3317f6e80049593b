// DelayProvider: pluggable per-edge delay assignment in [d-u, d].
//
// Built-ins: uniform-random (paper default), all-max, all-min, column-split
// (the Fig. 1 adversary; its split column is a component parameter),
// alternating and own-slow-cross-fast (the Figure 5 scenario).
#pragma once

#include <cstdint>

#include "registry/registry.hpp"
#include "support/rng.hpp"

namespace gtrix {

/// One edge, described by its endpoints, plus the model bounds.
struct DelayContext {
  std::uint32_t from_column = 0;
  std::uint32_t to_column = 0;
  std::uint32_t from_layer = 0;
  std::uint32_t to_layer = 0;
  double d = 1000.0;  ///< maximum end-to-end delay
  double u = 10.0;    ///< delay uncertainty
};

class DelayProvider {
 public:
  virtual ~DelayProvider() = default;

  /// Delay for one edge; must lie in [d-u, d]. `rng` is consumed only by
  /// randomized providers (edge order is deterministic, so draws are too).
  virtual double sample(const DelayContext& ctx, Rng& rng) const = 0;
};

/// Global registry; built-ins register on first access.
ComponentRegistry<DelayProvider>& delay_registry();

}  // namespace gtrix
