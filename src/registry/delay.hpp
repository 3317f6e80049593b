// DelayProvider: pluggable per-edge delay assignment in [d-u, d].
//
// Built-ins: uniform-random (paper default), all-max, all-min, column-split
// (the Fig. 1 adversary; its split column is a component parameter),
// alternating and own-slow-cross-fast (the Figure 5 scenario).
//
// uniform-random also carries Corollary 1.5's slow delay drift: with
// `drift_amplitude` A > 0, a send on edge e at time t takes the edge's static
// draw plus A/2 * sin(2 pi t / (kDriftPeriodWaves * Lambda) + 0.7 e). The
// Network applies the term (net/network.hpp); the draws themselves, and
// their RNG stream, do not depend on A.
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

  /// Amplitude A of the slow delay drift; 0 (static delays) for every kind
  /// but uniform-random. The scenario layer keeps A/2 < d - u.
  virtual double drift_amplitude() const { return 0.0; }
};

/// The drift's period in waves: slow relative to the speed of the system,
/// as Corollary 1.5 requires.
inline constexpr double kDriftPeriodWaves = 30.0;

/// Global registry; built-ins register on first access.
ComponentRegistry<DelayProvider>& delay_registry();

}  // namespace gtrix
