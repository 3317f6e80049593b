// Fault model (paper §2, "Fault Model").
//
// Faulty nodes behave arbitrarily subject to the model constraint that at
// most a constant number change their timing between consecutive pulses.
// The behaviours below cover the spectrum the paper discusses:
//
//  * kCrash        -- never sends (permanent silent fault)
//  * kMuteAfter    -- correct for `after` pulses, then silent
//  * kStaticOffset -- correct algorithm, pulse shifted by a constant
//                     ("delay fault with a static timing profile", §1)
//  * kSplit        -- per-successor static offsets: sends early to some
//                     successors and late to others (maximally divisive;
//                     exercises the median-sticking defence)
//  * kJitter       -- per-pulse random offset (changes behaviour every
//                     pulse; allowed for a constant number of nodes,
//                     Corollary 1.5)
//  * kFixedPeriod  -- ignores all inputs and pulses at its own period
//                     (a node whose control logic is dead but whose
//                     oscillator still runs)
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/grid.hpp"
#include "support/fields.hpp"
#include "support/rng.hpp"

namespace gtrix {

enum class FaultKind : std::uint8_t {
  kCrash,
  kMuteAfter,
  kStaticOffset,
  kSplit,
  kJitter,
  kFixedPeriod,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  double offset = 0.0;        ///< kStaticOffset: shift in time units (may be negative)
  double alpha = 0.0;         ///< kSplit: half-spread; kJitter: amplitude
  double period = 0.0;        ///< kFixedPeriod: self period (0 -> Lambda)
  std::int64_t after = 0;     ///< kMuteAfter: correct pulses before silence

  static FaultSpec crash() { return {}; }
  static FaultSpec static_offset(double offset);
  static FaultSpec split(double alpha);
  static FaultSpec jitter(double alpha);
  static FaultSpec fixed_period(double period);
  static FaultSpec mute_after(std::int64_t after);

  bool operator==(const FaultSpec&) const = default;
};

struct PlacedFault {
  BaseNodeId base = 0;
  std::uint32_t layer = 0;
  FaultSpec spec;

  bool operator==(const PlacedFault&) const = default;
};

/// The parameter entries of a FaultSpec member `spec` (a placement's or a
/// generator's): only the one its kind reads is non-zero; zeros are not
/// emitted.
template <class T>
constexpr auto fault_spec_fields() {
  return std::tuple{
      Field<&T::spec, &FaultSpec::offset>{"offset", {.omit_default = true}},
      Field<&T::spec, &FaultSpec::alpha>{"alpha", {.omit_default = true}},
      Field<&T::spec, &FaultSpec::period>{"period", {.omit_default = true}},
      Field<&T::spec, &FaultSpec::after>{"after", {.omit_default = true}},
  };
}

/// One "faults" entry.
constexpr auto fields_of(const PlacedFault*) {
  using F = PlacedFault;
  return std::tuple_cat(std::tuple{
                            Field<&F::base>{"base"},
                            Field<&F::layer>{"layer"},
                            Field<&F::spec, &FaultSpec::kind>{"kind", {.required = true}},
                        },
                        fault_spec_fields<F>());
}
GTRIX_CKPT_FIELDS(PlacedFault, 3);
GTRIX_CKPT_FIELDS(FaultSpec, 5);

/// Canonical kind names shared by the scenario parser, result emission and
/// error messages.
std::string_view to_string(FaultKind v);
/// Throws JsonError-compatible std::runtime_error listing the valid names.
FaultKind fault_kind_from_string(std::string_view s);

/// Options for random fault placement.
struct PlacementOptions {
  double probability = 0.0;     ///< independent per-node failure probability p
  bool exclude_layer0 = true;   ///< Theorem 1.2/1.3 settings assume layer 0 correct
  bool enforce_one_local = true;///< resample until no node has 2 faulty predecessors
  std::uint32_t max_attempts = 64;
};

/// Samples an i.i.d. fault set; every selected node receives `spec`.
/// Throws if `enforce_one_local` cannot be satisfied within max_attempts.
std::vector<PlacedFault> sample_iid_faults(const Grid& grid, const PlacementOptions& options,
                                           const FaultSpec& spec, Rng& rng);

/// Worst-case clustering for Theorem 1.2: f faults in the same base column,
/// on layers start_layer, start_layer + stride, ... (1-local by construction
/// when stride >= 2; stride 1 stacks them as tightly as the model allows).
std::vector<PlacedFault> clustered_faults(const Grid& grid, std::uint32_t f,
                                          std::uint32_t column, std::uint32_t start_layer,
                                          std::uint32_t stride, const FaultSpec& spec);

/// True if no node of the grid has two or more faulty in-neighbours and no
/// two faults coincide (the paper's 1-locality requirement). Faults are
/// identified by (base, layer).
bool is_one_local(const Grid& grid, const std::vector<PlacedFault>& faults);

/// Nodes violating 1-locality (for diagnostics).
std::vector<GridNodeId> one_locality_violations(const Grid& grid,
                                                const std::vector<PlacedFault>& faults);

/// Generalized f-locality: nodes with more than `max_faulty_preds` faulty
/// in-neighbours (used by the degree-(2f+1) extension experiments).
std::vector<GridNodeId> locality_violations(const Grid& grid,
                                            const std::vector<PlacedFault>& faults,
                                            std::uint32_t max_faulty_preds);

}  // namespace gtrix
