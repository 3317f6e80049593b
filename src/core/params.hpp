// Algorithm parameters (paper §3, Equations (1)-(3)).
//
//   kappa  := 2 (u + (1 - 1/theta)(Lambda - d))                     (1)
//   Lambda >= C theta (sup_l L_l + u) + d                           (2)
//   d      >= C (theta (sup_l L_l + u) + kappa)                     (3)
//
// sup_l L_l is not known a priori; the analysis bounds it by
// 4 kappa (2 + log2 D) in the fault-free case (Theorem 1.1), so validation
// instantiates (2)/(3) with that bound and an explicit safety factor C.
#pragma once

#include <cstdint>
#include <string>

#include "support/fields.hpp"

namespace gtrix {

struct Params {
  double d = 1000.0;      ///< maximum end-to-end message delay
  double u = 10.0;        ///< delay uncertainty (delays in [d-u, d])
  double theta = 1.0005;  ///< maximum hardware clock rate (min rate is 1)
  double lambda = 2000.0; ///< nominal layer-to-layer period Lambda

  /// kappa per Eq. (1). Inline: the node hot path reads it per reception.
  double kappa() const noexcept {
    return 2.0 * (u + (1.0 - 1.0 / theta) * (lambda - d));
  }

  /// Theorem 1.1 fault-free local skew bound: 4 kappa (2 + log2 D).
  double thm11_bound(std::uint32_t diameter) const noexcept;

  /// Corollary 4.23 bound on Psi^1: 2 kappa D.
  double psi1_bound(std::uint32_t diameter) const noexcept;

  /// Corollary 4.24 global skew bound: 6 kappa D.
  double global_skew_bound(std::uint32_t diameter) const noexcept;

  /// Theorem 1.2 bound for f worst-case faults:
  /// 4 kappa (2 + log2 D) 5^f sum_{j<=f} 5^-j.
  double thm12_bound(std::uint32_t diameter, std::uint32_t faults) const noexcept;

  /// Checks Eq. (2) and (3) against the Theorem 1.1 bound for diameter D
  /// with safety factor C. Returns an empty string when valid, otherwise a
  /// human-readable description of the violated constraint.
  std::string validate(std::uint32_t diameter, double safety = 1.0) const;
  bool valid_for(std::uint32_t diameter, double safety = 1.0) const {
    return validate(diameter, safety).empty();
  }

  /// Constructs parameters with Lambda = 2d.
  static Params with(double d, double u, double theta);

  /// Derives a parameter set valid for diameter D at the given uncertainty
  /// and drift: iterates d until Eq. (2)/(3) hold with the requested safety
  /// factor (Lambda = 2d throughout).
  static Params derive_for(std::uint32_t diameter, double u, double theta,
                           double safety = 1.2);

  std::string describe() const;

  bool operator==(const Params&) const = default;
};

/// The "params" object. u < d and kappa >= 0 relate two fields each; the
/// scenario layer checks them once the cell is resolved.
constexpr auto fields_of(const Params*) {
  return std::tuple{
      Field<&Params::d>{"d"},
      Field<&Params::u>{"u", {.min = 0}},
      Field<&Params::theta>{"theta", {.min = 1}},  // the minimum clock rate is 1
      Field<&Params::lambda>{"lambda", {.min = 0, .above = true}},
  };
}
GTRIX_CKPT_FIELDS(Params, 4);

}  // namespace gtrix
