// Post-hoc verification of the algorithm's invariants on a recorded
// execution:
//
//  * Slow condition SC(s)  (Definition 4.3, proven in Lemma D.4)
//  * Fast condition FC(s)  (Definition 4.4, Lemma D.5)
//  * Jump condition JC     (Definition 4.5, Lemma D.6)
//  * C_{v,l} <= Lambda - d (Lemma D.2)
//  * propagation bounds    (Lemma D.3)
//  * median sticking       (Corollary 4.29, for nodes with a faulty
//                           predecessor)
//
// These power the property-test suites: every recorded iteration of every
// correct node must satisfy them for the implementation to be faithful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "metrics/skew.hpp"

namespace gtrix {

struct ConditionReport {
  std::uint64_t sc_checked = 0, sc_violations = 0;
  std::uint64_t fc_checked = 0, fc_violations = 0;
  std::uint64_t jc_checked = 0, jc_violations = 0;
  std::uint64_t lemma_d2_checked = 0, lemma_d2_violations = 0;
  std::uint64_t lemma_d3_checked = 0, lemma_d3_violations = 0;
  std::uint64_t median_checked = 0, median_violations = 0;
  std::uint64_t iterations_skipped = 0;  ///< missing data / out of window

  std::vector<std::string> samples;  ///< first few violation descriptions

  std::uint64_t total_violations() const noexcept {
    return sc_violations + fc_violations + jc_violations + lemma_d2_violations +
           lemma_d3_violations + median_violations;
  }
  bool ok() const noexcept { return total_violations() == 0; }

  std::string summary() const;
};

/// Verifies all invariants over waves sigma in [lo, hi] for levels
/// s in [0, s_max] (FC from s = 1). Nodes flagged faulty in the recorder are
/// treated as the fault set F; iterations whose predecessor pulses are
/// partially missing are skipped and counted. Needs a full-recording trace:
/// any other recorder mode keeps no iteration records and is a logic_error
/// naming the mode.
ConditionReport check_conditions(const GridTrace& trace, const Params& params,
                                 std::uint32_t s_max, Sigma lo, Sigma hi);

}  // namespace gtrix
