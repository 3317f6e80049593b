#include "metrics/conditions.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "support/check.hpp"

namespace gtrix {

namespace {

constexpr double kEps = 1e-6;         // float-noise tolerance, time units
constexpr std::size_t kMaxSamples = 12;

void note(ConditionReport& report, const std::string& what) {
  if (report.samples.size() < kMaxSamples) report.samples.push_back(what);
}

}  // namespace

std::string ConditionReport::summary() const {
  std::ostringstream out;
  out << "SC " << sc_violations << "/" << sc_checked << "  FC " << fc_violations << "/"
      << fc_checked << "  JC " << jc_violations << "/" << jc_checked << "  D2 "
      << lemma_d2_violations << "/" << lemma_d2_checked << "  D3 " << lemma_d3_violations
      << "/" << lemma_d3_checked << "  median " << median_violations << "/"
      << median_checked << "  skipped " << iterations_skipped;
  return out.str();
}

ConditionReport check_conditions(const GridTrace& trace, const Params& params,
                                 std::uint32_t s_max, Sigma lo, Sigma hi) {
  GTRIX_CHECK(trace.grid != nullptr && trace.recorder != nullptr);
  const Grid& grid = *trace.grid;
  const Recorder& rec = *trace.recorder;
  const double kappa = params.kappa();
  const double theta = params.theta;

  // Only full recording keeps iteration records; a streaming recorder has
  // none to check, so this is a hard error rather than an empty report.
  GTRIX_CHECK_MSG(rec.mode() == RecordingMode::kFull,
                  "conditions checks need iteration records; " +
                      std::string(to_string(rec.mode())) + " mode keeps none (record full)");

  ConditionReport report;
  for (GridNodeId gv = 0; gv < grid.node_count(); ++gv) {
    const std::uint32_t layer = grid.layer_of(gv);
    if (layer == 0) continue;
    if (trace.is_faulty(gv)) continue;
    const auto preds = grid.predecessors(gv);

    const std::vector<IterationRecord>& records = rec.iterations(gv);
    for (std::size_t idx = 0; idx < records.size(); ++idx) {
      const IterationRecord& it = records[idx];
      // Skip the node's startup transient (per-node, like the skew metrics).
      if (static_cast<Sigma>(idx) < trace.node_warmup) {
        ++report.iterations_skipped;
        continue;
      }
      if (it.sigma < lo || it.sigma > hi) continue;
      if (it.late) {
        ++report.iterations_skipped;
        continue;
      }
      const double t_v = it.pulse_time;
      const double c = it.correction;

      // Gather predecessor pulse times at this wave.
      std::uint32_t faulty_preds = 0;
      std::optional<double> t_own;
      double nb_min = std::numeric_limits<double>::infinity();
      double nb_max = -std::numeric_limits<double>::infinity();
      double all_min = std::numeric_limits<double>::infinity();
      double all_max = -std::numeric_limits<double>::infinity();
      bool missing = false;
      for (std::size_t i = 0; i < preds.size(); ++i) {
        const GridNodeId gp = preds[i];
        if (trace.is_faulty(gp)) {
          ++faulty_preds;
          continue;
        }
        const auto t = rec.pulse_time(gp, it.sigma);
        if (!t) {
          missing = true;
          break;
        }
        all_min = std::min(all_min, *t);
        all_max = std::max(all_max, *t);
        if (i == 0) {
          t_own = *t;
        } else {
          nb_min = std::min(nb_min, *t);
          nb_max = std::max(nb_max, *t);
        }
      }
      if (missing || faulty_preds >= 2) {
        ++report.iterations_skipped;
        continue;
      }

      if (faulty_preds == 1) {
        // Corollary 4.29: t_min + Lambda - 2 kappa <= t_v <= t_max + Lambda + 2 kappa
        // with min/max over correct predecessors.
        ++report.median_checked;
        const double lo_bound = all_min + params.lambda - 2.0 * kappa;
        const double hi_bound = all_max + params.lambda + 2.0 * kappa;
        if (t_v < lo_bound - kEps || t_v > hi_bound + kEps) {
          ++report.median_violations;
          std::ostringstream msg;
          msg << "median: node " << grid.label(gv) << " sigma " << it.sigma << " t="
              << t_v << " outside [" << lo_bound << ", " << hi_bound << "]";
          note(report, msg.str());
        }
        continue;
      }

      // All predecessors correct from here on.
      GTRIX_CHECK(t_own.has_value());
      if (it.own_missing) {
        ++report.iterations_skipped;  // should not happen without faults
        continue;
      }

      // Lemma D.2: C <= Lambda - d.
      ++report.lemma_d2_checked;
      if (c > params.lambda - params.d + kEps) {
        ++report.lemma_d2_violations;
        std::ostringstream msg;
        msg << "D2: node " << grid.label(gv) << " sigma " << it.sigma << " C=" << c;
        note(report, msg.str());
      }

      // Lemma D.3: d - u + (Lambda - d - C)/theta <= t_v - t_own <= Lambda - C.
      ++report.lemma_d3_checked;
      const double gap = t_v - *t_own;
      const double d3_lo = params.d - params.u + (params.lambda - params.d - c) / theta;
      const double d3_hi = params.lambda - c;
      if (gap < d3_lo - kEps || gap > d3_hi + kEps) {
        ++report.lemma_d3_violations;
        std::ostringstream msg;
        msg << "D3: node " << grid.label(gv) << " sigma " << it.sigma << " gap=" << gap
            << " outside [" << d3_lo << ", " << d3_hi << "] C=" << c;
        note(report, msg.str());
      }

      // Slow condition SC(s) = SC-1(s) or SC-2(s) or SC-3 for all s.
      for (std::uint32_t s = 0; s <= s_max; ++s) {
        ++report.sc_checked;
        const bool sc1 = c / theta <= *t_own - nb_max + 4.0 * s * kappa + kEps;
        const bool sc2 = c / theta <= *t_own - nb_min - 4.0 * s * kappa + kEps;
        const bool sc3 = c <= kEps;
        if (!(sc1 || sc2 || sc3)) {
          ++report.sc_violations;
          std::ostringstream msg;
          msg << "SC(" << s << "): node " << grid.label(gv) << " sigma " << it.sigma
              << " C=" << c << " t_own=" << *t_own << " nb=[" << nb_min << "," << nb_max
              << "]";
          note(report, msg.str());
        }
      }

      // Fast condition FC(s) for s >= 1.
      for (std::uint32_t s = 1; s <= s_max; ++s) {
        ++report.fc_checked;
        const bool fc1 = c >= *t_own - nb_max + (4.0 * s - 2.0) * kappa + kappa - kEps;
        const bool fc2 = c >= *t_own - nb_min - (4.0 * s - 2.0) * kappa + kappa - kEps;
        const bool fc3 = c >= kappa - kEps;
        if (!(fc1 || fc2 || fc3)) {
          ++report.fc_violations;
          std::ostringstream msg;
          msg << "FC(" << s << "): node " << grid.label(gv) << " sigma " << it.sigma
              << " C=" << c << " t_own=" << *t_own << " nb=[" << nb_min << "," << nb_max
              << "]";
          note(report, msg.str());
        }
      }

      // Jump condition JC = JC-1 or JC-2 or JC-3.
      {
        ++report.jc_checked;
        const double cq = c / theta;
        const bool jc1 = kappa < cq + kEps && cq <= *t_own - nb_max - kappa + kEps;
        const bool jc2 = c < kEps && c >= *t_own - nb_min + kappa - kEps;
        const bool jc3 = cq >= -kEps && cq <= kappa + kEps;
        if (!(jc1 || jc2 || jc3)) {
          ++report.jc_violations;
          std::ostringstream msg;
          msg << "JC: node " << grid.label(gv) << " sigma " << it.sigma << " C=" << c
              << " t_own=" << *t_own << " nb=[" << nb_min << "," << nb_max << "]";
          note(report, msg.str());
        }
      }
    }
  }
  return report;
}

}  // namespace gtrix
