// The benchmark's workloads and how a seed turns them into scenario inputs,
// plus the per-cell correctness checks. See ../README.md for why each
// workload was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "drive.hpp"

namespace hostbench {

/// The seed whose inputs are exactly the committed scenarios; its cells are
/// checked against stored skew digests.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  std::string name;
  std::string why;
  std::vector<gtrix::Json> docs;  ///< scenario documents at the default seed
  /// Sweep workers of the fan-out iterations in the traced run (paper-suite
  /// only > 1). Timed iterations drive the cells on one thread.
  unsigned threads = 1;
  std::uint32_t shards = 1;       ///< engine shards per cell
  bool ckpt_roundtrip = false;    ///< in-memory snapshot/rebuild/restore per cell
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name);

/// The document with every cell seed shifted for `seed`; kDefaultSeed
/// returns it unchanged. Shifts config.seed and any "seed" sweep axis, so
/// fault placements and corruption streams (derived from the cell seed)
/// change with it.
gtrix::Json reseed(gtrix::Json doc, std::uint64_t seed);

/// Serialized, reseeded scenario documents: the program's only input.
std::vector<std::string> scenario_texts(const Workload& workload, std::uint64_t seed);

/// What a correct cell must reproduce at the default seed: the skew report,
/// plus the realignment and recovery fields of corrupt cells.
std::string cell_digest(const gtrix::ExperimentResult& result);

/// Summary skew percentiles as committed in BENCH_<scenario>.json.
gtrix::Json summary_percentiles(const std::string& summary_text);

/// Checks one scenario run. `expected` is the workload's block of the stored
/// expectations (null when absent), consulted only at the default seed.
/// Returns one failure message per failed cell (empty = all correct).
/// Every seed checks the bounds: Theorem 1.1 local skew on cells without a
/// corruption plan, `recovered` on corrupt cells.
std::vector<std::string> check_scenario(const ScenarioRun& run, std::uint64_t seed,
                                        const gtrix::Json* expected);

}  // namespace hostbench
