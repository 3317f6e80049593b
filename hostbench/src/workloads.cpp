#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "scenario/registry.hpp"

namespace hostbench {

using gtrix::Json;

namespace {

/// Replaces key `key` of object `obj` by `value`.
Json with(Json obj, std::string_view key, Json value) {
  obj.set(key, std::move(value));
  return obj;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"grid-stream", "paper-suite",
                                                 "stabilize-stream", "grid-sharded"};
  return names;
}

Workload make_workload(std::string_view name) {
  Workload w;
  w.name = std::string(name);
  if (name == "grid-stream" || name == "grid-sharded") {
    // scale-grid cut to 256x256: a quarter of its nodes keeps the working
    // set far beyond the per-core caches while an iteration stays short
    // enough for a run's median to hold steady on a shared host.
    Json doc = gtrix::builtin_scenario_doc("scale-grid");
    doc.set("config", with(with(doc.at("config"), "columns", 256), "layers", 256));
    w.docs.push_back(std::move(doc));
    if (name == "grid-stream") {
      // Not in BENCHMARK.json: the serial engine's run-to-run spread on a
      // shared host reached the bound. Its time minus grid-sharded's
      // isolates the shard driver and the cross-shard mailboxes.
      w.why = "the grid-sharded input on the serial engine (no bound): the difference "
              "isolates shard-driver windows/barriers and cross-shard mailboxes";
    } else {
      w.why = "65.5k-node grid, streaming, 2 engine shards: working set far beyond the per-core "
              "caches; event queue, node algorithm, network, shard windows and mailboxes";
      w.shards = 2;
    }
  } else if (name == "paper-suite") {
    w.why = "the 8 small paper builtins (100 cells, full recording, 1 sweep thread timed): "
            "construction, recorder, measurement, output and fan-out weigh most";
    for (const char* s : {"quickstart-grid", "torus-smoke", "table1-comparison", "thm11-logd",
                          "thm12-worstcase-faults", "thm13-random-faults",
                          "thm16-stabilization", "fig5-jump-ablation"}) {
      w.docs.push_back(gtrix::builtin_scenario_doc(s));
    }
    w.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  } else if (name == "stabilize-stream") {
    w.why = "6.4k-node torus, scrambled at wave 8, with an in-memory checkpoint round trip: "
            "corruption, fault wrappers, pinned recorder, realignment, checkpoint codec";
    // scale-stabilization with 25 instead of 400 columns and only its
    // p = 1/640 fault-density cell, so that an iteration stays short.
    Json doc = gtrix::builtin_scenario_doc("scale-stabilization");
    doc.set("config", with(doc.at("config"), "columns", 25));
    doc.set("sweep", with(doc.at("sweep"), "random_faults.probability",
                          Json::array({Json(0.0015625)})));
    w.docs.push_back(std::move(doc));
    w.ckpt_roundtrip = true;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return w;
}

Json reseed(Json doc, std::uint64_t seed) {
  if (seed == kDefaultSeed) return doc;
  // Disjoint, deterministic seed ranges per benchmark seed; kept below 2^42
  // so every shifted seed stays a valid JSON integer.
  const std::int64_t shift = static_cast<std::int64_t>(((seed - kDefaultSeed) % (1ULL << 31)) << 10);
  Json config = doc.contains("config") ? doc.at("config") : Json::object();
  const Json* base = config.find("seed");
  config.set("seed", (base != nullptr ? base->as_int() : 1) + shift);
  doc.set("config", std::move(config));
  if (const Json* sweep = doc.find("sweep"); sweep != nullptr && sweep->contains("seed")) {
    const Json& axis = sweep->at("seed");
    Json shifted;
    if (axis.is_array()) {
      shifted = Json::array();
      for (const Json& v : axis.as_array()) shifted.push_back(v.as_int() + shift);
    } else {
      shifted = with(axis, "from", axis.at("from").as_int() + shift);
    }
    doc.set("sweep", with(*sweep, "seed", std::move(shifted)));
  }
  return doc;
}

std::vector<std::string> scenario_texts(const Workload& workload, std::uint64_t seed) {
  std::vector<std::string> texts;
  for (const Json& doc : workload.docs) texts.push_back(reseed(doc, seed).dump());
  return texts;
}

std::string cell_digest(const gtrix::ExperimentResult& r) {
  const gtrix::SkewReport& s = r.skew;
  Json j = Json::object();
  j.set("max_intra", s.max_intra);
  j.set("max_inter", s.max_inter);
  j.set("local", s.local_skew);
  j.set("global", s.global_skew);
  j.set("sigma_lo", s.sigma_lo);
  j.set("sigma_hi", s.sigma_hi);
  j.set("pairs_checked", s.pairs_checked);
  j.set("pairs_skipped", s.pairs_skipped);
  Json by_layer = Json::array();
  for (const double v : s.intra_by_layer) by_layer.push_back(v);
  j.set("intra_by_layer", std::move(by_layer));
  if (r.recovery.enabled) {
    const gtrix::RecoveryReport& rec = r.recovery;
    j.set("nodes_shifted", static_cast<long long>(r.realign.nodes_shifted));
    j.set("max_abs_shift", r.realign.max_abs_shift);
    j.set("recovered", rec.recovered);
    j.set("recovered_wave", static_cast<long long>(rec.recovered_wave));
    j.set("corrupt_wave", static_cast<long long>(rec.corrupt_wave));
    j.set("scan_hi", static_cast<long long>(rec.scan_hi));
    Json series = Json::array();
    for (const double v : rec.local_by_wave) series.push_back(std::isnan(v) ? Json() : Json(v));
    j.set("local_by_wave", std::move(series));
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(j.dump())));
  return hex;
}

Json summary_percentiles(const std::string& summary_text) {
  const Json summary = Json::parse(summary_text);
  Json j = Json::object();
  j.set("local_skew", summary.at("local_skew"));
  j.set("global_skew", summary.at("global_skew"));
  return j;
}

std::vector<std::string> check_scenario(const ScenarioRun& run, std::uint64_t seed,
                                        const Json* expected) {
  const gtrix::CampaignResult& campaign = run.campaign;
  const Json* want = nullptr;
  std::string scenario_error;
  if (seed == kDefaultSeed) {
    want = expected != nullptr ? expected->find(campaign.scenario) : nullptr;
    if (want == nullptr) {
      scenario_error = "no stored expectation for scenario " + campaign.scenario;
    } else if (!(summary_percentiles(run.summary) == want->at("summary"))) {
      scenario_error = "summary skew percentiles differ from the stored ones";
    }
  }
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    const gtrix::CampaignCell& cell = campaign.cells[i];
    const gtrix::ExperimentResult& r = cell.result;
    const std::string where = campaign.scenario + "/" + cell.label + ": ";
    if (!run.probes[i].error.empty()) {
      failures.push_back(where + "threw: " + run.probes[i].error);
    } else if (!scenario_error.empty()) {
      failures.push_back(where + scenario_error);
    } else if (cell.corrupt.enabled && !r.recovery.recovered) {
      failures.push_back(where + "did not recover within the scan");
    } else if (!cell.corrupt.enabled &&
               !(r.skew.pairs_checked > 0 && r.skew.max_intra <= r.thm11_bound)) {
      failures.push_back(where + "local skew " + std::to_string(r.skew.max_intra) +
                         " exceeds the Theorem 1.1 bound " + std::to_string(r.thm11_bound));
    } else if (want != nullptr) {
      const Json* cell_want = want->at("cells").find(cell.label);
      const std::string got = cell_digest(r);
      if (cell_want == nullptr || !(cell_want->at("digest") == Json(got))) {
        failures.push_back(where + "skew digest " + got + " differs from the stored one");
      }
    }
  }
  return failures;
}

}  // namespace hostbench
