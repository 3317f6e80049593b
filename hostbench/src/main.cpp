// hostbench: the repository benchmark. One invocation runs one workload for
// a fixed time, repeating whole iterations (every scenario of the workload,
// scenario text in to summary text out), checks every cell, and prints each
// metric by name with its unit; the last stdout line is one JSON object.
//
//   hostbench --workload grid-sharded --seed 1 --seconds 40 --trace 0
//             --expected hostbench/expected.json [--trace-out FILE]
//
// Every time is process CPU time (CpuClock in drive.hpp), so that waiting
// for a CPU on a shared host is not counted as the program's work. The
// end-to-end times are scaled to a nominal host speed by a probe run beside
// every iteration (SpeedProbe); the measured times are printed with them.
// --trace 0 reports the end-to-end metrics from untraced iterations, with
// the cells driven on one sweep thread.
// --trace 1 alternates traced and untraced iterations and reports per-layer
// metrics: span self times, engine counters (EngineOptions::telemetry) and
// the tracing overhead. See ../README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "scenario/registry.hpp"
#include "support/flags.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using gtrix::Json;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note = {};  ///< sample spread, printed on the human-readable line
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A fixed piece of work run before and after every iteration, to measure
/// the host's speed at that moment. On a shared host a vCPU moves between
/// faster and slower states for seconds to minutes at a time, and the
/// program's CPU time moves with it, by up to half (README.md, "Timing").
/// The probe is shaped like the simulator's hot loop: a binary-heap
/// priority queue of 400k pseudo-random 64-bit keys, larger than a per-core
/// cache, popped and refilled. It lives in the benchmark, so no change to
/// the library changes what it measures.
class SpeedProbe {
 public:
  /// CPU time of the probe on the host where the bounds were set (Intel
  /// Xeon, 4 vCPUs, GCC 12.2), rounded: the speed every end-to-end time is
  /// scaled to.
  static constexpr double kNominalSeconds = 0.08;

  /// CPU seconds of one probe.
  double run() {
    const Clock::time_point t0 = Clock::now();
    heap_.clear();  // keeps its storage, so only the first run allocates
    std::uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
    for (int i = 0; i < kKeys; ++i) {
      heap_.push_back(next(x));
      std::push_heap(heap_.begin(), heap_.end());
    }
    for (int i = 0; i < kSwaps; ++i) {
      sum += heap_.front();
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = next(x);
      std::push_heap(heap_.begin(), heap_.end());
    }
    const double s = seconds_between(t0, Clock::now());
    sink_ += sum;  // an observable result, so the loops are not elided
    return s;
  }

  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr int kKeys = 400000, kSwaps = 500000;
  static std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;
};

/// One iteration: every scenario of the workload, in order.
struct Iteration {
  bool traced = false;
  unsigned threads = 1;
  double wall_s = 0.0;  ///< only for the run's time budget
  double cpu_s = 0.0;
  double probe_s = 0.0;  ///< mean of the probes just before and just after
  double setup_s = 0.0;
  double event_s = 0.0;  ///< inside run_* and corrupt_fraction
  std::uint64_t events = 0;
  double busy_ratio = 0.0;
  std::map<std::string, double> self;  ///< traced only
  gtrix::EngineStats engine;           ///< traced only
  gtrix::ExperimentCounters counters;
  CellProbe probe_sum;  ///< times and byte counts summed over cells
  std::uint64_t slot_capacity = 0, stream_bytes = 0;  ///< max over cells
};

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, const Json* expected)
      : w_(std::move(w)), seed_(seed), expected_(expected), texts_(scenario_texts(w_, seed)) {}

  Iteration run(bool traced, unsigned threads) {
    Iteration it;
    it.traced = traced;
    it.threads = threads;
    const std::size_t first_span = spans_.size();
    std::vector<ScenarioRun> runs;
    double busy = 0.0, capacity = 0.0;
    {
      const SpanScope root(traced ? &spans_ : nullptr, "iteration", -1, -1);
      const WallClock::time_point w0 = WallClock::now();
      const Clock::time_point t0 = Clock::now();
      for (const std::string& text : texts_) {
        DriveOptions o;
        o.engine.shards = w_.shards;
        o.engine.telemetry = traced;
        o.threads = threads;
        o.ckpt_roundtrip = w_.ckpt_roundtrip;
        o.spans = traced ? &spans_ : nullptr;
        o.parent_span = root.id();
        o.first_cell_id = next_cell_;
        runs.push_back(drive_scenario(text, o));
        next_cell_ += static_cast<std::int64_t>(runs.back().probes.size());
      }
      it.cpu_s = seconds_between(t0, Clock::now());
      it.wall_s = seconds_between(w0, WallClock::now());
    }
    for (const ScenarioRun& r : runs) {
      it.setup_s += r.load_s;
      busy += r.sweep_cpu_s;
      capacity += r.campaign.threads_used * r.sweep_s;
      for (std::size_t i = 0; i < r.probes.size(); ++i) {
        const CellProbe& p = r.probes[i];
        const gtrix::ExperimentResult& res = r.campaign.cells[i].result;
        CellProbe& s = it.probe_sum;
        s.construct_s += p.construct_s;
        s.run_s += p.run_s;
        s.corrupt_s += p.corrupt_s;
        s.save_s += p.save_s;
        s.restore_s += p.restore_s;
        s.measure_s += p.measure_s;
        s.teardown_s += p.teardown_s;
        s.construct_rss_mb += p.construct_rss_mb;
        s.nodes += p.nodes;
        s.ckpt_bytes += p.ckpt_bytes;
        it.slot_capacity = std::max<std::uint64_t>(it.slot_capacity, p.slot_capacity);
        it.stream_bytes = std::max(it.stream_bytes, p.stream_bytes);
        it.engine.merge(res.engine_stats);
        add_counters(it.counters, res.counters);
      }
      check(r);
    }
    const CellProbe& s = it.probe_sum;
    it.setup_s += s.construct_s;
    it.event_s = s.run_s + s.corrupt_s;
    it.events = logical_events(it.counters);
    it.busy_ratio = capacity > 0.0 ? busy / capacity : 0.0;
    if (traced) it.self = spans_.self_seconds(first_span);
#if defined(__GLIBC__)
    // Hand freed pages back so every iteration constructs its Worlds on
    // fresh memory, as a campaign process does.
    malloc_trim(0);
#endif
    return it;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const SpanLog& spans() const { return spans_; }
  const Workload& workload() const { return w_; }

 private:
  static void add_counters(gtrix::ExperimentCounters& a, const gtrix::ExperimentCounters& b) {
    a.iterations += b.iterations;
    a.late_broadcasts += b.late_broadcasts;
    a.guard_aborts += b.guard_aborts;
    a.watchdog_resets += b.watchdog_resets;
    a.timeout_branches += b.timeout_branches;
    a.duplicate_drops += b.duplicate_drops;
    a.events_executed += b.events_executed;
    a.delivery_events += b.delivery_events;
    a.messages_sent += b.messages_sent;
    a.messages_delivered += b.messages_delivered;
  }

  void check(const ScenarioRun& r) {
    const std::vector<std::string> failures = check_scenario(r, seed_, expected_);
    attempted_ += r.campaign.cells.size();
    failed_ += failures.size();
    for (const std::string& f : failures) {
      if (reported_++ < 10) std::cerr << "hostbench: FAILED " << f << "\n";
    }
  }

  Workload w_;
  std::uint64_t seed_;
  const Json* expected_;
  std::vector<std::string> texts_;
  SpanLog spans_;
  std::int64_t next_cell_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0, reported_ = 0;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

#ifdef GTRIX_DEBUG_CHECKS
constexpr bool kDebugChecks = true;
#else
constexpr bool kDebugChecks = false;
#endif

Json fingerprint() {
  Json j = Json::object();
  j.set("cpu", cpu_model());
  j.set("nproc", std::max(1u, std::thread::hardware_concurrency()));
  j.set("compiler", HOSTBENCH_COMPILER);
  j.set("CMAKE_BUILD_TYPE", HOSTBENCH_BUILD_TYPE);
  j.set("GTRIX_OBS", gtrix::kObsCompiled);
  j.set("GTRIX_DEBUG_CHECKS", kDebugChecks);
  return j;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string spread(const char* how, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return std::string(how) + " of " + std::to_string(v.size()) + ", min " + number(v.front()) +
         ", max " + number(v.back());
}

/// The first iteration warms up the process and is not timed. Each timed
/// iteration's times are scaled to the nominal host speed by its probes.
/// `cpu_s` and `ns_per_event` average over the timed iterations, so that
/// they follow the share of slow spells smoothly where a median would jump
/// between slow and fast iterations. `setup_s` is a median, robust to a
/// single slow construction. `first_peak_mb` is the peak RSS after the
/// first iteration: what one campaign process needs. Later iterations add
/// only allocator fragmentation, which would make the high-water mark
/// depend on how many iterations a run fits in.
std::vector<Metric> end_to_end(const std::vector<Iteration>& its, double first_peak_mb) {
  std::vector<double> cpu, setup, ns, measured, probe;
  double event_s = 0.0, events = 0.0;
  for (std::size_t i = its.size() > 1 ? 1 : 0; i < its.size(); ++i) {
    const Iteration& it = its[i];
    const double scale = SpeedProbe::kNominalSeconds / it.probe_s;
    cpu.push_back(it.cpu_s * scale);
    setup.push_back(it.setup_s * scale);
    ns.push_back(it.events > 0 ? it.event_s * scale * 1e9 / static_cast<double>(it.events) : 0.0);
    event_s += it.event_s * scale;
    events += static_cast<double>(it.events);
    measured.push_back(it.cpu_s);
    probe.push_back(it.probe_s);
  }
  return {{"cpu_s", mean(cpu), "s",
           spread("mean", cpu) + "; measured " + spread("mean", measured) + ", mean " +
               number(mean(measured)) + " s; probe " + spread("median", probe) + ", median " +
               number(median(probe)) + " s"},
          {"setup_s", median(setup), "s", spread("median", setup)},
          {"ns_per_event", events > 0.0 ? event_s * 1e9 / events : 0.0, "ns",
           spread("summed over the iterations, each", ns)},
          {"peak_rss_mb", first_peak_mb, "MB",
           "high-water mark after the first iteration; after all " + number(gtrix::peak_rss_mb()) +
               " MB"}};
}

/// Timed and traced iterations run the sweep on one thread, so that each
/// step's process CPU time is that cell's and self times add up to the
/// iteration's; the overhead compares traced and untraced ones alike.
constexpr unsigned kTracedThreads = 1;

std::vector<Metric> per_layer(const std::vector<Iteration>& its, unsigned configured_threads) {
  std::vector<const Iteration*> traced;
  std::vector<double> traced_cpu, plain_cpu, busy;
  for (const Iteration& it : its) {
    if (it.traced) {
      traced.push_back(&it);
      traced_cpu.push_back(it.cpu_s);
    } else if (it.threads == kTracedThreads) {
      plain_cpu.push_back(it.cpu_s);
    }
    if (!it.traced && it.threads == configured_threads) busy.push_back(it.busy_ratio);
  }
  const auto self = [&](const char* name) {
    std::vector<double> v;
    for (const Iteration* it : traced) {
      const auto found = it->self.find(name);
      v.push_back(found != it->self.end() ? found->second : 0.0);
    }
    return median(v);
  };
  // Deterministic counts repeat exactly; take them from the last traced run.
  const Iteration& last = *traced.back();
  const gtrix::EngineStats& e = last.engine;
  const gtrix::ExperimentCounters& c = last.counters;
  using gtrix::ObsCounter;
  const auto count = [&](ObsCounter k) { return static_cast<double>(e.get(k)); };
  double busy_s = 0.0, barrier_s = 0.0;
  for (const gtrix::EngineShardStats& s : e.shards) {
    busy_s += s.busy_seconds;
    barrier_s += s.barrier_wait_seconds;
  }
  // The serial engine is one shard, busy for the whole run, never waiting.
  if (e.shards.empty()) busy_s = e.run_wall_seconds;
  const double nodes = static_cast<double>(last.probe_sum.nodes);
  std::vector<double> rss;
  for (const Iteration* it : traced) rss.push_back(it->probe_sum.construct_rss_mb);
  const double construct_rss = median(rss);

  const char* layers[] = {"scenario.load", "runner.construct", "sim.run",       "core.corrupt",
                          "ckpt.save",     "ckpt.restore",     "metrics.measure", "runner.teardown",
                          "runner.emit"};
  std::vector<double> coverage;
  for (const Iteration* it : traced) {
    double covered = 0.0;
    for (const char* l : layers) {
      const auto found = it->self.find(l);
      if (found != it->self.end()) covered += found->second;
    }
    coverage.push_back(covered / it->cpu_s);
  }
  const double cpu = median(traced_cpu);

  return {
      {"scenario.load_s", self("scenario.load"), "s"},
      {"runner.construct_s", self("runner.construct"), "s"},
      {"runner.construct_rss_mb", construct_rss, "MB"},
      {"runner.construct_bytes_per_node", nodes > 0 ? construct_rss * 1048576.0 / nodes : 0.0,
       "B"},
      {"runner.teardown_s", self("runner.teardown"), "s"},
      {"runner.emit_s", self("runner.emit"), "s"},
      {"runner.sweep_busy_ratio", median(busy), "ratio"},
      {"runner.shard_busy_s", busy_s, "s"},
      {"runner.shard_barrier_wait_ratio", busy_s > 0.0 ? barrier_s / busy_s : 0.0, "ratio"},
      {"runner.shard_windows", count(ObsCounter::kShardWindows), "count"},
      {"net.envelopes_drained", count(ObsCounter::kEnvelopesDrained), "count"},
      {"sim.run_s", self("sim.run"), "s"},
      {"sim.logical_events", static_cast<double>(last.events), "count"},
      {"sim.events_scheduled", count(ObsCounter::kEventsScheduled), "count"},
      {"sim.events_executed", count(ObsCounter::kEventsExecuted), "count"},
      {"sim.events_cancelled", count(ObsCounter::kEventsPurged), "count"},
      {"sim.scheduled_per_executed",
       count(ObsCounter::kEventsScheduled) / std::max(1.0, count(ObsCounter::kEventsExecuted)),
       "ratio"},
      {"sim.calendar_rebuilds", count(ObsCounter::kCalendarRebuilds), "count"},
      {"sim.slot_capacity", static_cast<double>(last.slot_capacity), "count"},
      {"net.messages_sent", static_cast<double>(c.messages_sent), "count"},
      {"net.messages_delivered", static_cast<double>(c.messages_delivered), "count"},
      {"net.delivery_events", static_cast<double>(c.delivery_events), "count"},
      {"core.node_iterations", static_cast<double>(c.iterations), "count"},
      {"core.timer_cancels", count(ObsCounter::kTimerCancels), "count"},
      {"core.timer_cancels_per_iteration",
       count(ObsCounter::kTimerCancels) / std::max(1.0, static_cast<double>(c.iterations)),
       "ratio"},
      {"core.guard_aborts", static_cast<double>(c.guard_aborts), "count"},
      {"core.timeout_branches", static_cast<double>(c.timeout_branches), "count"},
      {"core.watchdog_resets", static_cast<double>(c.watchdog_resets), "count"},
      {"core.duplicate_drops", static_cast<double>(c.duplicate_drops), "count"},
      {"core.late_broadcasts", static_cast<double>(c.late_broadcasts), "count"},
      {"core.corrupt_s", self("core.corrupt"), "s"},
      {"metrics.measure_s", self("metrics.measure"), "s"},
      {"metrics.pulses_recorded", count(ObsCounter::kPulsesRecorded), "count"},
      {"metrics.corrupt_pinned_pulses", count(ObsCounter::kCorruptPinnedPulses), "count"},
      {"metrics.stream_bytes", static_cast<double>(last.stream_bytes), "B"},
      {"metrics.realign_shifted_nodes", count(ObsCounter::kRealignShiftedNodes), "count"},
      {"ckpt.save_s", self("ckpt.save"), "s"},
      {"ckpt.restore_s", self("ckpt.restore"), "s"},
      {"ckpt.bytes", static_cast<double>(last.probe_sum.ckpt_bytes), "B"},
      {"obs.traced_cpu_s", cpu, "s"},
      {"obs.trace_overhead", cpu / median(plain_cpu) - 1.0, "ratio"},
      {"obs.span_coverage", median(coverage), "ratio"},
  };
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Runs every workload once at the default seed and writes the stored
/// expectations, after cross-checking the drive against the committed
/// BENCH_<scenario>.json files: every paper builtin's summary percentiles,
/// and the full-size scale-grid's local and global skew.
int record_expected(const std::string& out_path, const std::string& repo_root) {
  {
    const ScenarioRun run = drive_scenario(gtrix::builtin_scenario_doc("scale-grid").dump(), {});
    const Json bench = Json::parse(read_file(repo_root + "/BENCH_scale-grid.json"));
    const gtrix::SkewReport& s = run.campaign.cells.at(0).result.skew;
    const Json& want = bench.at("modes")[0].at("skew");  // serial streaming run
    if (!(want.at("local") == Json(s.local_skew) && want.at("global") == Json(s.global_skew))) {
      std::cerr << "scale-grid disagrees with BENCH_scale-grid.json\n";
      return 1;
    }
  }
  Json workloads = Json::object();
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    Json block = Json::object();
    for (const Json& doc : w.docs) {
      DriveOptions o;
      o.engine.shards = w.shards;
      o.threads = w.threads;
      o.ckpt_roundtrip = w.ckpt_roundtrip;
      const ScenarioRun run = drive_scenario(reseed(doc, kDefaultSeed).dump(), o);
      const std::string& scenario = run.campaign.scenario;
      Json cells = Json::object();
      for (std::size_t i = 0; i < run.campaign.cells.size(); ++i) {
        const gtrix::CampaignCell& cell = run.campaign.cells[i];
        if (!run.probes[i].error.empty()) {
          std::cerr << name << ": " << scenario << "/" << cell.label
                    << " threw: " << run.probes[i].error << "\n";
          return 1;
        }
        Json c = Json::object();
        c.set("digest", cell_digest(cell.result));
        c.set("local", cell.result.skew.local_skew);
        c.set("global", cell.result.skew.global_skew);
        if (cell.result.recovery.enabled) {
          c.set("recovered", cell.result.recovery.recovered);
          c.set("recovered_wave", static_cast<long long>(cell.result.recovery.recovered_wave));
        }
        cells.set(cell.label, std::move(c));
      }
      const Json summary = summary_percentiles(run.summary);
      Json reference;  // null: the workload reshapes the scenario
      if (doc == gtrix::builtin_scenario_doc(scenario)) {
        reference = Json("BENCH_" + scenario + ".json");
        const Json bench = Json::parse(read_file(repo_root + "/" + reference.as_string()));
        if (!(bench.at("local_skew") == summary.at("local_skew") &&
              bench.at("global_skew") == summary.at("global_skew"))) {
          std::cerr << name << ": " << scenario << " disagrees with " << reference.as_string()
                    << "\n";
          return 1;
        }
      }
      Json entry = Json::object();
      entry.set("reference", std::move(reference));
      entry.set("summary", summary);
      entry.set("cells", std::move(cells));
      block.set(scenario, std::move(entry));
      std::cerr << name << ": " << scenario << " recorded (" << run.campaign.cells.size()
                << " cells)\n";
    }
    workloads.set(name, std::move(block));
  }
  Json doc = Json::object();
  doc.set("seed", static_cast<long long>(kDefaultSeed));
  doc.set("workloads", std::move(workloads));
  std::ofstream(out_path) << doc.dump(1) << "\n";
  return 0;
}

int run_benchmark(const std::string& name, std::uint64_t seed, double seconds, bool trace,
                  const std::string& expected_path, const std::string& trace_out) {
  Json expected;
  const Json* block = nullptr;
  if (!expected_path.empty()) {
    expected = Json::parse(read_file(expected_path));
    block = expected.at("workloads").find(name);
  }
  Bench bench(make_workload(name), seed, block);
  const unsigned threads = bench.workload().threads;
  std::vector<std::pair<bool, unsigned>> kinds;
  if (trace && threads == kTracedThreads) {
    kinds = {{true, kTracedThreads}, {false, kTracedThreads}};
  } else if (trace) {
    // Each single-thread kind follows the multi-thread kind once per cycle,
    // so neither inherits its after-effects more often than the other.
    kinds = {{true, kTracedThreads}, {false, kTracedThreads}, {false, threads},
             {false, kTracedThreads}, {true, kTracedThreads}, {false, threads}};
  } else {
    // At least two, so that one is timed after the warm-up.
    kinds = {{false, kTracedThreads}, {false, kTracedThreads}};
  }
  std::vector<Iteration> its;
  SpeedProbe probe;
  const WallClock::time_point start = WallClock::now();
  // The per-layer metrics are measured times; only the end-to-end ones
  // are scaled by the probe.
  double before = trace ? 0.0 : probe.run();
  // Every kind runs at least once; further iterations start only while the
  // next one is expected to end within the budget, so a run takes about
  // `seconds` however long one iteration is.
  double longest = 0.0, first_peak_mb = 0.0;
  for (std::size_t i = 0;
       i < kinds.size() || seconds_between(start, WallClock::now()) + longest <= seconds; ++i) {
    const auto [traced, t] = kinds[i % kinds.size()];
    its.push_back(bench.run(traced, t));
    if (i == 0) first_peak_mb = gtrix::peak_rss_mb();
    if (!trace) {
      const double after = probe.run();
      its.back().probe_s = 0.5 * (before + after);
      before = after;
    }
    longest = std::max(longest, its.back().wall_s);
  }
  const std::vector<Metric> metrics =
      trace ? per_layer(its, threads) : end_to_end(its, first_peak_mb);

  const Json print = fingerprint();
  std::cout << "fingerprint " << print.dump() << "\n";
  std::cout << "workload " << name << " seed " << seed << ": " << its.size()
            << " iterations in " << number(seconds_between(start, WallClock::now())) << " s"
            << " (probe checksum " << probe.sink() << ")\n";
  std::cout << "cells_failed " << number(static_cast<double>(bench.failed()) /
                                         static_cast<double>(std::max<std::uint64_t>(1, bench.attempted())))
            << " ratio (" << bench.failed() << " of " << bench.attempted() << ")\n";
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << number(m.value) << " " << m.unit
              << (m.note.empty() ? "" : " (" + m.note + ")") << "\n";
  }
  if (trace && !trace_out.empty()) {
    Json doc = Json::object();
    doc.set("fingerprint", print);
    doc.set("workload", name);
    doc.set("seed", static_cast<long long>(seed));
    doc.set("spans", bench.spans().to_json());
    std::ofstream(trace_out) << doc.dump() << "\n";
  }

  std::string line = "{\"correct\": ";
  line += bench.failed() == 0 && bench.attempted() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(bench.attempted());
  line += ", \"failed\": " + std::to_string(bench.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << line << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  try {
    const gtrix::Flags flags(argc, argv);
    for (const std::string& n : flags.names()) {
      static const std::vector<std::string> known = {"workload",  "seed",      "seconds",
                                                     "trace",     "expected",  "trace-out",
                                                     "record-expected", "repo-root"};
      if (std::find(known.begin(), known.end(), n) == known.end()) {
        throw std::invalid_argument("unknown flag --" + n);
      }
    }
    if (std::string(HOSTBENCH_BUILD_TYPE) != "Release" || kDebugChecks) {
      std::cerr << "hostbench: refusing to report timings from a " << HOSTBENCH_BUILD_TYPE
                << " build" << (kDebugChecks ? " with GTRIX_DEBUG_CHECKS on" : "")
                << "; configure with -DCMAKE_BUILD_TYPE=Release -DGTRIX_DEBUG_CHECKS=OFF\n";
      return 3;
    }
    if (flags.has("record-expected")) {
      return record_expected(flags.get_string("record-expected", ""),
                             flags.get_string("repo-root", "."));
    }
    const bool trace = flags.get_int("trace", 0) != 0;
    if (trace && !gtrix::kObsCompiled) {
      std::cerr << "hostbench: --trace 1 needs engine telemetry; rebuild with GTRIX_OBS=ON\n";
      return 3;
    }
    const double seconds = flags.get_double("seconds", 10.0);
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return run_benchmark(flags.get_string("workload", ""), flags.get_u64("seed", kDefaultSeed),
                         seconds, trace, flags.get_string("expected", ""),
                         flags.get_string("trace-out", ""));
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 2;
  }
}
