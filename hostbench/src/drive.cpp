#include "drive.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include <time.h>

#include "ckpt/codec.hpp"
#include "obs/rss.hpp"
#include "runner/sweep.hpp"

namespace hostbench {

using gtrix::Json;

CpuClock::time_point CpuClock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return time_point(std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec));
}

int SpanLog::open(std::string name, int parent, std::int64_t cell) {
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, cell});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_s = now;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::self_seconds(std::size_t first) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : kids) {
      const double ca = std::max(a, s.start_s), cb = std::min(b, s.end_s);
      if (cb <= ca) continue;
      if (ca > hi) {
        if (hi > lo) covered += hi - lo;
        lo = ca;
        hi = cb;
      } else {
        hi = std::max(hi, cb);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[s.name] += (s.end_s - s.start_s) - covered;
  }
  return self;
}

Json SpanLog::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::array();
  for (const Span& s : spans_) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("start_s", s.start_s);
    j.set("end_s", s.end_s);
    j.set("parent", s.parent);
    j.set("cell", static_cast<long long>(s.cell));
    out.push_back(std::move(j));
  }
  return out;
}

std::uint64_t logical_events(const gtrix::ExperimentCounters& c) {
  return c.events_executed - c.delivery_events + c.messages_delivered;
}

namespace {

/// Times `body` into `acc` under a span named `name`.
template <typename F>
void step(const DriveOptions& o, int parent, std::int64_t cell, const char* name, double& acc,
          F&& body) {
  const SpanScope span(o.spans, name, parent, cell);
  const Clock::time_point t0 = Clock::now();
  body();
  acc += seconds_between(t0, Clock::now());
}

}  // namespace

gtrix::ExperimentResult drive_cell(const gtrix::ScenarioCell& cell, const DriveOptions& o,
                                   std::int64_t cell_id, CellProbe& probe) {
  const gtrix::ExperimentConfig& config = cell.config;
  const gtrix::CorruptPlan& corrupt = cell.corrupt;
  const SpanScope root(o.spans, "cell", o.parent_span, cell_id);
  const int parent = root.id();
  gtrix::ExperimentResult result;
  std::unique_ptr<gtrix::World> world;
  try {
    const double rss0 = gtrix::current_rss_mb();
    step(o, parent, cell_id, "runner.construct", probe.construct_s,
         [&] { world = std::make_unique<gtrix::World>(config, o.engine); });
    probe.construct_rss_mb = gtrix::current_rss_mb() - rss0;
    probe.nodes = world->grid().node_count();

    // Same order as run_cell: anchor before the first event, corruption
    // stream seeded from the cell seed.
    if (corrupt.enabled) world->set_corruption_anchor(corrupt.wave);
    gtrix::Rng rng(config.seed ^ 0xFEED);
    if (corrupt.enabled) {
      step(o, parent, cell_id, "sim.run", probe.run_s,
           [&] { world->run_until(corrupt.wave * config.params.lambda); });
    }
    // Every cell passes through the corruption and checkpoint steps; on
    // cells that use neither they are empty spans.
    step(o, parent, cell_id, "core.corrupt", probe.corrupt_s, [&] {
      if (corrupt.enabled) world->corrupt_fraction(corrupt.fraction, rng);
    });
    std::vector<std::uint8_t> image;
    step(o, parent, cell_id, "ckpt.save", probe.save_s, [&] {
      if (o.ckpt_roundtrip) image = world->checkpoint_save("");
    });
    probe.ckpt_bytes = image.size();
    step(o, parent, cell_id, "ckpt.restore", probe.restore_s, [&] {
      if (!o.ckpt_roundtrip) return;
      world.reset();
      world = std::make_unique<gtrix::World>(config, o.engine);
      // As in the checkpointed runner: the anchor is config-derived state
      // and is set before restore replays the pinned recorder state.
      if (corrupt.enabled) world->set_corruption_anchor(corrupt.wave);
      world->checkpoint_restore(gtrix::CkptFile::parse(std::move(image), "<in-memory>"));
    });
    step(o, parent, cell_id, "sim.run", probe.run_s, [&] { world->run_to_completion(); });
    step(o, parent, cell_id, "metrics.measure", probe.measure_s,
         [&] { result = gtrix::measure_cell(*world, config, corrupt); });
    probe.slot_capacity = world->simulator().event_queue().slot_capacity();
    if (world->streaming() != nullptr) probe.stream_bytes = world->streaming()->memory_bytes();
  } catch (const std::exception& e) {
    probe.error = e.what();
  } catch (...) {
    probe.error = "unknown exception";
  }
  step(o, parent, cell_id, "runner.teardown", probe.teardown_s, [&] { world.reset(); });
  return result;
}

ScenarioRun drive_scenario(const std::string& scenario_text, const DriveOptions& o) {
  ScenarioRun run;
  const WallClock::time_point w0 = WallClock::now();
  const Clock::time_point t0 = Clock::now();
  std::vector<gtrix::ScenarioCell> cells;
  std::uint32_t default_shards = 1;
  {
    const SpanScope span(o.spans, "scenario.load", o.parent_span, -1);
    const gtrix::Scenario scenario = gtrix::Scenario::from_json(Json::parse(scenario_text));
    cells = scenario.cells();
    run.campaign.scenario = scenario.name();
    default_shards = scenario.engine_shards();
  }
  const Clock::time_point t1 = Clock::now();
  run.load_s = seconds_between(t0, t1);

  // Thread layout exactly as run_campaign budgets it.
  run.campaign.threads_used = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, o.threads), std::max<std::size_t>(1, cells.size())));
  DriveOptions cell_options = o;
  const std::uint32_t requested = o.engine.shards > 1 ? o.engine.shards : default_shards;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  run.campaign.shards_used = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(requested, hardware / run.campaign.threads_used));
  cell_options.engine.shards = run.campaign.shards_used;

  std::vector<gtrix::ExperimentResult> results(cells.size());
  run.probes.resize(cells.size());
  const WallClock::time_point w1 = WallClock::now();
  {
    const SpanScope span(o.spans, "runner.sweep", o.parent_span, -1);
    cell_options.parent_span = span.id();
    gtrix::parallel_for_index(cells.size(), run.campaign.threads_used, [&](std::size_t i) {
      results[i] = drive_cell(cells[i], cell_options,
                              o.first_cell_id + static_cast<std::int64_t>(i), run.probes[i]);
    });
  }
  const Clock::time_point t2 = Clock::now();
  const WallClock::time_point w2 = WallClock::now();
  run.sweep_s = seconds_between(w1, w2);
  run.sweep_cpu_s = seconds_between(t1, t2);

  run.campaign.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    run.campaign.cells.push_back(gtrix::CampaignCell{std::move(cells[i].label),
                                                     std::move(cells[i].config),
                                                     cells[i].corrupt, std::move(results[i])});
  }
  run.campaign.wall_seconds = seconds_between(w0, w2);
  const SpanScope span(o.spans, "runner.emit", o.parent_span, -1);
  run.jsonl = gtrix::campaign_jsonl(run.campaign);
  run.summary = gtrix::campaign_summary(run.campaign).dump(2);
  return run;
}

}  // namespace hostbench
