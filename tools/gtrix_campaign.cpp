// gtrix_campaign: run declarative scenario campaigns.
//
//   gtrix_campaign thm13-random-faults --threads=8 --out=results
//   gtrix_campaign scenarios/*.json --threads=4
//   gtrix_campaign --list
//
// Each scenario expands into a config matrix whose cells run in parallel
// through run_cell, and produces <out>/<name>.jsonl (one deterministic JSON
// object per cell) plus <out>/<name>.summary.json (aggregate percentiles,
// counters, wall time).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/codec.hpp"
#include "obs/trace.hpp"
#include "registry/describe.hpp"
#include "runner/campaign.hpp"
#include "scenario/registry.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

Usage make_usage(const std::string& program) {
  Usage usage(program, "Run declarative Gradient TRIX scenario campaigns.");
  usage.positional("SCENARIO", "scenario .json file or built-in name (--list)");
  usage.flag("--list", "list built-in scenarios and registered components, then exit");
  usage.flag("--describe=KIND", "show a registered component's parameter schema and exit");
  usage.flag("--out=DIR", "output directory (default: campaign-out)");
  usage.flag("--threads=N", "sweep worker threads (default 0 = all cores)");
  usage.flag("--shards=N",
             "engine shards per cell (default 0 = the scenario's own engine "
             "default); budgeted so cells x shards stays within hardware "
             "concurrency -- results are bit-identical for every shard count");
  usage.flag("--recording=MODE",
             "override every cell's trace retention: full or streaming "
             "(see docs/scaling.md; applies to corrupt cells too -- under "
             "streaming they keep their pulse times for realignment, but no "
             "iteration records)");
  usage.flag("--telemetry",
             "harvest engine telemetry: per-cell engine_stats in the JSONL "
             "(engine-invariant counters) and a merged block in the summary "
             "(docs/observability.md)");
  usage.flag("--trace-out=FILE",
             "write a Chrome trace-event JSON timeline (Perfetto-loadable) of "
             "the campaign: per-cell spans plus per-shard window/barrier "
             "spans; implies --telemetry");
  usage.flag("--progress=SECONDS",
             "live heartbeat on stderr every SECONDS (bare --progress = 2): "
             "cells done, cumulative events/s, ETA");
  usage.flag("--checkpoint-dir=DIR",
             "crash-safe campaigns (docs/checkpointing.md): snapshot every "
             "cell's full simulator state into DIR/<scenario>/ at sim-time "
             "boundaries and record finished cells as done files");
  usage.flag("--checkpoint-every=T",
             "simulated time between snapshots (default 4000 = two nominal "
             "waves; needs --checkpoint-dir)");
  usage.flag("--resume",
             "reuse artifacts under --checkpoint-dir: completed cells reload "
             "their done files (never re-run), interrupted cells restore "
             "their newest snapshot and continue; output bytes are identical "
             "to an uninterrupted run");
  usage.flag("--dry-run", "expand and list cells without running");
  usage.flag("--quiet", "suppress the per-scenario result table");
  usage.flag("--help", "show this help");
  return usage;
}

void write_file(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << contents;
  if (!out.flush()) throw std::runtime_error("short write to " + path.string());
}

int list_builtins() {
  Table table({"name", "summary", "cells"});
  for (const BuiltinInfo& info : builtin_scenarios()) {
    const Scenario scenario = builtin_scenario(info.name);
    table.row()
        .add(std::string(info.name))
        .add(std::string(info.summary))
        .add(static_cast<std::uint64_t>(scenario.cell_count()));
  }
  std::printf("built-in scenarios:\n%s", table.render().c_str());

  Table components({"dimension", "kind", "parameters", "summary"});
  for (const ComponentDesc& desc : all_component_descs()) {
    components.row()
        .add(desc.config_key)
        .add(desc.kind)
        .add(desc.params.empty() ? "-" : render_param_schema(desc.params))
        .add(desc.summary);
  }
  std::printf("\nregistered components (scenario config syntax: \"<dimension>\": \"<kind>\" "
              "or {\"kind\": ..., <params>}):\n%s",
              components.render().c_str());
  std::printf(
      "\ncorrupt cells honor the configured recording mode: under streaming they keep\n"
      "every pulse time (no iteration records), so realignment and the recovery\n"
      "scan read what full recording would. See docs/scaling.md, 'Realignment at\n"
      "scale'.\n");
  return 0;
}

int describe_component(const std::string& kind) {
  bool found = false;
  for (const ComponentDesc& desc : all_component_descs()) {
    if (desc.kind != kind) continue;
    found = true;
    std::printf("%s '%s' (config key \"%s\")\n  %s\n", desc.dimension.c_str(),
                desc.kind.c_str(), desc.config_key.c_str(), desc.summary.c_str());
    if (desc.params.empty()) {
      std::printf("  parameters: none\n");
    } else {
      Table params({"parameter", "type", "default", "description"});
      for (const ParamInfo& info : desc.params) {
        params.row()
            .add(info.name)
            .add(param_type_name(info.type))
            .add(info.default_value.dump())
            .add(info.description);
      }
      std::printf("%s", params.render().c_str());
    }
    std::printf("\n");
  }
  if (!found) {
    std::string valid;
    for (const ComponentDesc& desc : all_component_descs()) {
      if (!valid.empty()) valid += ", ";
      valid += desc.kind;
    }
    std::fprintf(stderr, "error: no registered component named '%s' (valid: %s)\n",
                 kind.c_str(), valid.c_str());
    return 2;
  }
  return 0;
}

Scenario load_scenario(const std::string& ref) {
  if (is_builtin_scenario(ref)) return builtin_scenario(ref);
  return Scenario::from_file(ref);
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"list", "dry-run", "quiet", "help", "telemetry", "progress", "resume"});
  const Usage usage = make_usage(flags.program());
  // Reject typos ("--thread=1") instead of silently using defaults; the
  // accepted set is exactly what --help documents.
  const std::vector<std::string> known = usage.flag_names();
  for (const std::string& name : flags.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "error: unknown flag --%s (see --help)\n", name.c_str());
      return 2;
    }
  }
  if (flags.get_bool("help", false)) {
    std::fputs(usage.str().c_str(), stdout);
    return 0;
  }
  if (flags.get_bool("list", false)) return list_builtins();
  if (flags.has("describe")) {
    const std::string kind = flags.get_string("describe", "");
    if (kind.empty() || kind == "true") {
      std::fputs("error: --describe requires a component kind (--describe=KIND)\n", stderr);
      return 2;
    }
    return describe_component(kind);
  }

  const std::vector<std::string>& refs = flags.positional();
  if (refs.empty()) {
    std::fputs(usage.str().c_str(), stderr);
    std::fputs("\nerror: no scenario given\n", stderr);
    return 2;
  }

  const std::int64_t threads = flags.get_int("threads", 0);
  if (threads < 0 || threads > 1024) {
    std::fprintf(stderr, "error: --threads must be in [0, 1024], got %lld\n",
                 static_cast<long long>(threads));
    return 2;
  }
  const std::int64_t shards = flags.get_int("shards", 0);
  if (shards < 0 || shards > 4096) {
    std::fprintf(stderr, "error: --shards must be in [0, 4096], got %lld\n",
                 static_cast<long long>(shards));
    return 2;
  }
  CampaignOptions options;
  options.threads = static_cast<unsigned>(threads);
  options.shards = static_cast<std::uint32_t>(shards);
  if (flags.has("recording")) {
    const std::string mode = flags.get_string("recording", "");
    if (mode.empty() || mode == "true") {
      std::fputs("error: --recording requires a mode (--recording=streaming)\n", stderr);
      return 2;
    }
    // Validate eagerly so an unknown mode fails before any scenario runs,
    // naming the flag at fault.
    try {
      options.recording_override = recording_registry().canonicalize(ComponentSpec::of(mode));
    } catch (const JsonError& e) {
      throw JsonError(std::string("--recording: ") + e.what());
    }
  }
  options.telemetry = flags.get_bool("telemetry", false);
  const std::string trace_out = flags.get_string("trace-out", "");
  if (flags.has("trace-out") && (trace_out.empty() || trace_out == "true")) {
    std::fputs("error: --trace-out requires a file path (--trace-out=FILE)\n", stderr);
    return 2;
  }
  if (flags.has("progress")) {
    // Bare "--progress" parses as the boolean value "true": default cadence.
    const std::string raw = flags.get_string("progress", "");
    options.progress_seconds = raw == "true" ? 2.0 : flags.get_double("progress", 2.0);
    if (!(options.progress_seconds > 0.0)) {
      std::fputs("error: --progress needs a positive interval in seconds\n", stderr);
      return 2;
    }
  }
  const std::string checkpoint_dir = flags.get_string("checkpoint-dir", "");
  if (flags.has("checkpoint-dir") && (checkpoint_dir.empty() || checkpoint_dir == "true")) {
    std::fputs("error: --checkpoint-dir requires a directory (--checkpoint-dir=DIR)\n", stderr);
    return 2;
  }
  options.checkpoint.every = 4000.0;
  if (flags.has("checkpoint-every")) {
    if (checkpoint_dir.empty()) {
      std::fputs("error: --checkpoint-every needs --checkpoint-dir=DIR\n", stderr);
      return 2;
    }
    const std::string raw = flags.get_string("checkpoint-every", "");
    options.checkpoint.every = raw == "true" ? 0.0 : flags.get_double("checkpoint-every", 0.0);
    if (!(options.checkpoint.every > 0.0)) {
      std::fputs("error: --checkpoint-every needs a positive simulated-time interval\n",
                 stderr);
      return 2;
    }
  }
  options.checkpoint.resume = flags.get_bool("resume", false);
  if (options.checkpoint.resume && checkpoint_dir.empty()) {
    std::fputs("error: --resume needs --checkpoint-dir=DIR\n", stderr);
    return 2;
  }
  const std::string out_dir = flags.get_string("out", "campaign-out");
  const bool dry_run = flags.get_bool("dry-run", false);
  const bool quiet = flags.get_bool("quiet", false);

  TraceCollector trace_collector;
  if (!trace_out.empty()) options.trace = &trace_collector;

  if (!dry_run) std::filesystem::create_directories(out_dir);

  Table table({"scenario", "cells", "local p95", "local max", "within Thm1.1",
               "wall s", "output"});
  std::vector<std::string> seen_names;
  for (const std::string& ref : refs) {
    const Scenario scenario = load_scenario(ref);
    // Output files are keyed by the scenario's internal name; two inputs
    // sharing one name would silently clobber each other's results.
    if (std::find(seen_names.begin(), seen_names.end(), scenario.name()) !=
        seen_names.end()) {
      std::fprintf(stderr, "error: duplicate scenario name '%s' (from %s)\n",
                   scenario.name().c_str(), ref.c_str());
      return 2;
    }
    seen_names.push_back(scenario.name());
    if (dry_run) {
      std::printf("%s: %zu cells\n", scenario.name().c_str(), scenario.cell_count());
      for (const ScenarioCell& cell : scenario.cells()) {
        std::printf("  %s\n", cell.label.c_str());
      }
      continue;
    }

    // Checkpoint artifacts are keyed per scenario: cell keys are positional
    // within one scenario, so two scenarios must never share a directory.
    if (!checkpoint_dir.empty()) {
      options.checkpoint.dir =
          (std::filesystem::path(checkpoint_dir) / scenario.name()).string();
    }
    const CampaignResult result = run_campaign(scenario, options);
    // Next scenario's cells get fresh trace pids (pid 1 stays the shared
    // campaign-level track).
    options.trace_pid_base += static_cast<std::uint32_t>(result.cells.size());
    const std::filesystem::path jsonl_path =
        std::filesystem::path(out_dir) / (result.scenario + ".jsonl");
    const std::filesystem::path summary_path =
        std::filesystem::path(out_dir) / (result.scenario + ".summary.json");
    write_file(jsonl_path, campaign_jsonl(result));
    const Json summary = campaign_summary(result);
    write_file(summary_path, summary.dump(2) + "\n");

    // Percentiles are null (not 0.0) for empty sample sets; render a dash.
    const auto pct = [&](const char* key) -> std::string {
      const Json& v = summary.at("local_skew").at(key);
      return v.is_null() ? "-" : format_double(v.as_double(), 1);
    };
    table.row()
        .add(result.scenario)
        .add(static_cast<std::uint64_t>(result.cells.size()))
        .add(pct("p95"))
        .add(pct("max"))
        .add(std::to_string(summary.at("cells_within_thm11_bound").as_int()) + "/" +
             std::to_string(result.cells.size()))
        .add(result.wall_seconds, 2)
        .add(jsonl_path.string());
  }
  if (!dry_run && options.trace != nullptr) {
    write_file(trace_out, trace_collector.to_json().dump() + "\n");
    std::printf("wrote %s (%zu trace events; open in ui.perfetto.dev)\n", trace_out.c_str(),
                trace_collector.event_count());
  }
  if (!dry_run && !quiet) std::printf("%s", table.render().c_str());
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) {
  try {
    return gtrix::run(argc, argv);
  } catch (const gtrix::CkptError& e) {
    // Truncated / corrupt / version- or config-mismatched checkpoint
    // artifacts are a usage-level failure with a path-qualified message,
    // not a crash: exit 2, like every other validation error.
    std::fprintf(stderr, "gtrix_campaign: %s\n", e.what());
    return 2;
  } catch (const gtrix::JsonError& e) {
    // Malformed scenario input: the message already starts with its origin
    // (the file path for scenario files), so print it unprefixed.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    // A malformed flag ("--threads=abc", a repeated "--out", "--quiet=maybe"):
    // Flags names it in the message. A usage error, so exit 2.
    std::fprintf(stderr, "gtrix_campaign: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtrix_campaign: %s\n", e.what());
    return 1;
  }
}
