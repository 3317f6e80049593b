// Checkpoint subsystem harness (src/ckpt/, run_cell's checkpointing): a world
// snapshotted mid-run and restored into a freshly constructed world must
// re-save to the very same bytes and continue bit-identically -- same skew
// digest, same counters -- at every shard count, for every node, fault and
// recorder codec, including mid-run corruption and streaming recording.
// A finished cell's result must come back from its done file bit for bit.
// Plus the hard-failure contract: truncated, corrupt, version-bumped,
// config-mismatched and count-inflated snapshots and done files, and
// algorithms without a codec, throw CkptError with a message naming the
// cause, never a silent partial restore or an OOM.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "core/gradient_node.hpp"
#include "core/node_state.hpp"
#include "net/network.hpp"
#include "registry/algorithm.hpp"
#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "scratch_dir.hpp"

namespace gtrix {
namespace {

ExperimentConfig tiny_config() {
  return config_from_json(Json::parse(R"({"columns": 6, "layers": 6, "pulses": 10})"));
}

ExperimentConfig streaming_config() {
  return config_from_json(
      Json::parse(R"({"columns": 6, "layers": 6, "pulses": 10, "recording": "streaming"})"));
}

ExperimentConfig corrupt_config() {
  return config_from_json(Json::parse(
      R"({"columns": 6, "layers": 6, "pulses": 40, "self_stabilizing": true})"));
}

ExperimentConfig corrupt_streaming_config() {
  return config_from_json(
      Json::parse(R"({"columns": 6, "layers": 6, "pulses": 40, "self_stabilizing": true,
                      "recording": "streaming"})"));
}

CorruptPlan corrupt_plan() {
  CorruptPlan plan;
  plan.enabled = true;
  plan.wave = 10.0;
  plan.fraction = 1.0;
  return plan;
}

std::string counters_digest(const ExperimentResult& r) {
  const ExperimentCounters& c = r.counters;
  return std::to_string(c.iterations) + "/" + std::to_string(c.late_broadcasts) + "/" +
         std::to_string(c.guard_aborts) + "/" + std::to_string(c.watchdog_resets) + "/" +
         std::to_string(c.timeout_branches) + "/" + std::to_string(c.duplicate_drops) + "/" +
         std::to_string(c.events_executed) + "/" + std::to_string(c.messages_sent) + "/" +
         std::to_string(c.messages_delivered) + "/" + std::to_string(c.delivery_events);
}

// Offset of the first byte at which `a` and `b` differ; -1 when identical.
std::ptrdiff_t first_difference(const std::vector<std::uint8_t>& a,
                                const std::vector<std::uint8_t>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return ia == a.end() && ib == b.end() ? -1 : ia - a.begin();
}

// Runs the cell uninterrupted and via save-at-t -> restore-into-fresh-world
// -> continue, and requires identical skew and counters. Re-saving the
// freshly restored world must reproduce the snapshot byte for byte: every
// codec restores exactly the state it saved, engine counters included.
void expect_roundtrip_identical(const ExperimentConfig& config, EngineOptions engine,
                                double save_t, const std::string& what) {
  ExperimentResult baseline;
  {
    World world(config, engine);
    world.run_to_completion();
    EXPECT_TRUE(world.idle()) << what;
    baseline = measure_cell(world, config, {});
  }
  std::vector<std::uint8_t> image;
  {
    World world(config, engine);
    world.run_until(save_t);
    image = world.checkpoint_save("");
  }
  World resumed(config, engine);
  {
    CkptFile file = CkptFile::parse(image, "mem.ckpt");
    resumed.checkpoint_restore(file);
  }
  EXPECT_EQ(first_difference(resumed.checkpoint_save(""), image), -1)
      << what << ": re-saving the restored world changed the snapshot";
  resumed.run_to_completion();
  const ExperimentResult result = measure_cell(resumed, config, {});
  EXPECT_EQ(skew_to_json(result.skew).dump(), skew_to_json(baseline.skew).dump()) << what;
  EXPECT_EQ(counters_digest(result), counters_digest(baseline)) << what;
}

TEST(Ckpt, RestoreContinuesBitIdenticallyAcrossShardsAndSchedulers) {
  const ExperimentConfig config = tiny_config();
  const double mid = 4.5 * config.params.lambda;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    EngineOptions engine;
    engine.shards = shards;
    expect_roundtrip_identical(config, engine, mid, std::to_string(shards) + " shards");
  }
}

TEST(Ckpt, RestoreContinuesBitIdenticallyUnderStreamingRecording) {
  const ExperimentConfig config = streaming_config();
  const double mid = 5.0 * config.params.lambda;
  for (const std::uint32_t shards : {1u, 2u}) {
    EngineOptions engine;
    engine.shards = shards;
    expect_roundtrip_identical(config, engine, mid,
                               "streaming/" + std::to_string(shards) + " shards");
  }
}

// One config per codec the shard/streaming cases above never snapshot: the
// two baseline algorithms, line-propagation layer 0, the fixed-period rogue
// and crash sink, and the jitter / mute-after fault runtimes (mute-after
// still counting when the snapshot is taken, silent after the resume).
// Plus delay drift, which is config, not state: a restored World must
// rebuild it from the config alone.
TEST(Ckpt, EveryNodeAndFaultCodecRoundTripsAcrossShards) {
  const struct {
    const char* what;
    const char* json;
  } cases[] = {
      {"lynch-welch", R"({"algorithm": "lynch-welch"})"},
      {"trix-naive", R"({"algorithm": "trix-naive"})"},
      {"line-propagation", R"({"layer0_mode": "line-propagation"})"},
      {"fixed-period", R"({"faults": [{"base": 2, "layer": 3, "kind": "fixed-period",
                                       "period": 2300.0}]})"},
      {"crash", R"({"faults": [{"base": 2, "layer": 3, "kind": "crash"}]})"},
      {"jitter", R"({"faults": [{"base": 2, "layer": 3, "kind": "jitter", "alpha": 60.0}]})"},
      {"mute-after", R"({"faults": [{"base": 3, "layer": 2, "kind": "mute-after",
                                     "after": 6}]})"},
      {"delay-drift", R"({"delay_model": {"kind": "uniform-random", "drift_amplitude": 10.0}})"},
  };
  for (const auto& c : cases) {
    Json j = Json::parse(c.json);
    j.set("columns", 6);
    j.set("layers", 6);
    j.set("pulses", 10);
    const ExperimentConfig config = config_from_json(j);
    for (const std::uint32_t shards : {1u, 2u}) {
      EngineOptions engine;
      engine.shards = shards;
      expect_roundtrip_identical(config, engine, 4.5 * config.params.lambda,
                                 std::string(c.what) + "/" + std::to_string(shards) + " shards");
    }
  }
}

// An algorithm whose NodeModel keeps the default checkpoint hook.
class SilentSink final : public PulseSink {
 public:
  void on_pulse(NetNodeId, EdgeId, const Pulse&, SimTime) override {}
};

class NoCodecModel final : public NodeModel {
 public:
  PulseSink& sink() override { return sink_; }

 private:
  SilentSink sink_;
};

class NoCodecProvider final : public AlgorithmProvider {
 public:
  AlgorithmCaps caps() const override { return AlgorithmCaps{.tolerates_silent_preds = true}; }
  std::unique_ptr<NodeModel> make_node(NodeContext) const override {
    return std::make_unique<NoCodecModel>();
  }
};

TEST(Ckpt, AlgorithmWithoutACodecRefusesToSnapshot) {
  if (!algorithm_registry().contains("test-no-codec")) {
    algorithm_registry().add("test-no-codec", "no checkpoint codec (test-only)", {},
                             [](const ComponentSpec&) {
                               return std::make_shared<const NoCodecProvider>();
                             });
  }
  const ExperimentConfig config = config_from_json(
      Json::parse(R"({"columns": 6, "layers": 6, "pulses": 10, "algorithm": "test-no-codec"})"));
  World world(config, {});
  world.run_until(2.0 * config.params.lambda);
  try {
    (void)world.checkpoint_save("");
    FAIL() << "expected CkptError from the default NodeModel checkpoint hook";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("does not support checkpointing"), std::string::npos)
        << e.what();
  }
}

TEST(Ckpt, RestoreAtEveryBoundaryMatchesUninterruptedRun) {
  // Simulated kill-at-boundary: run the checkpointed cell to completion
  // once per boundary count, each time taking the snapshot left by an
  // earlier prefix and resuming it in a fresh runner invocation. Resumed
  // results must match the plain run_cell result exactly.
  const ExperimentConfig config = tiny_config();
  const double every = 2.0 * config.params.lambda;
  const std::string baseline = skew_to_json(run_cell(config, {}).skew).dump();

  for (const std::uint32_t shards : {1u, 2u}) {
    EngineOptions engine;
    engine.shards = shards;

    // Uninterrupted checkpointed run: chunked execution changes nothing.
    const auto dir = scratch_dir("chunked");
    CheckpointOptions opts;
    opts.dir = dir.string();
    opts.every = every;
    const ExperimentResult chunked = run_cell(config, {}, engine, {}, opts, 0, "base");
    EXPECT_EQ(skew_to_json(chunked.skew).dump(), baseline) << shards << " shards";
    EXPECT_GT(chunked.engine_stats.checkpoints_written, 0u);
    EXPECT_GT(chunked.engine_stats.checkpoint_bytes, 0u);
    ASSERT_TRUE(std::filesystem::exists(dir / "cell-00000-base.ckpt"));
    ASSERT_TRUE(std::filesystem::exists(dir / "cell-00000-base.done"));

    // Kill-after-last-snapshot: drop the done marker, keep the snapshot;
    // resume must restore (not restart) and land on the same bytes.
    std::filesystem::remove(dir / "cell-00000-base.done");
    opts.resume = true;
    const ExperimentResult resumed = run_cell(config, {}, engine, {}, opts, 0, "base");
    EXPECT_EQ(skew_to_json(resumed.skew).dump(), baseline) << shards << " shards resumed";
    EXPECT_EQ(resumed.engine_stats.checkpoints_restored, 1u);

    // Completed cell: resume short-circuits to the done file, zero re-run.
    const ExperimentResult reloaded = run_cell(config, {}, engine, {}, opts, 0, "base");
    EXPECT_EQ(skew_to_json(reloaded.skew).dump(), baseline) << shards << " shards reloaded";
    EXPECT_EQ(reloaded.engine_stats.cells_resumed_done, 1u);
    EXPECT_EQ(counters_digest(reloaded), counters_digest(resumed));
    std::filesystem::remove_all(dir);
  }
}

TEST(Ckpt, CorruptCellResumesIdenticallyAcrossThePhaseBoundary) {
  const ExperimentConfig config = corrupt_config();
  const CorruptPlan plan = corrupt_plan();
  const std::string baseline = skew_to_json(run_cell(config, plan).skew).dump();

  // `every` chosen so snapshots land both before wave 10 (phase 0) and
  // after (phase 1); the kill-and-resume covers whichever is newest.
  for (const double every : {3.0 * config.params.lambda, 14.0 * config.params.lambda}) {
    const auto dir = scratch_dir("corrupt");
    CheckpointOptions opts;
    opts.dir = dir.string();
    opts.every = every;
    const ExperimentResult chunked = run_cell(config, plan, {}, {}, opts, 3, "c");
    EXPECT_EQ(skew_to_json(chunked.skew).dump(), baseline) << "every=" << every;

    std::filesystem::remove(dir / "cell-00003-c.done");
    opts.resume = true;
    const ExperimentResult resumed = run_cell(config, plan, {}, {}, opts, 3, "c");
    EXPECT_EQ(skew_to_json(resumed.skew).dump(), baseline) << "every=" << every << " resumed";
    EXPECT_EQ(counters_digest(resumed), counters_digest(chunked)) << "every=" << every;
    std::filesystem::remove_all(dir);
  }
}

TEST(Ckpt, CorruptStreamingCellResumesIdenticallyMidCorruptionAndMidRecovery) {
  // A corrupt streaming cell's pulse trace must survive a snapshot/restore:
  // kills landing mid-corruption and mid-recovery (realignment tail still
  // accumulating) have to resume to the same realigned skew bytes as the
  // uninterrupted streaming run -- which itself must match full recording
  // on the same cell.
  const ExperimentConfig config = corrupt_streaming_config();
  const CorruptPlan plan = corrupt_plan();
  const std::string baseline = skew_to_json(run_cell(config, plan).skew).dump();
  EXPECT_EQ(skew_to_json(run_cell(corrupt_config(), plan).skew).dump(), baseline)
      << "streaming corrupt cell diverged from full recording";

  // every=3 lambda: the newest snapshot before the kill sits at wave 12 --
  // two waves after the corruption, labels not yet realigned. every=11 lambda:
  // the newest snapshot sits at wave 11, one wave into recovery.
  for (const double every : {3.0 * config.params.lambda, 11.0 * config.params.lambda}) {
    for (const std::uint32_t shards : {1u, 2u}) {
      EngineOptions engine;
      engine.shards = shards;
      const auto dir = scratch_dir("corrupt_stream");
      CheckpointOptions opts;
      opts.dir = dir.string();
      opts.every = every;
      const std::string tag = "every=" + std::to_string(every) + " shards=" + std::to_string(shards);
      const ExperimentResult chunked = run_cell(config, plan, engine, {}, opts, 7, "cs");
      EXPECT_EQ(skew_to_json(chunked.skew).dump(), baseline) << tag;

      std::filesystem::remove(dir / "cell-00007-cs.done");
      opts.resume = true;
      const ExperimentResult resumed = run_cell(config, plan, engine, {}, opts, 7, "cs");
      EXPECT_EQ(skew_to_json(resumed.skew).dump(), baseline) << tag << " resumed";
      EXPECT_EQ(resumed.engine_stats.checkpoints_restored, 1u) << tag;
      EXPECT_EQ(counters_digest(resumed), counters_digest(chunked)) << tag;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(Ckpt, HardFailuresNameTheFileAndTheCause) {
  const ExperimentConfig config = tiny_config();
  World world(config, {});
  world.run_until(2.0 * config.params.lambda);
  const std::vector<std::uint8_t> image = world.checkpoint_save("");

  const auto expect_throw_with = [](const std::vector<std::uint8_t>& bytes,
                                    const std::string& needle) {
    try {
      CkptFile::parse(bytes, "x.ckpt");
      FAIL() << "expected CkptError containing '" << needle << "'";
    } catch (const CkptError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("x.ckpt"), std::string::npos) << e.what();
    }
  };

  std::vector<std::uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xFF;
  expect_throw_with(bad_magic, "bad magic");

  std::vector<std::uint8_t> bad_version = image;
  bad_version[8] = 0x2A;  // u32 version lives right after the 8-byte magic
  expect_throw_with(bad_version, "version 42 is not supported");

  std::vector<std::uint8_t> truncated(image.begin(), image.begin() + image.size() / 2);
  expect_throw_with(truncated, "checkpoint");

  std::vector<std::uint8_t> flipped = image;
  flipped[image.size() / 2] ^= 0x01;
  expect_throw_with(flipped, "CRC mismatch");

  // Config mismatch: the restore target was built under different params.
  ExperimentConfig other = tiny_config();
  other.seed += 1;
  World target(other, {});
  CkptFile file = CkptFile::parse(image, "x.ckpt");
  try {
    target.checkpoint_restore(file);
    FAIL() << "expected config-mismatch CkptError";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("different experiment config"), std::string::npos)
        << e.what();
  }

  // Engine mismatch: same config, different shard layout.
  EngineOptions sharded;
  sharded.shards = 2;
  World sharded_target(config, sharded);
  CkptFile file2 = CkptFile::parse(image, "x.ckpt");
  try {
    sharded_target.checkpoint_restore(file2);
    FAIL() << "expected engine-mismatch CkptError";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("engine fingerprint"), std::string::npos) << e.what();
  }
}

// Byte offset of section `name`'s body inside a checkpoint image (walks the
// container framing: magic, version, header, then name/length/body records).
std::size_t section_body_offset(const std::vector<std::uint8_t>& image, const std::string& name) {
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | image[at + static_cast<std::size_t>(i)];
    return v;
  };
  std::size_t at = kCkptMagic.size() + 4;
  at += 4 + u32_at(at);  // header length + header
  while (at + 4 < image.size()) {
    const std::uint32_t name_len = u32_at(at);
    const std::string section(image.begin() + static_cast<std::ptrdiff_t>(at + 4),
                              image.begin() + static_cast<std::ptrdiff_t>(at + 4 + name_len));
    at += 4 + name_len;
    std::uint64_t body_len = 0;
    for (int i = 7; i >= 0; --i) {
      body_len = (body_len << 8) | image[at + static_cast<std::size_t>(i)];
    }
    at += 8;
    if (section == name) return at;
    at += body_len;
  }
  ADD_FAILURE() << "no section " << name;
  return 0;
}

// Overwrites the u64 at `at` and re-seals the CRC, so the damage reaches
// the section decoders instead of being caught by the container check.
std::vector<std::uint8_t> with_u64_patched(std::vector<std::uint8_t> image, std::size_t at,
                                           std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) image[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  const std::uint32_t crc = ckpt_crc32(image.data(), image.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return image;
}

TEST(Ckpt, InflatedCountInACrcValidSnapshotIsAPathQualifiedError) {
  // A real quickstart-grid snapshot with the event-queue slot count patched:
  // the count sits at offset 60 of the "sims" body (u32 shard count, f64
  // clock cursor, the u64 timer-cancel count, five u64 queue counters). The two values cover both ways
  // an unbounded count fails in the allocator: 2^40 slots as
  // std::bad_alloc, 2^62 as std::length_error.
  const ExperimentConfig config = builtin_scenario("quickstart-grid").cells().front().config;
  std::vector<std::uint8_t> image;
  {
    World world(config, {});
    world.run_until(3.0 * config.params.lambda);
    image = world.checkpoint_save("");
  }
  const std::size_t slot_count_at = section_body_offset(image, "sims") + 60;
  for (const std::uint64_t inflated : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    const CkptFile file =
        CkptFile::parse(with_u64_patched(image, slot_count_at, inflated), "x.ckpt");
    World target(config, {});
    try {
      target.checkpoint_restore(file);
      FAIL() << "expected CkptError for slot count " << inflated;
    } catch (const CkptError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("x.ckpt"), std::string::npos) << what;
      EXPECT_NE(what.find("'sims'"), std::string::npos) << what;
      EXPECT_NE(what.find("event slot count " + std::to_string(inflated)), std::string::npos)
          << what;
    }
  }
}

TEST(Ckpt, NonFiniteEventTimeInACrcValidSnapshotIsAPathQualifiedError) {
  // The first live event slot's time patched to NaN or infinity. The slot
  // table follows the slot count (offset 60 of the "sims" body); a slot is
  // a u32 generation and a live flag byte, then, when live, its time.
  const ExperimentConfig config = builtin_scenario("quickstart-grid").cells().front().config;
  std::vector<std::uint8_t> image;
  {
    World world(config, {});
    world.run_until(3.0 * config.params.lambda);
    image = world.checkpoint_save("");
  }
  std::size_t at = section_body_offset(image, "sims") + 68;
  while (image[at + 4] == 0) at += 5;
  at += 5;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const CkptFile file =
        CkptFile::parse(with_u64_patched(image, at, std::bit_cast<std::uint64_t>(bad)), "x.ckpt");
    World target(config, {});
    try {
      target.checkpoint_restore(file);
      FAIL() << "expected CkptError for event time " << bad;
    } catch (const CkptError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("x.ckpt: ", 0), 0u) << what;
      EXPECT_NE(what.find("event time is not finite"), std::string::npos) << what;
    }
  }
}

TEST(Ckpt, GradientDeadlinesOutOfStepWithTheQueueAreAPathQualifiedError) {
  // One gradient node whose watchdog and until-timer are armed, so its
  // queue entry is pending. Its record opens with the phase (1 B), four
  // registers (32 B), the phase deadline's key and threshold (24 B) and the
  // watchdog's key (16 B), then the entry handle (u32 slot, u32 generation).
  Simulator sim;
  Network net{sim};
  Recorder recorder;
  GradientSoa soa;
  const NetNodeId own = net.add_node(nullptr);
  const NetNodeId nbr = net.add_node(nullptr);
  const NetNodeId other = net.add_node(nullptr);
  const NetNodeId self = net.add_node(nullptr);
  recorder.register_node(self, {});
  const std::vector<NetNodeId> preds = {own, nbr, other};
  GradientNodeConfig config;
  config.params = Params::with(1000.0, 10.0, 1.0005);
  config.skew_bound_hint = config.params.thm11_bound(15);
  GradientTrixNode node(sim, net, self, HardwareClock(1.0, 0.0), preds, config, 0.0, &recorder,
                        soa);
  net.set_sink(self, &node);
  net.inject(nbr, self, Pulse{1}, 1000.0);
  net.inject(own, self, Pulse{1}, 1002.0);
  sim.run_until(1003.0);
  ASSERT_EQ(sim.event_queue().pending_count(), 1u);

  CkptWriter w;
  w.write_section("node", [&](CkptIo& io) { node.checkpoint(io); });
  const std::vector<std::uint8_t> image = w.finish("{}");
  const auto restore = [&](std::vector<std::uint8_t> bytes) {
    CkptFile::parse(std::move(bytes), "n.ckpt").read_section("node", [&](CkptIo& io) {
      node.checkpoint(io);
    });
  };
  restore(image);  // in step with the queue: loads
  const std::size_t phase_time_at = section_body_offset(image, "node") + 1 + 32;
  const std::size_t entry_at = phase_time_at + 24 + 16;
  std::uint64_t entry = 0;
  for (std::size_t i = 0; i < 8; ++i) entry |= std::uint64_t{image[entry_at + i]} << (8 * i);
  const auto refused = [&](std::vector<std::uint8_t> bytes, const std::string& cause) {
    try {
      restore(std::move(bytes));
      ADD_FAILURE() << "expected CkptError: " << cause;
    } catch (const CkptError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("n.ckpt: ", 0), 0u) << what;
      EXPECT_NE(what.find(cause), std::string::npos) << what;
    }
  };
  // A stale generation: the handle no longer names a pending event.
  refused(with_u64_patched(image, entry_at, entry + (std::uint64_t{1} << 32)),
          "does not carry its earliest deadline");
  // A deadline that would be scheduled at a time the calendar cannot hold.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    refused(with_u64_patched(image, phase_time_at, std::bit_cast<std::uint64_t>(bad)),
            "deadline time is not finite");
  }
}

TEST(Ckpt, RepeatedFreelistSlotInACrcValidSnapshotIsAPathQualifiedError) {
  // On the serial engine the "sims" section ends with the event queue's
  // freelist: a u64 length n, then n u32 slot indices. Naming the first
  // free slot twice keeps every index in range and free and the count
  // consistent, yet linking it would close a cycle.
  const ExperimentConfig config = builtin_scenario("quickstart-grid").cells().front().config;
  std::vector<std::uint8_t> image;
  {
    World world(config, {});
    world.run_until(3.0 * config.params.lambda);
    image = world.checkpoint_save("");
  }
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | image[at + static_cast<std::size_t>(i)];
    return v;
  };
  // The next section's record (u32 name length, "net", u64 body length)
  // starts where the sims body ends.
  const std::size_t sims_end = section_body_offset(image, "net") - (4 + 3 + 8);
  const std::uint64_t slots = u64_at(section_body_offset(image, "sims") + 60);
  std::uint64_t free_slots = 0;
  while (free_slots <= slots && u64_at(sims_end - 4 * free_slots - 8) != free_slots) ++free_slots;
  ASSERT_LE(free_slots, slots);
  ASSERT_GE(free_slots, 2u);
  std::vector<std::uint8_t> patched = image;
  std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(sims_end - 4 * free_slots), 4,
              patched.begin() + static_cast<std::ptrdiff_t>(sims_end - 4));
  const std::uint32_t crc = ckpt_crc32(patched.data(), patched.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    patched[patched.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  World target(config, {});
  try {
    target.checkpoint_restore(CkptFile::parse(patched, "x.ckpt"));
    FAIL() << "expected CkptError for a repeated freelist slot";
  } catch (const CkptError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("x.ckpt: ", 0), 0u) << what;
    EXPECT_NE(what.find("freelist names slot"), std::string::npos) << what;
  }
}

// Writes tiny_config's done file into a fresh directory, overwrites the
// u64 at `offset` of its "result" section with `value` (CRC resealed) and
// returns what resuming from it throws, which must start with the path.
std::string resume_with_patched_done(std::size_t offset, std::uint64_t value) {
  const ExperimentConfig config = tiny_config();
  const auto dir = scratch_dir("done_patched");
  CheckpointOptions opts;
  opts.dir = dir.string();
  (void)run_cell(config, {}, {}, {}, opts, 0, "base");
  const std::string done = (dir / "cell-00000-base.done").string();
  const std::vector<std::uint8_t> image = ckpt_read_file(done);
  ckpt_write_file_atomic(
      done, with_u64_patched(image, section_body_offset(image, "result") + offset, value));
  opts.resume = true;
  std::string what = "(the resume threw no CkptError)";
  try {
    (void)run_cell(config, {}, {}, {}, opts, 0, "base");
  } catch (const CkptError& e) {
    what = e.what();
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(what.rfind(done + ": ", 0), 0u) << what;
  return what;
}

TEST(Ckpt, InflatedCountInACrcValidDoneFileIsAPathQualifiedError) {
  // The "result" section opens with intra_by_layer's length, its first
  // state-sized count. At 2^40 it must fail in the count bound, before the
  // decoder allocates anything.
  const std::string what = resume_with_patched_done(0, std::uint64_t{1} << 40);
  EXPECT_NE(what.find("intra_by_layer count 1099511627776"), std::string::npos) << what;
}

TEST(Ckpt, NonFiniteNumberInACrcValidDoneFileIsAPathQualifiedError) {
  // intra_by_layer's first entry follows its length. The JSONL prints it
  // and JSON has no infinity, so the resume refuses the file instead of
  // the emitter failing later without a path.
  const std::string what = resume_with_patched_done(
      8, std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()));
  EXPECT_NE(what.find("non-finite number"), std::string::npos) << what;
}

// A result as a done file holds it: one "result" section.
std::vector<std::uint8_t> result_image(ExperimentResult& result) {
  CkptWriter w;
  w.write_section("result", [&](CkptIo& io) { result.checkpoint(io); });
  return w.finish("{}");
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(Ckpt, ResultCodecRoundTripIsBitExact) {
  // A checkpointed corrupt cell on 2 shards with telemetry on: shard rows,
  // window-histogram bins, the checkpoint block and the recovery series
  // are all populated.
  EngineOptions engine;
  engine.telemetry = true;
  engine.shards = 2;
  const auto dir = scratch_dir("result_codec");
  CheckpointOptions opts;
  opts.dir = dir.string();
  opts.every = 3.0 * corrupt_config().params.lambda;
  ExperimentResult result = run_cell(corrupt_config(), corrupt_plan(), engine, {}, opts, 0, "r");
  // Layer 0 is never corrupted, so every scanned wave has a readable pair.
  // Plant the "no readable pair" marker: a quiet NaN, and one with a
  // payload that only raw bits keep.
  std::vector<double>& series = result.recovery.local_by_wave;
  ASSERT_GE(series.size(), 2u);
  series.front() = std::numeric_limits<double>::quiet_NaN();
  series.back() = std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeef});
  ASSERT_EQ(result.engine_stats.shards.size(), 2u);
  ASSERT_GT(result.engine_stats.window_events.total(), 0u);
  ASSERT_GT(result.engine_stats.checkpoints_written, 0u);

  const std::vector<std::uint8_t> image = result_image(result);
  ExperimentResult back;
  CkptFile::parse(image, "mem.done").read_section("result", [&](CkptIo& io) {
    back.checkpoint(io);
  });
  // Every field, bit for bit: the JSONL and summary views cover the
  // scalars, counters and telemetry; runs compare by bit pattern.
  EXPECT_EQ(skew_to_json(back.skew).dump(), skew_to_json(result.skew).dump());
  EXPECT_EQ(bits(back.skew.intra_by_layer), bits(result.skew.intra_by_layer));
  EXPECT_EQ(bits(back.skew.inter_by_layer), bits(result.skew.inter_by_layer));
  EXPECT_EQ(bits(back.skew.spread_by_layer), bits(result.skew.spread_by_layer));
  EXPECT_EQ(counters_digest(back), counters_digest(result));
  EXPECT_EQ(bits({back.thm11_bound, back.global_bound, back.recovery.threshold}),
            bits({result.thm11_bound, result.global_bound, result.recovery.threshold}));
  EXPECT_EQ(back.diameter, result.diameter);
  EXPECT_EQ(back.realign.nodes_shifted, result.realign.nodes_shifted);
  EXPECT_EQ(back.realign.max_abs_shift, result.realign.max_abs_shift);
  EXPECT_EQ(back.recovery.enabled, result.recovery.enabled);
  EXPECT_EQ(back.recovery.corrupt_wave, result.recovery.corrupt_wave);
  EXPECT_EQ(back.recovery.scan_hi, result.recovery.scan_hi);
  EXPECT_EQ(back.recovery.recovered, result.recovery.recovered);
  EXPECT_EQ(back.recovery.recovered_wave, result.recovery.recovered_wave);
  EXPECT_EQ(bits(back.recovery.local_by_wave), bits(series));
  EXPECT_EQ(back.engine_stats.enabled, result.engine_stats.enabled);
  EXPECT_EQ(back.engine_stats.summary_json().dump(), result.engine_stats.summary_json().dump());
  // Re-saving the restored result reproduces the section bytes.
  EXPECT_EQ(first_difference(result_image(back), image), -1);

  // A snapshot where the done file belongs is a foreign document.
  const auto done = dir / "cell-00000-r.done";
  std::filesystem::copy_file(dir / "cell-00000-r.ckpt", done,
                             std::filesystem::copy_options::overwrite_existing);
  opts.resume = true;
  try {
    (void)run_cell(corrupt_config(), corrupt_plan(), engine, {}, opts, 0, "r");
    FAIL() << "expected CkptError on a snapshot in place of a done file";
  } catch (const CkptError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(done.string() + ": ", 0), 0u) << what;
    EXPECT_NE(what.find("not a gtrix-cell-done file"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(Ckpt, CampaignWithCheckpointDirMatchesPlainCampaign) {
  const Scenario scenario = Scenario::from_json(Json::parse(R"({
    "name": "ckpt-tiny",
    "config": {"columns": 6, "layers": 6, "pulses": 10},
    "sweep": {"seed": [1, 2]}
  })"));
  const std::string plain =
      campaign_jsonl(run_campaign(scenario, CampaignOptions{.threads = 1}));

  const auto dir = scratch_dir("campaign");
  CampaignOptions options;
  options.threads = 2;
  options.checkpoint.dir = dir.string();
  options.checkpoint.every = 2.0 * 2000.0;  // two nominal waves of sim time
  const std::string checkpointed = campaign_jsonl(run_campaign(scenario, options));
  EXPECT_EQ(checkpointed, plain);

  // Resume over a fully completed campaign reloads every cell from its done
  // file and still reproduces the bytes.
  options.checkpoint.resume = true;
  const CampaignResult resumed = run_campaign(scenario, options);
  EXPECT_EQ(campaign_jsonl(resumed), plain);
  std::filesystem::remove_all(dir);
}

TEST(Ckpt, AtomicWriteReplacesDurablyAndLeavesNoTemp) {
  // Regression coverage for the write path behind every snapshot: the
  // documented contract is tmp + fsync + rename (the fsync was missing until
  // the static-analysis sweep caught the doc/code mismatch). The durability
  // half is not observable from a unit test, but the atomicity half is:
  // content round-trips, an overwrite replaces the old bytes, and no .tmp
  // file survives either the success or the failure path.
  const auto dir = scratch_dir("atomic-write");
  const std::string path = (dir / "snap.ckpt").string();

  const std::vector<std::uint8_t> first = {0x01, 0x02, 0x03};
  ckpt_write_file_atomic(path, first);
  EXPECT_EQ(ckpt_read_file(path), first);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const std::vector<std::uint8_t> second = {0xFF, 0xEE, 0xDD, 0xCC};
  ckpt_write_file_atomic(path, second);
  EXPECT_EQ(ckpt_read_file(path), second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  ckpt_write_file_atomic(path, {});  // empty snapshots are legal
  EXPECT_TRUE(ckpt_read_file(path).empty());

  const std::string bad = (dir / "missing-subdir" / "snap.ckpt").string();
  EXPECT_THROW(ckpt_write_file_atomic(bad, second), CkptError);
  EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Ckpt, CellKeyIsStableAndSanitized) {
  EXPECT_EQ(cell_key(0, "base"), "cell-00000-base");
  EXPECT_EQ(cell_key(12, "layers=6/seed=100"), "cell-00012-layers_6_seed_100");
  const std::string long_label(200, 'a');
  EXPECT_LE(cell_key(3, long_label).size(), std::string("cell-00003-").size() + 80);
}

}  // namespace
}  // namespace gtrix
