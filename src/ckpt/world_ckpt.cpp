// World-level checkpoint assembly: enumerates every object that can appear
// as an event target, frames the per-subsystem snapshots into sections and
// validates the header fingerprint on restore. The target enumeration is
// pure construction order -- network, layer-0 generators, then grid nodes
// ascending -- so a fresh World built from the same config enumerates the
// identical sequence and pointer ids round-trip as dense indices.
#include <string>
#include <string_view>

#include "ckpt/codec.hpp"
#include "runner/experiment.hpp"
#include "scenario/spec.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace gtrix {

namespace {

// Per-grid-node record kinds in the "nodes" section. Which kind a node gets
// is a pure function of the config (fault map, layer-0 mode, algorithm), so
// restore recomputes the kind and treats a mismatch as corruption.
enum NodeTag : std::uint8_t {
  kTagNone = 0,       // ideal-mode layer 0: emitter state lives in the queue
  kTagLayer0 = 1,     // line-mode forwarding node
  kTagAlgorithm = 2,  // algorithm node behind a NodeModel
  kTagRogue = 3,      // fixed-period babbler
  kTagCrash = 4,      // crash sink
};

}  // namespace

bool World::idle() const {
  if (!sim_.idle()) return false;
  for (const auto& sim : extra_sims_) {
    if (!sim->idle()) return false;
  }
  return net_.earliest_mailbox_time() == kTimeInfinity;
}

Json World::checkpoint_header(const std::string& meta_json) const {
  Json j = Json::object();
  j.set("format", "gtrix-checkpoint");
  j.set("version", kCkptFormatVersion);
  j.set("config", to_json(config_));
  // The engine fingerprint pins what shapes serialized state: the shard
  // count decides the queue/mailbox layout. `shards` is the clamped
  // effective count.
  Json engine = Json::object();
  engine.set("shards", shard_count_);
  j.set("engine", engine);
  j.set("meta", meta_json.empty() ? Json() : Json::parse(meta_json));
  return j;
}

void World::checkpoint_targets(CkptTargetMap& targets) const {
  targets.add(&const_cast<Network&>(net_));
  if (source_ != nullptr) targets.add(source_.get());
  for (const auto& emitter : emitters_) targets.add(emitter.get());
  for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
    if (layer0_by_grid_[g] != nullptr) targets.add(layer0_by_grid_[g]);
    if (models_[g] != nullptr) {
      TimerTarget* t = models_[g]->timer_target();
      if (t != nullptr) targets.add(t);
    }
    if (auto* rogue = dynamic_cast<FixedPeriodRogue*>(sinks_[g].get())) targets.add(rogue);
  }
}

std::vector<std::uint8_t> World::checkpoint_save(const std::string& meta_json) const {
  CkptTargetMap targets;
  checkpoint_targets(targets);

  CkptWriter w;

  w.begin_section("sims");
  w.u32(shard_count_);
  if (shard_count_ <= 1) {
    sim_.checkpoint_save(w, targets);
  } else {
    for (const Simulator* sim : shard_sims_) sim->checkpoint_save(w, targets);
  }
  w.end_section();

  w.begin_section("net");
  net_.checkpoint_save(w);
  w.end_section();

  w.begin_section("nodes");
  for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
    if (layer0_by_grid_[g] != nullptr) {
      w.u8(kTagLayer0);
      layer0_by_grid_[g]->checkpoint_save(w);
    } else if (models_[g] != nullptr) {
      w.u8(kTagAlgorithm);
      models_[g]->checkpoint_save(w);
    } else if (auto* rogue = dynamic_cast<const FixedPeriodRogue*>(sinks_[g].get())) {
      w.u8(kTagRogue);
      rogue->checkpoint_save(w);
    } else if (auto* sink = dynamic_cast<const CrashSink*>(sinks_[g].get())) {
      w.u8(kTagCrash);
      sink->checkpoint_save(w);
    } else {
      w.u8(kTagNone);
    }
  }
  w.end_section();

  w.begin_section("faults");
  w.u64(fault_runtimes_.size());
  for (const auto& rt : fault_runtimes_) {
    rt->rng.checkpoint_save(w);
    w.i64(rt->sent);
  }
  w.end_section();

  w.begin_section("recorder");
  recorder_.checkpoint_save(w);
  w.end_section();

  if (streaming_ != nullptr) {
    w.begin_section("streaming");
    streaming_->checkpoint_save(w);
    w.end_section();
  }

  return w.finish(checkpoint_header(meta_json).dump());
}

void World::checkpoint_restore(const CkptFile& file) {
  // Fingerprint first: state is only byte-compatible between identically
  // configured, identically engined Worlds. The comparison runs on parsed
  // JSON (not raw strings) so it is insensitive to meta differences.
  Json header;
  try {
    header = Json::parse(file.header_json());
  } catch (const JsonError& e) {
    throw CkptError(file.path() + ": checkpoint header is not valid JSON (" + e.what() + ")");
  }
  const Json expected = checkpoint_header("");
  try {
    if (!(header.at("config") == expected.at("config"))) {
      throw CkptError(file.path() +
                      ": checkpoint was taken under a different experiment config (restore "
                      "never migrates state across configs)");
    }
    if (!(header.at("engine") == expected.at("engine"))) {
      throw CkptError(file.path() + ": checkpoint engine fingerprint " +
                      header.at("engine").dump() + " does not match this run's " +
                      expected.at("engine").dump() +
                      " (resume with the same shard count)");
    }
  } catch (const JsonError& e) {
    throw CkptError(file.path() + ": checkpoint header is malformed (" + e.what() + ")");
  }

  CkptTargetMap targets;
  checkpoint_targets(targets);

  // Decodes one section to its last byte. Decoder errors name the section
  // (and, for counts, the element); this prefixes the file path, so every
  // restore failure is path-qualified.
  const auto restore_section = [&file](std::string_view name, const auto& decode) {
    CkptCursor cur = file.section(name);
    try {
      decode(cur);
      cur.expect_done();
    } catch (const CkptError& e) {
      throw CkptError(file.path() + ": " + e.what());
    }
  };

  restore_section("sims", [&](CkptCursor& cur) {
    const std::uint32_t shards = cur.u32();
    if (shards != shard_count_) {
      throw CkptError("checkpoint was taken with " + std::to_string(shards) +
                      " shard(s), this run has " + std::to_string(shard_count_));
    }
    if (shard_count_ <= 1) {
      sim_.checkpoint_restore(cur, targets);
    } else {
      for (Simulator* sim : shard_sims_) sim->checkpoint_restore(cur, targets);
    }
  });

  restore_section("net", [&](CkptCursor& cur) { net_.checkpoint_restore(cur); });

  restore_section("nodes", [&](CkptCursor& cur) {
    for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
      const std::uint8_t tag = cur.u8();
      std::uint8_t want = kTagNone;
      if (layer0_by_grid_[g] != nullptr) want = kTagLayer0;
      else if (models_[g] != nullptr) want = kTagAlgorithm;
      else if (dynamic_cast<FixedPeriodRogue*>(sinks_[g].get()) != nullptr) want = kTagRogue;
      else if (dynamic_cast<CrashSink*>(sinks_[g].get()) != nullptr) want = kTagCrash;
      if (tag != want) {
        throw CkptError("checkpoint node record kind " + std::to_string(tag) + " at grid node " +
                        std::to_string(g) + " does not match this config's " +
                        std::to_string(want) + " (corrupt file?)");
      }
      switch (tag) {
        case kTagLayer0: layer0_by_grid_[g]->checkpoint_restore(cur); break;
        case kTagAlgorithm: models_[g]->checkpoint_restore(cur); break;
        case kTagRogue: dynamic_cast<FixedPeriodRogue*>(sinks_[g].get())->checkpoint_restore(cur); break;
        case kTagCrash: dynamic_cast<CrashSink*>(sinks_[g].get())->checkpoint_restore(cur); break;
        default: break;
      }
    }
  });

  restore_section("faults", [&](CkptCursor& cur) {
    const std::uint64_t nfaults = cur.u64();
    if (nfaults != fault_runtimes_.size()) {
      throw CkptError("checkpoint has " + std::to_string(nfaults) +
                      " fault runtime(s), this configuration has " +
                      std::to_string(fault_runtimes_.size()));
    }
    for (const auto& rt : fault_runtimes_) {
      rt->rng.checkpoint_restore(cur);
      rt->sent = cur.i64();
    }
  });

  restore_section("recorder", [&](CkptCursor& cur) { recorder_.checkpoint_restore(cur); });

  if (streaming_ != nullptr) {
    restore_section("streaming", [&](CkptCursor& cur) { streaming_->checkpoint_restore(cur); });
  } else if (file.has_section("streaming")) {
    throw CkptError(file.path() +
                    ": checkpoint carries streaming accumulators but this run records in "
                    "full mode (corrupt file?)");
  }
}

}  // namespace gtrix
