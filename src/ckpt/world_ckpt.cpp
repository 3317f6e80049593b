// World-level checkpoint assembly: enumerates every object that can appear
// as an event target, walks the per-subsystem codecs section by section --
// one walk for both directions -- and validates the header fingerprint on
// restore. The target enumeration is pure construction order -- network,
// layer-0 generators, then grid nodes ascending -- so a fresh World built
// from the same config enumerates the identical sequence and pointer ids
// round-trip as dense indices.
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
  for (const Simulator& sim : sims_) {
    if (!sim.idle()) return false;
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

void World::checkpoint_sections(CkptWriter* save_to, const CkptFile* restore_from) {
  // Every possible event target, in construction order.
  CkptTargetMap targets;
  targets.add(&net_);
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

  // Frames one section around its codec: saving writes it, restoring
  // decodes the file's section with path-qualified errors.
  const auto section = [&](std::string_view name, const auto& body) {
    if (save_to != nullptr) {
      save_to->write_section(name, body);
    } else {
      restore_from->read_section(name, body);
    }
  };

  section("sims", [&](CkptIo& io) {
    io.same_u32(shard_count_, "shard");
    for (Simulator& sim : sims_) sim.checkpoint(io, targets);
  });

  section("net", [&](CkptIo& io) { net_.checkpoint(io); });

  section("nodes", [&](CkptIo& io) {
    for (GridNodeId g = 0; g < grid_.node_count(); ++g) {
      auto* rogue = dynamic_cast<FixedPeriodRogue*>(sinks_[g].get());
      auto* crash = dynamic_cast<CrashSink*>(sinks_[g].get());
      const std::uint8_t want = layer0_by_grid_[g] != nullptr ? kTagLayer0
                                : models_[g] != nullptr       ? kTagAlgorithm
                                : rogue != nullptr            ? kTagRogue
                                : crash != nullptr            ? kTagCrash
                                                              : kTagNone;
      std::uint8_t tag = want;
      io.u8(tag);
      if (tag != want) {
        throw CkptError("checkpoint node record kind " + std::to_string(tag) + " at grid node " +
                        std::to_string(g) + " does not match this config's " +
                        std::to_string(want) + " (corrupt file?)");
      }
      switch (tag) {
        case kTagLayer0: layer0_by_grid_[g]->checkpoint(io); break;
        case kTagAlgorithm: models_[g]->checkpoint(io); break;
        case kTagRogue: rogue->checkpoint(io); break;
        case kTagCrash: crash->checkpoint(io); break;
        default: break;
      }
    }
  });

  section("faults", [&](CkptIo& io) {
    io.same_count(fault_runtimes_.size(), "fault runtime");
    for (const auto& rt : fault_runtimes_) {
      rt->rng.checkpoint(io);
      io.i64(rt->sent);
    }
  });

  section("recorder", [&](CkptIo& io) { recorder_.checkpoint(io); });

  if (streaming_ != nullptr) {
    section("streaming", [&](CkptIo& io) { streaming_->checkpoint(io); });
  }
}

std::vector<std::uint8_t> World::checkpoint_save(const std::string& meta_json) const {
  CkptWriter w;
  // The section walk is shared with restore and hence non-const; in the
  // saving direction every codec only reads the state it is handed.
  const_cast<World&>(*this).checkpoint_sections(&w, nullptr);
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

  checkpoint_sections(nullptr, &file);
  if (streaming_ == nullptr && file.has_section("streaming")) {
    throw CkptError(file.path() +
                    ": checkpoint carries streaming accumulators but this run keeps no "
                    "live accumulator (full recording or a corrupt cell; corrupt file?)");
  }
}

}  // namespace gtrix
