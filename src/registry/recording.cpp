#include "registry/recording.hpp"

#include <memory>

namespace gtrix {

namespace {

class FixedRecording final : public RecordingProvider {
 public:
  explicit FixedRecording(RecordingMode mode) : mode_(mode) {}
  RecordingMode mode() const override { return mode_; }

 private:
  RecordingMode mode_;
};

void register_builtins(ComponentRegistry<RecordingProvider>& reg) {
  reg.add("full", "complete trace in RAM (post-hoc metrics, realignment); O(nodes x waves)",
          {}, [](const ComponentSpec&) {
            return std::make_shared<const FixedRecording>(RecordingMode::kFull);
          });
  reg.add("streaming",
          "no trace: online skew accumulators only; O(nodes) memory, sketch "
          "quantiles; corrupt cells keep their pulse times for realignment",
          {}, [](const ComponentSpec&) {
            return std::make_shared<const FixedRecording>(RecordingMode::kStreaming);
          });
}

}  // namespace

ComponentRegistry<RecordingProvider>& recording_registry() {
  static ComponentRegistry<RecordingProvider>* registry = [] {
    auto* r = new ComponentRegistry<RecordingProvider>("recording mode");
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

RecordingMode resolve_recording(const ComponentSpec& spec) {
  return recording_registry().create(spec)->mode();
}

}  // namespace gtrix
