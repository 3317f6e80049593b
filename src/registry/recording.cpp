#include "registry/recording.hpp"

#include <memory>

namespace gtrix {

namespace {

class FixedRecording final : public RecordingProvider {
 public:
  explicit FixedRecording(RecordingOptions options) : options_(options) {}
  RecordingOptions options() const override { return options_; }

 private:
  RecordingOptions options_;
};

std::int64_t checked_window(const ComponentSpec& spec) {
  const std::int64_t window = spec.params.at("window").as_int();
  if (window < 2 || window > 4096) {
    throw JsonError("recording mode '" + spec.kind + "': window must be in [2, 4096], got " +
                    std::to_string(window));
  }
  return window;
}

void register_builtins(ComponentRegistry<RecordingProvider>& reg) {
  reg.add("full", "complete trace in RAM (post-hoc metrics, realignment); O(nodes x waves)",
          {}, [](const ComponentSpec&) {
            return std::make_shared<const FixedRecording>(RecordingOptions{});
          });
  reg.add("streaming",
          "no trace: online skew accumulators only; O(nodes) memory, sketch "
          "quantiles; corrupt cells retain a +/-window look-back for realignment",
          {{"window", ParamType::kInt, Json(8),
            "streaming wave-ring capacity and corruption look-back half-width "
            "(size it to cover the recovery tail on corrupt cells)"}},
          [](const ComponentSpec& spec) {
            RecordingOptions options;
            options.mode = RecordingMode::kStreaming;
            options.window = checked_window(spec);
            return std::make_shared<const FixedRecording>(options);
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

RecordingOptions resolve_recording(const ComponentSpec& spec) {
  return recording_registry().create(spec)->options();
}

}  // namespace gtrix
