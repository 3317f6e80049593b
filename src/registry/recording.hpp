// RecordingProvider: the fifth component dimension -- how much of the
// execution trace the experiment retains (metrics/recorder.hpp).
//
// Unlike the other four dimensions this selects measurement infrastructure,
// not system behaviour: both modes produce bit-identical skew extrema (the
// streaming differential suite proves it), so scenarios switch modes to
// trade trace detail for memory, never to change results. Neither mode
// takes a parameter. It still lives in the registry machinery so scenario
// JSON gets the same schema-driven "recording": "streaming" syntax, and
// --list/--describe introspection, as everything else.
#pragma once

#include <string_view>

#include "metrics/recorder.hpp"
#include "registry/registry.hpp"

namespace gtrix {

class RecordingProvider {
 public:
  virtual ~RecordingProvider() = default;
  virtual RecordingMode mode() const = 0;
};

/// Global registry; built-ins (full, streaming) register on first access.
ComponentRegistry<RecordingProvider>& recording_registry();

/// Resolves a recording spec to the recorder's mode (unknown kinds throw
/// JsonError).
RecordingMode resolve_recording(const ComponentSpec& spec);

}  // namespace gtrix
