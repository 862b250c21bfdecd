// Per-layer timings for the traced run. Each figure calls one layer's
// public functions again, in isolation, on inputs taken from the round
// that just ran: its write stream, the clocks it observed, its final
// document, its member count, its object ids and its recorded history.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/coherence/history.hpp"
#include "globe/coherence/models.hpp"
#include "globe/placement/layout.hpp"
#include "globe/web/document.hpp"
#include "globe/web/write_record.hpp"

namespace perfbench {

struct LayerInputs {
  /// Write records in the order the primary logged them.
  std::vector<globe::web::WriteRecord> stream;
  /// Clocks the round observed: replica applied clocks and read clocks.
  std::vector<globe::coherence::VectorClock> clocks;
  globe::web::WebDocument document;  // a primary's final document
  std::size_t members = 0;            // stores in the deployment
  globe::coherence::ObjectModel model = globe::coherence::ObjectModel::kPram;
  globe::placement::Layout layout;
  std::vector<globe::ObjectId> objects;
  std::uint64_t sim_events = 0;     // events the measured phase ran
  double sim_span_us = 0;           // simulated span of the measured phase
  /// Single-object rounds: the recorded history and session specs.
  const globe::coherence::History* history = nullptr;
  std::vector<globe::coherence::SessionSpec> specs;
};

/// Returns the `*_ns` figures by metric name.
std::map<std::string, double> time_layers(const LayerInputs& in);

}  // namespace perfbench
