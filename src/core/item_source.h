// Pull-based item stream: the simulator-facing abstraction behind streamed
// (on-disk) instances. A source yields items in non-decreasing arrival
// order with dense ids, exactly like Instance::items() — Simulator::run_source
// replays one without ever materializing the whole sequence in RAM (the
// .cdbpi chunked reader in src/workloads/instance_file.h is the main
// implementation).
#pragma once

#include <cstddef>

#include "core/item.h"

namespace cdbp {

class ItemSource {
 public:
  virtual ~ItemSource() = default;

  /// Writes the next item into `out` and returns true, or returns false at
  /// end of stream. Implementations must yield non-decreasing arrivals and
  /// ids 0, 1, 2, ... (Simulator::run_source throws std::logic_error on a
  /// gap).
  virtual bool next(Item& out) = 0;

  /// Total items the source will yield, when known (0 = unknown). Used only
  /// for progress/trace annotations, never for control flow.
  [[nodiscard]] virtual std::size_t size_hint() const { return 0; }
};

}  // namespace cdbp
