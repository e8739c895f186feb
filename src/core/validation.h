// Independent post-run validation: re-derives every invariant of a completed
// run from first principles (item intervals + placements only), without
// trusting the Ledger's incremental bookkeeping. Used by tests and by the
// benches' self-check mode.
#pragma once

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/simulator.h"

namespace cdbp {

/// One validation failure, human readable.
struct ValidationIssue {
  std::string message;
};

/// The full report; `ok()` iff no issues.
struct ValidationReport {
  std::vector<ValidationIssue> issues;
  [[nodiscard]] bool ok() const noexcept { return issues.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Checks, from scratch (a bin's items are the placements naming it):
///  1. there is one placement per item of `instance` (entry i is item
///     i's bin), and every placement names a bin of `result.bins`;
///  2. no bin's load ever exceeds capacity (profile rebuilt from items);
///  3. each recorded bin span equals the span of the union of its items'
///     intervals (bins close when empty, never reused);
///  4. result.cost equals the sum of recorded bin spans;
///  5. no item was placed in a bin that opened after its arrival or closed
///     before its departure.
[[nodiscard]] ValidationReport validate_run(const Instance& instance,
                                            const RunResult& result);

}  // namespace cdbp
