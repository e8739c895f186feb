// The cdbp command-line interface, as a testable library. The `cdbp` tool
// (tools/cdbp_main.cpp) is a thin wrapper around run_cli().
//
// Commands:
//   cdbp generate --kind binary|aligned|general|cloud [--n N] [--seed S]
//                 [--items K] [--shape log-uniform|exponential|
//                  geometric-bursts|two-phase] --out FILE
//   cdbp run      --algo ALGO --in FILE [--gantt] [--timeline FILE]
//                 [--trace-out FILE [--trace-format chrome|jsonl]]
//                 [--metrics-out FILE]
//   cdbp bounds   --in FILE
//   cdbp compare  --in FILE            (all applicable algorithms)
//   cdbp adversary --algo ALGO --n N [--rounds R]
//
//   ALGO in {ff, bf, nf, wf, cbd, cbd-ren, ha, cdff, dfit, dfit-ne, harmonic}
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/algorithm.h"

namespace cdbp::cli {

/// Entry point. Returns a process exit code (0 = success). Output goes to
/// `out`, diagnostics to `err`.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// Instantiates an algorithm by CLI name; throws std::invalid_argument on
/// unknown names. `mu_hint` parameterizes cbd-ren.
[[nodiscard]] AlgorithmPtr make_algorithm(const std::string& name,
                                          double mu_hint = 2.0);

/// Names accepted by make_algorithm, for help text and the compare
/// command.
[[nodiscard]] std::vector<std::string> algorithm_names();

}  // namespace cdbp::cli
