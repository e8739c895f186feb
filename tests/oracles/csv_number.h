// The number parsers the two CSV readers used before they shared
// trace::parse_number, kept verbatim (bar returning nullopt instead of
// throwing) as oracles for its differential test.
#pragma once

#include <optional>
#include <string>

namespace cdbp::oracles {

/// The stream reader's: std::strtod must consume the whole field. strtod
/// skips leading whitespace itself; a trailing blank is rejected.
[[nodiscard]] std::optional<double> stream_csv_strtod(const std::string& field);

/// The instance reader's: spaces and tabs trimmed from both ends, then
/// std::stod must consume the rest. stod throws on ERANGE, so overflow,
/// underflow and subnormal results are rejected.
[[nodiscard]] std::optional<double> instance_csv_stod(const std::string& field);

}  // namespace cdbp::oracles
