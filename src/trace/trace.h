// Instance and run-timeline persistence as CSV, so examples and benches can
// save workloads and reload them (and external tools can plot them), and
// the CSV codec that serve/request_stream shares for stream files.
//
// Instance format:  arrival,departure,size      (header line included)
// Timeline format:  time,open_bins
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/simulator.h"

namespace cdbp::trace {

/// Writes the instance as CSV. Throws std::runtime_error on I/O failure.
void write_instance_csv(const Instance& instance, const std::string& path);
void write_instance_csv(const Instance& instance, std::ostream& out);

/// Reads an instance from CSV (same format). Throws std::runtime_error on
/// I/O or parse failure. Parsing is strict: every field must be exactly one
/// number (see parse_number; "1.5abc" is rejected) and rows must have
/// exactly three fields. The header must be the first row.
[[nodiscard]] Instance read_instance_csv(const std::string& path);
[[nodiscard]] Instance read_instance_csv(std::istream& in);

/// Writes a run's open-bin step function as CSV samples. The RunResult must
/// come from a keep_history simulation (otherwise the timeline is empty).
void write_timeline_csv(const RunResult& result, const std::string& path);
void write_timeline_csv(const RunResult& result, std::ostream& out);

/// One CSV field as a double: the whole field, less surrounding spaces and
/// tabs, must be one number as std::from_chars reads it, optionally after
/// a '+'; nullopt otherwise (empty, trailing text, hex, out of range).
[[nodiscard]] std::optional<double> parse_number(std::string_view field);

/// Reads CSV rows through a ~1 MiB block, splitting each row in place.
/// Skips blank lines and lines starting with '#'; strips a trailing '\r'.
/// Fields are split on every ',' (no quoting). `what` names the file kind
/// in error messages.
class CsvReader {
 public:
  CsvReader(std::istream& in, std::string what)
      : in_(in), what_(std::move(what)) {}
  /// Advances to the next row; false at the end of the input.
  bool next();
  /// The current row, and its fields: views valid until next().
  [[nodiscard]] std::string_view row() const noexcept { return row_; }
  [[nodiscard]] const std::vector<std::string_view>& fields() const noexcept {
    return fields_;
  }
  /// Field `i` of the current row through parse_number; throws otherwise.
  [[nodiscard]] double number(std::size_t i) const;
  /// Throws std::runtime_error "<what>: <why> on line <n>".
  [[noreturn]] void fail(std::string_view why) const;

 private:
  std::istream& in_;
  std::string what_;
  std::string block_;
  std::size_t pos_ = 0;  // first unread byte of block_
  std::size_t line_no_ = 0;
  std::string_view row_;
  std::vector<std::string_view> fields_;
};

/// Formats CSV into a ~1 MiB block and writes each full block to the
/// stream. Doubles print as printf's "%.17g" prints them, which
/// parse_number reads back bit for bit.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}
  CsvWriter& operator<<(std::string_view text);
  CsvWriter& operator<<(char c) { return *this << std::string_view(&c, 1); }
  CsvWriter& operator<<(double v);
  /// Writes what the block holds; false if the stream has failed.
  [[nodiscard]] bool flush();

 private:
  std::ostream& out_;
  std::string block_;
};

}  // namespace cdbp::trace
