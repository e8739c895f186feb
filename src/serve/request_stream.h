// Request-stream persistence for the serving front end: CSV with a tenant
// column in front of the instance format, plus a deterministic synthetic
// stream generator for benches and the crash-recovery CI job.
//
// Stream format:  tenant,arrival,departure,size   (header line included)
//
// The codec is trace/'s, shared with instance files. Rows must be sorted
// by arrival (the service validates per-shard arrival monotonicity anyway;
// the reader enforces global order so a shuffled file fails loudly at the
// row that breaks it, not as per-request rejects). stream_index is
// assigned 1-based in row order — the resume path's de-duplication key.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "serve/shard_router.h"
#include "trace/trace.h"

namespace cdbp::serve {

/// Reads a stream CSV one row at a time, so a feed can serve each request
/// as soon as it is parsed (`cdbp serve --in`). The header row is optional.
class StreamCsvReader {
 public:
  /// Opens `path`; throws std::runtime_error if it cannot.
  explicit StreamCsvReader(const std::string& path);
  /// Reads `in`, which must outlive the reader.
  explicit StreamCsvReader(std::istream& in);

  /// Parses the next row into `req` (admit_ns 0). Returns false at the end
  /// of the input. Throws std::runtime_error on I/O or parse failure (wrong
  /// field count, empty tenant, non-numeric fields, arrivals out of
  /// order), naming the line; the rows before it were already returned.
  bool next(ServeRequest& req);

 private:
  std::ifstream file_;  ///< the path constructor's input
  trace::CsvReader csv_;
  bool started_ = false;  ///< a row has been read (the header may lead)
  std::uint64_t rows_ = 0;
  Time last_arrival_ = 0.0;
};

/// Reads a whole stream CSV through StreamCsvReader (same checks and
/// errors).
[[nodiscard]] std::vector<ServeRequest> read_stream_csv(
    const std::string& path);
[[nodiscard]] std::vector<ServeRequest> read_stream_csv(std::istream& in);

/// Writes a stream CSV (doubles at full round-trip precision).
void write_stream_csv(const std::vector<ServeRequest>& stream,
                      const std::string& path);
void write_stream_csv(const std::vector<ServeRequest>& stream,
                      std::ostream& out);

struct StreamGenConfig {
  int target_items = 400;
  std::size_t tenants = 8;
  std::uint64_t seed = 1;
  int log2_mu = 6;
  double horizon = 128.0;
};

/// Deterministic synthetic stream: a general log-uniform workload (see
/// workloads/general_random.h) in arrival order, tenants assigned
/// round-robin ("t0", "t1", ...).
[[nodiscard]] std::vector<ServeRequest> generate_stream(
    const StreamGenConfig& config);

}  // namespace cdbp::serve
