#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace cdbp::bench_suite {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanLog::record(Span span) {
  if (!enabled_) return;
  if (span.id == 0) span.id = reserve_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void SpanLog::add(std::string name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::uint64_t parent, std::uint64_t req,
                  std::uint32_t tid) {
  record(Span{std::move(name), start_ns, end_ns, 0, parent, req, tid});
}

void SpanLog::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  std::uint64_t epoch = 0;
  if (!spans_.empty())
    epoch = std::min_element(spans_.begin(), spans_.end(),
                             [](const Span& a, const Span& b) {
                               return a.start_ns < b.start_ns;
                             })
                ->start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[128];
  bool first = true;
  for (const Span& s : spans_) {
    // Span names are compile-time literals from this bench: no escaping.
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << "," << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

}  // namespace cdbp::bench_suite
