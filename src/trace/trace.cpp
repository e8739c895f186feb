#include "trace/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace cdbp::trace {

namespace {

constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  return out;
}

}  // namespace

std::optional<double> parse_number(std::string_view field) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!field.empty() && blank(field.front())) field.remove_prefix(1);
  while (!field.empty() && blank(field.back())) field.remove_suffix(1);
  // from_chars takes no '+' sign; strtod did, so one is skipped here.
  if (field.size() > 1 && field[0] == '+' && field[1] != '-')
    field.remove_prefix(1);
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), v);
  if (ec != std::errc{} || end != field.data() + field.size())
    return std::nullopt;
  return v;
}

bool CsvReader::next() {
  while (true) {
    std::size_t end = block_.find('\n', pos_);
    if (end == std::string::npos) {
      // Keep the partial row, append the next block after it.
      block_.erase(0, pos_);
      pos_ = 0;
      const std::size_t kept = block_.size();
      block_.resize(kept + kBlockBytes);
      in_.read(block_.data() + kept,
               static_cast<std::streamsize>(kBlockBytes));
      block_.resize(kept + static_cast<std::size_t>(in_.gcount()));
      if (in_.bad()) throw std::runtime_error(what_ + ": read failed");
      if (block_.size() > kept) continue;
      if (kept == 0) return false;
      end = kept;  // last row, without a newline
    }
    row_ = std::string_view(block_).substr(pos_, end - pos_);
    pos_ = std::min(end + 1, block_.size());
    ++line_no_;
    if (!row_.empty() && row_.back() == '\r') row_.remove_suffix(1);
    if (!row_.empty() && row_.front() != '#') break;
  }
  fields_.clear();
  std::string_view rest = row_;
  for (std::size_t comma; (comma = rest.find(',')) != std::string_view::npos;
       rest.remove_prefix(comma + 1))
    fields_.push_back(rest.substr(0, comma));
  fields_.push_back(rest);
  return true;
}

double CsvReader::number(std::size_t i) const {
  const std::optional<double> v = parse_number(fields_[i]);
  if (!v) fail("field " + std::to_string(i + 1) + " is not a number");
  return *v;
}

void CsvReader::fail(std::string_view why) const {
  throw std::runtime_error(what_ + ": " + std::string(why) + " on line " +
                           std::to_string(line_no_));
}

CsvWriter& CsvWriter::operator<<(std::string_view text) {
  block_.append(text);
  if (block_.size() >= kBlockBytes) (void)flush();
  return *this;
}

CsvWriter& CsvWriter::operator<<(double v) {
  char digits[32];
  const char* end = std::to_chars(digits, std::end(digits), v,
                                  std::chars_format::general, 17).ptr;
  return *this << std::string_view(digits, end);
}

bool CsvWriter::flush() {
  out_.write(block_.data(), static_cast<std::streamsize>(block_.size()));
  block_.clear();
  return static_cast<bool>(out_);
}

void write_instance_csv(const Instance& instance, std::ostream& out) {
  CsvWriter csv(out);
  csv << "arrival,departure,size\n";
  for (const Item& r : instance.items())
    csv << r.arrival << ',' << r.departure << ',' << r.size << '\n';
  if (!csv.flush()) throw std::runtime_error("trace: write failed");
}

void write_instance_csv(const Instance& instance, const std::string& path) {
  std::ofstream out = open_out(path);
  write_instance_csv(instance, out);
}

Instance read_instance_csv(std::istream& in) {
  CsvReader csv(in, "trace");
  if (!csv.next()) throw std::runtime_error("trace: empty instance file");
  if (!csv.row().starts_with("arrival")) csv.fail("missing header line");
  Instance out;
  while (csv.next()) {
    if (csv.fields().size() != 3)
      csv.fail("expected 3 fields (arrival,departure,size)");
    out.add(csv.number(0), csv.number(1), csv.number(2));
  }
  out.finalize();
  return out;
}

Instance read_instance_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return read_instance_csv(in);
}

void write_timeline_csv(const RunResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv << "time,open_bins\n";
  // A finished run has no open bin, so no record is cut off at `now`.
  for (const auto& s : open_bins_profile(result.bins, kInfTime).samples())
    csv << s.time << ',' << s.value << '\n';
  if (!csv.flush()) throw std::runtime_error("trace: write failed");
}

void write_timeline_csv(const RunResult& result, const std::string& path) {
  std::ofstream out = open_out(path);
  write_timeline_csv(result, out);
}

}  // namespace cdbp::trace
